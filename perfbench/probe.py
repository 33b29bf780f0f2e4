"""One repetition of a workload in a fresh interpreter, for its peak RSS.

    python3 perfbench/probe.py --workload fig6-shadow --seed 1 --out DIR

Prints one JSON line: peak resident set size (KiB), output digests and the
repetition's check problems.
"""

from __future__ import annotations

import argparse
import json
import resource

import env


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    env.prepare()
    import workloads

    rep = workloads.make(args.workload, args.seed, tiny=args.tiny).repetition(args.out)
    print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "digests": rep.digests, "problems": rep.problems}))


if __name__ == "__main__":
    main()
