"""Benchmark of the etdkf simulator: one workload per call.

    python3 perfbench/run.py --workload fig6-shadow --seed 1 --seconds 28 --trace 0

Runs repetitions of the workload for `--seconds` (at least three), checks
every repetition's outputs, and prints one metric per line followed, as the
last line, by a JSON object {correct, attempted, failed, metrics}. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
repetitions run under the span tracer and the metrics are per layer.
Run it from the checkout root; it measures the sources in `src/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 60

END_TO_END = {"run_s": "s", "node_step_us": "us", "metrics_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
# `run_s`, `node_step_us` and `metrics_s` are reported as the run's fastest
# time (`fastest`) scaled to a reference host speed; every other metric as its
# median. The shared host switches, for a fraction of a second to minutes at a
# time, between a fast state and one 40-130% slower: pieces of a few
# milliseconds catch the fast state even in a run that sees it only in short
# bursts, and the fastest calibration loop of the same run measures how slow
# the host was when it never reached that state (README, measurement notes).
CALIBRATION_ITERS = 30_000
CALIBRATION_PER_REP = 3
# About the fastest time of the calibration loop on the 2-CPU host the
# benchmark was written on: scaled times read as seconds on that host.
CALIBRATION_REF_S = 0.002

# Per-layer metrics: <layer>.<stat> for a traced layer, or a named ratio/count.
LAYER_STATS = [
    "detection.estimate_kl.calls", "detection.estimate_kl.self_s",
    "detection.estimate_kl.us_per_call", "detection.window_push.self_s",
    "detection.window_samples.self_s", "detection.tracker_update.self_s",
    "detection.reference_window.self_s",
    "filtering.kalman_gain.self_s", "filtering.measurement_update.self_s",
    "filtering.posterior_covariance.self_s", "filtering.time_update.self_s",
    "filtering.should_transmit.self_s", "filtering.consensus_gain.calls",
    "filtering.consensus_gain.self_s",
    "simulate.engine_main.self_s", "simulate.engine_twin.self_s",
    "simulate.export_csv.self_s", "simulate.load_trace_csv.self_s",
    "simulate.compute_metrics.self_s",
    "resilience.beliefs_step.self_s", "resilience.weighted_neighbor_estimate.self_s",
    "resilience.resilient_update.self_s", "resilience.bound_step.self_s",
    "resilience.trust_masked_laplacian.self_s",
    "models.noise_draw.self_s", "models.measure.self_s",
    "attacks.craft.self_s", "attacks.recursion_step.calls",
    "attacks.recursion_step.self_s",
    "scenario.from_yaml.self_s", "scenario.validate.self_s",
]
STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}
DERIVED = {"detection.kl_calls_per_node_step": "ratio",
           "detection.attacked_flag_rate": "ratio",
           "filtering.trigger_rate": "ratio",
           "resilience.bound_violations": "count",
           "attacks.sampler_fallback_ratio": "ratio",
           "simulate.csv_bytes": "bytes",
           "trace.run_s": "s",
           "trace.spans_per_rep": "count"}
PER_LAYER = {**{name: STAT_UNITS[name.rsplit(".", 1)[1]] for name in LAYER_STATS},
             **DERIVED}


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def strict(obj):
    """NaN, inf and None become null, so the output parses as strict JSON."""
    if isinstance(obj, dict):
        return {str(k): strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def calibration_loop():
    """Seconds taken by a fixed pure-Python loop that calls no etdkf code."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERS):
        total += i * i
    return time.perf_counter() - start


def measure(workload, seconds, out_dir, tracer=None, setup=None):
    """Repetitions for `seconds` (at least MIN_REPS), each after
    CALIBRATION_PER_REP calibration loops, and the results of SETUP_PROBES
    calls of `setup`, spread evenly over the same window so that set-up probes
    and repetitions see the host in the same states."""
    reps, calibration, probes = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (setup is not None and len(probes) < SETUP_PROBES
                and len(probes) * seconds <= SETUP_PROBES * elapsed):
            probes.append(setup())
        elif len(reps) < MIN_REPS or elapsed < seconds:
            gc.collect()
            calibration += [calibration_loop() for _ in range(CALIBRATION_PER_REP)]
            reps.append(workload.repetition(out_dir, tracer))
        else:
            break
    while setup is not None and len(probes) < SETUP_PROBES:
        probes.append(setup())
    return reps, calibration, probes


def run_child(cmd):
    """Run a child interpreter on the checkout's sources and wait for it;
    a child that outlives CHILD_TIMEOUT_S is killed and reads as exit -9."""
    try:
        return subprocess.run(cmd, env=env.child_env(), cwd=env.ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(cmd, -9, exc.stdout or "", "timed out")


def setup_probe(workload, work):
    """A callable that times `etdkf validate --scenario` in a fresh
    interpreter and returns (seconds, problem or None)."""
    path = work / "scenario.yaml"
    path.write_text(workload.yaml_text)
    cmd = [sys.executable, "-m", "etdkf.cli", "validate", "--scenario", str(path)]

    def probe():
        start = time.perf_counter()
        done = run_child(cmd)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or "is valid" not in done.stdout:
            return elapsed, f"etdkf validate exited {done.returncode}: {done.stderr.strip()}"
        return elapsed, None

    return probe


def child_repetition(args, work):
    """One repetition in a fresh process: its peak RSS and output digests."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(work / "child")]
    if args.size == "tiny":
        cmd.append("--tiny")
    done = run_child(cmd)
    if done.returncode != 0:
        return None, [f"child repetition exited {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, result["problems"]


def fastest(parts):
    """The run's fastest time: the sum, over the pieces a repetition is cut
    into, of each piece's fastest time across the run's repetitions. `parts`
    holds one sequence of piece times per repetition; the pieces line up
    because the work is fixed by the seed. With one piece per repetition this
    is the fastest repetition."""
    return float(sum(min(times) for times in zip(*parts, strict=True)))


def end_to_end(reps, calibration, setup, child):
    """Samples of every end-to-end metric, and the reported values of those
    reported as the run's fastest time at the reference host speed."""
    ok = [r for r in reps if math.isfinite(r.run_s)]
    node_steps = ok[0].node_steps if ok else 1
    samples = {
        "run_s": [r.run_s for r in ok],
        "node_step_us": [r.engine_s / node_steps * 1e6 for r in ok],
        "metrics_s": [r.metrics_s for r in ok],
        "setup_s": setup,
        "peak_rss_mb": [child["peak_rss_kb"] / 1024.0] if child else [],
    }
    if not ok:
        return samples, {}
    scale = CALIBRATION_REF_S / min(calibration)
    print(f"host speed: fastest calibration loop {min(calibration) * 1e3:.4g} ms, "
          f"reference {CALIBRATION_REF_S * 1e3:g} ms; fastest times scaled by {scale:.4g}")
    return samples, {
        "run_s": fastest([r.run_parts for r in ok]) * scale,
        "node_step_us": fastest([r.engine_parts for r in ok]) / node_steps * 1e6 * scale,
        "metrics_s": fastest([(r.metrics_s,) for r in ok]) * scale,
    }


def per_layer(reps, tracer):
    """Per-layer samples; a repetition whose span tree does not cover its
    timed run gets a problem."""
    from tracing import check_nesting, self_times
    from workloads import ROOTS

    by_rep = []
    for r in reps:
        if not math.isfinite(r.run_s):
            continue
        first, last = r.spans
        layers, trees = self_times(tracer.spans, first, last, ROOTS)
        r.problems += check_nesting(tracer.spans, first, last)
        run_dur, covered = trees["run"]
        if abs(covered - run_dur) > 1e-6 or not 0.0 <= run_dur - r.run_s < 1e-3:
            r.problems.append(f"span tree covers {covered:.6f} s of the traced run's "
                              f"{run_dur:.6f} s (timed {r.run_s:.6f} s)")
        by_rep.append((r, layers, run_dur, sum(calls for calls, _ in layers.values())))

    samples = {}
    for name in LAYER_STATS:
        layer, stat = name.rsplit(".", 1)
        calls = [layers.get(layer, (0, 0.0))[0] for _, layers, _, _ in by_rep]
        own = [layers.get(layer, (0, 0.0))[1] for _, layers, _, _ in by_rep]
        if stat == "calls":
            samples[name] = calls
        elif stat == "self_s":
            samples[name] = own
        else:
            samples[name] = [sum(own) / sum(calls) * 1e6 if sum(calls) else 0.0]
    kl = "detection.estimate_kl"
    samples["detection.kl_calls_per_node_step"] = [
        layers.get(kl, (0, 0.0))[0] / r.node_steps for r, layers, _, _ in by_rep]
    for counter, name in (("attacked_flag_rate", "detection.attacked_flag_rate"),
                          ("trigger_rate", "filtering.trigger_rate"),
                          ("bound_violations", "resilience.bound_violations"),
                          ("csv_bytes", "simulate.csv_bytes")):
        samples[name] = [r.counters[counter] for r, _, _, _ in by_rep]
    calls = tracer.sampler_calls
    samples["attacks.sampler_fallback_ratio"] = [
        tracer.sampler_fallbacks / calls if calls else 0.0]
    samples["trace.run_s"] = [run_dur for _, _, run_dur, _ in by_rep]
    samples["trace.spans_per_rep"] = [count for _, _, _, count in by_rep]
    return samples


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few steps per workload, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env.prepare()
    import workloads

    workload = workloads.make(args.workload, args.seed, tiny=args.size == "tiny")
    env.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = env.OUT / f"{stem}-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    # Every repetition, setup probe and child repetition is one attempt.
    problems, attempted, failed = [], 0, 0
    calibration = []
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            reps, _, _ = measure(workload, args.seconds, work / "run", tracer)
            tracer.uninstall()
            samples, reported = per_layer(reps, tracer), {}
            units = PER_LAYER
            tracer.save(env.OUT / f"{stem}-spans.npz")
        else:
            reps, calibration, probes = measure(workload, args.seconds, work / "run",
                                                setup=setup_probe(workload, work))
            setup = [elapsed for elapsed, _ in probes]
            setup_problems = [problem for _, problem in probes if problem]
            child, child_problems = child_repetition(args, work)
            if child and child["digests"] != workload.reference:
                child_problems.append(f"child repetition digests {child['digests']} "
                                      f"differ from {workload.reference}")
            attempted += len(setup) + 1
            failed += len(setup_problems) + bool(child_problems)
            problems += setup_problems + child_problems
            samples, reported = end_to_end(reps, calibration, setup, child)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted += len(reps)
    failed += sum(1 for r in reps if r.problems)
    for r in reps:
        problems += r.problems
    metrics, report = {}, {}
    for name, unit in units.items():
        values = samples.get(name, [])
        q1, q2, q3 = quartiles(values) if values else (float("nan"),) * 3
        low = min(values) if values else float("nan")
        value = reported.get(name, q2)
        metrics[name] = {"value": value, "unit": unit}
        report[name] = {"value": value, "min": low, "q1": q1, "median": q2, "q3": q3,
                        "n": len(values), "unit": unit, "samples": values}
        print(f"{name:45s} {value:14.6g} {unit:6s} min {low:.6g}  q1 {q1:.6g}  "
              f"median {q2:.6g}  q3 {q3:.6g}  n={len(values)}")
    print(f"failed_frac {failed / max(attempted, 1):.4g} ({failed}/{attempted})")
    print(f"digests {json.dumps(workload.reference)}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    summary = {"workload": args.workload, "seed": args.seed,
               "scenario_seed": workloads.scenario_seed(args.seed, args.workload),
               "size": args.size, "trace": args.trace, "env": env.describe(),
               "digests": workload.reference,
               "fastest_calibration_s": min(calibration) if calibration else None,
               "calibration_ref_s": CALIBRATION_REF_S, "attempted": attempted,
               "failed": failed, "problems": problems, "metrics": report}
    (env.OUT / f"{stem}.json").write_text(
        json.dumps(strict(summary), indent=2, allow_nan=False) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(strict(result), allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
