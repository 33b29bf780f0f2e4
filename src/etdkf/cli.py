"""Command-line interface: run, validate, presets, metrics."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigurationError, NumericalError, ValidationError
from .scenario import ScenarioConfig, get_preset, list_presets
from .simulate import (SimTrace, compute_metrics, load_trace_csv, metrics_json,
                       run_scenario, write_run_dir)


def _load_config(args) -> ScenarioConfig:
    if args.preset:
        cfg = get_preset(args.preset)
    else:
        with open(args.scenario) as fh:
            cfg = ScenarioConfig.from_yaml(fh.read())
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "steps", None) is not None:
        cfg.steps = args.steps
    return cfg


def _add_source_args(p, require=True):
    g = p.add_mutually_exclusive_group(required=require)
    g.add_argument("--scenario", help="path to a scenario YAML file")
    g.add_argument("--preset", help="name of a shipped preset")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etdkf",
        description="Event-triggered distributed Kalman filter simulator with "
                    "attack injection, divergence-based detection, and "
                    "trust-weighted resilient estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write trace CSVs")
    _add_source_args(p_run)
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--steps", type=int, help="override the step count")
    p_run.add_argument("--out", required=True, help="output directory")

    p_val = sub.add_parser("validate", help="validate a scenario without running")
    _add_source_args(p_val)

    sub.add_parser("presets", help="list shipped preset names")

    p_met = sub.add_parser("metrics", help="recompute metrics from a run directory")
    p_met.add_argument("--run-dir", required=True,
                       help="directory produced by `etdkf run`")

    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            for name in list_presets():
                print(name)
            return 0
        if args.command == "validate":
            cfg = _load_config(args)
            warnings = cfg.validate()
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            print(f"scenario {cfg.name!r} is valid ({cfg.steps} steps, "
                  f"{cfg.graph.node_count} nodes)")
            return 0
        if args.command == "run":
            cfg = _load_config(args)
            trace = run_scenario(cfg)
            for w in trace.warnings:
                print(f"warning: {w}", file=sys.stderr)
            paths = write_run_dir(trace, args.out)
            print(f"wrote {paths['nodes']}, {paths['edges']}, "
                  f"{paths['config']}, {paths['metrics']}")
            return 0
        if args.command == "metrics":
            with open(os.path.join(args.run_dir, "config.yaml")) as fh:
                cfg = ScenarioConfig.from_yaml(fh.read())
            node_rows, edge_rows = load_trace_csv(*(os.path.join(args.run_dir, f"{key}.csv")
                                                    for key in ("nodes", "edges")))
            trace = SimTrace(config=cfg, node_rows=node_rows, edge_rows=edge_rows)
            print(metrics_json(compute_metrics(trace)))
            return 0
    except (ConfigurationError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
