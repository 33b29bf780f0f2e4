"""Smoke test of the benchmark: every workload at tiny size, strict JSON
output, and output checks that fire on tampered or changed traces.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.prepare()

import run  # noqa: E402
import workloads  # noqa: E402
from etdkf import simulate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def tiny_args(workload, trace=0):
    return ["--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = bench(*tiny_args(workload, trace))
    assert done.returncode == 0, done.stderr
    result = strict_loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= run.MIN_REPS
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    summary = env.OUT / f"{workload}-seed5-trace{trace}.json"
    strict_loads(summary.read_text())


def test_fastest_sums_each_segment_minimum():
    assert run.fastest([(0.3,), (0.2,), (0.4,)]) == 0.2
    assert run.fastest([(1.0, 5.0), (2.0, 3.0)]) == 4.0


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_pieces_cover_the_run(workload, tmp_path):
    rep = workloads.make(workload, 5, tiny=True).repetition(tmp_path)
    steps = workloads.STEPS[workload][1]
    passes = 2 if workload in ("fig6-shadow", "ring32-resilient") else 1
    assert len(rep.engine_parts) == 1 + steps * passes
    assert sum(rep.engine_parts) == pytest.approx(rep.engine_s, rel=1e-9)
    assert sum(rep.run_parts) == pytest.approx(rep.run_s, rel=1e-9)


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WHY)
    assert [w["why"] for w in BENCH["workloads"]] == list(workloads.WHY.values())


def tamper_after_first(write_run_dir, edit):
    """write_run_dir that lets `edit` rewrite nodes.csv on every call but the first."""
    calls = []

    def tampering(trace, out_dir):
        paths = write_run_dir(trace, out_dir)
        if calls:
            text = Path(paths["nodes"]).read_text()
            Path(paths["nodes"]).write_text(edit(text))
        calls.append(out_dir)
        return paths

    return tampering


def flip_first_trigger(text):
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    zeta = header.split(",").index("zeta")
    cells[zeta] = "0" if cells[zeta] == "1" else "1"
    return "\n".join([header, ",".join(cells), rest])


def test_tampered_csv_is_caught(tmp_path, monkeypatch):
    workload = workloads.make("fig6-shadow", 5, tiny=True)
    monkeypatch.setattr(simulate, "write_run_dir",
                        tamper_after_first(simulate.write_run_dir, flip_first_trigger))
    clean, tampered = workload.repetition(tmp_path), workload.repetition(tmp_path)
    assert clean.problems == []
    assert any("recomputed from the CSVs" in p for p in tampered.problems)
    assert any("digests" in p for p in tampered.problems)


def test_changed_digest_counts_as_failed(monkeypatch):
    # "NaN" parses like "nan": only the bytes change, not the metrics.
    monkeypatch.setattr(simulate, "write_run_dir", tamper_after_first(
        simulate.write_run_dir, lambda t: t.replace(",nan,", ",NaN,", 1)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(tiny_args("synth-sampler")) == 0
    result = strict_loads(out.getvalue().strip().splitlines()[-1])
    # Repetitions 2 and 3 differ from the first; the child process does not.
    assert result["failed"] == run.MIN_REPS - 1
    assert result["correct"] is False


def test_exits_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(*tiny_args("moments"), cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
