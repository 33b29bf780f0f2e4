"""Deterministic scenario engine, trace/metrics containers, and CSV export.

Per-step pipeline (barriers in order): measure -> inject attacks -> trigger ->
exchange -> detect -> update beliefs -> measurement update -> time update ->
plant step. Nodes are always iterated in ascending id so traces are
reproducible bit-for-bit for a given seed and config.

Reference windows for the detectors come from one of three sources: "shadow"
uses the innovations of an attack-free twin run with identical noise streams
(identical windows before any attack, hence the exact identity baseline),
"synthetic" draws fresh Gaussian windows from the live innovation covariance,
and "calibrated" draws from a twin-run sample covariance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .attacks import (CHANNEL_INJECTION, MEASUREMENT_INJECTION, NON_TRIGGERING,
                      REPLAY, corrupt_channel, corrupt_measurement,
                      craft_non_triggering, craft_replay)
from .detection import (KnnWindowBank, detect, neighbor_innovation,
                        nominal_reference_window)
from .errors import ConfigurationError
from .filtering import (NodeEstimator, innovation, innovation_covariance,
                        kalman_gain, measurement_update, posterior_covariance,
                        should_transmit, time_update, update_predictive,
                        consensus_gain)
from .graphs import adjacency_csv, connected_components, laplacian, neighbors
from .models import (STREAM_ATTACK, STREAM_REFERENCE, NoiseSource, measure,
                     step_process)
from .resilience import (BeliefState, BoundMonitor, assumption4_satisfied,
                         trust_masked_laplacian, weighted_neighbor_estimate)

NODE_BASE_COLUMNS = ["step", "node", "zeta", "innov_norm", "err_norm", "trace_p",
                     "phi", "flag", "beta", "chi", "eps_norm", "attack_norm",
                     "bound", "realized_err", "assumption4_ok"]
EDGE_COLUMNS = ["step", "node", "neighbor", "psi", "flag", "sigma", "theta",
                "attack_norm"]


@dataclass
class SimTrace:
    """Append-only per-step records plus the resolved config that produced them."""

    config: object
    node_rows: list = field(default_factory=list)
    edge_rows: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def node_columns(self) -> list:
        n = self.config.process.n
        cols = list(NODE_BASE_COLUMNS)
        for prefix in ("x_true", "xbar", "xhat", "xpred"):
            cols.extend(f"{prefix}_{d}" for d in range(n))
        return cols

    def series(self, column: str, node: int) -> np.ndarray:
        return np.array([row[column] for row in self.node_rows if row["node"] == node])

    def edge_series(self, column: str, node: int, neighbor: int) -> np.ndarray:
        return np.array([r[column] for r in self.edge_rows
                         if r["node"] == node and r["neighbor"] == neighbor])


@dataclass
class MetricsReport:
    trigger_rate: dict
    trigger_rate_pre: dict
    trigger_rate_post: dict
    mean_error_pre: dict
    mean_error_post: dict
    detection_latency: dict
    false_positive_count: int
    effective_component_count: int
    silent_nodes: list
    bound_violations: int
    assumption4_ok: bool

    def to_dict(self) -> dict:
        return {
            "trigger_rate": {str(k): v for k, v in sorted(self.trigger_rate.items())},
            "trigger_rate_pre": {str(k): v for k, v in sorted(self.trigger_rate_pre.items())},
            "trigger_rate_post": {str(k): v for k, v in sorted(self.trigger_rate_post.items())},
            "mean_error_pre": {str(k): v for k, v in sorted(self.mean_error_pre.items())},
            "mean_error_post": {str(k): v for k, v in sorted(self.mean_error_post.items())},
            "detection_latency": {str(k): v for k, v in sorted(self.detection_latency.items())},
            "false_positive_count": self.false_positive_count,
            "effective_component_count": self.effective_component_count,
            "silent_nodes": self.silent_nodes,
            "bound_violations": self.bound_violations,
            "assumption4_ok": self.assumption4_ok,
        }


@dataclass
class _TwinData:
    """What a later pass reads of this one; its statistics are computed on first read."""

    innovations: dict            # node -> list of p-vectors, one per step
    b_samples: list              # ||x(k+1)-x(k)+v(k+1)|| per step and node
    sensors: dict                # node -> SensorModel; R stands in on runs of <= 2 steps

    @cached_property
    def B(self) -> float:        # 99.9th percentile of the b samples
        return float(np.percentile(self.b_samples, 99.9)) if self.b_samples else 0.0

    @cached_property
    def omega_hat(self) -> dict:  # node -> calibrated innovation covariance
        return {i: np.cov(np.array(rec).T) if len(rec) > 2 else self.sensors[i].R.copy()
                for i, rec in self.innovations.items()}


def _needs_twin(config) -> bool:
    if config.detector.reference in ("shadow", "calibrated"):
        if config.detector.reference == "shadow" and not config.attacks \
                and config.filter_mode != "resilient" and not config.bound_monitor_enabled():
            return False  # attack-free non-resilient run is its own shadow
        return True
    return config.bound_monitor_enabled()


def run_scenario(config) -> SimTrace:
    """Validate, run (with its attack-free twin when required), return the trace."""
    warnings = config.validate()
    twin = None
    if _needs_twin(config):
        twin_cfg = replace(config, attacks=[], filter_mode="nominal",
                           beliefs_pinned=False, bound_monitor=False)
        _, twin = _engine(twin_cfg, twin=None, lite=True)
    trace, _ = _engine(config, twin=twin, lite=False)
    trace.warnings = warnings + trace.warnings
    return trace


def _engine(cfg, twin, lite: bool):
    """One pass over the scenario; returns (trace, twin data). Every pass
    records what a later pass needs of its twin; `lite` (the attack-free twin)
    skips detection, beliefs and trace rows, so its trace stays empty."""
    noise = NoiseSource(cfg.seed)
    proc = cfg.process
    A, Q = proc.A, proc.Q
    n = proc.n
    nodes = sorted(cfg.graph.nodes)
    nbrs = {i: sorted(neighbors(cfg.graph, i)) for i in nodes}
    sensors = {i: cfg.sensors[i - 1] for i in nodes}
    alpha = cfg.trigger.alpha
    track_beliefs = cfg.filter_mode in ("monitored", "resilient") and not cfg.beliefs_pinned
    beliefs_in_update = cfg.filter_mode == "resilient"
    det = cfg.detector

    ests = {i: NodeEstimator.initial(proc.x0_mean, proc.P0, cfg.consensus.gamma)
            for i in nodes}
    stored = {i: {j: proc.x0_mean.copy() for j in nbrs[i]} for i in nodes}
    last_tx_prior = {i: proc.x0_mean.copy() for i in nodes}
    x = noise.draw_initial_state(proc)

    node_plans = {i: [] for i in nodes}
    edge_plans = {}
    for idx, plan in enumerate(cfg.attacks):
        if plan.kind == CHANNEL_INJECTION:
            edge_plans.setdefault(tuple(plan.edge), []).append((idx, plan))
        else:
            node_plans[plan.node].append((idx, plan))

    # Detector windows: (i, i) holds node i's innovations, (i, j) its residuals
    # against neighbor j's estimate (equal channel counts only); both compare
    # with node i's reference. One bank per sensor dimension holds them as rows.
    win_keys = [(i, j) for i in nodes for j in [i] + nbrs[i]
                if sensors[j].p == sensors[i].p]
    edge_keys = [key for key in win_keys if key[0] != key[1]]
    bank_keys = {}
    for key in win_keys:
        bank_keys.setdefault(sensors[key[0]].p, []).append(key)
    shadow = det.reference == "shadow"
    banks = {dim: KnnWindowBank(len(keys), dim, det.window, det.k_nn, det.epsilon_d,
                                sliding_reference=shadow, average=det.average)
             for dim, keys in bank_keys.items()}
    beliefs = BeliefState(nodes, edge_keys, cfg.resilient)
    unit_weights = {i: [1.0] * len(nbrs[i]) for i in nodes}

    a4_ok = 1 if all(assumption4_satisfied(cfg.graph, cfg.compromised_nodes()).values()) else 0

    monitor = None
    if cfg.bound_monitor_enabled():
        if twin is None:
            raise ConfigurationError("bound monitor needs the nominal twin pass")
        monitor = BoundMonitor(
            A=A,
            C_norms=[float(np.linalg.norm(sensors[i].C, 2)) for i in nodes],
            alpha=alpha, B=twin.B, tau=cfg.resilient.tau)

    trace = SimTrace(config=cfg)
    innovations_rec = {i: [] for i in nodes}
    b_samples = []
    prev_x = None
    sampler_calls = sampler_fallbacks = 0

    for k in range(cfg.steps):
        t = k * cfg.dt
        v = {i: noise.draw_measurement_noise(sensors[i], i) for i in nodes}
        if prev_x is not None:
            b_samples.extend(float(np.linalg.norm(x - prev_x + v[i])) for i in nodes)

        y_clean = {i: measure(sensors[i], x, v[i]) for i in nodes}
        y = dict(y_clean)
        for i in nodes:
            for idx, plan in node_plans[i]:
                if not plan.active(k):
                    continue
                if plan.kind == MEASUREMENT_INJECTION:
                    f = plan.signal.evaluate(t, sensors[i].p)
                    y[i] = corrupt_measurement(y[i], f)
                elif plan.kind == NON_TRIGGERING:
                    rng = noise.stream(STREAM_ATTACK, idx)
                    y[i], fell_back = craft_non_triggering(
                        y[i], sensors[i].C, ests[i].x_pred, plan.phi, rng,
                        sampler=plan.sampler)
                    if plan.sampler:
                        sampler_calls += 1
                        sampler_fallbacks += fell_back
                elif plan.kind == REPLAY:
                    y[i] = craft_replay(last_tx_prior[i], sensors[i].C,
                                        plan.upsilon_vector(sensors[i].p))
        attack_norm = {i: float(np.linalg.norm(y[i] - y_clean[i])) for i in nodes}

        # Trigger barrier (everyone transmits at k = 0).
        zeta = {}
        for i in nodes:
            zeta[i] = 1 if k == 0 else int(should_transmit(y[i], sensors[i].C,
                                                           ests[i].x_pred, alpha))
            ests[i].zeta = zeta[i]
            ests[i].x_pred = update_predictive(zeta[i], ests[i].x_prior,
                                               ests[i].x_pred, A)

        # Exchange barrier.
        edge_attack_norm = {}
        for i in nodes:
            for j in nbrs[i]:
                if zeta[j]:
                    sent = ests[j].x_prior
                    inj = 0.0
                    for idx, plan in edge_plans.get((j, i), []):
                        if plan.active(k):
                            fbar = plan.signal.evaluate(t, n)
                            sent = corrupt_channel(sent, fbar)
                            inj = float(np.linalg.norm(fbar))
                    stored[i][j] = np.array(sent, dtype=float)
                    edge_attack_norm[(i, j)] = inj
                else:
                    stored[i][j] = A @ stored[i][j]
                    edge_attack_norm[(i, j)] = 0.0
        for i in nodes:
            if zeta[i]:
                last_tx_prior[i] = ests[i].x_prior.copy()

        # Innovations and windows.
        r = {i: innovation(y[i], sensors[i].C, ests[i].x_prior) for i in nodes}
        for i in nodes:
            innovations_rec[i].append(r[i].copy())

        d_hat, phi = {}, {}   # per window key, once its bank is full
        if not lite:
            # The shadow reference slides with the windows (the twin's
            # innovations, or the node's own without a twin); the other modes
            # draw a fresh window for every node at every step.
            if shadow:
                source = twin.innovations if twin is not None else innovations_rec
            else:
                fresh = {i: _reference_window(det, twin, i, ests[i], sensors[i], noise)
                         for i in nodes}
            for dim, keys in bank_keys.items():
                bank = banks[dim]
                bank.push([r[i] if i == j else
                           neighbor_innovation(y[i], sensors[j].C, stored[i][j])
                           for i, j in keys],
                          [source[i][k] for i, _ in keys] if shadow else None)
                if not bank.full:
                    continue
                est = bank.estimates(None if shadow else
                                     np.stack([fresh[i] for i, _ in keys]))
                d_hat.update(zip(keys, est.tolist()))
                phi.update(zip(keys, bank.average(est).tolist()))

            if track_beliefs:
                beliefs.step({i: d_hat.get((i, i), math.nan) for i in nodes},
                             {e: d_hat[e] for e in edge_keys if e in d_hat})

        # Belief weights w_ij = sigma_ij * beta_j, computed once per step. An
        # edge between sensors of unequal channel counts has no window, so its
        # trust stays 1.
        if track_beliefs:
            beta = {i: beliefs.beta_value(i) for i in nodes}
            sigma = {e: beliefs.sigma_value(e) for e in edge_keys}
        else:
            beta, sigma = dict.fromkeys(nodes, 1.0), {}
        weights = {i: [sigma.get((i, j), 1.0) * beta[j] for j in nbrs[i]] for i in nodes}

        # Gains (and matrix-mode coupling) barrier.
        for i in nodes:
            ests[i].K = kalman_gain(ests[i].P_prior, sensors[i].C, sensors[i].R)
        if cfg.consensus.mode == "matrix":
            gammas = consensus_gain([ests[i].K for i in nodes],
                                    [sensors[i].C for i in nodes], A,
                                    [ests[i].P_prior for i in nodes],
                                    laplacian(cfg.graph),
                                    fallback=cfg.consensus.gamma)
            for i, g in zip(nodes, gammas):
                ests[i].gamma = g

        # Bound monitor: record the bound holding for this step, then advance.
        bound_now = realized = math.nan
        if monitor is not None:
            realized = math.sqrt(sum(float(np.dot(x - ests[i].x_prior,
                                                  x - ests[i].x_prior))
                                     for i in nodes))
            if k == 0:
                monitor.start(realized)
            bound_now = monitor.bound
            Ms = [np.eye(n) - ests[i].K @ sensors[i].C for i in nodes]
            L_mask = trust_masked_laplacian(cfg.graph, sigma, beta)
            gmax = max(float(np.linalg.norm(np.atleast_2d(ests[i].gamma), 2))
                       if np.ndim(ests[i].gamma) == 2 else abs(ests[i].gamma)
                       for i in nodes)
            monitor.step(Ms, L_mask, gmax, [beta[i] for i in nodes])

        # Measurement update barrier: one law; beliefs enter it only in
        # resilient mode, elsewhere every weight is one.
        eps_norm = {}
        for i in nodes:
            preds = [stored[i][j] for j in nbrs[i]]
            m_i = weighted_neighbor_estimate(ests[i].x_prior, preds, weights[i])
            eps_norm[i] = float(np.linalg.norm(m_i - x))
            measurement_update(ests[i], y[i], sensors[i].C, m_i,
                               beta[i] if beliefs_in_update else 1.0, preds,
                               weights[i] if beliefs_in_update else unit_weights[i],
                               ests[i].x_pred)
            ests[i].P_post = posterior_covariance(ests[i].P_prior, ests[i].K,
                                                  sensors[i].C, sensors[i].R)

        if not lite:
            for i in nodes:
                row = {
                    "step": k, "node": i, "zeta": zeta[i],
                    "innov_norm": float(np.linalg.norm(r[i])),
                    "err_norm": float(np.linalg.norm(ests[i].x_post - x)),
                    "trace_p": float(np.trace(ests[i].P_post)),
                    "phi": phi.get((i, i), math.nan),
                    "flag": detect(phi.get((i, i), math.nan), det.delta),
                    "beta": beta[i], "chi": beliefs.chi[i],
                    "eps_norm": eps_norm[i],
                    "attack_norm": attack_norm[i],
                    "bound": bound_now, "realized_err": realized,
                    "assumption4_ok": a4_ok,
                }
                for d in range(n):
                    row[f"x_true_{d}"] = float(x[d])
                    row[f"xbar_{d}"] = float(ests[i].x_prior[d])
                    row[f"xhat_{d}"] = float(ests[i].x_post[d])
                    row[f"xpred_{d}"] = float(ests[i].x_pred[d])
                trace.node_rows.append(row)
                for j in nbrs[i]:
                    key = (i, j)
                    trace.edge_rows.append({
                        "step": k, "node": i, "neighbor": j,
                        "psi": phi.get(key, math.nan),
                        "flag": detect(phi.get(key, math.nan), det.delta),
                        "sigma": sigma.get(key, 1.0),
                        "theta": beliefs.theta.get(key, 1.0),
                        "attack_norm": edge_attack_norm.get(key, 0.0),
                    })

        # Time update and plant step.
        for i in nodes:
            time_update(ests[i], A, Q)
        prev_x = x
        w_k = noise.draw_process_noise(proc)
        x = step_process(proc, x, w_k)

    if sampler_fallbacks:
        trace.warnings.append(f"non-triggering sampler fell back on {sampler_fallbacks} "
                              f"of {sampler_calls} steps")
    return trace, _TwinData(innovations=innovations_rec, b_samples=b_samples, sensors=sensors)


def _reference_window(det, twin, i, est, sensor, noise):
    """Fresh Z window for node i: synthetic draws from the live innovation
    covariance, calibrated from the twin run's sample covariance."""
    if det.reference == "synthetic":
        omega = innovation_covariance(est.P_prior, sensor.C, sensor.R)
    else:
        omega = twin.omega_hat[i]
    return nominal_reference_window(omega, det.window, noise.stream(STREAM_REFERENCE, i))


# -- metrics -------------------------------------------------------------------


def compute_metrics(trace: SimTrace, config=None) -> MetricsReport:
    """Pure aggregation over a trace; recomputable from the exported CSVs."""
    cfg = config or trace.config
    nodes = sorted(cfg.graph.nodes)
    onsets = {p.node: p.onset for p in cfg.attacks if p.node is not None}
    k_a = min((p.onset for p in cfg.attacks), default=None)

    rate, rate_pre, rate_post = {}, {}, {}
    err_pre, err_post = {}, {}
    latency = {}
    fp = 0
    for i in nodes:
        z = trace.series("zeta", i)
        e = trace.series("err_norm", i)
        steps = np.arange(len(z))
        rate[i] = float(np.mean(z)) if len(z) else float("nan")
        if k_a is None:
            rate_pre[i], rate_post[i] = rate[i], float("nan")
            err_pre[i] = float(np.mean(e)) if len(e) else float("nan")
            err_post[i] = float("nan")
        else:
            pre = steps < k_a
            post = steps >= k_a
            rate_pre[i] = float(np.mean(z[pre])) if pre.any() else float("nan")
            rate_post[i] = float(np.mean(z[post])) if post.any() else float("nan")
            err_pre[i] = float(np.mean(e[pre])) if pre.any() else float("nan")
            err_post[i] = float(np.mean(e[post])) if post.any() else float("nan")
        flags = trace.series("flag", i)
        if i in onsets:
            hits = [k for k, f in enumerate(flags) if f == "H1" and k > onsets[i]]
            latency[i] = (hits[0] - onsets[i]) if hits else None
        cutoff = k_a if k_a is not None else len(flags)
        fp += sum(1 for k, f in enumerate(flags) if f == "H1" and k < cutoff)

    silent = []
    if k_a is not None:
        for i in nodes:
            z = trace.series("zeta", i)
            post = z[np.arange(len(z)) >= k_a]
            if len(post) and not post.any():
                silent.append(i)
    comps = connected_components(cfg.graph, removed=set(silent))
    bound_viol = 0
    for i in nodes:
        b = trace.series("bound", i)
        re = trace.series("realized_err", i)
        mask = ~(np.isnan(b) | np.isnan(re))
        bound_viol = max(bound_viol, int(np.sum(re[mask] > b[mask])))

    a4 = bool(trace.node_rows[0]["assumption4_ok"]) if trace.node_rows else True
    return MetricsReport(
        trigger_rate=rate, trigger_rate_pre=rate_pre, trigger_rate_post=rate_post,
        mean_error_pre=err_pre, mean_error_post=err_post,
        detection_latency=latency, false_positive_count=fp,
        effective_component_count=len(comps), silent_nodes=silent,
        bound_violations=bound_viol, assumption4_ok=a4,
    )


def metrics_json(report: MetricsReport) -> str:
    """The report as strict JSON; NaN (and any other non-finite float) is null."""

    def strict(value):
        if isinstance(value, dict):
            return {k: strict(v) for k, v in value.items()}
        if isinstance(value, list):
            return [strict(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    return json.dumps(strict(report.to_dict()), indent=2, sort_keys=True, allow_nan=False)


# -- CSV / run-directory IO ------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def export_csv(trace: SimTrace, out_dir: str) -> dict:
    """Write nodes.csv and edges.csv; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    node_cols = trace.node_columns()
    npath = os.path.join(out_dir, "nodes.csv")
    with open(npath, "w") as fh:
        fh.write(",".join(node_cols) + "\n")
        for row in trace.node_rows:
            fh.write(",".join(_fmt(row[c]) for c in node_cols) + "\n")
    paths["nodes"] = npath
    epath = os.path.join(out_dir, "edges.csv")
    with open(epath, "w") as fh:
        fh.write(",".join(EDGE_COLUMNS) + "\n")
        for row in trace.edge_rows:
            fh.write(",".join(_fmt(row[c]) for c in EDGE_COLUMNS) + "\n")
    paths["edges"] = epath
    return paths


def load_trace_csv(nodes_path: str, edges_path: str | None = None):
    """Parse exported CSVs back into row dicts (floats where they were floats)."""

    def parse(path):
        rows = []
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                vals = line.rstrip("\n").split(",")
                row = {}
                for key, raw in zip(header, vals):
                    if key in ("step", "node", "neighbor", "zeta", "assumption4_ok"):
                        row[key] = int(raw)
                    elif key == "flag":
                        row[key] = raw
                    else:
                        row[key] = float(raw)
                rows.append(row)
        return rows

    node_rows = parse(nodes_path)
    edge_rows = parse(edges_path) if edges_path else []
    return node_rows, edge_rows


def write_run_dir(trace: SimTrace, out_dir: str) -> dict:
    """Full run artifact: trace CSVs, adjacency, resolved config, metrics."""
    paths = export_csv(trace, out_dir)
    cpath = os.path.join(out_dir, "config.yaml")
    with open(cpath, "w") as fh:
        fh.write(trace.config.to_yaml())
    paths["config"] = cpath
    apath = os.path.join(out_dir, "adjacency.csv")
    with open(apath, "w") as fh:
        fh.write(adjacency_csv(trace.config.graph))
    paths["adjacency"] = apath
    mpath = os.path.join(out_dir, "metrics.json")
    with open(mpath, "w") as fh:
        fh.write(metrics_json(compute_metrics(trace)) + "\n")
    paths["metrics"] = mpath
    return paths
