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
from .detection import KnnWindowBank, detect, nominal_reference_window
from .errors import ConfigurationError
from .filtering import (consensus_gain, innovation, innovation_covariance,
                        kalman_gain, measurement_update, posterior_covariance,
                        should_transmit, time_update, update_predictive,
                        vector_norm)
from .graphs import adjacency_csv, connected_components, laplacian, neighbors
from .models import (STREAM_ATTACK, STREAM_REFERENCE, NoiseSource, channel_groups,
                     measure, step_process)
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

    innovations: dict            # p -> one (nodes with p channels, p) stack per step
    where: dict                  # node -> (p, its row in those stacks)
    b_samples: list              # ||x(k+1)-x(k)+v(k+1)||, one array per step and p; twin only
    sensors: dict                # node -> SensorModel; R stands in on runs of <= 2 steps

    @cached_property
    def B(self) -> float:        # 99.9th percentile of the b samples, in any order
        return (float(np.percentile(np.concatenate(self.b_samples), 99.9))
                if self.b_samples else 0.0)

    @cached_property
    def omega_hat(self) -> dict:  # node -> calibrated innovation covariance
        # np.cov of each node's (steps, p) record laid out as its own array,
        # so the sums run in the order they always have; a 1 x 1 result stays 2-D.
        rec = {p: np.array(stacks) for p, stacks in self.innovations.items()}
        return {i: np.atleast_2d(np.cov(np.ascontiguousarray(rec[p][:, row]).T))
                if len(rec[p]) > 2 else self.sensors[i].R.copy()
                for i, (p, row) in self.where.items()}


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
    records the innovations a later pass reads of its twin; `lite` (the
    attack-free twin) also records the increments for B, and skips
    detection, beliefs and trace rows, so its trace stays empty.

    The network state is stacked: node i is row i - 1 of the (N, n) and
    (N, n, n) arrays. Slot d of a node's (D, n) neighbor predictions holds its
    d-th neighbor in ascending order, padded to the largest degree D and
    masked past its own; `flat` numbers the slots row by row. Sensors group
    by channel count p: whatever has a p axis is stacked per group.
    """
    noise = NoiseSource(cfg.seed)
    proc = cfg.process
    A, Q = proc.A, proc.Q
    n = proc.n
    nodes = list(cfg.graph.nodes)
    N = len(nodes)
    nbrs = {i: sorted(neighbors(cfg.graph, i)) for i in nodes}
    sensors = {i: cfg.sensors[i - 1] for i in nodes}
    alpha = cfg.trigger.alpha
    track_beliefs = cfg.filter_mode in ("monitored", "resilient") and not cfg.beliefs_pinned
    beliefs_in_update = cfg.filter_mode == "resilient"
    det = cfg.detector

    D = max(map(len, nbrs.values()), default=0)
    slot_node = np.zeros((N, D), dtype=int)
    mask = np.zeros((N, D), dtype=bool)
    for i in nodes:
        slot_node[i - 1, :len(nbrs[i])] = [j - 1 for j in nbrs[i]]
        mask[i - 1, :len(nbrs[i])] = True
    flat = {(i, j): (i - 1) * D + d for i in nodes for d, j in enumerate(nbrs[i])}
    slot_of = np.nonzero(mask)[0]   # the node each unmasked slot belongs to
    groups = channel_groups(cfg.sensors)        # p -> rows of its nodes
    where = {b + 1: (p, g) for p, rows in groups.items()     # node -> (p, index in group)
             for g, b in enumerate(rows.tolist())}
    C = {p: np.stack([cfg.sensors[b].C for b in rows]) for p, rows in groups.items()}
    R = {p: np.stack([cfg.sensors[b].R for b in rows]) for p, rows in groups.items()}

    x_prior = np.tile(proc.x0_mean, (N, 1))
    x_post, x_pred, last_tx_prior = x_prior.copy(), x_prior.copy(), x_prior.copy()
    P_prior = np.tile(proc.P0, (N, 1, 1))
    P_post = P_prior.copy()
    stored = np.tile(proc.x0_mean, (N, D, 1))   # neighbor predictions as each node holds them
    gamma = cfg.consensus.gamma
    K, M = {}, np.empty((N, n, n))
    x = noise.draw_initial_state(proc)

    node_plans = {i: [] for i in nodes}
    edge_plans = []
    for idx, plan in enumerate(cfg.attacks):
        if plan.kind == CHANNEL_INJECTION:
            j, i = plan.edge
            edge_plans.append((i, j, nbrs[i].index(j), plan))
        else:
            node_plans[plan.node].append((idx, plan))

    # Detector windows: (i, i) holds node i's innovations, (i, j) its residuals
    # against neighbor j's estimate (equal channel counts only); both compare
    # with node i's reference. One bank per channel count holds them as rows;
    # `src` picks each row's state out of [x_prior; stored slots].
    shadow = det.reference == "shadow"
    windows = []
    for p, rows in groups.items():
        keys = [(i, j) for i in (rows + 1).tolist() for j in [i] + nbrs[i] if sensors[j].p == p]
        windows.append((p, keys, KnnWindowBank(len(keys), p, det.window, det.k_nn, det.epsilon_d,
                                               sliding_reference=shadow, average=det.average),
                        np.array([where[i][1] for i, _ in keys]),
                        np.array([i - 1 if i == j else N + flat[i, j] for i, j in keys]),
                        C[p][[where[j][1] for _, j in keys]]))
    edge_keys = [(i, j) for i in nodes for j in nbrs[i] if sensors[j].p == sensors[i].p]
    edge_flat = [flat[e] for e in edge_keys]
    beliefs = BeliefState(nodes, edge_keys, cfg.resilient)
    a4_ok = 1 if all(assumption4_satisfied(cfg.graph, cfg.compromised_nodes()).values()) else 0

    monitor = None
    if cfg.bound_monitor_enabled():
        if twin is None:
            raise ConfigurationError("bound monitor needs the nominal twin pass")
        monitor = BoundMonitor(
            A=A, C_norms=[float(np.linalg.norm(sensors[i].C, 2)) for i in nodes],
            alpha=alpha, B=twin.B, tau=cfg.resilient.tau)
    lam_L = (float(np.max(np.linalg.eigvalsh(laplacian(cfg.graph))))
             if cfg.consensus.mode == "matrix" else None)

    trace = SimTrace(config=cfg)
    state_names = [f"{prefix}_{d}" for prefix in ("x_true", "xbar", "xhat", "xpred")
                   for d in range(n)]
    innovations_rec = {p: [] for p in groups}
    b_samples = []
    sampler_calls = sampler_fallbacks = 0

    for k in range(cfg.steps):
        t = k * cfg.dt
        v = [noise.draw_measurement_noise(sensors[i], i) for i in nodes]
        v = {p: np.array([v[b] for b in rows]) for p, rows in groups.items()}
        y_clean = {p: measure(C[p], x, v[p]) for p in groups}
        y = {p: yp.copy() for p, yp in y_clean.items()}
        for i in nodes:
            p, g = where[i]
            for idx, plan in node_plans[i]:
                if not plan.active(k):
                    continue
                if plan.kind == MEASUREMENT_INJECTION:
                    y[p][g] = corrupt_measurement(y[p][g], plan.signal.evaluate(t, p))
                elif plan.kind == NON_TRIGGERING:
                    rng = noise.stream(STREAM_ATTACK, idx)
                    y[p][g], fell_back = craft_non_triggering(
                        y[p][g], C[p][g], x_pred[i - 1], plan.phi, rng, sampler=plan.sampler)
                    if plan.sampler:
                        sampler_calls += 1
                        sampler_fallbacks += fell_back
                elif plan.kind == REPLAY:
                    y[p][g] = craft_replay(last_tx_prior[i - 1], C[p][g], plan.upsilon_vector(p))

        # Innovations and the trigger barrier (everyone transmits at k = 0).
        r = {}
        attack_norm, innov = np.empty(N), np.empty(N)
        zeta = np.ones(N, dtype=int)
        for p, rows in groups.items():
            attack_norm[rows] = vector_norm(y[p] - y_clean[p])
            r[p] = innovation(y[p], C[p], x_prior[rows])
            innov[rows] = vector_norm(r[p])
            innovations_rec[p].append(r[p])
            if k and lite:      # only the twin's increments are read
                b_samples.append(vector_norm(x - prev_x + v[p]))
            if k:
                zeta[rows] = should_transmit(y[p], C[p], x_pred[rows], alpha)
        x_pred = update_predictive(zeta, x_prior, x_pred, A)

        # Exchange barrier.
        stored = np.where(zeta[slot_node, None] == 1, x_prior[slot_node], np.matvec(A, stored))
        edge_attack_norm = {}
        for i, j, d, plan in edge_plans:
            if zeta[j - 1] and plan.active(k):
                fbar = plan.signal.evaluate(t, n)
                stored[i - 1, d] = corrupt_channel(stored[i - 1, d], fbar)
                edge_attack_norm[(i, j)] = float(np.linalg.norm(fbar))
        last_tx_prior = np.where(zeta[:, None] == 1, x_prior, last_tx_prior)

        d_hat, phi = {}, {}   # per window key, once its bank is full
        if not lite:
            # The shadow reference slides with the windows (the twin's
            # innovations, or the node's own without a twin); the other modes
            # draw a fresh window for every node at every step.
            source = twin.innovations if twin is not None else innovations_rec
            states = np.concatenate([x_prior, stored.reshape(-1, n)])
            for p, keys, bank, owner, src, C_key in windows:
                bank.push(innovation(y[p][owner], C_key, states[src]),
                          source[p][k][owner] if shadow else None)
                fresh = None if shadow else _reference_windows(
                    det, twin, groups[p], P_prior, C[p], R[p], noise)
                if not bank.full:
                    continue
                est = bank.estimates(None if shadow else fresh[owner])
                d_hat.update(zip(keys, est.tolist()))
                phi.update(zip(keys, bank.average(est).tolist()))
            if track_beliefs:   # every bank fills at the same step
                beliefs.step([d_hat.get((i, i), math.nan) for i in nodes],
                             [d_hat[e] for e in edge_keys] if d_hat else None)

        # Belief weights w_ij = sigma_ij * beta_j, computed once per step;
        # untracked beliefs stay at one. An edge between sensors of unequal
        # channel counts has no window, so its trust stays 1.
        beta = beliefs.beta.value
        sigma, theta = np.ones((2, N * D))      # per neighbor slot
        sigma[edge_flat], theta[edge_flat] = beliefs.sigma.value, beliefs.theta
        weights = sigma.reshape(N, D) * beta[slot_node]

        # Gains (and matrix-mode coupling) barrier.
        for p, rows in groups.items():
            K[p] = kalman_gain(P_prior[rows], C[p], R[p], nodes=rows + 1)
            M[rows] = np.eye(n) - K[p] @ C[p]
        if lam_L is not None:
            gamma = consensus_gain(M, A, P_prior, lam_L, fallback=cfg.consensus.gamma)

        # Bound monitor: record the bound holding for this step, then advance.
        bound_now = realized = math.nan
        if monitor is not None:
            e_prior = x - x_prior
            realized = math.sqrt(sum(np.vecdot(e_prior, e_prior).tolist()))
            if k == 0:
                monitor.start(realized)
            bound_now = monitor.bound
            gmax = (max(np.linalg.norm(gamma, 2, axis=(1, 2)).tolist())
                    if np.ndim(gamma) == 3 else abs(gamma))
            W = np.zeros((N, N))
            W[slot_of, slot_node[mask]] = weights[mask]
            monitor.step(M, trust_masked_laplacian(W), gmax, beta.tolist())

        # Measurement update barrier: one law; beliefs enter it only in
        # resilient mode, elsewhere every weight is one.
        m = weighted_neighbor_estimate(x_prior, stored, weights, mask)
        w_upd, b_upd = (weights, beta) if beliefs_in_update else (np.ones((N, D)), np.ones(N))
        for p, rows in groups.items():
            x_post[rows] = measurement_update(
                x_prior[rows], K[p], gamma[rows] if np.ndim(gamma) == 3 else gamma, y[p],
                C[p], m[rows], b_upd[rows], stored[rows], w_upd[rows], x_pred[rows], mask[rows])
            P_post[rows] = posterior_covariance(P_prior[rows], K[p], C[p], R[p])

        if not lite:
            states = np.hstack([np.broadcast_to(x, (N, n)), x_prior, x_post, x_pred])
            sigma_l, theta_l = sigma.tolist(), theta.tolist()
            for i, z, inn, err, tr, b, chi, eps, att, xs in zip(
                    nodes, zeta.tolist(), innov.tolist(), vector_norm(x_post - x).tolist(),
                    np.trace(P_post, axis1=1, axis2=2).tolist(), beta.tolist(),
                    beliefs.chi.tolist(), vector_norm(m - x).tolist(), attack_norm.tolist(),
                    states.tolist()):
                trace.node_rows.append({
                    "step": k, "node": i, "zeta": z, "innov_norm": inn, "err_norm": err,
                    "trace_p": tr, "phi": phi.get((i, i), math.nan),
                    "flag": detect(phi.get((i, i), math.nan), det.delta),
                    "beta": b, "chi": chi, "eps_norm": eps,
                    "attack_norm": att, "bound": bound_now, "realized_err": realized,
                    "assumption4_ok": a4_ok, **dict(zip(state_names, xs))})
                for j in nbrs[i]:
                    key = (i, j)
                    trace.edge_rows.append({
                        "step": k, "node": i, "neighbor": j,
                        "psi": phi.get(key, math.nan),
                        "flag": detect(phi.get(key, math.nan), det.delta),
                        "sigma": sigma_l[flat[key]],
                        "theta": theta_l[flat[key]],
                        "attack_norm": edge_attack_norm.get(key, 0.0),
                    })

        # Time update and plant step.
        x_prior, P_prior = time_update(x_post, P_post, A, Q)
        w_k = noise.draw_process_noise(proc)
        prev_x, x = x, step_process(proc, x, w_k)

    if sampler_fallbacks:
        trace.warnings.append(f"non-triggering sampler fell back on {sampler_fallbacks} "
                              f"of {sampler_calls} steps")
    return trace, _TwinData(innovations=innovations_rec, where=where, b_samples=b_samples,
                            sensors=sensors)


def _reference_windows(det, twin, rows, P_prior, C, R, noise):
    """Fresh Z windows, (nodes, w, p), for the nodes at `rows` with sensors C,
    R: synthetic draws from the live innovation covariance, calibrated from
    the twin run's sample covariance."""
    nodes = (rows + 1).tolist()
    if det.reference == "synthetic":
        omegas = innovation_covariance(P_prior[rows], C, R)
    else:
        omegas = [twin.omega_hat[i] for i in nodes]
    return np.stack([nominal_reference_window(omega, det.window, noise.stream(STREAM_REFERENCE, i))
                     for i, omega in zip(nodes, omegas)])


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
