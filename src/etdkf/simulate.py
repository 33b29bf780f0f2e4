"""Deterministic scenario engine, trace/metrics containers, and CSV export.

Per-step pipeline (barriers in order): measure -> inject attacks -> trigger ->
exchange -> detect -> update beliefs -> measurement update -> time update ->
plant step. The filter's covariance half (P, K, gains) reads no data, so it
is computed once per run, before the passes. Nodes are always iterated in
ascending id so traces are reproducible bit-for-bit for a given seed and config.

Reference windows for the detectors come from one of three sources: "shadow"
uses the innovations of an attack-free twin run with identical noise streams
(identical windows before any attack, hence the exact identity baseline),
"synthetic" draws fresh Gaussian windows from the live innovation covariance,
and "calibrated" draws from a twin-run sample covariance.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .attacks import (CHANNEL_INJECTION, MEASUREMENT_INJECTION, NON_TRIGGERING,
                      REPLAY, corrupt_channel, corrupt_measurement,
                      craft_non_triggering, craft_replay)
from .detection import KnnWindowBank, detect, reference_factors
from .errors import ConfigurationError, ValidationError
from .filtering import (consensus_gain, innovation, innovation_covariance,
                        kalman_gain, measurement_update, posterior_covariance,
                        prior_covariance, should_transmit, update_predictive,
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
STATE_PREFIXES = ("x_true", "xbar", "xhat", "xpred")   # each followed by _0 ... _{n-1}
STEP_COLUMNS = ("bound", "realized_err")      # held once per step
INT_COLUMNS = ("step", "node", "neighbor", "zeta", "assumption4_ok")
# Not held per node or edge: the grid, `flag`, the per-step and per-run values.
DERIVED_COLUMNS = ("step", "node", "neighbor", "flag", *STEP_COLUMNS, "assumption4_ok")


# A trace CSV as read: header name -> 1-D array in file order, and its path for errors.
TraceTable = typing.NamedTuple("TraceTable", [("path", str), ("columns", dict)])


class SimTrace:
    """A run's trace, one array per column, and the config that produced it.

    Node columns are (steps, N), node i in column i - 1; edge columns (steps,
    E) over `edges`, the (i, j) channels ascending; `step_cols` are (steps,).
    `flag` (phi or psi above detector.delta) and `assumption4_ok` (true
    without steps, as a CSV without rows reads) are derived. The columns start
    NaN (zeta 0) for the engine to fill, or take `load_trace_csv`'s tables."""

    def __init__(self, config, node_rows=None, edge_rows=None):
        self.config, self.warnings, self.steps = config, [], config.steps
        self.edges = [(i, j) for i in config.graph.nodes
                      for j in sorted(neighbors(config.graph, i))]
        self.node_cols, self.edge_cols = (
            {c: np.zeros(shape, int) if c == "zeta" else np.full(shape, math.nan)
             for c in header if c not in DERIVED_COLUMNS}
            for header, shape in ((self.node_columns(), (self.steps, config.graph.node_count)),
                                  (EDGE_COLUMNS, (self.steps, len(self.edges)))))
        self.step_cols = {c: np.full(self.steps, math.nan) for c in STEP_COLUMNS}
        self.assumption4_ok = not self.steps or all(
            assumption4_satisfied(config.graph, config.compromised_nodes()).values())
        for table, edge in ((node_rows, False), (edge_rows, True)):
            if table is not None:
                self._fill(table, edge)

    def node_columns(self) -> list:
        return NODE_BASE_COLUMNS + [f"{prefix}_{d}" for prefix in STATE_PREFIXES
                                    for d in range(self.config.process.n)]

    def _grid(self, edge: bool = False) -> dict:
        """The key columns of edges.csv, or nodes.csv, flat in row order."""
        keys = np.reshape(self.edges if edge else self.config.graph.nodes, (-1, 1 + edge))
        return {"step": np.repeat(np.arange(self.steps), len(keys)),
                **{k: np.tile(col, self.steps) for k, col in zip(("node", "neighbor"), keys.T)}}

    def column(self, name: str, edge: bool = False) -> np.ndarray:
        """Column `name` of edges.csv, or nodes.csv, as (steps, E) or (steps, N)."""
        cols = self.edge_cols if edge else self.node_cols
        shape = (self.steps, len(self.edges) if edge else self.config.graph.node_count)
        if name in cols:
            return cols[name]
        if name == "flag":
            return detect(cols["psi" if edge else "phi"], self.config.detector.delta)
        if name in self.step_cols:
            return np.broadcast_to(self.step_cols[name][:, None], shape)
        if name == "assumption4_ok":
            return np.full(shape, int(self.assumption4_ok))
        return self._grid(edge)[name].reshape(shape)

    def series(self, column: str, node: int) -> np.ndarray:
        return self.column(column)[:, node - 1]

    def edge_series(self, column: str, node: int, neighbor: int) -> np.ndarray:
        return self.column(column, edge=True)[:, self.edges.index((node, neighbor))]

    def _fill(self, table: TraceTable, edge: bool):
        """Take a table with its CSV's header and the config's exact grid of rows."""
        header, cols = (EDGE_COLUMNS, self.edge_cols) if edge else (self.node_columns(),
                                                                    self.node_cols)
        if list(table.columns) != header:
            raise ValidationError([f"{table.path}: line 1: the header is not {','.join(header)}"])
        want = self._grid(edge)
        got, expected = (list(zip(*(columns[key].tolist() for key in want)))
                         for columns in (table.columns, want))
        if got != expected:
            at, rows = next((at, rows) for at, rows in enumerate(
                itertools.zip_longest(got, expected)) if rows[0] != rows[1])
            found, wanted = (", ".join(map("{} {}".format, want, keys)) if keys
                             else "the end of the file" for keys in rows)
            raise ValidationError([f"{table.path}: line {at + 2}: expected {wanted}; "
                                   f"found {found}"])
        for name in cols:
            cols[name] = table.columns[name].reshape(cols[name].shape)
        if not edge:   # each step's first row holds its per-step values
            self.step_cols = {c: table.columns[c][::cols["zeta"].shape[1]] for c in STEP_COLUMNS}


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
        """Every field; a per-node mapping keyed by str(node), in node order."""
        return {f.name: {str(k): v for k, v in sorted(value.items())}
                if isinstance(value := getattr(self, f.name), dict) else value
                for f in fields(self)}


@dataclass
class _TwinData:
    """What a later pass reads of the twin alone; its statistics are computed on first read."""

    innovations: dict            # p -> one (nodes with p channels, p) stack per step
    b_samples: list              # ||x(k+1)-x(k)+v(k+1)||, one array per step and p, if sampled

    @cached_property
    def B(self) -> float:        # 99.9th percentile of the b samples, in any order
        return (float(np.percentile(np.concatenate(self.b_samples), 99.9))
                if self.b_samples else 0.0)

    @cached_property
    def omega_hat(self) -> dict:  # p -> calibrated innovation covariances, none on <= 2 steps
        # np.cov of each node's (steps, p) record laid out as its own array,
        # so the sums run in the order they always have; a 1 x 1 result stays 2-D.
        rec = {p: np.array(stacks) for p, stacks in self.innovations.items()}
        return {p: [np.atleast_2d(np.cov(np.ascontiguousarray(r[:, g]).T))
                    for g in range(r.shape[1])] for p, r in rec.items() if len(r) > 2}

    @cached_property
    def omega_factors(self) -> dict:  # p -> the reference factors of omega_hat, stacked
        return {p: reference_factors(np.stack(o)) for p, o in self.omega_hat.items()}


def covariance_schedule(cfg) -> list:
    """The half of the filter that no measurement, attack or belief reaches,
    computed once per run for both passes: per step, (P_prior, K, M, gamma,
    P_post, L) with every node's P_prior, P_post and M = I - K C as (N, n, n),
    the gains K as p -> (nodes with p channels, n, p), the consensus gain
    gamma a scalar, or (N, n, n), and with a synthetic detector reference the
    `reference_factors` of each node's Omega = C P_prior C^T + R as p -> (nodes
    with p channels, p, p) (else L is empty). A singular innovation covariance
    raises `NumericalError` naming the node.
    """
    A, n, N = cfg.process.A, cfg.process.n, cfg.graph.node_count
    synthetic = cfg.detector.reference == "synthetic"
    groups, C, R = channel_groups(cfg.sensors)
    lam_L = (float(np.max(np.linalg.eigvalsh(laplacian(cfg.graph))))
             if cfg.consensus.mode == "matrix" else None)
    P_prior = np.tile(cfg.process.P0, (N, 1, 1))
    schedule = []
    for _ in range(cfg.steps):
        K, M, P_post, L = {}, np.empty((N, n, n)), np.empty((N, n, n)), {}
        for p, rows in groups.items():
            K[p] = kalman_gain(P_prior[rows], C[p], R[p], nodes=rows + 1)
            M[rows] = np.eye(n) - K[p] @ C[p]
            P_post[rows] = posterior_covariance(P_prior[rows], K[p], C[p], R[p])
            if synthetic:
                L[p] = reference_factors(innovation_covariance(P_prior[rows], C[p], R[p]))
        gamma = (cfg.consensus.gamma if lam_L is None else
                 consensus_gain(M, A, P_prior, lam_L, fallback=cfg.consensus.gamma))
        schedule.append((P_prior, K, M, gamma, P_post, L))
        P_prior = prior_covariance(P_post, A, cfg.process.Q)
    return schedule


def random_inputs(cfg):
    """The plant's and sensors' noise of a run, each stream drawn once as a
    block for both passes: (x0 (n,), w (steps, n), v p -> (steps, nodes with
    p channels, p)), equal bit for bit to one draw per step."""
    noise = NoiseSource(cfg.seed)
    groups, _, _ = channel_groups(cfg.sensors)
    v = {p: np.stack([noise.draw_measurement_noise(cfg.sensors[b], b + 1, cfg.steps)
                      for b in rows.tolist()], axis=1) for p, rows in groups.items()}
    return (noise.draw_initial_state(cfg.process),
            noise.draw_process_noise(cfg.process, cfg.steps), v)


# Overflow, and inf - inf or inf / inf, in a run's arithmetic: an injection
# large enough to overflow reads as an infinite error or divergence (flagged
# H1), so numpy's warnings about it are silenced within a run.
_OVERFLOW_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def run_scenario(config) -> SimTrace:
    """Validate, compute the covariance half and draw the noise once, run
    (with its attack-free twin when required), return the trace."""
    warnings = config.validate()
    schedule = covariance_schedule(config)
    draws = random_inputs(config)
    twin, monitored, reference = None, config.bound_monitor_enabled(), config.detector.reference
    with np.errstate(**_OVERFLOW_QUIET):
        # An attack-free shadow run that is neither resilient nor monitored is its own shadow.
        if monitored or reference == "calibrated" or reference == "shadow" and (
                config.attacks or config.filter_mode == "resilient"):
            twin_cfg = replace(config, attacks=[], filter_mode="nominal",
                               beliefs_pinned=False, bound_monitor=False)
            _, twin = _engine(twin_cfg, twin=None, lite=True, schedule=schedule, draws=draws,
                              sample_b=monitored)
        trace, _ = _engine(config, twin=twin, lite=False, schedule=schedule, draws=draws)
    trace.warnings = warnings + trace.warnings
    return trace


def _engine(cfg, twin, lite: bool, schedule, draws, sample_b: bool = False):
    """One pass over the scenario, its `covariance_schedule` and its
    `random_inputs`, so a step does only data-dependent work; returns (trace,
    twin data). Every pass records the innovations a later pass reads of its
    twin; `lite` (the attack-free twin) skips detection, beliefs and the trace
    (None), and `sample_b` records the increments the bound monitor's B comes
    from.

    The network state is stacked: node i is row i - 1 of the (N, n) and
    (N, n, n) arrays. Slot d of a node's (D, n) neighbor predictions holds its
    d-th neighbor in ascending order, padded to the largest degree D and
    masked past its own; the unmasked slots, row by row, are the E channels
    (i, j) in ascending order. Sensors group by channel count p: whatever has
    a p axis is stacked per group.
    """
    noise = NoiseSource(cfg.seed)
    proc = cfg.process
    A, n = proc.A, proc.n
    nodes = list(cfg.graph.nodes)
    N = len(nodes)
    nbrs = {i: sorted(neighbors(cfg.graph, i)) for i in nodes}
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
    slot_of = np.nonzero(mask)[0]   # the node each channel's slot belongs to
    E = len(slot_of)
    # Node i and channel (i, j) in one [nodes; channels] vector.
    place = {(i, i): i - 1 for i in nodes} | {
        key: N + c for c, key in enumerate((i, j) for i in nodes for j in nbrs[i])}
    groups, C, R = channel_groups(cfg.sensors)       # p -> rows of its nodes
    where = {b + 1: (p, g) for p, rows in groups.items()     # node -> (p, index in group)
             for g, b in enumerate(rows.tolist())}

    x_prior = np.tile(proc.x0_mean, (N, 1))
    x_post, x_pred, last_tx_prior = x_prior.copy(), x_prior.copy(), x_prior.copy()
    stored = np.tile(proc.x0_mean, (N, D, 1))   # neighbor predictions as each node holds them
    x, w, v_all = draws

    edge_plans = []
    for plan in cfg.attacks:
        if plan.kind == CHANNEL_INJECTION:
            j, i = plan.edge
            edge_plans.append((i, j, nbrs[i].index(j), place[i, j] - N, plan))

    # Detector windows: (i, i) holds node i's innovations, (i, j) its residuals
    # against neighbor j's estimate (equal channel counts only); both compare
    # with node i's reference. One bank per channel count holds them as rows;
    # `at` places each row in [nodes; channels], and its state in [x_prior;
    # stored channel predictions].
    shadow, synthetic = det.reference == "shadow", det.reference == "synthetic"
    # A fresh reference window per node and step, from the node's own stream,
    # N(0, Omega) through the factors of Omega: live ones from the schedule,
    # or the twin's calibrated ones (R stands in on <= 2 steps), fixed per run.
    if not (lite or shadow):
        ref_streams = {p: [noise.stream(STREAM_REFERENCE, i) for i in (rows + 1).tolist()]
                       for p, rows in groups.items()}
        fixed_L = None if synthetic else {p: twin.omega_factors[p] if p in twin.omega_factors
                                          else reference_factors(R[p]) for p in groups}
    windows = []
    for p, rows in groups.items():
        keys = [(i, j) for i in (rows + 1).tolist() for j in [i] + nbrs[i] if where[j][0] == p]
        windows.append((p, KnnWindowBank(len(keys), p, det.window, det.k_nn, det.epsilon_d,
                                         sliding_reference=shadow, average=det.average),
                        np.array([where[i][1] for i, _ in keys]),
                        C[p][[where[j][1] for _, j in keys]],
                        np.array([place[key] for key in keys])))
    edge_keys = [(i, j) for i in nodes for j in nbrs[i] if where[j][0] == where[i][0]]
    windowed = np.array([place[e] - N for e in edge_keys], dtype=int)   # channels with a window
    beliefs = BeliefState(nodes, edge_keys, cfg.resilient)

    monitor = None
    if cfg.bound_monitor_enabled():
        if twin is None:
            raise ConfigurationError("bound monitor needs the nominal twin pass")
        monitor = BoundMonitor(
            A=A, C_norms=[float(np.linalg.norm(s.C, 2)) for s in cfg.sensors],
            alpha=alpha, B=twin.B, tau=cfg.resilient.tau)

    trace = None if lite else SimTrace(config=cfg)
    innovations_rec = {p: [] for p in groups}
    b_samples = []
    sampler_calls = sampler_fallbacks = 0

    for k, (P_prior, K, M, gamma, P_post, live_L) in enumerate(schedule):
        t = k * cfg.dt
        v = {p: vp[k] for p, vp in v_all.items()}
        y_clean = {p: measure(C[p], x, v[p]) for p in groups}
        y = {p: yp.copy() for p, yp in y_clean.items()}
        for idx, plan in enumerate(cfg.attacks):   # at most one plan per node
            if plan.kind == CHANNEL_INJECTION or not plan.active(k):
                continue
            i = plan.node
            p, g = where[i]
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
            if k and sample_b:
                b_samples.append(vector_norm(x - prev_x + v[p]))
            if k:
                zeta[rows] = should_transmit(y[p], C[p], x_pred[rows], alpha)
        x_pred = update_predictive(zeta, x_prior, x_pred, A)

        # Exchange barrier.
        stored = np.where(zeta[slot_node, None] == 1, x_prior[slot_node], np.matvec(A, stored))
        edge_attack_norm = np.zeros(E)
        for i, j, d, e, plan in edge_plans:
            if zeta[j - 1] and plan.active(k):
                fbar = plan.signal.evaluate(t, n)
                stored[i - 1, d] = corrupt_channel(stored[i - 1, d], fbar)
                edge_attack_norm[e] = float(np.linalg.norm(fbar))
        last_tx_prior = np.where(zeta[:, None] == 1, x_prior, last_tx_prior)

        if not lite:
            # Divergence and its average over [nodes; channels], NaN until a window fills.
            d_hat, phi = np.full((2, N + E), math.nan)
            full = k + 1 >= det.window     # every bank fills at the same step
            # The shadow reference slides with the windows (the twin's
            # innovations, or the node's own without a twin); the other modes
            # draw a fresh window for every node at every step.
            source = twin.innovations if twin is not None else innovations_rec
            states = np.concatenate([x_prior, stored[mask]])
            for p, bank, owner, C_key, at in windows:
                bank.push(innovation(y[p][owner], C_key, states[at]),
                          source[p][k][owner] if shadow else None)
                fresh = None
                if not shadow:   # every step draws, so each stream stays in step
                    Z = np.stack([rng.standard_normal((det.window, p)) for rng in ref_streams[p]])
                    if full:
                        L = live_L[p] if synthetic else fixed_L[p]
                        fresh = (Z @ np.swapaxes(L, -1, -2))[owner]
                if full:
                    d_hat[at] = est = bank.estimates(fresh)
                    phi[at] = bank.average(est)
            if track_beliefs:
                beliefs.step(d_hat[:N], d_hat[N + windowed] if full else None)

        # Belief weights w_ij = sigma_ij * beta_j, computed once per step;
        # untracked beliefs stay at one. An edge between sensors of unequal
        # channel counts has no window, so its trust stays 1.
        beta = beliefs.beta.value
        sigma, theta = np.ones((2, E))          # per channel
        sigma[windowed], theta[windowed] = beliefs.sigma.value, beliefs.theta
        weights = np.ones((N, D))
        weights[mask] = sigma
        weights *= beta[slot_node]

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

        if not lite:
            states = np.hstack([np.broadcast_to(x, (N, n)), x_prior, x_post, x_pred])
            for cols, values in (
                    (trace.node_cols, {
                        "zeta": zeta, "innov_norm": innov, "err_norm": vector_norm(x_post - x),
                        "trace_p": np.trace(P_post, axis1=1, axis2=2), "phi": phi[:N],
                        "beta": beta, "chi": beliefs.chi, "eps_norm": vector_norm(m - x),
                        "attack_norm": attack_norm,   # then x_true_*, xbar_*, xhat_*, xpred_*
                        **dict(zip(trace.node_columns()[-4 * n:], states.T))}),
                    (trace.edge_cols, {"psi": phi[N:], "sigma": sigma, "theta": theta,
                                       "attack_norm": edge_attack_norm}),
                    (trace.step_cols, {"bound": bound_now, "realized_err": realized})):
                for name, value in values.items():
                    cols[name][k] = value

        # Time update (its covariance half is in the schedule) and plant step.
        x_prior = np.matvec(A, x_post)
        prev_x, x = x, step_process(proc, x, w[k])

    if sampler_fallbacks:
        trace.warnings.append(f"non-triggering sampler fell back on {sampler_fallbacks} "
                              f"of {sampler_calls} steps")
    return trace, _TwinData(innovations=innovations_rec, b_samples=b_samples)


# -- metrics -------------------------------------------------------------------


@np.errstate(**_OVERFLOW_QUIET)
def compute_metrics(trace: SimTrace) -> MetricsReport:
    """Pure aggregation over a trace; recomputable from the exported CSVs."""
    cfg = trace.config
    nodes = sorted(cfg.graph.nodes)
    onsets = {p.node: p.onset for p in cfg.attacks if p.node is not None}
    k_a = min((p.onset for p in cfg.attacks), default=None)

    # Node-major copies: a mean along each contiguous row sums in the order
    # np.mean does over that node's 1-D series, so every bit stays the same.
    z = np.ascontiguousarray(trace.column("zeta").T)
    e = np.ascontiguousarray(trace.column("err_norm").T)

    def means(a):   # NaN for a node with no steps to average
        return dict(zip(nodes, a.mean(axis=1).tolist() if a.shape[1] else [math.nan] * len(a)))

    cut = z.shape[1] if k_a is None else k_a       # without an attack every step is "pre"
    rate_pre, rate_post, err_pre, err_post = (means(a[:, part]) for a in (z, e)
                                              for part in (slice(cut), slice(cut, None)))
    h1 = trace.column("phi") > cfg.detector.delta        # the H1 flags, (steps, N)
    latency = {i: next(iter((np.flatnonzero(h1[onset + 1:, i - 1]) + 1).tolist()), None)
               for i, onset in onsets.items()}   # steps from the onset to the next H1
    silent = ([i for i, sent in zip(nodes, z[:, cut:].any(axis=1).tolist()) if not sent]
              if z.shape[1] > cut else [])
    return MetricsReport(
        trigger_rate=means(z), trigger_rate_pre=rate_pre, trigger_rate_post=rate_post,
        mean_error_pre=err_pre, mean_error_post=err_post,
        detection_latency=latency, false_positive_count=int(np.count_nonzero(h1[:cut])),
        effective_component_count=len(connected_components(cfg.graph, removed=set(silent))),
        silent_nodes=silent, assumption4_ok=trace.assumption4_ok, bound_violations=int(
            np.count_nonzero(trace.step_cols["realized_err"] > trace.step_cols["bound"])))


def metrics_json(report: MetricsReport) -> str:
    """The report as strict JSON; NaN (and any other non-finite float) is null."""

    def strict(value):
        if isinstance(value, dict):
            return {k: strict(v) for k, v in value.items()}
        if isinstance(value, list):
            return [strict(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    return json.dumps(strict(report.to_dict()), indent=2, sort_keys=True, allow_nan=False)


# -- CSV / run-directory IO ------------------------------------------------------


def export_csv(trace: SimTrace, out_dir: str) -> dict:
    """Write nodes.csv and edges.csv, each with one `%` format of a row
    template over the row-major cells of ndarray.tolist(): floats as %.17g
    (17 significant digits, NaN as nan), the rest as %s. Returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, header, edge in (("nodes", trace.node_columns(), False),
                              ("edges", EDGE_COLUMNS, True)):
        cols = [trace.column(name, edge).ravel() for name in header]
        row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
        cells = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in cols))))
        paths[key] = os.path.join(out_dir, f"{key}.csv")
        with open(paths[key], "w") as fh:
            fh.write(",".join(header) + "\n" + row * len(cols[0]) % cells)
    return paths


def load_trace_csv(nodes_path: str, edges_path: str):
    """(node table, edge table) for SimTrace: each line split once, each
    column converted once (INT_COLUMNS to int, `flag` kept as text, the rest to
    float). A ragged line or a bad cell is a ValidationError naming its line."""
    return _read_table(nodes_path), _read_table(edges_path)


def _read_table(path: str) -> TraceTable:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh.read().splitlines()]
    at = next((at for at, row in enumerate(rows) if len(row) != len(header)), None)
    if at is not None:
        raise ValidationError([f"{path}: line {at + 2}: {len(rows[at])} cells, "
                               f"the header has {len(header)}"])
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    for name, cells in columns.items():
        kind = int if name in INT_COLUMNS else float
        try:
            columns[name] = cells if name == "flag" else np.array(cells, dtype=kind)
        except ValueError:
            for at, cell in enumerate(cells):
                try:
                    kind(cell)
                except ValueError:
                    raise ValidationError([f"{path}: line {at + 2}: cannot read {name} "
                                           f"{cell!r} as {kind.__name__}"]) from None
    return TraceTable(path, columns)


def write_run_dir(trace: SimTrace, out_dir: str) -> dict:
    """Full run artifact: trace CSVs, adjacency, resolved config, metrics."""
    paths = export_csv(trace, out_dir)
    for key, name, text in (("config", "config.yaml", trace.config.to_yaml()),
                            ("adjacency", "adjacency.csv", adjacency_csv(trace.config.graph)),
                            ("metrics", "metrics.json",
                             metrics_json(compute_metrics(trace)) + "\n")):
        paths[key] = os.path.join(out_dir, name)
        with open(paths[key], "w") as fh:
            fh.write(text)
    return paths
