"""Deterministic scenario engine, trace/metrics containers, and CSV export.

Per-step pipeline (barriers in order): measure -> inject attacks -> trigger ->
exchange -> detect -> update beliefs -> measurement update -> time update ->
plant step. The filter's covariance half (P, K, gains) reads no data, so it
is computed once per run, before the passes; the error-bound monitor reads
only whole-run records of a pass, so it runs once, after the step loop.
Nodes are always iterated in ascending id so traces are reproducible
bit-for-bit for a given seed and config.

Reference windows for the detectors come from one of three sources: "shadow"
uses the innovations of an attack-free twin with identical noise streams,
carried as extra rows of the same pass (identical windows before any attack,
hence the exact identity baseline), "synthetic" draws fresh Gaussian windows
from the live innovation covariance, and "calibrated" draws from the sample
covariance of a twin pass run first.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import typing
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .attacks import (CHANNEL_INJECTION, MEASUREMENT_INJECTION, NON_TRIGGERING,
                      REPLAY, corrupt_channel, corrupt_measurement,
                      craft_non_triggering, craft_replay)
from .detection import KnnWindowBank, detect, reference_factors, sliding_mean
from .errors import ConfigurationError, NumericalError, ValidationError
from .filtering import (consensus_gain, innovation, innovation_covariance,
                        measurement_update, nominal_covariances, should_transmit,
                        update_predictive, vector_norm)
from .graphs import adjacency_csv, connected_components, laplacian, neighbors
from .models import (STREAM_ATTACK, STREAM_REFERENCE, NoiseSource, channel_groups,
                     measure, model_groups, sensor_models, step_process)
from .resilience import (BeliefState, BoundMonitor, assumption4_satisfied,
                         divergence_statistic, trust_masked_laplacian,
                         weighted_neighbor_estimate)

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

    def _fill(self, table: TraceTable, edge: bool):
        """Take a table with its CSV's header and the config's exact grid of rows."""
        header, cols = (EDGE_COLUMNS, self.edge_cols) if edge else (self.node_columns(),
                                                                    self.node_cols)
        if list(table.columns) != header:
            raise ValidationError([f"{table.path}: line 1: the header is not {','.join(header)}"])
        want, got = self._grid(edge), table.columns
        sizes = len(got["step"]), len(want["step"])
        if sizes[0] != sizes[1] or not all(np.array_equal(got[key], want[key]) for key in want):
            rows = min(sizes)
            differ = np.flatnonzero(np.any([got[key][:rows] != want[key][:rows]
                                            for key in want], axis=0))
            at = int(differ[0]) if differ.size else rows   # else one grid ends first
            found, wanted = (", ".join(f"{key} {keys[key][at]}" for key in want)
                             if at < size else "the end of the file"
                             for keys, size in zip((got, want), sizes))
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


def covariance_schedule(cfg) -> list:
    """The half of the filter that no measurement, attack or belief reaches,
    computed once per run for both passes: per step, (P_prior, K, M, gamma,
    P_post, L), the `nominal_covariances` item of that step with the
    consensus gain gamma, a scalar or (N, n, n), and with a synthetic detector
    reference the `reference_factors` of each node's Omega = C P_prior C^T + R
    as p -> (nodes with p channels, p, p) (else L is empty). A matrix
    consensus gain that overflows or whose SVD fails raises `NumericalError`
    naming the step.

    gamma and L are computed on one row per sensor model (`sensor_models`)
    and gathered to the nodes: nodes of one model have equal inputs, so
    equal per-matrix results, and the gain's network-wide maximum over the
    models is the maximum over the nodes. gamma and L are computed over the
    stack of distinct items, one `consensus_gain` call and one
    `reference_factors` call per p-group; a failing stack is replayed item
    by item, to raise the error a per-step loop meets first. The
    steady-state filter repeats one item, so one tuple object fills the rest
    of the schedule. Its arrays are read-only.
    """
    A, synthetic = cfg.process.A, cfg.detector.reference == "synthetic"
    first, model, groups, C, R, take = model_groups(cfg.sensors)
    lam_L = (float(np.max(np.linalg.eigvalsh(laplacian(cfg.graph))))
             if cfg.consensus.mode == "matrix" else None)
    items = []   # item k serves step k: a new one each step until one repeats without end

    def factors_and_gains(e):   # (L, gamma) of the items e stacked, L first as a step takes it
        P, M = (np.stack([item[i][first] for item in items[e]]) for i in (0, 2))
        L = {p: reference_factors(innovation_covariance(P[:, rows], C[p], R[p]))[:, take[p]]
             for p, rows in groups.items()} if synthetic else {}
        try:    # a P_prior collapsing to 0 overflows pinv, or fails its SVD
            with np.errstate(over="raise", invalid="raise"):
                gamma = ([cfg.consensus.gamma] * len(P) if lam_L is None else
                         consensus_gain(M, A, P, lam_L, fallback=cfg.consensus.gamma))
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"the matrix consensus gain could not be computed at "
                                 f"step {e.start} ({exc})") from None
        gamma = [g[model] if isinstance(g, np.ndarray) else g for g in gamma]
        for a in (*L.values(), *gamma):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return L, gamma

    try:
        for nominal in itertools.islice(nominal_covariances(cfg.process, cfg.sensors), cfg.steps):
            if items and nominal is items[-1]:
                break
            items.append(nominal)
    finally:   # a singular model raises here, after the gains of the steps before it
        if items:
            try:
                L, gamma = factors_and_gains(slice(0, len(items)))
            except (ConfigurationError, NumericalError, np.linalg.LinAlgError):
                # Raise the error that a step-by-step schedule meets first.
                for k in range(len(items)):
                    factors_and_gains(slice(k, k + 1))
                raise
    schedule = [(P_prior, K, M, gamma[k], P_post, {p: f[k] for p, f in L.items()})
                for k, (P_prior, K, M, P_post) in enumerate(items)]
    schedule += schedule[-1:] * (cfg.steps - len(schedule))
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
    (after an attack-free twin pass when the reference is calibrated: its
    Omega-hat takes every step of the twin), return the trace."""
    notes = config.validate()
    schedule = covariance_schedule(config)
    draws = random_inputs(config)
    twin = None
    with np.errstate(**_OVERFLOW_QUIET):
        if config.detector.reference == "calibrated":
            twin_cfg = replace(config, attacks=[], filter_mode="nominal",
                               beliefs_pinned=False, bound_monitor=False)
            _, twin = _engine(twin_cfg, twin=None, lite=True, schedule=schedule, draws=draws)
        trace, _ = _engine(config, twin=twin, lite=False, schedule=schedule, draws=draws)
    trace.warnings = notes + trace.warnings
    return trace


def _engine(cfg, twin, lite: bool, schedule, draws):
    """One pass over the scenario, its `covariance_schedule` and its
    `random_inputs`, so a step does only data-dependent work; returns (trace,
    (path, innovations)): the plant's state of every step, (steps, n), and
    the innovations of the pass's last network copy (below), p -> (steps,
    nodes with p channels, p). A calibrated reference reads that record of a
    `twin` pass. `lite` marks that pass, the attack-free twin alone: the
    same loop without detector banks or reference streams, which records
    and fills its trace like any pass (phi and psi stay NaN).

    The network state is stacked: node i is row i - 1 of the (N, n) and
    (N, n, n) arrays. Slot d of a node's (D, n) neighbor predictions holds its
    d-th neighbor in ascending order, padded to the largest degree D and
    masked past its own; the unmasked slots, row by row, are the E channels
    (i, j) in ascending order. Sensors group by channel count p: whatever has
    a p axis is stacked per group.

    A shadow reference is the innovation stream of an attack-free twin. With
    attacks or resilient beliefs the pass carries that twin as a second copy
    of the network, rows N to 2N - 1 of every stacked array, whose slots
    point at twin rows. It shares the plant, the noise and the schedule, and
    runs the update law with unit weights and beta = 1; attacks, detection,
    beliefs, the monitor and the trace read the first copy only. Any other
    shadow run is its own twin.

    Beliefs enter the update law only in resilient mode, so only there does
    a step build the belief weights and the neighbor average m; every other
    mode omits them and runs the nominal law.

    A step does only feedback work (divergences, beliefs, the update law)
    and writes row k of whole-run records; the trace's columns are filled
    from them after the loop: `zeta`, `beta`, `sigma`, the norms and the
    states; `phi` and `psi` by one `sliding_mean`, and `chi` and `theta` by
    one `divergence_statistic` call (1 where beliefs are not tracked), over
    the divergences; `trace_p` once per distinct schedule entry; the nodes'
    `attack_norm` as the recorded y less one stacked `measure`; and
    `eps_norm` from one `weighted_neighbor_estimate` call over the first
    copy's recorded neighbor slots, (steps, N, D, n), with the weights
    w_ij = sigma_ij * beta_j rebuilt once from the recorded beliefs, as a
    step builds them. The bound monitor runs there too: it reads the plant
    path, `xbar`, those weights, the `beta` column and the schedule's
    distinct entries, each spectral norm in one stacked call, and makes one
    `BoundMonitor.bounds` call over one record per step.
    """
    noise = NoiseSource(cfg.seed)
    proc = cfg.process
    A, n = proc.A, proc.n
    nodes = list(cfg.graph.nodes)
    N = len(nodes)
    nbrs = {i: sorted(neighbors(cfg.graph, i)) for i in nodes}
    alpha = cfg.trigger.alpha
    track_beliefs = cfg.filter_mode in ("monitored", "resilient") and not cfg.beliefs_pinned
    beliefs_in_update = track_beliefs and cfg.filter_mode == "resilient"
    det = cfg.detector
    shadow, synthetic = det.reference == "shadow", det.reference == "synthetic"
    copies = 1 + (shadow and bool(cfg.attacks or cfg.filter_mode == "resilient"))

    def stack(a):   # a copy's rows, for every copy
        return a if copies == 1 else np.concatenate([a] * copies)

    D = max(map(len, nbrs.values()), default=0)
    slot_node = np.zeros((N, D), dtype=int)
    mask = np.zeros((N, D), dtype=bool)
    for i in nodes:
        slot_node[i - 1, :len(nbrs[i])] = [j - 1 for j in nbrs[i]]
        mask[i - 1, :len(nbrs[i])] = True
    slot_of = np.nonzero(mask)[0]   # the node each channel's slot belongs to
    slot_to = slot_node[mask]       # and the neighbor it holds
    E = len(slot_of)
    # Every copy's slots hold its own rows.
    slot_rows = np.concatenate([slot_node + c * N for c in range(copies)])
    masks = stack(mask)
    # Node i and channel (i, j) in one [nodes; channels] vector.
    place = {(i, i): i - 1 for i in nodes} | {
        key: N + c for c, key in enumerate((i, j) for i in nodes for j in nbrs[i])}
    groups, C, R = channel_groups(cfg.sensors)       # p -> rows of its nodes
    where = {b + 1: (p, g) for p, rows in groups.items()     # node -> (p, index in group)
             for g, b in enumerate(rows.tolist())}
    C_rows = {p: stack(Cp) for p, Cp in C.items()}   # of every copy's group rows

    x_prior = np.tile(proc.x0_mean, (copies * N, 1))
    x_pred, last_tx_prior = x_prior.copy(), x_prior.copy()
    stored = np.tile(proc.x0_mean, (copies * N, D, 1))   # neighbor predictions, per row
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
    # A fresh reference window per node and step, from the node's own stream,
    # N(0, Omega) through the factors of Omega: live ones from the schedule,
    # or fixed per run from the twin's innovations (np.cov of each node's
    # (steps, p) record laid out as its own array; R stands in on <= 2
    # steps). Each stream draws a block of steps at a time into a (nodes,
    # steps, w, p) buffer of about 256 KB kept per group: one (T, w, p) draw
    # equals T (w, p) draws bit for bit.
    windows = []
    if not lite:   # the twin-only pass detects nothing
        for p, rows in groups.items():
            keys = [(i, j) for i in (rows + 1).tolist() for j in [i] + nbrs[i]
                    if where[j][0] == p]
            owner = np.array([where[i][1] for i, _ in keys])
            windows.append((p, KnnWindowBank(len(keys), p, det.window, det.k_nn, det.epsilon_d,
                                             sliding_reference=shadow),
                            owner, owner + (copies - 1) * len(rows),   # and its twin row
                            C[p][[where[j][1] for _, j in keys]],
                            np.array([place[key] for key in keys])))
        if not shadow:
            ref_streams = {p: [noise.stream(STREAM_REFERENCE, i) for i in (rows + 1).tolist()]
                           for p, rows in groups.items()}
            ref_draws = {p: np.empty((len(rows), max(1, min(cfg.steps, 2**15 // (
                len(rows) * det.window * p))), det.window, p)) for p, rows in groups.items()}
            fixed_L = None if synthetic else {p: reference_factors(np.stack(
                [np.atleast_2d(np.cov(np.ascontiguousarray(r[:, g]).T))
                 for g in range(r.shape[1])]) if len(r) > 2 else R[p]) for p, r in twin[1].items()}
    edge_keys = [(i, j) for i in nodes for j in nbrs[i] if where[j][0] == where[i][0]]
    windowed = np.array([place[e] - N for e in edge_keys], dtype=int)   # channels with a window
    beliefs = BeliefState(nodes, edge_keys, cfg.resilient)
    filled = np.concatenate([np.arange(N), N + windowed])   # its entries in [nodes; channels]

    trace = SimTrace(config=cfg)
    cols, edge_cols, step_cols = trace.node_cols, trace.edge_cols, trace.step_cols
    path = np.empty((cfg.steps, n))   # the pass record; row k is written at step k
    innovations = {p: np.empty((cfg.steps, copies * len(rows), p)) for p, rows in groups.items()}
    sampler_calls = sampler_fallbacks = 0
    replaying = any(plan.kind == REPLAY for plan in cfg.attacks)
    # A group's rows in every copy; one group of every node takes them as a
    # slice, whose reads are views.
    part = {p: slice(None) if len(groups) == 1 else
            np.concatenate([rows + c * N for c in range(copies)]) for p, rows in groups.items()}
    group_mask = {p: masks[rows] for p, rows in part.items()}
    # Belief weights w_ij = sigma_ij * beta_j, built where the update law
    # reads them; the twin rows stay at one.
    weights, beta = np.ones((copies * N, D)), np.ones(copies * N)
    x_post = np.empty((copies * N, n))
    zetas = np.ones((cfg.steps, copies * N), dtype=int)   # everyone transmits at k = 0
    xbar, xhat, xpred = np.empty((3, cfg.steps, N, n))
    slots = np.empty((cfg.steps, N, D, n))   # the first copy's neighbor predictions
    y_rec = {p: np.empty((cfg.steps, len(rows), p)) for p, rows in groups.items()}
    # Over [nodes; channels]: the divergences, NaN until the windows fill,
    # and the beliefs (beta; sigma), 1 until they advance.
    d_hat = np.full((cfg.steps, N + E), math.nan)
    values = np.ones((cfg.steps, N + E))
    edge_cols["attack_norm"][:] = 0.0
    seen, starts = None, np.zeros(cfg.steps, bool)   # the steps that start a distinct entry

    for k, entry in enumerate(schedule):
        if entry is not seen:   # the schedule's steady-state tail is one shared entry
            seen, starts[k] = entry, True
            P_prior, K, M, gamma, P_post, live_L = entry
            matrix_gamma = np.ndim(gamma) == 3
            K_rows = {p: stack(Kp) for p, Kp in K.items()}
            gamma_rows = {p: stack(gamma[rows]) if matrix_gamma else gamma
                          for p, rows in groups.items()}
        t = k * cfg.dt
        y_clean = {p: measure(C[p], x, vp[k]) for p, vp in v_all.items()}
        # Every copy measures the same; only the first is attacked.
        y = {p: np.concatenate([yp] * copies) if cfg.attacks else stack(yp)
             for p, yp in y_clean.items()}
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

        # Innovations and the trigger barrier.
        zeta = zetas[k]
        for p, rows in part.items():
            innovations[p][k] = innovation(y[p], C_rows[p], x_prior[rows])
            y_rec[p][k] = y[p][:len(groups[p])]
            if k:
                zeta[rows] = should_transmit(y[p], C_rows[p], x_pred[rows], alpha)
        x_pred = update_predictive(zeta, x_prior, x_pred, A)

        # Exchange barrier.
        stored = np.where(zeta[slot_rows, None] == 1, x_prior[slot_rows], np.matvec(A, stored))
        for i, j, d, e, plan in edge_plans:
            if zeta[j - 1] and plan.active(k):
                fbar = plan.signal.evaluate(t, n)
                stored[i - 1, d] = corrupt_channel(stored[i - 1, d], fbar)
                edge_cols["attack_norm"][k, e] = float(np.linalg.norm(fbar))
        if replaying:
            last_tx_prior = np.where(zeta[:, None] == 1, x_prior, last_tx_prior)

        # Detect barrier. The shadow reference slides with the windows (the
        # twin rows' innovations, or the node's own without them); the other
        # modes draw a fresh window for every node at every step.
        full = k + 1 >= det.window     # every bank fills at the same step
        if windows:
            states = np.concatenate([x_prior[:N], stored[:N][mask]])
        for p, bank, owner, twin_row, C_key, at in windows:
            bank.push(innovation(y[p][owner], C_key, states[at]),
                      innovations[p][k][twin_row] if shadow else None)
            if not shadow:   # every step draws, so each stream stays in step
                block = ref_draws[p]
                if k % block.shape[1] == 0:   # each stream's next block of steps
                    for rng, z in zip(ref_streams[p], block):
                        rng.standard_normal(out=z[:cfg.steps - k])
            if full:
                fresh = None if shadow else (block[:, k % block.shape[1]] @ np.swapaxes(
                    live_L[p] if synthetic else fixed_L[p], -1, -2))[owner]
                d_hat[k, at] = bank.estimates(fresh)
        if track_beliefs:   # a channel without a window keeps trust 1
            at = filled if full else slice(N)   # the nodes until the windows fill
            beliefs.step(d_hat[k, at])
            values[k, at] = beliefs.belief.value
            if beliefs_in_update:
                beta[:N] = values[k, :N]
                weights[:N][mask] = values[k, N:] * beta[slot_to]

        # Measurement update barrier: one law; beliefs enter it only in
        # resilient mode, elsewhere every belief is one and it omits them.
        law = ((weighted_neighbor_estimate(x_prior, stored, weights, masks), beta, weights)
               if beliefs_in_update else None)
        for p, rows in part.items():
            m_p, beta_p, w_p = (None,) * 3 if law is None else (a[rows] for a in law)
            x_post[rows] = measurement_update(
                x_prior[rows], K_rows[p], gamma_rows[p], y[p], C_rows[p], m_p, beta_p,
                stored[rows], w_p, x_pred[rows], group_mask[p])
        xbar[k], xhat[k], xpred[k], slots[k] = x_prior[:N], x_post[:N], x_pred[:N], stored[:N]

        # Time update (its covariance half is in the schedule) and plant step.
        x_prior = np.matvec(A, x_post)
        path[k], x = x, step_process(proc, x, w[k])

    # The columns computed from whole-run stacks.
    entries = [schedule[k] for k in np.flatnonzero(starts).tolist()]
    x_true = path[:, None]                      # (steps, 1, n): every node's truth
    cols["zeta"][:] = zetas[:, :N]
    # Each entry's mean of its last T divergences once its window fills, and
    # the statistic its beliefs took (1, as the beliefs, where not tracked).
    phi = sliding_mean(d_hat, det.average, det.window - 1)
    stats = divergence_statistic(d_hat, np.repeat(
        [cfg.resilient.upsilon1, cfg.resilient.lambda1], [N, E])) if track_beliefs else values
    for name, edge_name, a in (("phi", "psi", phi), ("beta", "sigma", values),
                               ("chi", "theta", stats)):
        cols[name][:], edge_cols[edge_name][:] = a[:, :N], a[:, N:]
    if entries:   # trace(P_post) once per distinct entry
        cols["trace_p"][:] = np.trace(np.stack([entry[4] for entry in entries]),
                                      axis1=2, axis2=3)[np.cumsum(starts) - 1]
    cols["err_norm"][:] = vector_norm(xhat - x_true)
    # The weights w_ij = sigma_ij * beta_j of every step as the loop builds
    # them (all 1 where beliefs are not tracked), and m_i of every step.
    trust = values[:, N:] * values[:, slot_to]
    w_all = np.ones((cfg.steps, N, D))
    w_all[:, mask] = trust
    cols["eps_norm"][:] = vector_norm(weighted_neighbor_estimate(xbar, slots, w_all, mask)
                                      - x_true)
    for p, rows in groups.items():
        cols["innov_norm"][:, rows] = vector_norm(innovations[p][:, :len(rows)])
        cols["attack_norm"][:, rows] = vector_norm(y_rec[p] - measure(C[p], x_true, v_all[p]))
    for prefix, states in zip(STATE_PREFIXES, (x_true, xbar, xhat, xpred)):
        for d in range(n):
            cols[f"{prefix}_{d}"][:] = states[..., d]
    if cfg.bound_monitor_enabled() and cfg.steps:
        # The realized prior error norm of every step, summed over nodes in
        # node order.
        e_prior = path[:, None] - xbar
        realized = [math.sqrt(sum(row)) for row in np.vecdot(e_prior, e_prior).tolist()]
        step_cols["realized_err"][:] = realized
        # One record of scalars per step, each kind taken in one stacked norm:
        # A_o and gamma_max once per distinct schedule entry, over one row per
        # sensor model (and ||C||_2 once per model), and ||L_masked||_2 once
        # per step whose trust weights differ by a bit from the step before.
        # Maxima are Python's, in model order.
        first = sensor_models(cfg.sensors)[0]
        A_o = [max(row) for row in np.linalg.norm(
            A @ np.stack([entry[2][first] for entry in entries]), 2, axis=(-2, -1)).tolist()]
        gammas = [entry[3] for entry in entries]
        matrix = [g[first] for g in gammas if np.ndim(g) == 3]
        norms = iter(np.linalg.norm(np.stack(matrix), 2, axis=(-2, -1)).tolist() if matrix else ())
        gmax = [max(next(norms)) if np.ndim(g) == 3 else abs(g) for g in gammas]
        moved = np.ones(cfg.steps, bool)
        moved[1:] = (trust[1:].view(np.int64) != trust[:-1].view(np.int64)).any(axis=1)
        trust, sL = trust[moved], []
        block = max(1, 2**20 // N**2)   # Laplacians per norm call, 8 MB of them
        for c in range(0, len(trust), block):
            W = np.zeros((len(trust[c:c + block]), N, N))
            W[:, slot_of, slot_to] = trust[c:c + block]
            sL += np.linalg.norm(trust_masked_laplacian(W), 2, axis=(-2, -1)).tolist()
        records = [(A_o[e], gmax[e], sL[j], betas) for e, j, betas in zip(
            (np.cumsum(starts) - 1).tolist(), (np.cumsum(moved) - 1).tolist(),
            cols["beta"].tolist())]
        # B: the 99.9th percentile of ||x(k+1) - x(k) + v(k+1)|| over steps
        # and nodes, from this pass's plant path: no filter reaches it.
        dx = np.diff(path, axis=0)[:, None]
        b = np.concatenate([vector_norm(dx + vp[1:]).ravel() for vp in v_all.values()])
        monitor = BoundMonitor(A=A, C_norms=[float(np.linalg.norm(cfg.sensors[i].C, 2))
                                             for i in first.tolist()],
                               alpha=alpha, tau=cfg.resilient.tau)
        step_cols["bound"][:] = monitor.bounds(realized[0], records,
                                               float(np.percentile(b, 99.9)) if b.size else 0.0)
    if sampler_fallbacks:
        trace.warnings.append(f"non-triggering sampler fell back on {sampler_fallbacks} "
                              f"of {sampler_calls} steps")
    return trace, (path, {p: innovations[p][:, -len(rows):] for p, rows in groups.items()})


# -- metrics -------------------------------------------------------------------


@np.errstate(**_OVERFLOW_QUIET)
def compute_metrics(trace: SimTrace) -> MetricsReport:
    """Pure aggregation over a trace; recomputable from the exported CSVs.

    A node flags H1 at a step where its phi exceeds `detector.delta`.
    `detection_latency[i]` is the number of steps from attacked node i's
    onset to its first H1 at or after the onset: 0 when it flags at the onset
    step itself, None when it never does. `false_positive_count` is the
    number of H1 flags, over all nodes, at steps before the first onset of
    any attack (at every step of a run without attacks).
    """
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
    latency = {i: next(iter(np.flatnonzero(h1[onset:, i - 1]).tolist()), None)
               for i, onset in onsets.items()}   # steps from the onset to its first H1
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
    """(node table, edge table) for SimTrace: each file parsed by one
    `np.loadtxt` call (INT_COLUMNS as int, `flag` kept as text, the rest as
    float). A ragged or blank line or a bad cell is a ValidationError naming
    its line."""
    return _read_table(nodes_path), _read_table(edges_path)


def _read_table(path: str) -> TraceTable:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    lines = body.splitlines()
    # Fields by position: a header name may be empty or repeated.
    fields = [(f"f{i}", int if name in INT_COLUMNS else object if name == "flag" else float)
              for i, name in enumerate(header)]
    try:
        if "" in lines:     # loadtxt skips a blank line, and warns on a file of them
            raise ValueError("a blank line")
        if "\x1f" in body:  # loadtxt strips it from a number as a space; int() does not
            _check_cells(path, header, lines)
        with warnings.catch_warnings():     # a numpy that reads '1.5' as int 1 warns
            warnings.simplefilter("error", DeprecationWarning)
            data = (np.loadtxt(io.StringIO(body), dtype=fields, delimiter=",", comments=None,
                               quotechar=None, ndmin=1) if lines
                    else np.empty(0, fields))   # loadtxt warns on a file without rows
        if len(data) != len(lines):     # a line break that loadtxt does not split at
            raise ValueError(f"{len(data)} rows in {len(lines)} lines")
    except ValueError as exc:
        _check_cells(path, header, lines)
        raise ValidationError([f"{path}: {exc}"]) from None
    return TraceTable(path, {name: data[f].tolist() if name == "flag"
                             else np.ascontiguousarray(data[f])
                             for name, (f, _) in zip(header, fields)})


def _check_cells(path: str, header: list, lines: list):
    """Raise the ValidationError naming the first line whose cell count
    differs from the header's, else, column by column in header order, the
    first cell that int() or float() rejects, else the first that they read
    and loadtxt does not (`1_0`, a non-ASCII digit)."""
    rows = [line.split(",") for line in lines]
    at = next((at for at, row in enumerate(rows) if len(row) != len(header)), None)
    if at is not None:
        raise ValidationError([f"{path}: line {at + 2}: {len(rows[at])} cells, "
                               f"the header has {len(header)}"])
    columns = [(name, int if name in INT_COLUMNS else float, cells)
               for name, cells in dict(zip(header, zip(*rows))).items() if name != "flag"]
    for readable in (_reads_as, _plain):
        for name, kind, cells in columns:
            at = next((at for at, cell in enumerate(cells) if not readable(cell, kind)), None)
            if at is not None:
                raise ValidationError([f"{path}: line {at + 2}: cannot read {name} "
                                       f"{cells[at]!r} as {kind.__name__}"])


def _reads_as(cell: str, kind: type) -> bool:
    try:
        kind(cell)
    except ValueError:
        return False
    return True


def _plain(cell: str, kind: type) -> bool:
    return cell.isascii() and "_" not in cell


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
