"""`covariance_schedule` against a per-step oracle: its last entry, which
serves every step past the covariance's fixed point, and its read-only
arrays."""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from etdkf.detection import DetectorConfig, reference_factors
from etdkf.errors import NumericalError
from etdkf.filtering import (consensus_gain, innovation_covariance, kalman_gain,
                             nominal_covariances, posterior_covariance, prior_covariance)
from etdkf.graphs import Graph, laplacian
from etdkf.models import ProcessModel, SensorModel, channel_groups, sensor_models
from etdkf.scenario import ConsensusConfig, get_preset, list_presets
from etdkf.simulate import covariance_schedule


def per_step_schedule(cfg) -> list:
    """The Riccati recursion stepped for every step of the run, one fresh
    entry each: what the schedule gives step k as its entry
    min(k, len - 1)."""
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


def bits(a):
    """An array's or scalar's type, shape and bytes."""
    return type(a).__name__, np.shape(a), np.asarray(a).tobytes()


def entry_bits(entry):
    """An entry's types, shapes and bytes, gamma's and each p-group's too."""
    P_prior, K, M, gamma, P_post, L = entry
    return (bits(P_prior), {p: bits(k) for p, k in K.items()}, bits(M), bits(gamma),
            bits(P_post), {p: bits(f) for p, f in L.items()})


GAIN_FAILED = "the matrix consensus gain could not be computed"


def outcome(schedule_of, cfg):
    """The schedule, GAIN_FAILED, or the text of a singular innovation
    covariance's NumericalError. A covariance that collapses to 0 overflows
    pinv in the matrix consensus gain (a RuntimeWarning, which the test
    configuration raises) or fails its SVD: the oracle raises either, and
    the schedule a NumericalError naming the step. A singular innovation
    covariance is a NumericalError naming the node in both."""
    try:
        return schedule_of(cfg)
    except (np.linalg.LinAlgError, RuntimeWarning):
        return GAIN_FAILED
    except NumericalError as exc:
        return GAIN_FAILED if GAIN_FAILED in str(exc) else str(exc)


def assert_equals_oracle(cfg):
    """At every step the schedule's entry, min(k, len - 1), equals the
    oracle's, or both raise alike; returns the schedule, or the failure's
    text."""
    got, want = outcome(covariance_schedule, cfg), outcome(per_step_schedule, cfg)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return got
    assert len(want) == cfg.steps and 0 < len(got) <= cfg.steps
    for k, b in enumerate(want):
        assert entry_bits(got[min(k, len(got) - 1)]) == entry_bits(b), k
    return got


def spd(rng, size, floor):
    B = rng.standard_normal((size, size))
    return 0.5 * (B @ B.T + (B @ B.T).T) + floor * np.eye(size)


@st.composite
def schedule_configs(draw):
    """A random plant, a connected graph, scalar or matrix consensus and any
    detector reference, with each node's sensor drawn from a pool of one to
    three models of mixed channel counts, placed at shuffled nodes. A pool
    may hold a pair that shares C but not R, a pair whose C differ only in
    the sign of one zero, and a model whose innovation covariance is singular
    (two equal rows of C, a negligible R). With `unstable` the plant's first
    state is a growing mode no sensor sees, so P_prior never settles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    unstable = n > 1 and draw(st.booleans())
    A = rng.standard_normal((n, n))
    A *= draw(st.floats(0.1, 0.95)) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        C = rng.standard_normal((draw(st.integers(1, 3)), n))
        pool.append((C, spd(rng, len(C), 0.5)))
    if draw(st.integers(0, 2)) == 0:
        C = rng.standard_normal((1, n))
        pool[-1] = (np.vstack([C, C]), 1e-20 * np.eye(2))
    if unstable:
        A[0], A[:, 0] = 0.0, 0.0
        A[0, 0] = draw(st.floats(1.05, 1.5))
        for C, _ in pool:
            C[:, 0] = 0.0
    pair = draw(st.sampled_from(["none", "same C", "signed zero"])) if len(pool) > 1 else "none"
    C, R = pool[0]
    if pair == "same C":
        pool[1] = (C, spd(rng, len(C), 0.5))
    elif pair == "signed zero":     # a row that sees nothing, so the sign can reach K
        C[0] = 0.0
        pool[1] = (C.copy(), R)
        pool[1][0][0, 0] = -0.0
    N = draw(st.integers(2, 5))
    sensors = [SensorModel(C=pool[g][0], R=pool[g][1])
               for g in rng.permutation(np.arange(N) % len(pool))]
    event(f"{len(sensor_models(sensors)[0])} of {N} sensors distinct, pair: {pair}")
    Q = spd(rng, n, 0.0) if draw(st.booleans()) else np.zeros((n, n))
    process = ProcessModel(A=A, Q=Q, x0_mean=np.zeros(n), P0=spd(rng, n, 0.1))
    graph = Graph(N, {(draw(st.integers(1, i - 1)), i) for i in range(2, N + 1)})
    consensus = ConsensusConfig(mode=draw(st.sampled_from(["scalar", "matrix"])),
                                gamma=draw(st.floats(0.01, 0.5)))
    detector = DetectorConfig(reference=draw(st.sampled_from(
        ["shadow", "synthetic", "calibrated"])))
    return dataclasses.replace(get_preset("fig3"), steps=draw(st.integers(1, 60)),
                               process=process, sensors=sensors, graph=graph,
                               consensus=consensus, detector=detector)


@pytest.mark.bits
@settings(max_examples=60, deadline=None)
@given(schedule_configs())
def test_schedule_equals_per_step_recursion(cfg):
    """Step by step, bit for bit, the schedule equals the recursion stepped
    to the end; it ends at the first entry whose successor P_prior repeats
    its own, which serves every later step; or both fail with the same text,
    a singular innovation covariance naming the same node."""
    schedule = assert_equals_oracle(cfg)
    if isinstance(schedule, str):
        event(schedule.split(" (")[0])
        return
    priors = [entry[0].tobytes() for entry in schedule]
    assert all(a != b for a, b in zip(priors, priors[1:]))
    if len(schedule) < cfg.steps:
        P_prior, _, _, _, P_post, _ = schedule[-1]
        successor = prior_covariance(P_post, cfg.process.A, cfg.process.Q)
        assert successor.tobytes() == P_prior.tobytes()
    event("shared steady-state entry" if len(schedule) < cfg.steps
          else "every step its own entry")


@pytest.mark.bits
@settings(max_examples=60, deadline=None)
@given(schedule_configs(), st.data())
def test_stacked_gain_equals_per_entry_calls(cfg, data):
    """`consensus_gain` over a stack of a run's distinct items, one row per
    sensor model, equals the call on each item alone bit for bit, with an
    entry whose blocks are all degenerate (M = 0) placed anywhere in the
    stack falling back to the scalar alone; or, where an item's call fails
    (a collapsing P_prior), the stacked call fails too."""
    first = sensor_models(cfg.sensors)[0]
    items = []
    try:
        for _, item in zip(range(cfg.steps), nominal_covariances(cfg.process, cfg.sensors)):
            items.append(item)
    except NumericalError:
        pass
    if not items:
        event("singular at the first step")
        return
    P, M = (np.stack([item[i][first] for item in items]) for i in (0, 2))
    at = data.draw(st.integers(0, len(items)), label="fallback entry")
    P = np.concatenate([P[:at], P[:1], P[at:]])
    M = np.concatenate([M[:at], np.zeros_like(M[:1]), M[at:]])
    lam_L = float(np.max(np.linalg.eigvalsh(laplacian(cfg.graph))))

    def gain(M, P):
        with np.errstate(over="raise", invalid="raise"):
            return consensus_gain(M, cfg.process.A, P, lam_L, fallback=0.25)
    failures = (FloatingPointError, np.linalg.LinAlgError)
    try:
        want = [gain(M_e, P_e) for M_e, P_e in zip(M, P)]
    except failures:
        event("an item's gain fails")
        with pytest.raises(failures):
            gain(M, P)
        return
    got = gain(M, P)
    assert [bits(g) for g in got] == [bits(g) for g in want]
    assert got[at] == 0.25
    event(f"{sum(np.ndim(g) == 0 for g in got)} of {len(got)} entries fall back")


def test_unobserved_growing_mode_runs_to_the_end():
    """P_prior that grows without bound never repeats: every step gets its
    own entry, as the per-step recursion computes it."""
    cfg = get_preset("fig3")
    cfg.steps = 40
    cfg.process = ProcessModel(A=np.diag([1.2, 0.5]), Q=np.eye(2), x0_mean=np.zeros(2),
                               P0=np.eye(2))
    cfg.sensors = [SensorModel(C=[[0.0, 1.0]], R=[[1.0]])] * cfg.graph.node_count
    schedule = assert_equals_oracle(cfg)
    assert len(schedule) == cfg.steps


def test_signed_zeros_are_not_a_fixed_point():
    """P_prior(1) equals P_prior(0) as numbers but not as bits (+0.0 where P0
    holds -0.0), so step 1 gets an entry of its own, which serves steps 1-3."""
    cfg = get_preset("fig3")
    cfg.steps = 4
    cfg.process = ProcessModel(A=np.zeros((2, 2)), Q=np.eye(2), x0_mean=np.zeros(2),
                               P0=[[1.0, -0.0], [-0.0, 1.0]])
    schedule = assert_equals_oracle(cfg)
    assert len(schedule) == 2 and np.array_equal(schedule[0][0], schedule[1][0])


def collapsing_matrix_consensus(steps=300):
    """A stable plant with q = 0 under matrix consensus: P_prior collapses
    towards 0 until pinv(P_prior) overflows, at step 256."""
    cfg = get_preset("fig3")
    cfg.steps = steps
    cfg.process = ProcessModel(A=[[0.1005, -0.1056], [0.512, 0.0839]], Q=np.zeros((2, 2)),
                               x0_mean=[0.5, 0.0], P0=np.eye(2))
    cfg.graph = Graph(2, {(1, 2)})
    cfg.sensors = [SensorModel(C=[[1.0, 0.0]], R=[[1.0]])] * 2
    cfg.consensus = ConsensusConfig(mode="matrix", gamma=0.5)
    return cfg


def test_collapsing_covariance_fails_the_gain_by_name():
    """The overflow is a NumericalError naming the step, with no warning;
    the oracle fails there too, and one step fewer runs through."""
    cfg = collapsing_matrix_consensus()
    with pytest.raises(NumericalError, match=f"^{GAIN_FAILED} at step 256 "):
        covariance_schedule(cfg)
    assert_equals_oracle(cfg)
    assert len(assert_equals_oracle(collapsing_matrix_consensus(steps=256))) == 256


@pytest.mark.parametrize("name", list_presets())
def test_presets_reach_the_fixed_point_within_20_steps(name):
    """Every preset's covariance settles bit for bit within 20 steps, so its
    schedule holds at most 20 entries however long the run; the first 60
    steps equal the per-step recursion."""
    cfg = get_preset(name)
    assert len(covariance_schedule(cfg)) <= 20
    assert_equals_oracle(dataclasses.replace(cfg, steps=60))


@pytest.mark.parametrize("reference, mode", [("synthetic", "matrix"), ("shadow", "scalar")])
def test_schedule_arrays_are_read_only(reference, mode):
    """An entry may serve many steps, so no caller can write into one."""
    cfg = get_preset("fig3")
    cfg.steps = 30
    cfg.detector.reference, cfg.consensus.mode = reference, mode
    schedule = covariance_schedule(cfg)
    for P_prior, K, M, gamma, P_post, L in schedule:
        arrays = [P_prior, M, P_post, *K.values(), *L.values()]
        if isinstance(gamma, np.ndarray):
            arrays.append(gamma)
        assert arrays and not any(a.flags.writeable for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
    assert isinstance(schedule[0][3], np.ndarray) == (mode == "matrix")
