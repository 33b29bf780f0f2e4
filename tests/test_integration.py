"""Cross-module behavior on small scenarios: channel attacks, per-edge
detection and trust, and the soundness of unaffected nodes."""

import dataclasses
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf import filtering, resilience, simulate
from etdkf.attacks import AttackPlan, SignalSpec
from etdkf.graphs import Graph, neighbors
from etdkf.models import NoiseSource, channel_groups, sensor_models
from etdkf.scenario import ScenarioConfig, get_preset, six_node_graph
from etdkf.simulate import compute_metrics, export_csv, run_scenario
from helpers import edge_series
from test_engine_digests import ONE, TWO
from test_engine_digests import scenario as engine_scenario


def six_node_config(**overrides):
    d = {
        "name": "itest",
        "steps": 220,
        "seed": 31,
        "steps_per_second": 10.0,
        "process": {
            "a": [[np.cos(np.pi / 200), -np.sin(np.pi / 200)],
                  [np.sin(np.pi / 200), np.cos(np.pi / 200)]],
            "q": [[1.0, 0.0], [0.0, 1.0]],
            "x0_mean": [0.5, 0.0],
            "p0": [[1.0, 0.0], [0.0, 1.0]],
        },
        "sensors": {"count": 6, "c": [[5.0, 0.0], [0.0, 2.0]],
                    "r": [[1.0, 0.0], [0.0, 1.0]]},
        "graph": {"nodes": 6,
                  "edges": [list(e) for e in sorted(six_node_graph().edges)]},
        "trigger": {"alpha": 1.8},
        "consensus": {"mode": "scalar", "gamma": 0.1},
        "filter": {"mode": "monitored"},
    }
    d.update(overrides)
    return ScenarioConfig.from_dict(d)


class TestChannelAttack:
    def setup_method(self):
        self.onset = 100
        self.cfg = six_node_config(attacks=[
            {"kind": "channel_injection", "edge": [1, 2], "onset": self.onset,
             "signal": {"type": "constant", "value": [2.0, 2.0]}}])
        self.trace = run_scenario(self.cfg)

    def test_first_attacked_step_isolated_to_receiver(self):
        clean = run_scenario(dataclasses.replace(self.cfg, attacks=[]))
        k = self.onset
        for i in (1, 3, 4, 5, 6):
            for col in ("xhat_0", "xhat_1"):
                assert self.trace.series(col, i)[k] == clean.series(col, i)[k]
        assert self.trace.series("xhat_0", 2)[k] != clean.series("xhat_0", 2)[k]

    def test_attacked_channel_flagged_and_distrusted(self):
        psi = edge_series(self.trace, "psi", 2, 1)
        sigma = edge_series(self.trace, "sigma", 2, 1)
        tail = slice(self.onset + 80, None)
        assert np.nanmin(psi[tail]) > self.cfg.detector.delta
        assert sigma[tail].max() < 0.5

    def test_clean_edges_keep_trust(self):
        sigma_43 = edge_series(self.trace, "sigma", 4, 3)
        assert sigma_43[-60:].min() > 0.6

    def test_edge_attack_norm_logged(self):
        norms = edge_series(self.trace, "attack_norm", 2, 1)
        assert norms[: self.onset].max() == 0.0
        assert norms[self.onset:].max() > 0.0


class TestNonTriggeringSoundness:
    def test_unaffected_nodes_stay_below_threshold(self):
        trace = run_scenario(get_preset("example1"))
        cfg = trace.config
        for i in (7, 8):
            phi = trace.series("phi", i)
            defined = phi[~np.isnan(phi)]
            assert np.all(defined < cfg.detector.delta)

    def test_compromised_phi_dominates_intact(self):
        trace = run_scenario(get_preset("fig6"))
        cfg = trace.config
        onset = cfg.attacks[0].onset
        start = onset + cfg.detector.window + cfg.detector.average
        phi2 = trace.series("phi", 2)[start:]
        for i in (1, 3, 4, 5, 6):
            assert np.all(phi2 > trace.series("phi", i)[start:])


class TestEventTriggeredBehavior:
    def test_fig3_intermittent_triggering(self):
        trace = run_scenario(get_preset("fig3"))
        rep = compute_metrics(trace)
        for i in trace.config.graph.nodes:
            assert 0.0 < rep.trigger_rate[i] < 1.0

    def test_fig4_sinusoid_drives_triggering_up(self):
        trace = run_scenario(get_preset("fig4"))
        rep = compute_metrics(trace)
        assert rep.trigger_rate_post[2] > 0.9
        assert rep.trigger_rate_post[2] >= rep.trigger_rate_pre[2]

    def test_transmitting_node_predictive_equals_prior(self):
        trace = run_scenario(six_node_config(steps=60))
        sent = trace.column("zeta") == 1
        assert sent.any()
        for d in (0, 1):
            assert np.array_equal(trace.column(f"xpred_{d}")[sent],
                                  trace.column(f"xbar_{d}")[sent])


@pytest.mark.parametrize("value", [1e155, 1e160, 1e300])
def test_overflowing_injection_is_flagged_and_distrusted(value):
    """An injection so large that the k-NN distances overflow reads as an
    infinite divergence: the run completes, flags the node at the onset step
    itself (latency 0) and drives its confidence to ~0."""
    cfg = dataclasses.replace(get_preset("fig7"), steps=120, attacks=[AttackPlan(
        kind="measurement_injection", node=2, onset=50, signal=SignalSpec(value=value))])
    trace = run_scenario(cfg)
    assert compute_metrics(trace).detection_latency == {2: 0}
    assert trace.series("phi", 2)[-1] == np.inf
    assert 0.0 < trace.series("beta", 2)[-1] < 1e-12


@pytest.mark.bits
def test_overflowing_channel_injection_keeps_the_nominal_update():
    """A nominal node's update reads no neighbor estimate m: a channel
    injection that overflows C m leaves the receiving node's estimate
    finite, as the nominal formula gives it (it once read 0 * inf = NaN)."""
    cfg = dataclasses.replace(get_preset("fig7"), steps=40, filter_mode="nominal", attacks=[
        AttackPlan(kind="channel_injection", edge=(2, 1), onset=30,
                   signal=SignalSpec(value=[1.7e308, 0.0]))])
    trace = run_scenario(cfg)
    xhat = [trace.series(f"xhat_{d}", 1)[30] for d in range(2)]
    assert xhat[0] == pytest.approx(1.7e307) and xhat[1] == pytest.approx(4.5387364)
    assert trace.series("eps_norm", 1)[30] == np.inf


@pytest.mark.bits
@pytest.mark.parametrize("source", ["fig6", "ring12-chords"])
@pytest.mark.parametrize("mode", ["nominal", "monitored", "pinned", "resilient"])
def test_eps_norm_equals_a_per_step_recomputation(monkeypatch, source, mode):
    """eps_norm, filled after the step loop in one call over a whole-run
    record, equals ||m_i - x|| taken step by step and node by node from the
    priors and neighbor slots that the loop held at its update barrier, with
    w_ij = sigma_ij * beta_j read from the trace."""
    cfg = get_preset("fig6") if source == "fig6" else engine_scenario(source)
    cfg = dataclasses.replace(cfg, steps=50, beliefs_pinned=mode == "pinned",
                              filter_mode="resilient" if mode == "pinned" else mode)
    assert len(channel_groups(cfg.sensors)[0]) == 1   # one update call per step
    held, real = [], simulate.measurement_update

    def spy(x_prior, K, gamma, y, C, beta, neighbor_preds, *args):
        held.append((x_prior.copy(), neighbor_preds.copy()))
        return real(x_prior, K, gamma, y, C, beta, neighbor_preds, *args)

    monkeypatch.setattr(simulate, "measurement_update", spy)
    trace = run_scenario(cfg)
    assert len(held) == cfg.steps
    beta, sigma = trace.column("beta"), trace.column("sigma", edge=True)
    x_true = np.stack([trace.column(f"x_true_{d}") for d in range(cfg.process.n)], axis=-1)
    want = np.empty(trace.column("eps_norm").shape)
    for k, (x_prior, slots) in enumerate(held):
        for i in cfg.graph.nodes:
            nbrs = sorted(neighbors(cfg.graph, i))
            weights = [sigma[k, trace.edges.index((i, j))] * beta[k, j - 1] for j in nbrs]
            m = filtering.weighted_neighbor_estimate(x_prior[i - 1],
                                                     list(slots[i - 1, :len(nbrs)]), weights)
            want[k, i - 1] = np.linalg.norm(m - x_true[k, i - 1])
    assert trace.column("eps_norm").tobytes() == want.tobytes()
    if mode in ("nominal", "pinned"):
        assert (beta == 1.0).all() and (sigma == 1.0).all()


@pytest.mark.bits
@pytest.mark.parametrize("mode", ["monitored", "resilient"])
def test_chi_and_theta_are_the_statistics_each_step_took(monkeypatch, mode):
    """chi and theta, taken after the step loop from the recorded
    divergences, equal in bytes the statistics `BeliefState.step` took at
    each step, with distinct confidence and trust scales; theta is 1 until
    the channel windows fill (every fig6 channel has one)."""
    fig6 = get_preset("fig6")
    cfg = dataclasses.replace(
        fig6, steps=60, filter_mode=mode,
        attacks=[dataclasses.replace(fig6.attacks[0], onset=30)],
        resilient=dataclasses.replace(fig6.resilient, upsilon1=0.3, lambda1=0.7))
    stats = []

    class Recording(simulate.BeliefState):
        def step(self, divergence):
            super().step(divergence)
            stats.append(self.stat.copy())

    monkeypatch.setattr(simulate, "BeliefState", Recording)
    trace = run_scenario(cfg)
    got = np.hstack([trace.column("chi"), trace.column("theta", edge=True)])
    want = np.ones(got.shape)
    for k, stat in enumerate(stats):
        want[k, :len(stat)] = stat
    assert len(stats) == cfg.steps and len(stats[-1]) == got.shape[1]
    assert got.tobytes() == want.tobytes()


@pytest.mark.bits
def test_covariance_half_computed_once_per_run(monkeypatch):
    """Gains and posterior covariances are computed once per step of a run,
    not once per pass (fig7 runs a twin), and the matrix consensus gains in
    one `consensus_gain` call over the stack of the run's distinct schedule
    entries, one row per sensor model. The gains and posterior covariances
    are `filtering.nominal_covariances`' calls."""
    cfg = get_preset("fig7")
    cfg.steps, cfg.consensus.mode = 12, "matrix"
    distinct = len({id(entry) for entry in simulate.covariance_schedule(cfg)})
    calls = {}
    for module, name in ((filtering, "kalman_gain"), (filtering, "posterior_covariance"),
                         (simulate, "consensus_gain")):
        def counted(stack, *args, _real=getattr(module, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append(np.shape(stack))
            return _real(stack, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    run_scenario(cfg)
    groups = len({s.p for s in cfg.sensors})
    models, n = len(sensor_models(cfg.sensors)[0]), cfg.process.n
    assert {name: len(shapes) for name, shapes in calls.items()} == {
        "kalman_gain": 12 * groups, "posterior_covariance": 12 * groups, "consensus_gain": 1}
    assert calls["consensus_gain"] == [(distinct, models, n, n)]


def ring_of_one_model(n=32, steps=20):
    """fig7's resilient setup on a generated ring with links at +-1 and +-2
    hops, every node with fig7's sensor, matrix consensus and the bound
    monitor on."""
    d = get_preset("fig7").to_dict()
    d["graph"] = {"nodes": n, "edges": sorted([min(a, b), max(a, b)] for a in range(1, n + 1)
                                              for b in {a % n + 1, (a + 1) % n + 1})}
    d["sensors"] = [d["sensors"][0]] * n
    d["consensus"]["mode"], d["bound_monitor"], d["steps"] = "matrix", True, steps
    d["detector"].update(window=10, k_nn=3, average=5)
    return ScenarioConfig.from_dict(d)


def spy_on_bound_records(monkeypatch):
    """The (C_norms, records) of every `error_bounds` call."""
    calls = []

    def bounds(A, C_norms, alpha, tau, eta0, records, B, _real=simulate.error_bounds):
        calls.append((C_norms, records))
        return _real(A, C_norms, alpha, tau, eta0, records, B)
    monkeypatch.setattr(simulate, "error_bounds", bounds)
    return calls


def spy_on_norms(monkeypatch):
    """The (shape, ord) of every `np.linalg.norm` call, in call order."""
    taken = []

    def norm(x, ord=None, *args, _real=np.linalg.norm, **kwargs):
        taken.append((np.shape(x), ord))
        return _real(x, ord, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", norm)
    return taken


def trust_weights(cfg, trace):
    """Each step's (N, N) matrix of belief weights w_ij = sigma_ij * beta_j,
    read back from the trace."""
    nodes = sorted(cfg.graph.nodes)
    edges = [(i - 1, j - 1) for i in nodes for j in sorted(neighbors(cfg.graph, i))]
    fro, to = np.array(edges, dtype=int).reshape(-1, 2).T
    W = np.zeros((cfg.steps, len(nodes), len(nodes)))
    W[:, fro, to] = trace.edge_cols["sigma"] * trace.node_cols["beta"][:, to]
    return W


@pytest.mark.bits
def test_covariance_half_computed_once_per_sensor_model(monkeypatch):
    """Nodes that share (C, R) share the covariance half: on a ring of 32
    equal sensors the gains see one row per distinct schedule entry, the
    consensus gain one stack of one row per distinct entry, and the monitor
    one ||C||_2."""
    cfg = ring_of_one_model()
    distinct = len({id(entry) for entry in simulate.covariance_schedule(cfg)})
    rows = {"kalman_gain": [], "consensus_gain": []}
    for module, name in ((filtering, "kalman_gain"), (simulate, "consensus_gain")):
        def spy(stack, *args, _real=getattr(module, name), _name=name, **kwargs):
            rows[_name].append(np.shape(stack)[:-2])
            return _real(stack, *args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    calls = spy_on_bound_records(monkeypatch)
    run_scenario(cfg)
    assert rows == {"kalman_gain": [(1,)] * distinct, "consensus_gain": [(distinct, 1)]}
    [(C_norms, records)] = calls
    assert len(records) == cfg.steps and len(C_norms) == 1


@pytest.mark.bits
def test_monitor_norms_one_stacked_call_per_quantity(monkeypatch):
    """The monitor takes each spectral norm in one call over a stack, not
    once per step or per repeated object: A_o and gamma_max over the run's
    distinct schedule entries, one row per sensor model, ||L_masked||_2
    over its distinct vectors of trust weights; then each model's ||C||_2
    and ||A||_2, once each. The records hold each step's own values."""
    cfg = ring_of_one_model()
    schedule = simulate.covariance_schedule(cfg)
    distinct = len({id(entry) for entry in schedule})
    norms = spy_on_norms(monkeypatch)
    calls = spy_on_bound_records(monkeypatch)
    trace = run_scenario(cfg)
    spectral = [shape for shape, ord in norms if ord == 2]
    W = trust_weights(cfg, trace)
    moved = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(W[1:], W[:-1]))
    N, n = cfg.graph.node_count, cfg.process.n
    assert 1 < moved < cfg.steps
    assert spectral == [(distinct, 1, n, n), (distinct, 1, n, n), (moved, N, N),
                        cfg.sensors[0].C.shape, (n, n)]
    [(_, records)] = calls
    A = cfg.process.A
    want = [(max(float(np.linalg.norm(A @ M_i, 2)) for M_i in M),
             max(float(np.linalg.norm(g_i, 2)) for g_i in gamma),
             float(np.linalg.norm(resilience.trust_masked_laplacian(W_k), 2)), betas)
            for (_, _, M, gamma, _, _), W_k, betas in zip(schedule, W,
                                                          trace.node_cols["beta"].tolist())]
    assert records == want


@pytest.mark.bits
@pytest.mark.parametrize("overrides, builds", [
    ({"beliefs_pinned": True}, 1),
    ({"filter_mode": "nominal", "bound_monitor": True}, 1),
    ({}, None),   # one per distinct vector of trust weights, from the trace
], ids=["pinned", "nominal", "resilient"])
def test_laplacian_built_once_per_distinct_trust_weights(monkeypatch, overrides, builds):
    """The monitor's trust-masked Laplacians are built in one call over a
    stack, one for each step whose weights w_ij = sigma_ij * beta_j differ
    by a bit from the step before, and each step's record holds the norm of
    its own weights' Laplacian."""
    cfg = dataclasses.replace(get_preset("fig7"), steps=100, **overrides)
    built = []

    def build(W, _real=simulate.trust_masked_laplacian):
        built.append(np.shape(W))
        return _real(W)
    monkeypatch.setattr(simulate, "trust_masked_laplacian", build)
    calls = spy_on_bound_records(monkeypatch)
    trace = run_scenario(cfg)
    W = trust_weights(cfg, trace)
    if builds is None:
        builds = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(W[1:], W[:-1]))
        assert builds < cfg.steps
    N = cfg.graph.node_count
    assert built == [(builds, N, N)]
    [(_, records)] = calls
    want = [float(np.linalg.norm(resilience.trust_masked_laplacian(W_k), 2)) for W_k in W]
    assert np.array([sL for _, _, sL, _ in records]).tobytes() == np.array(want).tobytes()


def test_overflowing_injection_writes_no_numpy_warning(tmp_path, capfd):
    """`etdkf run` of that injection prints no raw numpy RuntimeWarning:
    the run's arithmetic is silenced where it overflows by design."""
    cfg = dataclasses.replace(get_preset("fig7"), steps=60, attacks=[AttackPlan(
        kind="measurement_injection", node=2, onset=50, signal=SignalSpec(value=1e300))])
    (tmp_path / "s.yaml").write_text(cfg.to_yaml())
    done = subprocess.run([sys.executable, "-W", "default", "-m", "etdkf.cli", "run",
                           "--scenario", str(tmp_path / "s.yaml"), "--out", str(tmp_path / "o")],
                          timeout=120)
    assert done.returncode == 0
    err = capfd.readouterr().err
    assert "Warning" not in err, err


def test_random_streams_drawn_once_per_run(monkeypatch):
    """The initial state, the process noise and each sensor's noise are drawn
    once per run, as one block each, and shared by the twin and main passes."""
    calls = []
    for name in ("draw_initial_state", "draw_process_noise", "draw_measurement_noise"):
        def spy(self, *args, _real=getattr(NoiseSource, name), _name=name, **kwargs):
            calls.append((_name, *args[1:2]) if _name == "draw_measurement_noise" else (_name,))
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(NoiseSource, name, spy)
    cfg = get_preset("fig7")   # a resilient run with its attack-free twin
    cfg.steps = 12
    run_scenario(cfg)
    nodes = list(cfg.graph.nodes)
    assert sorted(calls) == sorted([("draw_initial_state",), ("draw_process_noise",)]
                                   + [("draw_measurement_noise", i) for i in nodes])


FIG6 = get_preset("fig6")


@pytest.mark.bits
@pytest.mark.parametrize("cfg", [
    dataclasses.replace(FIG6, steps=60,                  # monitored, attacked from step 30
                        attacks=[dataclasses.replace(FIG6.attacks[0], onset=30)]),
    engine_scenario("ring12-chords"),      # resilient, bound monitor, matrix consensus
    ScenarioConfig.from_dict({             # monitored; one-channel and two-channel sensors
        **engine_scenario("example1-calibrated").to_dict(),
        "sensors": [TWO] * 6 + [ONE, TWO]}),
], ids=["fig6", "ring12-chords", "example1-calibrated-mixed-p"])
def test_twin_rows_record_what_a_twin_pass_does(cfg):
    """A shadow pass carries its attack-free twin as rows N to 2N - 1: their
    plant path and innovations are the bytes of the twin-only pass that a
    calibrated reference runs first."""
    twin_cfg = dataclasses.replace(cfg, attacks=[], filter_mode="nominal",
                                   beliefs_pinned=False, bound_monitor=False)
    shadow = dataclasses.replace(cfg, detector=dataclasses.replace(cfg.detector,
                                                                   reference="shadow"))
    schedule, draws = simulate.covariance_schedule(cfg), simulate.random_inputs(cfg)
    with np.errstate(**simulate._OVERFLOW_QUIET):
        (twin_path, twin), (path, rows) = (
            simulate._engine(run_cfg, None, lite, schedule=schedule, draws=draws)[1]
            for run_cfg, lite in ((twin_cfg, True), (shadow, False)))
    assert twin_path.shape == (cfg.steps, cfg.process.n)
    assert twin_path.tobytes() == path.tobytes()
    assert twin.keys() == rows.keys()
    for p, stack in twin.items():
        assert stack.shape == (cfg.steps, len(channel_groups(cfg.sensors)[0][p]), p)
        assert stack.tobytes() == rows[p].tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("cfg, passes", [
    (dataclasses.replace(get_preset("fig6"), steps=30), 1),   # shadow: twin rows, no twin pass
    (dataclasses.replace(engine_scenario("example1-calibrated"), steps=30),
     2),                                                     # calibrated: a twin pass first
    (dataclasses.replace(engine_scenario("mixed-p-synthetic"), steps=30, bound_monitor=True),
     1),                                                     # synthetic, monitored: no twin
    (dataclasses.replace(engine_scenario("mixed-p-synthetic"), steps=30, bound_monitor=False),
     1),                                                     # synthetic, unmonitored: none
], ids=["twin", "calibrated", "synthetic-monitored", "synthetic"])
def test_plant_stepped_once_per_step_and_pass(monkeypatch, cfg, passes):
    """`step_process`, looked up in the `simulate` namespace, is called once
    per simulated step of each pass; the benchmark times steps by these calls."""
    calls = []

    def counted(*args, _real=simulate.step_process):
        calls.append(args)
        return _real(*args)
    monkeypatch.setattr(simulate, "step_process", counted)
    run_scenario(cfg)
    assert len(calls) == passes * cfg.steps


@pytest.mark.bits
def test_monitored_shadow_run_is_its_own_twin(monkeypatch):
    """The bound monitor reads the plant path and the first copy alone, so a
    shadow run without attacks or resilient beliefs carries no twin rows
    with it: the update law takes N rows per step, not 2N."""
    cfg = dataclasses.replace(get_preset("fig3"), steps=20, bound_monitor=True)
    assert not cfg.attacks and cfg.filter_mode == "nominal"
    rows, real = [], simulate.measurement_update

    def spy(x_prior, *args):
        rows.append(len(x_prior))
        return real(x_prior, *args)

    monkeypatch.setattr(simulate, "measurement_update", spy)
    trace = run_scenario(cfg)
    assert rows == [cfg.graph.node_count] * cfg.steps
    assert np.isfinite(trace.step_cols["bound"]).all()


@pytest.mark.bits
def test_twin_only_pass_builds_no_detector_bank(monkeypatch):
    """A calibrated run's twin-only pass is the step loop without detector
    banks; its main pass builds one bank per channel count."""
    cfg = dataclasses.replace(ScenarioConfig.from_dict({
        **engine_scenario("example1-calibrated").to_dict(), "sensors": [TWO] * 6 + [ONE, TWO]}),
        steps=30)
    passes, built = [], []

    def engine(run_cfg, twin, lite, _real=simulate._engine, **kwargs):
        passes.append(lite)
        return _real(run_cfg, twin, lite, **kwargs)

    def bank(*args, _real=simulate.KnnWindowBank, **kwargs):
        built.append(passes[-1])
        return _real(*args, **kwargs)

    monkeypatch.setattr(simulate, "_engine", engine)
    monkeypatch.setattr(simulate, "KnnWindowBank", bank)
    run_scenario(cfg)
    assert passes == [True, False]
    assert len(channel_groups(cfg.sensors)[0]) == 2
    assert built == [False, False]   # both banks built in the main pass


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 3-8 nodes plus random extra edges."""
    n = draw(st.integers(3, 8))
    edges = {(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    return Graph(n, edges | {(a, b) for a, b in extra if a != b})


@settings(max_examples=15, deadline=None)
@given(connected_graphs(), st.integers(0, 2**31 - 1))
def test_pinned_beliefs_reproduce_nominal_bytes(graph, seed):
    """Resilient mode with every weight pinned to one writes nominal's
    nodes.csv byte for byte, on any connected graph and seed."""
    fig7 = get_preset("fig7")
    cfg = dataclasses.replace(
        fig7, steps=40, seed=seed, graph=graph, sensors=[fig7.sensors[0]] * graph.node_count,
        detector=dataclasses.replace(fig7.detector, window=10, k_nn=3, average=5),
        attacks=[dataclasses.replace(fig7.attacks[0], onset=20)], bound_monitor=True)
    with tempfile.TemporaryDirectory() as out:
        pinned, nominal = (
            export_csv(run_scenario(dataclasses.replace(cfg, **change)), f"{out}/{key}")["nodes"]
            for key, change in (("pinned", {"beliefs_pinned": True}),
                                ("nominal", {"filter_mode": "nominal"})))
        assert open(pinned, "rb").read() == open(nominal, "rb").read()
