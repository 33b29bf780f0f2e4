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

from etdkf import simulate
from etdkf.attacks import AttackPlan, SignalSpec
from etdkf.graphs import Graph
from etdkf.models import NoiseSource
from etdkf.scenario import ScenarioConfig, get_preset, six_node_graph
from etdkf.simulate import compute_metrics, export_csv, run_scenario


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
        psi = self.trace.edge_series("psi", 2, 1)
        sigma = self.trace.edge_series("sigma", 2, 1)
        tail = slice(self.onset + 80, None)
        assert np.nanmin(psi[tail]) > self.cfg.detector.delta
        assert sigma[tail].max() < 0.5

    def test_clean_edges_keep_trust(self):
        sigma_43 = self.trace.edge_series("sigma", 4, 3)
        assert sigma_43[-60:].min() > 0.6

    def test_edge_attack_norm_logged(self):
        norms = self.trace.edge_series("attack_norm", 2, 1)
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
    infinite divergence: the run completes, flags the node one step after
    the onset and drives its confidence to ~0."""
    cfg = dataclasses.replace(get_preset("fig7"), steps=120, attacks=[AttackPlan(
        kind="measurement_injection", node=2, onset=50, signal=SignalSpec(value=value))])
    trace = run_scenario(cfg)
    assert compute_metrics(trace).detection_latency == {2: 1}
    assert trace.series("phi", 2)[-1] == np.inf
    assert 0.0 < trace.series("beta", 2)[-1] < 1e-12


def test_covariance_half_computed_once_per_run(monkeypatch):
    """Gains, posterior covariances and matrix consensus gains are computed
    once per step of a run, not once per pass: fig7 runs a twin."""
    calls = {}
    for name in ("kalman_gain", "posterior_covariance", "consensus_gain"):
        def counted(*args, _real=getattr(simulate, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(simulate, name, counted)
    cfg = get_preset("fig7")
    cfg.steps, cfg.consensus.mode = 12, "matrix"
    run_scenario(cfg)
    groups = len({s.p for s in cfg.sensors})
    assert calls == {"kalman_gain": 12 * groups, "posterior_covariance": 12 * groups,
                     "consensus_gain": 12}


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
