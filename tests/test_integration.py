"""Cross-module behavior on small scenarios: channel attacks, per-edge
detection and trust, and the soundness of unaffected nodes."""

import dataclasses

import numpy as np

from etdkf.scenario import ScenarioConfig, get_preset, six_node_graph
from etdkf.simulate import compute_metrics, run_scenario


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
