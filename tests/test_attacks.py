import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.attacks import (AttackPlan, AttackRecursion, SignalSpec,
                           craft_non_triggering, craft_replay)
from etdkf.errors import ConfigurationError
from etdkf.filtering import kalman_gain, posterior_covariance, should_transmit
from etdkf.graphs import Graph
from etdkf.models import ProcessModel, SensorModel, channel_groups, measure
from etdkf.scenario import get_preset
from etdkf.simulate import covariance_schedule, random_inputs, run_scenario
from test_engine_digests import scenario as engine_scenario

ORACLE = Path(__file__).parent / "data" / "recursion_oracle.npz"
MOMENTS = ("P_prior", "P_post", "P_pred", "P_pred_prior", "P_prior_pred", "X",
           "e_prior", "e_pred", "e_post")


def rotation(theta=np.pi / 200):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def two_node_setup():
    model = ProcessModel(A=rotation(), Q=np.eye(2), x0_mean=[0.5, 0.0], P0=np.eye(2))
    sensors = [SensorModel(C=[[5.0, 0.0], [0.0, 2.0]], R=np.eye(2)),
               SensorModel(C=[[1.0, 0.0], [0.0, 3.0]], R=np.eye(2))]
    graph = Graph(2, [(1, 2)])
    return model, sensors, graph


def blk(M, i, j, n=2):
    """(i, j) block of a stacked moment, nodes numbered from 1."""
    return M[(i - 1) * n:i * n, (j - 1) * n:j * n]


class TestSignalInjection:
    def test_sinusoid_evaluation(self):
        sig = SignalSpec(kind="sinusoid", offset=2.0, amplitude=10.0, frequency=100.0)
        t = 3.0
        want = (2.0 + 10.0 * np.sin(300.0)) * np.ones(2)
        assert np.allclose(sig.evaluate(t, 2), want, atol=1e-15)

    def test_constant_bias_additive_oracle(self):
        """The attacked node measures y^a = y + f from the onset on, y
        recomputed from the plant path and the run's noise: its attack_norm
        is ||y^a - y|| and its innovation norm ||y^a - C xbar||."""
        f = np.random.default_rng(0).standard_normal(2)
        cfg = dataclasses.replace(get_preset("fig6"), steps=40, attacks=[AttackPlan(
            kind="measurement_injection", node=2, onset=15, signal=SignalSpec(value=f.tolist()))])
        trace = run_scenario(cfg)
        [p] = channel_groups(cfg.sensors)[0]
        x_true, xbar = (np.stack([trace.series(f"{prefix}_{d}", 2) for d in range(cfg.process.n)],
                                 -1) for prefix in ("x_true", "xbar"))
        C = cfg.sensors[1].C
        y = measure(C, x_true, random_inputs(cfg)[2][p][:, 1])
        y_a = y + np.where(np.arange(cfg.steps)[:, None] >= 15, f, 0.0)
        assert trace.series("attack_norm", 2).tolist() == [
            float(np.linalg.norm(row)) for row in y_a - y]
        assert trace.series("innov_norm", 2).tolist() == [
            float(np.linalg.norm(y_k - C @ x_k)) for y_k, x_k in zip(y_a, xbar)]

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            AttackPlan(kind="bogus", onset=0, node=1)
        with pytest.raises(ConfigurationError):
            AttackPlan(kind="channel_injection", onset=0)
        with pytest.raises(ConfigurationError):
            AttackPlan(kind="replay", onset=-1, node=1)


class TestNonTriggering:
    def test_direct_mode_residual_exact(self):
        rng = np.random.default_rng(1)
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        for _ in range(50):
            y = rng.standard_normal(2) * 5
            xp = rng.standard_normal(2)
            y_a, fb = craft_non_triggering(y, C, xp, phi=1.62, rng=rng)
            assert not fb
            assert np.linalg.norm(y_a - C @ xp) == pytest.approx(1.62, abs=1e-12)

    def test_phi_zero_hits_prediction_exactly(self):
        C = np.eye(2)
        xp = np.array([0.7, -0.1])
        y_a, _ = craft_non_triggering(np.array([5.0, 5.0]), C, xp, 0.0,
                                      np.random.default_rng(2))
        assert np.array_equal(y_a, C @ xp)

    def test_never_triggers_over_1000_steps(self):
        rng = np.random.default_rng(3)
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        alpha, phi = 1.8, 0.9 * 1.8
        for sampler in (False, True):
            xp = np.array([0.5, 0.0])
            triggers = 0
            for _ in range(1000):
                y = rng.standard_normal(2) * 8
                y_a, _ = craft_non_triggering(y, C, xp, phi, rng, sampler=sampler)
                triggers += should_transmit(y_a, C, xp, alpha)
                xp = rotation() @ xp
            assert triggers == 0

    def test_sampler_draws_within_interval_when_valid(self):
        # ||y|| < ||C xp|| makes the interval nonempty
        rng = np.random.default_rng(4)
        C = np.eye(2)
        xp = np.array([10.0, 0.0])
        y = np.array([1.0, 0.0])
        y_a, fell_back = craft_non_triggering(y, C, xp, phi=0.5, rng=rng, sampler=True)
        assert np.linalg.norm(y_a - C @ xp) <= 0.5 + 1e-12


class TestReplay:
    def test_residual_equals_upsilon_right_after_transmission(self):
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        xbar_last = np.array([0.4, 0.2])
        ups = np.array([1.4, 1.4])
        y_a = craft_replay(xbar_last, C, ups)
        # zeta=1 at the previous step means x_pred == that prior
        resid = y_a - C @ xbar_last
        assert np.allclose(resid, ups, atol=1e-15)
        assert should_transmit(y_a, C, xbar_last, alpha=1.8)

    def test_zero_upsilon_stationary_prior_silent(self):
        C = np.eye(2)
        xbar = np.array([1.0, 1.0])
        y_a = craft_replay(xbar, C, np.zeros(2))
        assert not should_transmit(y_a, C, xbar, alpha=0.5)


class TestRecursionSignals:
    @staticmethod
    def pair(gamma=0.05):
        model, sensors, graph = two_node_setup()
        return [AttackRecursion(model, sensors, graph, gamma=gamma) for _ in range(2)]

    def test_zero_signals_match_attack_free(self):
        # zero signals, and a channel that is not in the graph, change nothing
        clean, zero = self.pair()
        for z in [(1, 1), (0, 1), (1, 0), (0, 0), (1, 1)]:
            clean.step({1: z[0], 2: z[1]})
            zero.step({1: z[0], 2: z[1]}, f_meas={1: np.zeros(2), 2: np.zeros(2)},
                      f_chan={(1, 2): np.zeros(2), (2, 1): np.zeros(2),
                              (0, 1): np.ones(2)})
            for name in MOMENTS:
                assert np.array_equal(getattr(zero, name), getattr(clean, name)), name
        assert not zero.e_post.any()

    @pytest.mark.parametrize("zetas, kwargs, match", [
        ({1: 1, 2: 1}, {"f_meas": {-1: np.zeros(2)}}, "f_meas for node -1,"),
        ({1: 1, 2: 1}, {"f_meas": {3: np.zeros(2)}}, "f_meas for node 3,"),
        ({1: 1, 2: 1}, {"f_meas": {2: np.zeros(3)}}, r"f_meas for node 2 has shape \(3,\)"),
        ({1: 1, 2: 1}, {"f_chan": {(1, 2): np.zeros(1)}}, r"f_chan for channel \(1, 2\)"),
        ({1: 1}, {}, r"no trigger for node\(s\) \[2\]"),
    ], ids=["node_-1", "node_N+1", "meas_length", "chan_length", "zetas"])
    def test_malformed_input_rejected_by_name(self, zetas, kwargs, match):
        # Rejected before any moment moves: the recursion then steps on as
        # one that never saw the call.
        rec, clean = self.pair()
        for r in (rec, clean):
            r.step({1: 1, 2: 1})
        with pytest.raises(ConfigurationError, match=match):
            rec.step(zetas, **kwargs)
        for r in (rec, clean):
            r.step({1: 0, 2: 1})
        for name in MOMENTS:
            assert np.array_equal(getattr(rec, name), getattr(clean, name)), name

    def test_direct_attack_shifts_mean_by_gain(self):
        # intact neighbors, zero means at k = 0: the attack shifts only node 1's
        # posterior error mean, by exactly -K_1 f
        rec, _ = self.pair()
        f = np.array([2.0, -1.0])
        rec.step({1: 1, 2: 1}, f_meas={1: f})
        assert np.array_equal(rec.e_post[:2], -rec.gains[1] @ f)
        assert not rec.e_post[2:].any()

    def test_held_channel_bias_while_sender_silent(self):
        # While sender 1 is silent, whatever is injected on 1 -> 2 now is not
        # received: every moment evolves as if the old bias were still sent.
        held, changed = self.pair()
        f0 = np.array([0.5, -0.5])
        for rec in (held, changed):
            rec.step({1: 1, 2: 1}, f_chan={(1, 2): f0})
        for _ in range(5):
            held.step({1: 0, 2: 1}, f_chan={(1, 2): f0})
            changed.step({1: 0, 2: 1}, f_chan={(1, 2): np.array([9.0, 9.0])})
            for name in MOMENTS:
                assert np.array_equal(getattr(changed, name), getattr(held, name)), name
            assert np.array_equal(changed.f_tilde[0, 1], f0)

    def test_channel_bias_refreshed_on_transmission(self):
        held, changed = self.pair()
        f0, f1 = np.array([1.0, 2.0]), np.array([9.0, 9.0])
        for rec in (held, changed):
            rec.step({1: 1, 2: 1}, f_chan={(1, 2): f0})
            rec.step({1: 0, 2: 0}, f_chan={(1, 2): f0})
        held.step({1: 1, 2: 0}, f_chan={(1, 2): f0})
        changed.step({1: 1, 2: 0}, f_chan={(1, 2): f1})
        assert np.array_equal(changed.f_tilde[0, 1], f1)
        assert not np.allclose(changed.P_post, held.P_post)
        # receiver 2's posterior mean moves by -gamma (f1 - f0); sender 1's not
        assert np.allclose(changed.e_post[2:] - held.e_post[2:], -0.05 * (f1 - f0),
                           rtol=0, atol=1e-12)
        assert np.array_equal(changed.e_post[:2], held.e_post[:2])


class TestRecursionBranches:
    def test_both_triggering_collapses_to_cross_prior(self):
        model, sensors, graph = two_node_setup()
        rec = AttackRecursion(model, sensors, graph, gamma=0.05)
        rec.step({1: 1, 2: 1})
        rec.step({1: 1, 2: 1})
        assert np.allclose(blk(rec.P_pred, 1, 2), blk(rec.P_prior, 1, 2), atol=1e-12)
        assert np.allclose(blk(rec.P_pred_prior, 1, 2), blk(rec.P_prior, 1, 2), atol=1e-12)

    def test_both_silent_extrapolates(self):
        model, sensors, graph = two_node_setup()
        rec = AttackRecursion(model, sensors, graph, gamma=0.05)
        rec.step({1: 1, 2: 1})
        P_pred_before = rec.P_pred.copy()
        rec.step({1: 0, 2: 0})
        A, Q = model.A, model.Q
        want = A @ blk(P_pred_before, 1, 2) @ A.T + Q
        assert np.allclose(blk(rec.P_pred, 1, 2), want, atol=1e-12)

    def test_transpose_symmetry_of_mixed_families(self):
        model, sensors, graph = two_node_setup()
        rec = AttackRecursion(model, sensors, graph, gamma=0.05)
        schedule = [(1, 1), (1, 0), (0, 1), (0, 0), (1, 1)]
        for z1, z2 in schedule:
            rec.step({1: z1, 2: z2}, f_meas={1: np.array([1.0, 1.0])})
        for i in (1, 2):
            for j in (1, 2):
                assert np.allclose(blk(rec.P_prior_pred, i, j),
                                   blk(rec.P_pred_prior, j, i).T, atol=1e-10)
                assert np.allclose(blk(rec.P_pred, i, j), blk(rec.P_pred, j, i).T,
                                   atol=1e-10)

    def test_attack_free_reduction_to_joseph_form(self):
        model, sensors, graph = two_node_setup()
        rec = AttackRecursion(model, sensors, graph, gamma=0.0)
        P_prior = model.P0.copy()
        for _ in range(15):
            rec.step({1: 1, 2: 1})
            K = kalman_gain(P_prior, sensors[0].C, sensors[0].R)
            want = posterior_covariance(P_prior, K, sensors[0].C, sensors[0].R)
            assert np.allclose(blk(rec.P_post, 1, 1), want, atol=1e-10)
            P_prior = model.A @ want @ model.A.T + model.Q

    def test_step_returns_posterior_blocks(self):
        model, sensors, graph = two_node_setup()
        rec = AttackRecursion(model, sensors, graph, gamma=0.05)
        post = rec.step({1: 1, 2: 1}, f_meas={1: np.array([1.0, 0.0])})
        assert sorted(post) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        for (i, j), block in post.items():
            assert block.shape == (2, 2)
            assert np.array_equal(block, blk(rec.P_post, i, j))

    def test_attack_inflates_posterior_trace(self):
        model, sensors, graph = two_node_setup()
        clean = AttackRecursion(model, sensors, graph, gamma=0.05)
        dirty = AttackRecursion(model, sensors, graph, gamma=0.05)
        f = np.array([3.0, 3.0])
        for k in range(20):
            clean.step({1: 1, 2: 1})
            dirty.step({1: 1, 2: 1}, f_meas={1: f} if k >= 3 else None)
        for i in (1, 2):
            assert np.trace(blk(dirty.P_post, i, i)) >= \
                np.trace(blk(clean.P_post, i, i)) - 1e-12


@pytest.mark.bits
class TestRecursionOracle:
    def test_matches_recorded_block_recursion(self):
        """The stacked recursion against outputs recorded from the per-block
        (i, j) implementation it replaced, on the six-node fig3 network.

        The fixture was generated with that implementation by:

            cfg = get_preset("fig3")
            N, n = cfg.graph.node_count, cfg.process.n
            rng = np.random.default_rng(4004)
            schedule = (rng.random((40, N)) < 0.7).astype(int)
            f_meas = rng.normal(0.0, 3.0, cfg.sensors[1].p)
            f_chan = rng.normal(0.0, 1.0, n)
            out = {"schedule": schedule, "f_meas_2": f_meas, "f_chan_2_1": f_chan}
            for mode in ("nominal", "corrupted"):
                rec = AttackRecursion(cfg.process, cfg.sensors, cfg.graph,
                                      gamma=cfg.consensus.gamma, gain_mode=mode)
                post = np.zeros((40, N * n, N * n))
                for k in range(40):
                    on = k >= 10
                    blocks = rec.step({i + 1: int(z) for i, z in enumerate(schedule[k])},
                                      f_meas={2: f_meas} if on else None,
                                      f_chan={(2, 1): f_chan} if on else None)
                    for (i, j), b in blocks.items():
                        post[k, (i - 1) * n:i * n, (j - 1) * n:j * n] = b
                out[f"{mode}_post"] = post
                for name in ("P_pred", "P_pred_prior", "P_prior_pred"):
                    out[f"{mode}_{name}"] = stack(getattr(rec, name))  # blocks -> Nn x Nn
                out[f"{mode}_gains"] = np.array([rec.gains[i] for i in cfg.graph.nodes])
            np.savez_compressed("tests/data/recursion_oracle.npz", **out)

        The `corrupted_*` arrays belong to a gain mode that is gone; they go
        unread.
        """
        want = np.load(ORACLE)
        cfg = get_preset("fig3")
        nodes = list(cfg.graph.nodes)

        def close(got, ref):
            return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

        rec = AttackRecursion(cfg.process, cfg.sensors, cfg.graph, gamma=cfg.consensus.gamma)
        for k, zetas in enumerate(want["schedule"]):
            on = k >= 10
            post = rec.step(dict(zip(nodes, zetas.tolist())),
                            f_meas={2: want["f_meas_2"]} if on else None,
                            f_chan={(2, 1): want["f_chan_2_1"]} if on else None)
            got = np.block([[post[(i, j)] for j in nodes] for i in nodes])
            assert close(got, want["nominal_post"][k]), k
        for name in ("P_pred", "P_pred_prior", "P_prior_pred"):
            assert close(getattr(rec, name), want[f"nominal_{name}"]), name
        assert close(np.array([rec.gains[i] for i in nodes]), want["nominal_gains"])


@pytest.mark.bits
@pytest.mark.parametrize("cfg", [get_preset("fig3"), engine_scenario("mixed-p-synthetic")],
                         ids=["fig3", "mixed-p-synthetic"])
def test_recursion_gains_are_the_schedule_gains(cfg):
    """`AttackRecursion` runs the attack-free filter's gains: at every step
    they equal `covariance_schedule`'s K bit for bit, one-channel sensors
    among two-channel ones included."""
    cfg = dataclasses.replace(cfg, steps=40)
    groups = channel_groups(cfg.sensors)[0]
    rec = AttackRecursion(cfg.process, cfg.sensors, cfg.graph, gamma=cfg.consensus.gamma)
    for k, (_, K, *_) in enumerate(covariance_schedule(cfg)):
        rec.step({i: k % 2 for i in cfg.graph.nodes})
        for p, rows in groups.items():
            got = np.array([rec.gains[b + 1] for b in rows.tolist()])
            assert got.tobytes() == K[p].tobytes(), (k, p)


def test_recursion_needs_one_sensor_per_node():
    """Five sensors on fig3's six-node graph fail at construction, naming
    both counts, not at the first step."""
    cfg = get_preset("fig3")
    with pytest.raises(ConfigurationError, match="5 sensors for the 6 nodes"):
        AttackRecursion(cfg.process, cfg.sensors[:5], cfg.graph, gamma=cfg.consensus.gamma)


@st.composite
def recursion_cases(draw):
    """Random connected graph (N = 2..7), sensors, trigger schedule and injections."""
    N = draw(st.integers(2, 7))
    edges = {(draw(st.integers(1, k - 1)), k) for k in range(2, N + 1)}   # spanning tree
    extra = draw(st.lists(st.tuples(st.integers(1, N), st.integers(1, N)), max_size=N))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    steps = draw(st.integers(2, 12))
    schedule = draw(st.lists(st.lists(st.booleans(), min_size=N, max_size=N),
                             min_size=steps, max_size=steps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = ProcessModel(A=draw(st.floats(0.9, 1.05)) * rotation(rng.uniform(0, 0.5)),
                         Q=np.diag(rng.uniform(0.5, 2.0, 2)), x0_mean=[0.0, 0.0],
                         P0=np.diag(rng.uniform(0.5, 2.0, 2)))
    sensors = [SensorModel(C=rng.uniform(-3, 3, (p, 2)), R=np.diag(rng.uniform(0.5, 2, p)))
               for p in rng.integers(1, 3, N)]
    hit = draw(st.integers(1, N))
    sender = draw(st.sampled_from(sorted({a for e in edges for a in e if hit in e} - {hit})))
    f_meas = {hit: rng.normal(0, 3, sensors[hit - 1].p)}
    f_chan = {(sender, hit): rng.normal(0, 1, 2)}
    return dict(model=model, sensors=sensors, graph=Graph(N, edges), schedule=schedule,
                gamma=draw(st.floats(0.0, 0.3)), onset=draw(st.integers(0, steps)),
                f_meas=f_meas, f_chan=f_chan)


class TestRecursionProperties:
    @settings(max_examples=60, deadline=None)
    @given(recursion_cases())
    def test_cross_families_transpose_symmetric(self, case):
        rec = AttackRecursion(case["model"], case["sensors"], case["graph"],
                              gamma=case["gamma"])
        for k, z in enumerate(case["schedule"]):
            on = k >= case["onset"]
            rec.step(dict(enumerate(z, start=1)), f_meas=case["f_meas"] if on else None,
                     f_chan=case["f_chan"] if on else None)
            tol = 1e-10 * max(1.0, np.abs(rec.P_pred).max(), np.abs(rec.P_prior_pred).max())
            assert np.allclose(rec.P_prior_pred, rec.P_pred_prior.T, rtol=0, atol=tol)
            assert np.allclose(rec.P_pred, rec.P_pred.T, rtol=0, atol=tol)

    @settings(max_examples=60, deadline=None)
    @given(recursion_cases())
    def test_diagonal_posterior_blocks_exactly_symmetric(self, case):
        rec = AttackRecursion(case["model"], case["sensors"], case["graph"],
                              gamma=case["gamma"])
        for k, z in enumerate(case["schedule"]):
            on = k >= case["onset"]
            post = rec.step(dict(enumerate(z, start=1)),
                            f_meas=case["f_meas"] if on else None,
                            f_chan=case["f_chan"] if on else None)
            for i in case["graph"].nodes:
                D = post[(i, i)]
                assert np.array_equal(D, D.T)
                assert np.linalg.eigvalsh(D).min() >= -1e-10 * max(1.0, np.abs(D).max())

    @settings(max_examples=40, deadline=None)
    @given(recursion_cases())
    def test_attack_free_reduction_to_joseph_form(self, case):
        # gamma = 0, no injection, every node transmitting: each diagonal block
        # is its node's single-sensor Joseph-form recursion
        model, sensors = case["model"], case["sensors"]
        rec = AttackRecursion(model, sensors, case["graph"], gamma=0.0)
        P_prior = [model.P0.copy() for _ in sensors]
        for _ in case["schedule"]:
            post = rec.step({i: 1 for i in case["graph"].nodes})
            for i, s in enumerate(sensors, start=1):
                K = kalman_gain(P_prior[i - 1], s.C, s.R)
                want = posterior_covariance(P_prior[i - 1], K, s.C, s.R)
                assert np.allclose(post[(i, i)], want, rtol=1e-10, atol=1e-12)
                P_prior[i - 1] = model.A @ want @ model.A.T + model.Q


def batched_two_node_sim(model, sensors, graph, gamma, steps, trials, seed,
                         f=None, onset=0, always_trigger=True):
    """Vectorized Monte-Carlo oracle for the two-node network.

    Runs the closed-loop event-triggered filter for `trials` independent noise
    realizations under a forced trigger schedule (all transmit when
    `always_trigger`, none after step 0 otherwise) and returns per-step
    empirical error moments.
    """
    rng = np.random.default_rng(seed)
    A, Q = model.A, model.Q
    n = 2
    Ls = {i: np.linalg.cholesky(sensors[i - 1].R) for i in (1, 2)}
    x = model.x0_mean + rng.standard_normal((trials, n)) @ np.linalg.cholesky(model.P0).T
    xbar = {i: np.tile(model.x0_mean, (trials, 1)) for i in (1, 2)}
    xpred = {i: np.tile(model.x0_mean, (trials, 1)) for i in (1, 2)}
    P_prior = {i: model.P0.copy() for i in (1, 2)}
    LQ = np.linalg.cholesky(Q)
    post_moments = {1: [], 2: []}
    pred_cross = []
    for k in range(steps):
        zeta = 1 if (always_trigger or k == 0) else 0
        y = {}
        for i in (1, 2):
            C = sensors[i - 1].C
            y[i] = x @ C.T + rng.standard_normal((trials, 2)) @ Ls[i].T
            if f is not None and i == 1 and k >= onset:
                y[i] = y[i] + f
        gains = {}
        for i in (1, 2):
            C, R = sensors[i - 1].C, sensors[i - 1].R
            gains[i] = kalman_gain(P_prior[i], C, R)
            xpred[i] = xbar[i] if zeta else xpred[i] @ A.T
        xhat = {}
        for i, j in ((1, 2), (2, 1)):
            C = sensors[i - 1].C
            innov = y[i] - xbar[i] @ C.T
            xhat[i] = xbar[i] + innov @ gains[i].T + gamma * (xpred[j] - xpred[i])
        for i in (1, 2):
            err = x - xhat[i]
            post_moments[i].append(err[:, :, None] * err[:, None, :])
        e1 = x - xpred[1]
        e2 = x - xpred[2]
        pred_cross.append(e1[:, :, None] * e2[:, None, :])
        for i in (1, 2):
            C, R = sensors[i - 1].C, sensors[i - 1].R
            P_post = posterior_covariance(P_prior[i], gains[i], C, R)
            P_prior[i] = A @ P_post @ A.T + Q
            xbar[i] = xhat[i] @ A.T
        x = x @ A.T + rng.standard_normal((trials, n)) @ LQ.T
    emp_post = {i: [m.mean(axis=0) for m in post_moments[i]] for i in (1, 2)}
    emp_cross = [m.mean(axis=0) for m in pred_cross]
    return emp_post, emp_cross


class TestRecursionMonteCarlo:
    def test_predictive_cross_moment_matches(self):
        # Silent regime exercises the extrapolation branches.
        model, sensors, graph = two_node_setup()
        gamma = 0.05
        steps, trials = 16, 4000
        emp_post, emp_cross = batched_two_node_sim(
            model, sensors, graph, gamma, steps, trials, seed=77,
            f=np.array([3.0, 3.0]), onset=4, always_trigger=False)
        rec = AttackRecursion(model, sensors, graph, gamma=gamma)
        for k in range(steps):
            z = 1 if k == 0 else 0
            fm = {1: np.array([3.0, 3.0])} if k >= 4 else None
            rec.step({1: z, 2: z}, f_meas=fm)
        got = blk(rec.P_pred, 1, 2)
        want = emp_cross[-1]
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 0.15
