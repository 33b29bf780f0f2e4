import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf import simulate
from etdkf.attacks import AttackPlan, SignalSpec
from etdkf.errors import ConfigurationError
from etdkf.filtering import kalman_gain, measurement_update
from etdkf.graphs import Graph
from etdkf.models import channel_groups
from etdkf.resilience import (DISCOUNTING_MODES, BeliefState, BoundMonitor,
                              DiscountedBelief, ResilientConfig, assumption4_satisfied,
                              divergence_statistic, trust_masked_laplacian,
                              weighted_neighbor_estimate)
from etdkf.scenario import ScenarioConfig, get_preset
from etdkf.simulate import run_scenario

from helpers import edge_series
from test_engine_digests import ONE, TWO
from test_engine_digests import scenario as engine_scenario
from test_scenario import tiny_config


class TestDiscountedBeliefs:
    def test_all_ones_converges_to_one(self):
        b = DiscountedBelief(kappa=0.5)
        for _ in range(60):
            b.update(1.0)
        assert b.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_converges_to_constant(self):
        # normalized discounting: beta -> c exactly (geometric-series algebra)
        for c in (0.2, 0.737, 1.0):
            b = DiscountedBelief(kappa=0.5)
            for _ in range(80):
                b.update(c)
            assert b.value == pytest.approx(c, abs=1e-12)

    def test_small_input_drives_belief_down(self):
        b = DiscountedBelief(kappa=0.5)
        for _ in range(30):
            b.update(1.0)
        for _ in range(30):
            b.update(0.02)
        assert b.value < 0.05

    def test_unnormalized_mode_matches_literal_sum(self):
        kappa, stats = 0.5, [0.9, 0.4, 0.7, 1.0]
        b = DiscountedBelief(kappa=kappa, mode="unnormalized")
        for s in stats:
            b.update(s)
        k = len(stats)
        want = sum(kappa ** (k - l + 1) * stats[l] for l in range(k))
        assert b.value == pytest.approx(want, abs=1e-14)

    def test_trust_mirrors_confidence(self):
        s = DiscountedBelief(kappa=0.3)
        for _ in range(100):
            s.update(0.6)
        assert s.value == pytest.approx(0.6, abs=1e-12)

    def test_divergence_statistic_in_unit_interval(self):
        # Why BeliefState.step needs no range check before DiscountedBelief.update:
        # every divergence, NaN and the infinities included, maps into (0, 1].
        d = np.array([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e-300, 1.0, 1e308])
        for scale in (1e-300, 0.5, 1 - 1e-16):
            for stat in (divergence_statistic(d, scale),
                         *(divergence_statistic(x, scale) for x in d.tolist())):
                assert np.all((0.0 < stat) & (stat <= 1.0)), (scale, stat)

    def test_monotone_response_to_divergence(self):
        # pointwise larger divergences give pointwise smaller-or-equal beliefs
        rng = np.random.default_rng(0)
        low = rng.uniform(0.0, 0.5, size=50)
        high = low + rng.uniform(0.0, 1.0, size=50)
        b_low = DiscountedBelief(kappa=0.5)
        b_high = DiscountedBelief(kappa=0.5)
        for dl, dh in zip(low, high):
            b_low.update(divergence_statistic(dl, 0.5))
            b_high.update(divergence_statistic(dh, 0.5))
            assert b_high.value <= b_low.value + 1e-14
            assert 0.0 < b_high.value <= 1.0

    def test_belief_state_ranges_and_nan_handling(self):
        cfg = ResilientConfig()
        bs = BeliefState([1, 2], [(1, 2)], cfg)
        for d in (float("nan"), 0.3, -0.2, 10.0):
            bs.step([d, 0.0, d])
            beta, sigma = bs.belief.value[:2], bs.belief.value[2:]
            assert 0.0 < beta[0] <= 1.0
            assert 0.0 < sigma[0] <= 1.0
        # negative divergence floors to statistic 1
        assert divergence_statistic(-3.0, 0.5) == 1.0
        assert divergence_statistic(float("nan"), 0.5) == 1.0


divergences = st.one_of(st.floats(min_value=0.0), st.just(np.inf), st.just(np.nan))
scales = st.floats(0.01, 0.99)


@settings(max_examples=100, deadline=None)
@given(scales, scales, scales, scales,
       st.lists(st.tuples(st.lists(divergences, min_size=3, max_size=3),
                          st.lists(divergences, min_size=2, max_size=2)),
                min_size=1, max_size=40))
def test_normalized_beliefs_stay_in_unit_interval(upsilon1, lambda1, kappa1, kappa2, steps):
    """Any divergence in [0, +inf] (or none yet, NaN) keeps chi, theta, beta
    and sigma in (0, 1]."""
    cfg = ResilientConfig(upsilon1=upsilon1, lambda1=lambda1, kappa1=kappa1, kappa2=kappa2)
    bs = BeliefState([1, 2, 3], [(1, 2), (2, 1)], cfg)
    for node_div, edge_div in steps:
        bs.step(node_div + edge_div)
        for value in (bs.stat, bs.belief.value):   # chi and theta, beta and sigma
            assert np.all((0.0 < value) & (value <= 1.0)), (value, node_div, edge_div)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from(["normalized", "unnormalized"]),
       st.lists(st.tuples(st.lists(st.floats(min_value=0.0), min_size=2, max_size=2),
                          st.lists(st.floats(min_value=0.0), min_size=1, max_size=1)),
                min_size=1, max_size=60))
def test_beliefs_stay_positive_for_any_discount(kappa, discounting, steps):
    """No kappa in (0, 1) and no divergence in [0, +inf] underflows beta or
    sigma to 0 (or 0/0): they stay in (0, 1] normalized, and positive and
    finite unnormalized."""
    cfg = ResilientConfig(kappa1=kappa, kappa2=kappa, discounting=discounting)
    bs = BeliefState([1, 2], [(1, 2)], cfg)
    for node_div, edge_div in steps:
        bs.step(node_div + edge_div)
        for value in (bs.belief.value[:2], bs.belief.value[2:]):   # beta, sigma
            assert np.all(0.0 < value) and np.all(np.isfinite(value)), (value, kappa)
            if discounting == "normalized":
                assert np.all(value <= 1.0), (value, kappa)


# kappa in (0, 1), with one whose square is subnormal and one whose square is 0.
discounts = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    [1e-160, 1e-200])
any_divergence = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0])


@pytest.mark.bits
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 8), st.sampled_from(DISCOUNTING_MODES),
       st.lists(discounts, min_size=2, max_size=2, unique=True),
       st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=2, max_size=2,
                unique=True), st.data())
def test_belief_vector_equals_per_entry_beliefs(N, E, mode, kappas, scales, data):
    """One `BeliefState` step equals, in bytes, a scalar `DiscountedBelief`
    per entry fed the scalar `divergence_statistic` of its divergence, with
    the channels advancing only from the fill step F on. The engine's
    chi and theta, one `divergence_statistic` call after the run over the
    whole-run record of divergences (NaN where a step passed none, and on a
    channel without a window), are the statistics each step produced, and 1
    where it produced none."""
    (kappa1, kappa2), (upsilon1, lambda1) = kappas, scales
    bs = BeliefState(range(N), range(E), ResilientConfig(
        upsilon1=upsilon1, lambda1=lambda1, kappa1=kappa1, kappa2=kappa2, discounting=mode))
    oracles = [DiscountedBelief(kappa, mode) for kappa in [kappa1] * N + [kappa2] * E]
    scale = [upsilon1] * N + [lambda1] * E
    steps = data.draw(st.integers(1, 12))
    fill = data.draw(st.integers(0, steps))
    record = np.full((steps, N + E + 1), np.nan)   # the last channel has no window
    produced = np.ones((steps, N + E + 1))
    for k in range(steps):
        size = N + E if k >= fill else N
        divergence = data.draw(st.lists(any_divergence, min_size=size, max_size=size))
        bs.step(divergence)
        record[k, :size], produced[k, :size] = divergence, bs.stat
        stat = [divergence_statistic(d, s) for d, s in zip(divergence, scale)]
        for oracle, chi in zip(oracles, stat):
            oracle.update(chi)
        assert bs.stat.tobytes() == np.array(stat).tobytes()
        assert bs.belief.value.tobytes() == np.array([o.value for o in oracles[:size]]).tobytes()
    after = divergence_statistic(record, np.repeat([upsilon1, lambda1], [N, E + 1]))
    assert after.tobytes() == produced.tobytes()


def test_tiny_discount_with_infinite_divergence_keeps_beliefs_positive():
    """kappa = 1e-9 with +inf from the start used to underflow beta to 0."""
    bs = BeliefState([1], [(1, 1)], ResilientConfig(kappa1=1e-9, kappa2=1e-9))
    for _ in range(200):
        bs.step([np.inf, np.inf])
    beta, sigma = bs.belief.value
    assert beta > 0.0 and sigma > 0.0


@pytest.mark.parametrize("scale", ["upsilon1", "lambda1"])
def test_tiny_divergence_scale_with_infinite_divergence_keeps_statistics_positive(scale):
    """upsilon1 (or lambda1) = 1e-300 with +inf used to underflow chi (or
    theta) to 0, which the confidence (trust) update rejects mid-run."""
    bs = BeliefState([1, 2], [(1, 2), (2, 1)], ResilientConfig(**{scale: 1e-300}))
    for _ in range(5):
        bs.step([np.inf, 0.0, np.inf, 0.0])
        for value in (bs.stat, bs.belief.value):   # chi and theta, beta and sigma
            assert np.all((0.0 < value) & (value <= 1.0)), value
    assert divergence_statistic(np.inf, 1e-300) == np.finfo(float).smallest_subnormal


@pytest.mark.parametrize("scale", ["upsilon1", "lambda1"])
def test_run_with_tiny_divergence_scale_and_overflowing_injection_completes(scale):
    """A scenario that `validate` accepts, with a tiny divergence scale and an
    injection that overflows the k-NN distances, runs to the end with every
    confidence and trust in (0, 1]."""
    fig7 = get_preset("fig7")
    cfg = dataclasses.replace(
        fig7, steps=60, resilient=dataclasses.replace(fig7.resilient, **{scale: 1e-300}),
        detector=dataclasses.replace(fig7.detector, window=10, k_nn=3, average=3),
        attacks=[AttackPlan(kind="measurement_injection", node=2, onset=30,
                            signal=SignalSpec(value=1e300))])
    cfg.validate()
    trace = run_scenario(cfg)
    assert trace.series("phi", 2)[-1] == np.inf
    for value in (trace.column("beta"), trace.column("sigma", edge=True)):
        assert np.all((0.0 < value) & (value <= 1.0))


class TestWeightedNeighborEstimate:
    def test_unit_weights_recover_shared_value(self):
        xs = [np.array([1.0, 2.0]), np.array([1.0, 2.0])]
        m = weighted_neighbor_estimate([9.0, 9.0], xs, [1.0 * 1.0, 1.0 * 1.0])
        assert np.allclose(m, [1.0, 2.0], atol=1e-15)

    def test_zero_trust_contributes_nothing(self):
        xs = [np.array([100.0, 100.0]), np.array([2.0, 0.0])]
        m = weighted_neighbor_estimate([0.0, 0.0], xs, [0.0 * 1.0, 1.0 * 1.0])
        assert np.allclose(m, [1.0, 0.0], atol=1e-15)  # divided by |N_i| = 2

    def test_mixed_weights_arithmetic_oracle(self):
        xs = [np.array([2.0, 0.0]), np.array([0.0, 4.0]), np.array([1.0, 1.0])]
        weights = [0.5 * 0.8, 0.25 * 1.0, 1.0 * 0.5]   # sigma_ij * beta_j
        want = (0.5 * 0.8 * xs[0] + 0.25 * 1.0 * xs[1] + 1.0 * 0.5 * xs[2]) / 3.0
        m = weighted_neighbor_estimate([0.0, 0.0], xs, weights)
        assert np.allclose(m, want, atol=1e-15)

    def test_isolated_node_falls_back_to_prior(self):
        m = weighted_neighbor_estimate([3.0, -1.0], [], [])
        assert np.array_equal(m, [3.0, -1.0])

    def test_unset_first_slot_leaves_the_average(self):
        m = weighted_neighbor_estimate(np.zeros(2), [[1.0, 1.0], [3.0, 3.0]], [1.0, 1.0],
                                       [False, True])
        assert m.tolist() == [3.0, 3.0]

    @pytest.mark.bits
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 12), st.integers(1, 3))
    def test_whole_run_stack_equals_per_step_calls(self, seed, steps, N, D, n):
        """The engine takes m_i of every step in one call over (steps, N, D,
        n): bit for bit the per-step calls, with NaN, +-inf and -0.0 among
        the predictions, priors and weights, and rows without neighbors.
        Only a NaN's sign may differ: where two NaNs are added, numpy's
        loops keep either one's, even within one call, and a trace writes
        every NaN as nan."""
        rng = np.random.default_rng(seed)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308])

        def values(shape):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            hit = rng.random(shape) < 0.1
            a[hit] = rng.choice(special, hit.sum())
            return a

        mask = rng.random((N, D)) < 0.7
        mask[rng.random(N) < 0.3] = False
        x_prior, preds, weights = values((steps, N, n)), values((steps, N, D, n)), values(
            (steps, N, D))
        with np.errstate(all="ignore"):   # inf - inf, inf * 0 and overflow
            whole = weighted_neighbor_estimate(x_prior, preds, weights, mask)
            per_step = np.stack([weighted_neighbor_estimate(x_prior[k], preds[k], weights[k],
                                                            mask) for k in range(steps)])
        nan = np.isnan(whole)
        assert np.array_equal(nan, np.isnan(per_step))
        assert whole[~nan].tobytes() == per_step[~nan].tobytes()


class TestResilientUpdate:
    def test_unit_beliefs_reduce_to_nominal_bitwise(self):
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        R = np.eye(2)
        y = np.array([2.3, -0.7])
        own = np.array([0.4, 0.1])
        others = [np.array([0.5, 0.3]), np.array([0.2, -0.2])]

        x_prior = np.array([0.4, 0.1])
        K = kalman_gain(np.eye(2), C, R)
        m = weighted_neighbor_estimate(x_prior, others, [1.0, 1.0])
        x_post = measurement_update(x_prior, K, 0.1, y, C, m, 1.0, others, [1.0, 1.0], own)
        nominal = (x_prior + K @ (y - C @ x_prior)
                   + 0.1 * (np.zeros(2) + (others[0] - own) + (others[1] - own)))
        assert np.array_equal(x_post, nominal)

    def test_zero_confidence_replaces_measurement(self):
        C = np.eye(2)
        x_prior, K = np.zeros(2), np.eye(2) * 0.5
        m = np.array([4.0, 4.0])
        x_post = measurement_update(x_prior, K, 0.0, np.array([100.0, 100.0]), C, m, 0.0,
                                    [], [], x_prior)
        want = x_prior + K @ (C @ m - C @ x_prior)
        assert np.allclose(x_post, want, atol=1e-15)

    @pytest.mark.bits
    def test_unit_confidence_ignores_an_overflowed_neighbor_estimate(self):
        """beta = 1 is the nominal update whatever m is: (1 - beta) C m is
        never formed, so an overflowed m cannot make it 0 * inf = NaN."""
        C, K = np.array([[5.0, 0.0], [0.0, 2.0]]), np.array([[0.1, 0.0], [0.02, 0.3]])
        x_prior, y = np.array([0.4, 0.1]), np.array([2.3, -0.7])
        own, others = np.array([0.3, 0.2]), [np.array([0.5, 0.3]), np.array([0.2, -0.2])]
        nominal = (x_prior + K @ (y - C @ x_prior)
                   + 0.1 * (np.zeros(2) + (others[0] - own) + (others[1] - own)))
        for beta, weights in ((1.0, [1.0, 1.0]), (None, None)):
            with np.errstate(invalid="ignore"):   # C m is [inf, nan]
                x_post = measurement_update(x_prior, K, 0.1, y, C, np.array([np.inf, 0.0]),
                                            beta, others, weights, own)
            assert np.array_equal(x_post, nominal)

    @pytest.mark.bits
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 4),
           st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2)]), st.booleans())
    def test_omitted_beliefs_equal_unit_arrays(self, seed, N, D, shape, matrix_gamma):
        """With beta and weights omitted the law is the nominal formula, and
        bit for bit the call with unit beta and weights, over a stack with
        masked slots, an m whose C m is finite or not, and -0.0 and +-inf
        among the inputs."""
        rng = np.random.default_rng(seed)
        n, p = shape
        x_prior, own = rng.standard_normal((2, N, n))
        y = rng.standard_normal((N, p)) * 5.0
        y[rng.random((N, p)) < 0.1] = -0.0
        C, K = rng.standard_normal((N, p, n)), rng.standard_normal((N, n, p))
        preds = rng.standard_normal((N, D, n)) * 5.0
        preds[rng.random((N, D, n)) < 0.05] = np.inf
        mask = rng.random((N, D)) < 0.7
        gamma = rng.standard_normal((N, n, n)) if matrix_gamma else float(rng.uniform(0, 1))
        m = rng.standard_normal((N, n))
        m[rng.random((N, n)) < 0.3] = rng.choice([np.inf, -np.inf, np.nan, 1e308])
        with np.errstate(all="ignore"):
            omitted = measurement_update(x_prior, K, gamma, y, C, None, None, preds, None, own,
                                         mask)
            unit = measurement_update(x_prior, K, gamma, y, C, m, np.ones(N), preds,
                                      np.ones((N, D)), own, mask)
            assert omitted.tobytes() == unit.tobytes()
            for b in range(N):
                consensus = np.zeros(n)
                for d in np.flatnonzero(mask[b]).tolist():
                    consensus = consensus + (preds[b, d] - own[b])
                coupling = gamma[b] @ consensus if matrix_gamma else gamma * consensus
                want = x_prior[b] + K[b] @ (y[b] - C[b] @ x_prior[b]) + coupling
                assert np.array_equal(omitted[b], want, equal_nan=True)

    def test_weights_scale_consensus_terms(self):
        own = np.array([1.0, 1.0])
        others = [np.array([3.0, 1.0]), np.array([1.0, 5.0])]
        x_post = measurement_update(np.zeros(2), np.zeros((2, 2)), 0.5, np.zeros(2), np.eye(2),
                                    own, 1.0, others, [0.5, 0.25], own)
        assert np.array_equal(x_post, 0.5 * np.array([0.5 * 2.0, 0.25 * 4.0]))


class TestBeliefTiming:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(4, 9), st.integers(1, 3), st.integers(1, 4),
           st.sampled_from(["monitored", "resilient"]),
           st.sampled_from(["normalized", "unnormalized"]))
    def test_trust_waits_for_the_bank_confidence_does_not(self, w, k_nn, T, mode,
                                                          discounting):
        # Before the windows fill, every step gives each confidence a chi = 1
        # update and leaves trust alone; at the first full step trust takes
        # its first update while confidence carries the earlier ones.
        cfg = tiny_config(steps=w + 3, filter={"mode": mode},
                          detector={"window": w, "k_nn": min(k_nn, w - 1),
                                    "average": T},
                          resilient={"discounting": discounting})
        trace = run_scenario(cfg)
        full = w - 1
        for i in (1, 2, 3):
            chi = trace.series("chi", i)
            beta = trace.series("beta", i)
            oracle = DiscountedBelief(cfg.resilient.kappa1, discounting)
            for k in range(full + 1):
                want = oracle.update(1.0 if k < full else chi[k])
                assert beta[k] == want, (i, k)
            assert np.all(chi[:full] == 1.0)
        for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)):
            sigma = edge_series(trace, "sigma", i, j)
            theta = edge_series(trace, "theta", i, j)
            assert np.all(sigma[:full] == 1.0) and np.all(theta[:full] == 1.0)
            first = DiscountedBelief(cfg.resilient.kappa2, discounting).update(theta[full])
            assert sigma[full] == first


class TestBoundMonitor:
    def test_no_deficit_reduces_to_trigger_term(self):
        A = np.eye(2) * 0.5
        mon = BoundMonitor(A=A, C_norms=[5.0, 5.0], alpha=1.8, tau=10.0)
        sA, sL, N = 0.5, 2.0, 2
        # A_o = ||0.5 * 0.2 I||_2 < 1, and ||[[1, -1], [-1, 1]]||_2 = 2
        records = [(0.1, 0.1, sL, [1.0, 1.0])] * 2
        want = sA * sL * 0.1 * np.sqrt(N) * (1.8 / 5.0 + 2.0)
        assert mon.bounds(0.0, records, B=2.0) == [0.0, pytest.approx(want, abs=1e-12)]
        # bound(1) - B_o = A_o * bound(0)
        A_o = mon.bounds(1.0, records, B=2.0)[1] - mon.bounds(0.0, records, B=2.0)[1]
        assert A_o == pytest.approx(0.1, abs=1e-12)

    def test_contractive_bound_converges_to_asymptote(self):
        A = np.eye(2) * 0.5
        mon = BoundMonitor(A=A, C_norms=[5.0], alpha=1.8, tau=10.0)
        records = [(0.2, 0.05, 0.0, [0.9])] * 200
        # geometric series limit: bound -> B_o / (1 - A_o), A_o = 0.2
        B_o = mon.bounds(0.0, records[:2], B=2.0)[1]
        assert mon.bounds(50.0, records, B=2.0)[-1] == pytest.approx(B_o / (1.0 - 0.2), rel=1e-6)

    def test_non_contractive_flagged(self):
        A = np.eye(2) * 3.0
        mon = BoundMonitor(A=A, C_norms=[1.0], alpha=1.0, tau=1.0)
        record = (3.0, 0.0, 0.0, [1.0])
        assert mon.bounds(1.0, [record], B=1.0) == [1.0]
        assert mon.bounds(1.0, [record] * 3, B=1.0) == [1.0, pytest.approx(3.0),
                                                         pytest.approx(9.0)]

    def test_records_are_read_as_per_step_scalars(self, monkeypatch):
        """`bounds` takes one norm, ||A||_2, however many records; each
        record's A_o, gamma_max and ||L_masked||_2 enter as given, and the
        node count is its number of confidences."""
        A = np.array([[0.9, 0.2], [0.0, 0.7]])
        mon = BoundMonitor(A=A, C_norms=[1.0, 2.0], alpha=1.0, tau=3.0)
        records = [(0.4, 0.1, 1.5, [0.8, 1.0, 0.6]), (1.2, 0.0, 0.0, [1.0]),
                   (0.7, 0.3, 2.5, [0.5, 0.5])]
        taken, real = [], np.linalg.norm

        def norm(a, *args, **kwargs):
            taken.append(a)
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", norm)
        got = mon.bounds(2.0, records, B=0.5)
        assert len(taken) == 1 and taken[0] is A
        sA, want = real(A, 2), [2.0]
        for A_o, gamma_max, sL, betas in records[:-1]:
            N = len(betas)
            B_o = (sA * sL * gamma_max * np.sqrt(N) * (1.0 / 2.0 + 0.5)
                   + (sA + A_o) * (1.0 - min(betas)) * np.sqrt(N) * 3.0)
            want.append(A_o * want[-1] + B_o)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class StepByStepMonitor:
    """The bound recursion advanced at every step, the way the monitor ran
    before `bounds` moved it after the run: the oracle of the split API."""

    def __init__(self, A, C_norms, alpha, B, tau, eta0_norm):
        self.A, self.C_norms, self.alpha, self.B, self.tau = A, C_norms, alpha, B, tau
        self.bound = float(eta0_norm)

    def step(self, gains_M, laplacian_masked, gamma_max, betas):
        gains_M = np.asarray(gains_M, float)
        A_o = max(np.linalg.norm(self.A @ gains_M, 2, axis=(-2, -1)).tolist())
        N = len(gains_M)
        sA = float(np.linalg.norm(self.A, 2))
        sL = float(np.linalg.norm(laplacian_masked, 2))
        trigger_term = sA * sL * gamma_max * np.sqrt(N) * (
            self.alpha / max(self.C_norms) + self.B)
        beta_bar = max(0.0, 1.0 - min(betas)) if betas else 0.0
        deficit_term = (sA + A_o) * beta_bar * np.sqrt(N) * self.tau
        self.B_o = trigger_term + deficit_term
        self.bound = A_o * self.bound + self.B_o


@pytest.mark.bits
@pytest.mark.parametrize("steps", [0, 1, 2, 12])
@pytest.mark.parametrize("scale", [0.3, 3.0], ids=["contractive", "non-contractive"])
@pytest.mark.parametrize("N, n", [(1, 1), (4, 2)])
def test_bounds_after_the_run_equal_a_step_by_step_monitor(steps, scale, N, n):
    """`bounds` over the run's per-step scalars gives the bytes of the
    recursion advanced at every step: with A_o < 1 and A_o >= 1, over 0 and
    1 steps, and with steps repeating the previous step's gains or Laplacian
    as the engine's schedule tail and steady trust weights repeat them. The
    scalars are taken as the engine takes them, each kind in one stacked
    norm over the distinct gains and Laplacians, Python's max over nodes;
    the oracle takes its norms one step at a time."""
    rng = np.random.default_rng([steps, N, n])

    def orthogonal():
        return np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = scale * orthogonal()                 # ||A M_i||_2 = scale * |s_i|, s_i in [0.5, 1]
    C_norms = rng.uniform(0.5, 5.0, 2).tolist()
    alpha, B, tau = rng.uniform(0.5, 5.0, 3).tolist()
    eta0 = float(rng.uniform(0.0, 10.0))
    mon = BoundMonitor(A=A, C_norms=C_norms, alpha=alpha, tau=tau)
    oracle = StepByStepMonitor(A, C_norms, alpha, B, tau, eta0)
    shared = np.stack([rng.uniform(0.5, 1.0) * orthogonal() for _ in range(N)])
    Ms, Ls, at, want = [], [], [], []       # distinct gains and Laplacians, each step's
    for k in range(steps):
        if k % 3 == 0 or not Ms or Ms[-1] is not shared:
            Ms.append(shared if k % 3 else np.stack([rng.uniform(0.5, 1.0) * orthogonal()
                                                     for _ in range(N)]))
        if k % 2 == 0:
            Ls.append(trust_masked_laplacian(rng.uniform(0.0, 1.0, (N, N)) * (1 - np.eye(N))))
        gamma_max, betas = float(rng.uniform(0.0, 0.5)), rng.uniform(0.01, 1.0, N).tolist()
        at.append((len(Ms) - 1, len(Ls) - 1, gamma_max, betas))
        want.append(oracle.bound)
        oracle.step(Ms[-1], Ls[-1], gamma_max, betas)
    A_o = [max(row) for row in np.linalg.norm(A @ np.array(Ms).reshape(-1, N, n, n), 2,
                                              axis=(-2, -1)).tolist()]
    sL = np.linalg.norm(np.array(Ls).reshape(-1, N, N), 2, axis=(-2, -1)).tolist()
    got = mon.bounds(eta0, [(A_o[m], g, sL[l], betas) for m, l, g, betas in at], B)
    assert len(got) == steps
    assert np.array(got, float).tobytes() == np.array(want, float).tobytes()
    assert all((a >= 1.0) == (scale > 1.0) for a in A_o)


def monitored_runs():
    fig7 = dataclasses.replace(get_preset("fig7"), steps=150)
    mixed_p = ScenarioConfig.from_dict({**engine_scenario("example1-calibrated").to_dict(),
                                        "sensors": [TWO] * 6 + [ONE, TWO],
                                        "bound_monitor": True})
    return [fig7, engine_scenario("ring12-chords"), mixed_p]


@pytest.mark.bits
@pytest.mark.parametrize("cfg", monitored_runs(),
                         ids=["fig7", "ring12-chords", "example1-calibrated-mixed-p"])
def test_bound_and_realized_error_recomputed_from_the_trace(cfg):
    """A run's `realized_err` and `bound` equal, byte for byte, what a
    step-by-step monitor gives on inputs read back from the trace's own
    columns (plant path, priors, trust and confidence), the covariance
    schedule and the run's noise, one row per node and a Laplacian per step."""
    trace = run_scenario(cfg)
    nodes, n, steps = sorted(cfg.graph.nodes), cfg.process.n, cfg.steps
    x_true = np.stack([trace.column(f"x_true_{d}")[:, 0] for d in range(n)], axis=-1)
    xbar = np.stack([trace.column(f"xbar_{d}") for d in range(n)], axis=-1)
    realized = [math.sqrt(sum(float(e @ e) for e in x_true[k] - xbar[k])) for k in range(steps)]
    assert np.array(realized).tobytes() == trace.step_cols["realized_err"].tobytes()

    # B: the 99.9th percentile of ||x(k+1) - x(k) + v_i(k+1)|| over steps and nodes.
    _, _, v = simulate.random_inputs(cfg)
    rows = {i: (p, g) for p, group in channel_groups(cfg.sensors)[0].items()
            for g, i in enumerate((group + 1).tolist())}
    increments = [float(np.linalg.norm(x_true[k + 1] - x_true[k] + v[p][k + 1, g]))
                  for k in range(steps - 1) for p, g in rows.values()]
    B = float(np.percentile(increments, 99.9))
    oracle = StepByStepMonitor(cfg.process.A, [float(np.linalg.norm(s.C, 2)) for s in cfg.sensors],
                               cfg.trigger.alpha, B, cfg.resilient.tau, realized[0])
    beta = trace.column("beta")
    want = []
    for k, (_, _, M, gamma, _, _) in enumerate(simulate.covariance_schedule(cfg)):
        W = np.zeros((len(nodes), len(nodes)))
        for i, j in trace.edges:
            W[i - 1, j - 1] = edge_series(trace, "sigma", i, j)[k] * beta[k, j - 1]
        gamma_max = (max(float(np.linalg.norm(g, 2)) for g in gamma) if np.ndim(gamma) == 3
                     else abs(gamma))
        want.append(oracle.bound)
        oracle.step(M, trust_masked_laplacian(W), gamma_max, beta[k].tolist())
    assert np.array(want).tobytes() == trace.step_cols["bound"].tobytes()


class TestTrustMaskedLaplacian:
    def test_unit_beliefs_give_plain_laplacian(self):
        from etdkf.graphs import laplacian
        g = Graph(3, [(1, 2), (2, 3)])
        L = trust_masked_laplacian(g.adjacency())
        assert np.allclose(L, laplacian(g), atol=1e-15)

    def test_distrusted_edge_removed(self):
        g = Graph(2, [(1, 2)])
        sigma = {(1, 2): 0.0, (2, 1): 0.0}
        beta = {1: 1.0, 2: 1.0}
        W = np.array([[0.0, sigma[(1, 2)] * beta[2]], [sigma[(2, 1)] * beta[1], 0.0]])
        L = trust_masked_laplacian(W)
        assert np.allclose(L, np.zeros((2, 2)), atol=1e-15)

    def test_row_sums_zero(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        rng = np.random.default_rng(5)
        sigma = {}
        for a, b in sorted(g.edges):
            sigma[(a, b)] = rng.uniform(0.1, 1.0)
            sigma[(b, a)] = rng.uniform(0.1, 1.0)
        beta = {i: rng.uniform(0.1, 1.0) for i in g.nodes}
        W = np.zeros((4, 4))
        for (a, b), s in sigma.items():
            W[a - 1, b - 1] = s * beta[b]
        L = trust_masked_laplacian(W)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(L, L.T, atol=1e-15)


    def test_stack_equals_each_matrix_bit_for_bit(self):
        """A stack (S, N, N) gives each matrix's Laplacian, and each is
        diag(row sums) - W elementwise: +0.0 off the graph, where -W would
        write -0.0."""
        rng = np.random.default_rng(11)
        W = rng.uniform(0.0, 1.0, (5, 4, 4)) * (rng.uniform(size=(5, 4, 4)) < 0.5)
        W *= 1 - np.eye(4)
        got = trust_masked_laplacian(W)
        for W_k, L_k in zip(W, got):
            sym = 0.5 * (W_k + W_k.T)
            want = np.diag(sym.sum(axis=1)) - sym
            assert L_k.tobytes() == want.tobytes()
        zero = 0.5 * (W + W.swapaxes(1, 2)) == 0
        assert zero.any() and not np.signbit(got[zero]).any()


class TestAssumption4:
    def test_majority_intact_check(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
        status = assumption4_satisfied(g, compromised={2})
        # node 1: 2 of 3 neighbors intact, a strict majority
        assert status[1] is True
        # node 3: 1 of 2 neighbors intact, not a majority
        assert status[3] is False
        assert status[4] is True  # single neighbor (node 1), intact

    def test_no_attack_all_satisfied(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert all(assumption4_satisfied(g, set()).values())


class TestConfigGuards:
    def test_ranges(self):
        with pytest.raises(ConfigurationError):
            ResilientConfig(upsilon1=0.0)
        with pytest.raises(ConfigurationError):
            ResilientConfig(kappa1=1.0)
        with pytest.raises(ConfigurationError):
            ResilientConfig(tau=0.0)
        for mode in ("wild", "difference"):   # the difference mode was removed
            with pytest.raises(ConfigurationError):
                ResilientConfig(discounting=mode)
