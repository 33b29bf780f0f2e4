import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.errors import ConfigurationError
from etdkf.filtering import kalman_gain, measurement_update
from etdkf.graphs import Graph
from etdkf.resilience import (BeliefState, BoundMonitor, DiscountedBelief,
                              ResilientConfig, assumption4_satisfied,
                              divergence_statistic, trust_masked_laplacian,
                              update_confidence, update_trust,
                              weighted_neighbor_estimate)
from etdkf.simulate import run_scenario

from test_scenario import tiny_config


class TestDiscountedBeliefs:
    def test_all_ones_converges_to_one(self):
        b = DiscountedBelief(kappa=0.5)
        for _ in range(60):
            update_confidence(b, 1.0)
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
            update_confidence(b, 1.0)
        for _ in range(30):
            update_confidence(b, 0.02)
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
            update_trust(s, 0.6)
        assert s.value == pytest.approx(0.6, abs=1e-12)

    def test_range_guard(self):
        b = DiscountedBelief(kappa=0.5)
        with pytest.raises(ConfigurationError):
            update_confidence(b, 0.0)
        with pytest.raises(ConfigurationError):
            update_confidence(b, 1.5)

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
            bs.step([d, 0.0], [d])
            assert 0.0 < bs.beta.value[0] <= 1.0
            assert 0.0 < bs.sigma.value[0] <= 1.0
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
        bs.step(node_div, edge_div)
        for value in (bs.chi, bs.theta, bs.beta.value, bs.sigma.value):
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
        bs.step(node_div, edge_div)
        for value in (bs.beta.value, bs.sigma.value):
            assert np.all(0.0 < value) and np.all(np.isfinite(value)), (value, kappa)
            if discounting == "normalized":
                assert np.all(value <= 1.0), (value, kappa)


def test_tiny_discount_with_infinite_divergence_keeps_beliefs_positive():
    """kappa = 1e-9 with +inf from the start used to underflow beta to 0."""
    bs = BeliefState([1], [(1, 1)], ResilientConfig(kappa1=1e-9, kappa2=1e-9))
    for _ in range(200):
        bs.step([np.inf], [np.inf])
    assert bs.beta.value[0] > 0.0 and bs.sigma.value[0] > 0.0


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
            sigma = trace.edge_series("sigma", i, j)
            theta = trace.edge_series("theta", i, j)
            assert np.all(sigma[:full] == 1.0) and np.all(theta[:full] == 1.0)
            first = DiscountedBelief(cfg.resilient.kappa2, discounting).update(theta[full])
            assert sigma[full] == first


class TestBoundMonitor:
    def test_no_deficit_reduces_to_trigger_term(self):
        A = np.eye(2) * 0.5
        mon = BoundMonitor(A=A, C_norms=[5.0, 5.0], alpha=1.8, B=2.0, tau=10.0)
        mon.start(1.0)
        Ms = [np.eye(2) * 0.2, np.eye(2) * 0.2]
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        mon.step(Ms, L, gamma_max=0.1, betas=[1.0, 1.0])
        sA, sL, N = 0.5, 2.0, 2
        want = sA * sL * 0.1 * np.sqrt(N) * (1.8 / 5.0 + 2.0)
        assert mon.B_o == pytest.approx(want, abs=1e-12)
        assert mon.contractive

    def test_contractive_bound_converges_to_asymptote(self):
        A = np.eye(2) * 0.5
        mon = BoundMonitor(A=A, C_norms=[5.0], alpha=1.8, B=2.0, tau=10.0)
        mon.start(50.0)
        Ms = [np.eye(2) * 0.4]
        L = np.zeros((1, 1))
        for _ in range(200):
            mon.step(Ms, L, gamma_max=0.05, betas=[0.9])
        # geometric series limit: bound -> B_o / (1 - A_o)
        assert mon.bound == pytest.approx(mon.B_o / (1.0 - mon.A_o), rel=1e-6)

    def test_non_contractive_flagged(self):
        A = np.eye(2) * 3.0
        mon = BoundMonitor(A=A, C_norms=[1.0], alpha=1.0, B=1.0, tau=1.0)
        mon.start(1.0)
        mon.step([np.eye(2)], np.zeros((1, 1)), 0.0, [1.0])
        assert not mon.contractive
        assert mon.A_o == pytest.approx(3.0)


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
