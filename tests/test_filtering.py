import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.errors import NumericalError
from etdkf.filtering import (TriggerConfig, consensus_gain, innovation,
                             innovation_covariance, kalman_gain,
                             measurement_update, posterior_covariance,
                             prior_covariance, should_transmit, update_predictive)
from etdkf.models import NoiseSource, ProcessModel, SensorModel


def rotation(theta=np.pi / 200):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


class TextbookKF:
    """Independent reference filter: predict/update in the classic form."""

    def __init__(self, A, Q, C, R, x0, P0):
        self.A, self.Q, self.C, self.R = A, Q, C, R
        self.x, self.P = np.array(x0, float), np.array(P0, float)

    def step(self, y):
        S = self.C @ self.P @ self.C.T + self.R
        K = self.P @ self.C.T @ np.linalg.inv(S)
        self.x = self.x + K @ (y - self.C @ self.x)
        M = np.eye(len(self.x)) - K @ self.C
        self.P = M @ self.P @ M.T + K @ self.R @ K.T
        x_post, P_post = self.x.copy(), self.P.copy()
        self.x = self.A @ self.x
        self.P = self.A @ self.P @ self.A.T + self.Q
        return x_post, P_post


def isolated_update(x_prior, P_prior, y, C, R):
    """One measurement update of a node without neighbors: (x_post, P_post)."""
    K = kalman_gain(P_prior, C, R)
    x_post = measurement_update(x_prior, K, 0.0, y, C, 1.0, [], [], x_prior)
    return x_post, posterior_covariance(P_prior, K, C, R)


class TestTrigger:
    def test_zero_residual_never_transmits(self):
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        xp = np.array([0.3, -0.4])
        assert not should_transmit(C @ xp, C, xp, alpha=0.5)

    def test_boundary_transmits(self):
        C = np.eye(2)
        xp = np.zeros(2)
        alpha = 1.8
        y = np.array([alpha, 0.0])  # residual norm exactly alpha
        assert should_transmit(y, C, xp, alpha)

    def test_config_rejects_negative_alpha(self):
        with pytest.raises(Exception):
            TriggerConfig(alpha=-0.1)


class TestPredictive:
    def test_transmitting_copies_prior(self):
        xp = update_predictive(1, [1.0, 2.0], [9.0, 9.0], np.eye(2))
        assert np.array_equal(xp, [1.0, 2.0])

    def test_silent_identity_dynamics(self):
        xp = update_predictive(0, [1.0, 2.0], [9.0, 8.0], np.eye(2))
        assert np.array_equal(xp, [9.0, 8.0])

    def test_two_silent_steps_compose(self):
        A = rotation(0.3)
        x0 = np.array([1.0, -1.0])
        one = update_predictive(0, x0, x0, A)
        two = update_predictive(0, x0, one, A)
        assert np.allclose(two, A @ A @ x0, atol=1e-15)


class TestTimeUpdate:
    def test_identity_no_noise(self):
        P_prior = prior_covariance(np.diag([2.0, 5.0]), np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(P_prior, np.diag([2.0, 5.0]))

    def test_orthogonal_a_with_unit_noise(self):
        P_prior = prior_covariance(np.eye(2), rotation(), np.eye(2))
        assert np.allclose(P_prior, 2.0 * np.eye(2), atol=1e-12)

    def test_preserves_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            B = rng.standard_normal((3, 3))
            P_prior = prior_covariance(B @ B.T, rng.standard_normal((3, 3)), np.eye(3))
            assert np.linalg.eigvalsh(P_prior).min() > -1e-10


class TestGainAndCovariance:
    def test_zero_prior_zero_gain(self):
        K = kalman_gain(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert np.array_equal(K, np.zeros((2, 2)))

    def test_scalar_closed_form(self):
        K = kalman_gain(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert K == pytest.approx(np.array([[0.5]]))
        P = posterior_covariance(np.array([[1.0]]), K, np.array([[1.0]]),
                                 np.array([[1.0]]))
        assert P == pytest.approx(np.array([[0.5]]))

    def test_gain_minimizes_posterior_trace(self):
        rng = np.random.default_rng(6)
        Pb = np.array([[2.0, 0.3], [0.3, 1.0]])
        C = np.array([[1.0, 0.5]])
        R = np.array([[0.8]])
        K = kalman_gain(Pb, C, R)
        base = np.trace(posterior_covariance(Pb, K, C, R))
        for _ in range(30):
            d = rng.standard_normal(K.shape)
            d /= np.linalg.norm(d)
            for eps in (1e-8, -1e-8):
                assert np.trace(posterior_covariance(Pb, K + eps * d, C, R)) >= base - 1e-16

    def test_k_zero_keeps_prior(self):
        Pb = np.array([[2.0, 0.1], [0.1, 3.0]])
        P = posterior_covariance(Pb, np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert np.array_equal(P, Pb)

    def test_joseph_form_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            B = rng.standard_normal((3, 3))
            Pb = B @ B.T
            C = rng.standard_normal((2, 3))
            R = np.eye(2)
            K = rng.standard_normal((3, 2))  # arbitrary, Joseph form still PSD
            P = posterior_covariance(Pb, K, C, R)
            assert np.linalg.eigvalsh(P).min() > -1e-10

    def test_singular_innovation_raises(self):
        with pytest.raises(NumericalError):
            kalman_gain(np.zeros((1, 1)), np.array([[1.0]]), np.array([[0.0]]))


class TestInnovation:
    def test_zero_residual(self):
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        x = np.array([0.2, 0.4])
        assert np.array_equal(innovation(C @ x, C, x), np.zeros(2))

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(3)
        C = rng.standard_normal((3, 2))
        x = rng.standard_normal(2)
        assert np.allclose(innovation(y, C, x), y - C @ x, atol=0)

    def test_covariance_trivials(self):
        R = np.diag([2.0, 3.0])
        assert np.array_equal(innovation_covariance(np.zeros((2, 2)), np.eye(2), R), R)
        got = innovation_covariance(np.array([[1.5]]), np.array([[1.0]]),
                                    np.array([[1.0]]))
        assert got == pytest.approx(np.array([[2.5]]))

    def test_longrun_sample_covariance(self):
        # innovations of a converged filter match Omega within 10%
        A, Q = rotation(), np.eye(2)
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        R = np.eye(2)
        model = ProcessModel(A=A, Q=Q, x0_mean=[0.5, 0.0], P0=np.eye(2))
        sensor = SensorModel(C=C, R=R)
        src = NoiseSource(seed=17)
        x = src.draw_initial_state(model)
        x_prior, P_prior = model.x0_mean, model.P0
        rs, omegas = [], []
        for k in range(6000):
            y = C @ x + src.draw_measurement_noise(sensor, 1)
            r = innovation(y, C, x_prior)
            if k > 500:
                rs.append(r)
                omegas.append(innovation_covariance(P_prior, C, R))
            x_post, P_post = isolated_update(x_prior, P_prior, y, C, R)
            x_prior, P_prior = np.matvec(A, x_post), prior_covariance(P_post, A, Q)
            x = A @ x + src.draw_process_noise(model)
        sample = np.cov(np.array(rs).T)
        omega = omegas[-1]
        assert np.all(np.abs(sample - omega) <= 0.10 * np.abs(np.diag(omega)).max())
        assert np.abs(np.array(rs).mean(axis=0)).max() < 0.2


class TestMeasurementUpdate:
    def test_single_node_reduces_to_kalman(self):
        x_prior = np.zeros(2)
        C = np.eye(2)
        R = np.eye(2)
        K = kalman_gain(2 * np.eye(2), C, R)
        y = np.array([1.0, -2.0])
        x_post = measurement_update(x_prior, K, 0.0, y, C, 1.0, [], [], x_prior)
        want = x_prior + K @ (y - C @ x_prior)
        assert np.array_equal(x_post, want)

    def test_equal_predictions_zero_consensus(self):
        x_prior = np.array([1.0, 1.0])
        C = np.eye(2)
        shared = np.array([4.0, -4.0])
        x_post = measurement_update(x_prior, np.zeros((2, 2)), 0.7, np.zeros(2), C, 1.0,
                                    [shared, shared.copy()], [1.0, 1.0], shared)
        assert np.array_equal(x_post, x_prior)

    def test_two_node_hand_case(self):
        # hand evaluation of the full posterior expression
        x_prior = np.array([1.0, 0.0])
        C = np.array([[2.0, 0.0], [0.0, 1.0]])
        K = np.array([[0.1, 0.0], [0.0, 0.2]])
        y = np.array([3.0, 1.0])
        own = np.array([1.0, 0.0])
        other = np.array([2.0, 2.0])
        x_post = measurement_update(x_prior, K, 0.25, y, C, 1.0, [other], [1.0], own)
        want = (np.array([1.0, 0.0])
                + K @ (y - C @ np.array([1.0, 0.0]))
                + 0.25 * (other - own))
        assert np.allclose(x_post, want, atol=1e-15)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_unit_beliefs_equal_nominal_formula(self, count, matrix_gamma, seed):
        # beta_i = 1 and every weight 1 give x_prior + K (y - C x_prior)
        # + gamma sum_j (x_j - own), summed from zeros in neighbor order,
        # whatever m_i the neighbor slots give.
        rng = np.random.default_rng(seed)
        n, p = 3, int(rng.integers(1, 4))
        gamma = rng.standard_normal((n, n)) if matrix_gamma else float(rng.uniform(0, 1))
        x_prior = rng.standard_normal(n)
        K = rng.standard_normal((n, p))
        C = rng.standard_normal((p, n))
        y = rng.standard_normal(p) * 10.0
        own = rng.standard_normal(n)
        preds = list(rng.standard_normal((count, n)) * 5.0)
        x_post = measurement_update(x_prior, K, gamma, y, C, 1.0, preds, [1.0] * count, own)
        consensus = np.zeros(n)
        for xj in preds:
            consensus = consensus + (xj - own)
        coupled = gamma @ consensus if matrix_gamma else gamma * consensus
        want = x_prior + K @ (y - C @ x_prior) + coupled
        assert np.array_equal(x_post, want)


class TestConsensusGain:
    def test_vanishes_when_kc_is_identity(self):
        K = np.eye(2)
        C = np.eye(2)
        gains = consensus_gain([np.eye(2) - K @ C], rotation(), [np.eye(2)], 0.0,
                               fallback=0.05)
        assert gains == 0.05

    def test_two_node_symbolic_case(self):
        # hand-built evaluation of the stated expression
        A = np.eye(2)
        K1 = np.diag([0.5, 0.5])
        K2 = np.diag([0.25, 0.25])
        C = np.eye(2)
        P1, P2 = np.eye(2), 2 * np.eye(2)
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        M1, M2 = np.eye(2) - K1 @ C, np.eye(2) - K2 @ C
        G1 = M1.T @ A.T @ np.linalg.inv(P1) @ A @ M1
        G2 = M2.T @ A.T @ np.linalg.inv(P2) @ A @ M2
        lam = 2.0 * max(np.linalg.eigvalsh(np.linalg.inv(G1)).max(),
                        np.linalg.eigvalsh(np.linalg.inv(G2)).max())
        want1 = 2.0 * M1 @ np.linalg.inv(G1) / lam
        got = consensus_gain([M1, M2], A, [P1, P2], np.linalg.eigvalsh(L).max())
        assert np.allclose(got[0], want1, atol=1e-12)

    def test_scalar_mode_linearity(self):
        x_prior, K = np.zeros(2), np.zeros((2, 2))
        other = np.array([1.0, 2.0])
        own = np.zeros(2)
        delta1 = measurement_update(x_prior, K, 0.05, np.zeros(2), np.eye(2), 1.0,
                                    [other], [1.0], own) - x_prior
        delta2 = measurement_update(x_prior, K, 0.10, np.zeros(2), np.eye(2), 1.0,
                                    [other], [1.0], own) - x_prior
        assert np.allclose(delta2, 2.0 * delta1, atol=1e-15)


class TestFilterEquivalence:
    def test_isolated_node_matches_textbook_kf(self):
        # 500 steps, per-entry agreement to 1e-12
        A, Q = rotation(), np.eye(2)
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        R = np.eye(2)
        model = ProcessModel(A=A, Q=Q, x0_mean=[0.5, 0.0], P0=np.eye(2))
        sensor = SensorModel(C=C, R=R)
        src = NoiseSource(seed=99)
        x = src.draw_initial_state(model)
        x_prior, P_prior = model.x0_mean, model.P0
        ref = TextbookKF(A, Q, C, R, model.x0_mean, model.P0)
        for _ in range(500):
            y = C @ x + src.draw_measurement_noise(sensor, 1)
            x_post, P_post = isolated_update(x_prior, P_prior, y, C, R)
            x_ref, P_ref = ref.step(y)
            assert np.all(np.abs(x_post - x_ref) < 1e-12)
            assert np.all(np.abs(P_post - P_ref) < 1e-12)
            x_prior, P_prior = np.matvec(A, x_post), prior_covariance(P_post, A, Q)
            x = A @ x + src.draw_process_noise(model)

    def test_posterior_not_above_prior_without_consensus(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            B = rng.standard_normal((2, 2))
            Pb = B @ B.T + 0.1 * np.eye(2)
            C = rng.standard_normal((2, 2))
            K = kalman_gain(Pb, C, np.eye(2))
            P = posterior_covariance(Pb, K, C, np.eye(2))
            assert np.linalg.eigvalsh(Pb - P).min() > -1e-10

    def test_error_bounded_over_long_run(self):
        A, Q = rotation(), np.eye(2)
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        R = np.eye(2)
        model = ProcessModel(A=A, Q=Q, x0_mean=[0.5, 0.0], P0=np.eye(2))
        sensor = SensorModel(C=C, R=R)
        src = NoiseSource(seed=123)
        x = src.draw_initial_state(model)
        x_prior, P_prior = model.x0_mean, model.P0
        errs = []
        for _ in range(2000):
            y = C @ x + src.draw_measurement_noise(sensor, 1)
            x_post, P_post = isolated_update(x_prior, P_prior, y, C, R)
            errs.append(np.linalg.norm(x_post - x))
            x_prior, P_prior = np.matvec(A, x_post), prior_covariance(P_post, A, Q)
            x = A @ x + src.draw_process_noise(model)
        errs = np.array(errs)
        tail = errs[200:]
        median = np.median(tail)
        assert tail.max() < 10 * median
        # windowed means settle: late window no larger than early post-transient window
        assert tail[-500:].mean() < 1.5 * tail[:500].mean()
