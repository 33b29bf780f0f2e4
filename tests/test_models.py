import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.errors import ConfigurationError
from etdkf.models import (STREAM_INITIAL_STATE, STREAM_PROCESS, STREAM_SENSOR,
                          NoiseSource, ProcessModel, SensorModel,
                          is_collectively_observable, measure, observability_rank,
                          step_process)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def make_process(A=None, Q=None):
    A = rotation(np.pi / 200) if A is None else A
    Q = np.eye(2) if Q is None else Q
    return ProcessModel(A=A, Q=Q, x0_mean=[0.5, 0.0], P0=np.eye(2))


class TestStepProcess:
    def test_rotation_step(self):
        model = make_process()
        out = step_process(model, [0.5, 0.0], [0.0, 0.0])
        assert out == pytest.approx([0.5 * np.cos(np.pi / 200),
                                     0.5 * np.sin(np.pi / 200)], abs=1e-15)

    def test_identity_returns_state(self):
        model = make_process(A=np.eye(2), Q=np.zeros((2, 2)))
        x = np.array([1.7, -2.3])
        assert np.array_equal(step_process(model, x, np.zeros(2)), x)

    def test_half_rotation_matches_matrix_power_oracle(self):
        model = make_process()
        x = np.array([0.5, 0.0])
        for _ in range(200):
            x = step_process(model, x, np.zeros(2))
        oracle = np.linalg.matrix_power(model.A, 200) @ np.array([0.5, 0.0])
        assert np.allclose(x, oracle, atol=1e-12)
        assert np.allclose(x, [-0.5, 0.0], atol=1e-9)

    def test_dimension_mismatch(self):
        model = make_process()
        with pytest.raises(ConfigurationError):
            step_process(model, [1.0, 2.0, 3.0], [0.0, 0.0])


class TestMeasure:
    def test_paper_observation_matrix(self):
        sensor = SensorModel(C=[[5.0, 0.0], [0.0, 2.0]], R=np.eye(2))
        assert measure(sensor.C, [0.5, 0.0], [0.0, 0.0]) == pytest.approx([2.5, 0.0])

    def test_zero_matrix_returns_noise(self):
        sensor = SensorModel(C=np.zeros((2, 2)), R=np.eye(2))
        v = np.array([0.3, -0.7])
        assert np.array_equal(measure(sensor.C, [1.0, 2.0], v), v)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            C = rng.standard_normal((3, 4))
            x = rng.standard_normal(4)
            v = rng.standard_normal(3)
            sensor = SensorModel(C=C, R=np.eye(3))
            want = np.array([sum(C[r, c] * x[c] for c in range(4)) + v[r]
                             for r in range(3)])
            assert np.allclose(measure(sensor.C, x, v), want, atol=1e-12)


class TestObservability:
    def test_rotation_with_full_sensor(self):
        assert observability_rank(rotation(np.pi / 200), [[5.0, 0.0], [0.0, 2.0]]) == 2

    def test_zero_c(self):
        assert observability_rank(np.eye(2), np.zeros((1, 2))) == 0

    def test_identity_single_row(self):
        # rows of the stacked matrix are all [1 0]
        assert observability_rank(np.eye(2), [[1.0, 0.0]]) == 1

    def test_rank_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            C = rng.standard_normal((2, 3))
            stack = np.vstack([C, C @ A, C @ A @ A])
            assert observability_rank(A, C) == np.linalg.matrix_rank(stack, tol=None)


class TestCollectiveObservability:
    def setup_method(self):
        self.model = make_process()
        self.sensors = [SensorModel(C=[[5.0, 0.0], [0.0, 2.0]], R=np.eye(2))
                        for _ in range(6)]

    def test_majority_subsets_observable(self):
        assert is_collectively_observable(self.model, self.sensors, [1, 2, 3, 4], 6)
        assert is_collectively_observable(self.model, self.sensors, [2, 4, 5, 6], 6)

    def test_minority_subset_rejected_regardless_of_rank(self):
        assert not is_collectively_observable(self.model, self.sensors, [1, 2, 3], 6)

    def test_all_zero_sensors(self):
        zeros = [SensorModel(C=np.zeros((2, 2)), R=np.eye(2)) for _ in range(3)]
        assert not is_collectively_observable(self.model, zeros, [1, 2, 3], 3)

    def test_empty_sensor_list(self):
        with pytest.raises(ConfigurationError):
            is_collectively_observable(self.model, [], [1], 1)


class TestNoise:
    def test_orthogonal_dynamics_preserve_norm(self):
        model = make_process()
        x = np.array([0.5, 0.0])
        for _ in range(400):
            x = step_process(model, x, np.zeros(2))
            assert abs(np.linalg.norm(x) - 0.5) < 1e-12

    def test_sample_covariance_close_to_q(self):
        model = make_process(Q=np.array([[2.0, 0.5], [0.5, 1.0]]))
        src = NoiseSource(seed=5)
        draws = np.array([src.draw_process_noise(model) for _ in range(100_000)])
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - model.Q) <= 0.05 * np.abs(model.Q) + 0.02)

    def test_same_seed_bit_identical(self):
        model = make_process()
        a = NoiseSource(seed=42)
        b = NoiseSource(seed=42)
        for _ in range(100):
            assert np.array_equal(a.draw_process_noise(model),
                                  b.draw_process_noise(model))

    def test_streams_independent_of_sensor_count(self):
        # Drawing sensor noise must not shift the process stream.
        model = make_process()
        sensor = SensorModel(C=np.eye(2), R=np.eye(2))
        a = NoiseSource(seed=9)
        b = NoiseSource(seed=9)
        b.draw_measurement_noise(sensor, 1)
        b.draw_measurement_noise(sensor, 2)
        assert np.array_equal(a.draw_process_noise(model), b.draw_process_noise(model))

    def test_clone_restarts_stream(self):
        # a fresh source with the same seed restarts every stream
        model = make_process()
        src = NoiseSource(seed=3)
        first = src.draw_process_noise(model)
        clone = NoiseSource(src.seed)
        assert np.array_equal(clone.draw_process_noise(model), first)

    @pytest.mark.parametrize("singular", [False, True])
    def test_draws_equal_multivariate_normal(self, singular):
        """The cached factors give multivariate_normal's draws bit for bit:
        Cholesky for a definite covariance, the SVD method for a singular one."""
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        if singular:
            cov = np.array([[1.0, 2.0], [2.0, 4.0]])
        model = ProcessModel(A=np.eye(2), Q=cov, x0_mean=[0.5, -1.0], P0=cov)
        method = "svd" if singular else "cholesky"
        src = NoiseSource(seed=6)
        for stream, mean, draw in ((STREAM_PROCESS, np.zeros(2), src.draw_process_noise),
                                   (STREAM_INITIAL_STATE, model.x0_mean,
                                    src.draw_initial_state)):
            rng = np.random.default_rng(np.random.SeedSequence([6, stream]))
            for _ in range(50):
                assert np.array_equal(draw(model),
                                      rng.multivariate_normal(mean, cov, method=method))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 60), st.integers(0, 2**32 - 1),
       st.booleans())
def test_block_draws_equal_per_step_draws(p, rank, steps, seed, scaled):
    """A block of `steps` draws equals `steps` single draws `z @ F.T` from
    the same stream bit for bit, for definite and singular (SVD-factored)
    covariances."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((p, min(rank, p))) * (10.0 ** rng.uniform(-3, 3) if scaled else 1)
    cov = B @ B.T
    model = ProcessModel(A=np.eye(p), Q=cov, x0_mean=np.zeros(p), P0=cov)
    sensor = SensorModel(C=np.eye(p), R=cov + np.eye(p))
    # The single draws as the engine took them per step: process noise with
    # its zero mean added, sensor noise without.
    for stream, draw, block in (
            ((STREAM_PROCESS,), lambda z: np.zeros(p) + z @ model.Q_factor.T,
             NoiseSource(seed).draw_process_noise(model, steps)),
            ((STREAM_SENSOR, 3), lambda z: z @ sensor.R_factor.T,
             NoiseSource(seed).draw_measurement_noise(sensor, 3, steps))):
        single = np.random.default_rng(np.random.SeedSequence([seed, *stream]))
        want = np.array([draw(single.standard_normal(p)) for _ in range(steps)])
        assert block.shape == (steps, p)
        assert block.tobytes() == want.tobytes()


class TestModelValidation:
    def test_q_must_be_psd(self):
        with pytest.raises(ConfigurationError):
            make_process(Q=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_r_must_be_pd(self):
        with pytest.raises(ConfigurationError):
            SensorModel(C=np.eye(2), R=np.zeros((2, 2)))

    def test_shape_consistency(self):
        with pytest.raises(ConfigurationError):
            ProcessModel(A=np.eye(2), Q=np.eye(3), x0_mean=[0, 0], P0=np.eye(2))
