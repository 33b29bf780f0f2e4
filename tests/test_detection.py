import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.detection import (H0, H1, DetectorConfig, KnnWindowBank, detect,
                             estimate_kl, kth_neighbor_distance,
                             nominal_reference_window, pairwise_distances,
                             reference_factors)
from etdkf.errors import ConfigurationError
from etdkf.filtering import innovation
from etdkf.scenario import get_preset
from etdkf.simulate import run_scenario


def brute_force_knn(samples, index, k):
    """Plain-python sort oracle."""
    ds = sorted(
        float(np.linalg.norm(np.asarray(s) - np.asarray(samples[index])))
        for i, s in enumerate(samples) if i != index
    )
    return ds[k - 1]


def knn_distance(samples, index, k):
    """k-th neighbor distance of samples[index] within its own set, the query
    skipped, through the helper the estimator and the bank share."""
    pts = np.asarray(samples, dtype=float)
    return float(kth_neighbor_distance(pairwise_distances(pts, pts), k)[index])


class TestKnnDistance:
    def test_collinear_points(self):
        pts = [[0.0], [1.0], [3.0]]
        assert knn_distance(pts, 0, 1) == 1.0
        assert knn_distance(pts, 0, 2) == 3.0

    def test_duplicates_floored(self):
        # a coincident copy is a zero distance; the estimator floors it at epsilon_d
        pts = [[2.0, 2.0], [2.0, 2.0], [5.0, 5.0]]
        assert knn_distance(pts, 0, 1) == 0.0
        Z = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert np.isfinite(estimate_kl(pts, Z, k_nn=1, epsilon_d=1e-12))
        assert estimate_kl(pts, Z, k_nn=1, epsilon_d=1e-12) > estimate_kl(
            pts, Z, k_nn=1, epsilon_d=1e-6)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((25, 3))
        for i in (0, 7, 24):
            for k in (1, 4, 10):
                assert knn_distance(pts, i, k) == pytest.approx(
                    brute_force_knn(pts, i, k), abs=1e-12)

    def test_needs_enough_samples(self):
        with pytest.raises(ConfigurationError):
            estimate_kl([[0.0], [1.0]], [[0.0], [1.0], [2.0]], k_nn=2)


class TestEstimateKl:
    def test_identical_windows_exact_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        Z = X.copy()
        got = estimate_kl(X, Z, k_nn=4)
        assert got == pytest.approx(np.log(40.0 / 39.0), abs=1e-12)

    def test_identity_small_window(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 2))
        assert estimate_kl(X, X.copy(), k_nn=3) == pytest.approx(
            np.log(10.0 / 9.0), abs=1e-12)
        assert np.log(10.0 / 9.0) == pytest.approx(0.10536, abs=1e-4)

    def test_gaussian_mean_shift_consistency(self):
        # closed-form oracle: KL(N(0,1) || N(1,1)) = 0.5
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((2000, 1))
            Z = rng.standard_normal((2000, 1)) + 1.0
            vals.append(estimate_kl(X, Z, k_nn=5))
        assert np.mean(vals) == pytest.approx(0.5, abs=0.15)

    def test_monotone_in_mean_separation(self):
        means = [0.0, 0.5, 1.0, 2.0]
        averages = []
        for mu in means:
            vals = []
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                X = rng.standard_normal((400, 1))
                Z = rng.standard_normal((400, 1)) + mu
                vals.append(estimate_kl(X, Z, k_nn=4))
            averages.append(np.mean(vals))
        assert all(b > a for a, b in zip(averages, averages[1:]))
        assert abs(averages[0]) < 0.1

    def test_matches_sort_oracle(self):
        # (m/n1) * sum_i log(nu_k(i)/rho_k(i)) + log(n2/(n1-1)) from plain sorted
        # distances: rho_k within X (query excluded), nu_k from X_i into Z.
        rng = np.random.default_rng(11)
        k = 4
        for n1, n2, shift in ((40, 25, 0.0), (30, 55, 1.5), (12, 80, -3.0)):
            X = rng.standard_normal((n1, 2))
            Z = rng.standard_normal((n2, 2)) * 1.7 + shift
            total = 0.0
            for i in range(n1):
                rho = brute_force_knn(X, i, k)
                nu = sorted(float(np.linalg.norm(z - X[i])) for z in Z)[k - 1]
                total += np.log(nu / rho)
            want = 2 / n1 * total + np.log(n2 / (n1 - 1))
            assert estimate_kl(X, Z, k_nn=k) == pytest.approx(want, abs=1e-12)

    def test_dim_and_size_guards(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 2))
        with pytest.raises(ConfigurationError):
            estimate_kl(X, rng.standard_normal((10, 3)), k_nn=2)
        with pytest.raises(ConfigurationError):
            estimate_kl(X[:3], X, k_nn=4)


class TestWindow:
    """The ring buffer of `KnnWindowBank`, one row per window."""

    def test_capacity_and_eviction(self):
        bank = KnnWindowBank(rows=2, dim=2, window=3, k_nn=1)
        for i in range(5):
            assert bank.full == (i >= 3)
            bank.push([[float(i), 0.0], [-float(i), 1.0]])
        assert bank.full
        # The last three pushes are the windows: their estimates against a
        # reference equal estimate_kl's of those windows, oldest first.
        ref = np.random.default_rng(4).standard_normal((2, 5, 2))
        windows = [[[i, 0.0] for i in (2.0, 3.0, 4.0)], [[-i, 1.0] for i in (2.0, 3.0, 4.0)]]
        got = bank.estimates(ref)
        for b in range(2):
            assert got[b] == estimate_kl(windows[b], ref[b], 1)

    def test_dim_guard(self):
        bank = KnnWindowBank(rows=1, dim=2, window=3, k_nn=1)
        with pytest.raises(ConfigurationError):
            bank.push([[1.0, 2.0, 3.0]])
        with pytest.raises(ConfigurationError):
            bank.push([[1.0, 2.0], [3.0, 4.0]])   # one row too many
        assert bank.count == 0

    def test_reference_guards(self):
        sliding = KnnWindowBank(rows=1, dim=1, window=3, k_nn=1, sliding_reference=True)
        with pytest.raises(ConfigurationError):
            sliding.push([[1.0]])                 # its reference sample is missing
        with pytest.raises(ConfigurationError):
            sliding.push([[1.0]], [[1.0, 2.0]])
        assert sliding.count == 0
        fresh = KnnWindowBank(rows=1, dim=1, window=3, k_nn=1)
        with pytest.raises(ConfigurationError):
            fresh.push([[1.0]], [[1.0]])
        with pytest.raises(ConfigurationError):
            fresh.estimates(np.zeros((1, 3, 1)))  # ring not full yet
        for i in range(3):
            fresh.push([[float(i)]])
        with pytest.raises(ConfigurationError):
            fresh.estimates(np.zeros((1, 3, 2)))  # wrong dim
        with pytest.raises(ConfigurationError):
            KnnWindowBank(rows=1, dim=1, window=3, k_nn=3)


class TestPairwiseDistances:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_bit_identical_to_norm(self, m):
        rng = np.random.default_rng(20 + m)
        for scale in (1e-3, 1.0, 1e4):
            X = rng.standard_normal((31, m)) * scale
            Z = np.concatenate([rng.standard_normal((17, m)) * scale, X[:5]])
            want = np.linalg.norm(X[:, None] - Z[None], axis=-1)
            assert np.array_equal(pairwise_distances(X, Z), want)
            assert np.array_equal(pairwise_distances(X, X),
                                  np.linalg.norm(X[:, None] - X[None], axis=-1))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 12), st.integers(1, 12),
           st.sampled_from([((), ()), ((3,), (3,)), ((3,), (1,)), ((1,), (4,)),
                            ((), (2,)), ((2, 1), (1, 3))]),
           st.integers(0, 2**32 - 1))
    def test_equals_norm_form(self, m, n1, n2, batch, seed):
        """Any dimension m = 1...9 and broadcast leading axes, with exact
        duplicates across X and Z: the `norm` form's bits."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((*batch[0], n1, m)) * 10.0 ** rng.uniform(-4, 4, m)
        Z = rng.standard_normal((*batch[1], n2, m)) * 10.0 ** rng.uniform(-4, 4, m)
        Z[..., 0, :] = X.reshape(-1, m)[0]
        want = np.linalg.norm(X[..., :, None, :] - Z[..., None, :, :], axis=-1)
        got = pairwise_distances(X, Z)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((4, 9, 3))
        Z = rng.standard_normal((4, 6, 3))
        got = pairwise_distances(X, Z)
        assert got.shape == (4, 9, 6)
        for b in range(4):
            assert np.array_equal(got[b], pairwise_distances(X[b], Z[b]))


@st.composite
def streams(draw):
    """Sample streams for a bank: an identical-window prefix (shadow before
    onset), exact repeats (replay), and several ring wrap-arounds."""
    k = draw(st.integers(1, 8))
    w = draw(st.integers(k + 1, 50))
    m = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 3))
    steps = w * draw(st.integers(2, 4)) + draw(st.integers(0, w - 1))
    prefix = draw(st.integers(0, steps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((steps, rows, m))
    hold = rng.random(steps) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    for t in np.flatnonzero(hold[1:]) + 1:
        X[t] = X[t - 1]
    Z = rng.standard_normal((steps, rows, m)) * 1.5 + 0.5
    Z[:prefix] = X[:prefix]
    return k, w, X, Z, rng


class TestKnnWindowBank:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.floats(-1e100, 1e100), min_size=m, max_size=m), min_size=2, max_size=30)),
        st.data())
    def test_identical_windows_give_exactly_the_baseline(self, rows, data):
        """Any window against itself, duplicates included, is exactly
        log(n2/(n1-1)), from estimate_kl and from a sliding bank alike."""
        X = np.array(rows)
        n, m = X.shape
        k = data.draw(st.integers(1, n - 1))
        baseline = np.log(n / (n - 1))
        assert estimate_kl(X, X, k) == baseline
        bank = KnnWindowBank(1, m, n, k, sliding_reference=True)
        for x in X:
            bank.push([x], [x])
        assert bank.estimates()[0] == baseline

    def test_overflowing_distances_read_as_infinite_divergence(self):
        # Every 5th neighbor distance overflows, within X and into Z alike:
        # the log ratios are inf/inf, and the estimate reads +inf, not NaN.
        # Called outside a run, numpy still reports the overflow; a run
        # silences it (tests/test_integration.py).
        X = np.random.default_rng(32).standard_normal((10, 2))
        X[5:] = 1e200 * np.arange(1.0, 6.0)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            assert estimate_kl(X, X, 5) == np.inf

    @settings(max_examples=40, deadline=None)
    @given(streams())
    def test_sliding_reference_equals_estimate_kl(self, case):
        k, w, X, Z, _ = case
        bank = KnnWindowBank(X.shape[1], X.shape[2], w, k, sliding_reference=True)
        for t in range(len(X)):
            bank.push(X[t], Z[t])
            if not bank.full:
                continue
            got = bank.estimates()
            windows = X[t + 1 - w:t + 1].transpose(1, 0, 2)
            for b in range(X.shape[1]):
                assert got[b] == estimate_kl(windows[b], Z[t + 1 - w:t + 1, b], k), (t, b)

    @settings(max_examples=40, deadline=None)
    @given(streams(), st.integers(0, 40))
    def test_fresh_reference_equals_estimate_kl(self, case, extra):
        k, w, X, _, rng = case
        rows, m = X.shape[1], X.shape[2]
        n2 = k + 1 + extra
        bank = KnnWindowBank(rows, m, w, k)
        for t in range(len(X)):
            bank.push(X[t])
            if not bank.full:
                continue
            windows = X[t + 1 - w:t + 1].transpose(1, 0, 2)
            ref = rng.standard_normal((rows, n2, m))
            copies = min(n2, w) // 2
            ref[:, :copies] = windows[:, -copies:]  # coincident copies
            got = bank.estimates(ref)
            for b in range(rows):
                assert got[b] == estimate_kl(windows[b], ref[b], k), (t, b)

    def test_identical_streams_sit_at_the_baseline(self):
        rng = np.random.default_rng(31)
        bank = KnnWindowBank(rows=2, dim=2, window=10, k_nn=3, sliding_reference=True)
        for _ in range(25):
            x = rng.standard_normal((2, 2))
            bank.push(x, x.copy())
            if bank.full:
                assert np.all(bank.estimates() == np.log(10.0 / 9.0))


class TestPhi:
    """The detectors' sliding mean, kept by the bank."""

    def test_identical_windows_constant(self):
        bank = KnnWindowBank(rows=1, dim=2, window=40, k_nn=4, average=10)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 2))
        ident = np.log(40.0 / 39.0)
        for k in range(25):
            val = bank.average([estimate_kl(X, X.copy(), 4)])[0]
            assert val == pytest.approx(ident, abs=1e-12)

    def test_partial_average_then_t1(self):
        bank = KnnWindowBank(rows=1, dim=2, window=40, k_nn=4, average=3)
        assert bank.average([1.0])[0] == pytest.approx(1.0)
        assert bank.average([2.0])[0] == pytest.approx(1.5)
        assert bank.average([3.0])[0] == pytest.approx(2.0)
        assert bank.average([4.0])[0] == pytest.approx(3.0)  # window of 3
        one = KnnWindowBank(rows=1, dim=2, window=40, k_nn=4, average=1)
        assert one.average([0.7])[0] == pytest.approx(0.7)

    def test_grows_after_displacement(self):
        bank = KnnWindowBank(rows=1, dim=2, window=40, k_nn=4, average=5)
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((40, 2))
        for k in range(10):
            X = rng.standard_normal((40, 2))
            calm = bank.average([estimate_kl(X, Z, 4)])[0]
        for k in range(10, 25):
            X = rng.standard_normal((40, 2)) + 6.0
            latest = bank.average([estimate_kl(X, Z, 4)])[0]
        assert latest > max(0.5, calm + 0.5)
        assert detect(latest, 0.5) == H1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 60),
           st.integers(0, 2**32 - 1))
    def test_equals_numpy_mean_of_the_last_t(self, T, rows, extra, seed):
        # every row's mean is np.mean over its last <= T estimates, bit for
        # bit, through several ring wrap-arounds
        rng = np.random.default_rng(seed)
        steps = 3 * T + extra
        history = rng.standard_normal((steps, rows)) * 10.0 ** rng.uniform(-3, 3, (steps, rows))
        bank = KnnWindowBank(rows=rows, dim=1, window=2, k_nn=1, average=T)
        for t in range(steps):
            got = bank.average(history[t])
            for b in range(rows):
                assert got[b] == np.mean(history[max(0, t + 1 - T):t + 1, b].tolist()), (t, b)


class TestReferenceWindow:
    def test_identity_covariance_standard_normal(self):
        rng = np.random.default_rng(6)
        Z = nominal_reference_window(np.eye(2), 4000, rng)
        assert Z.shape == (4000, 2)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=0.08)
        assert np.allclose(np.cov(Z.T), np.eye(2), atol=0.1)

    def test_seeded_reproducibility(self):
        a = nominal_reference_window(np.eye(3), 10, np.random.default_rng(7))
        b = nominal_reference_window(np.eye(3), 10, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_non_psd(self):
        with pytest.raises(ConfigurationError):
            nominal_reference_window(np.array([[1.0, 2.0], [2.0, 1.0]]), 5,
                                     np.random.default_rng(8))

    def test_singular_covariance_allowed(self):
        omega = np.array([[1.0, 0.0], [0.0, 0.0]])
        Z = nominal_reference_window(omega, 2000, np.random.default_rng(9))
        assert np.allclose(Z[:, 1], 0.0, atol=1e-12)
        assert np.std(Z[:, 0]) == pytest.approx(1.0, abs=0.1)


def per_matrix_factor(omega):
    """The factor one reference covariance got before factors were batched:
    PSD check, Cholesky, eigen square root when singular."""
    eig = np.linalg.eigvalsh(0.5 * (omega + omega.T))
    if eig[0] < -1e-10 * max(1.0, abs(eig[-1])):
        raise ConfigurationError(f"reference covariance not PSD (min eig {eig[0]:g})")
    try:
        return np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (omega + omega.T))
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


@st.composite
def psd_stacks(draw):
    """A stack of 1-6 p x p PSD matrices, p = 1...4, some singular (integer
    factors of lower rank, so the singularity is exact)."""
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            B = rng.integers(-3, 4, (p, draw(st.integers(0, p - 1)) if p > 1 else 0))
            stack.append((B @ B.T).astype(float))
        else:
            B = rng.standard_normal((p, p)) * 10.0 ** rng.uniform(-3, 3)
            stack.append(B @ B.T + 1e-3 * np.eye(p))
    return np.array(stack).reshape(-1, p, p)


class TestReferenceFactors:
    @settings(max_examples=80, deadline=None)
    @given(psd_stacks(), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_batched_factors_equal_per_matrix(self, omegas, w, seed):
        """The stacked factors, and windows drawn through them with one
        stacked matmul, equal the per-matrix factors and windows bit for bit."""
        L = reference_factors(omegas)
        want = np.array([per_matrix_factor(o) for o in omegas])
        assert L.tobytes() == want.tobytes()
        Z = np.stack([np.random.default_rng([seed, g]).standard_normal((w, len(L[g])))
                      for g in range(len(L))])
        windows = Z @ np.swapaxes(L, -1, -2)
        for g, omega in enumerate(omegas):
            rng = np.random.default_rng([seed, g])
            assert windows[g].tobytes() == (
                rng.standard_normal((w, len(omega))) @ want[g].T).tobytes()
            assert windows[g].tobytes() == nominal_reference_window(
                omega, w, np.random.default_rng([seed, g])).tobytes()

    def test_singular_and_not_psd(self):
        singular = np.array([[[1.0, 0.0], [0.0, 0.0]], [[2.0, 1.0], [1.0, 2.0]]])
        L = reference_factors(singular)
        assert L.tobytes() == np.array([per_matrix_factor(o) for o in singular]).tobytes()
        assert np.allclose(L @ np.swapaxes(L, -1, -2), singular)
        not_psd = np.concatenate([singular, [[[1.0, 2.0], [2.0, 1.0]]]])
        with pytest.raises(ConfigurationError, match="not PSD"):
            reference_factors(not_psd)


class TestNeighborInnovation:
    def test_zero_when_consistent(self):
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        xp = np.array([0.1, 0.2])
        assert np.array_equal(innovation(C @ xp, C, xp), np.zeros(2))

    def test_channel_bias_shifts_mean(self):
        rng = np.random.default_rng(10)
        C = np.array([[5.0, 0.0], [0.0, 2.0]])
        bias = np.array([0.4, -0.3])
        shifts = []
        for _ in range(2000):
            x = rng.standard_normal(2)
            y = C @ x + rng.standard_normal(2) * 0.1
            shifts.append(innovation(y, C, x + bias))
        mean = np.mean(shifts, axis=0)
        assert np.allclose(mean, -C @ bias, atol=0.05)


class TestDetect:
    def test_trivials(self):
        assert detect(0.0, 0.5) == H0
        assert detect(0.5, 0.5) == H0   # boundary stays null
        assert detect(0.51, 0.5) == H1
        assert detect(float("nan"), 0.5) == H0

    def test_sliding_mean_empty(self):
        # no estimate before the windows fill, so phi and psi stay NaN until then
        cfg = get_preset("fig6")
        cfg.steps = cfg.detector.window + 2
        trace = run_scenario(cfg)
        full = cfg.detector.window - 1
        for i in (1, 2):
            phi = trace.series("phi", i)
            assert np.all(np.isnan(phi[:full])) and np.all(np.isfinite(phi[full:]))
        psi = trace.edge_series("psi", 2, 1)
        assert np.all(np.isnan(psi[:full])) and np.all(np.isfinite(psi[full:]))

    def test_config_guards(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(k_nn=40, window=40)
        with pytest.raises(ConfigurationError):
            DetectorConfig(delta=0.01, window=40)
        with pytest.raises(ConfigurationError):
            DetectorConfig(reference="nope")
