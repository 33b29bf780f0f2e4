"""k-NN KL-divergence estimation over innovation windows and the two detectors.

The estimator follows the nearest-neighbor relative-entropy form

    D(P_X || P_Z) ~= (m / n1) * sum_i log(dZ_k(i) / dX_k(i)) + log(n2 / (n1 - 1))

with dX_k(i) the k-th NN distance of X_i within X (query excluded) and dZ_k(i)
the k-th NN distance of X_i into Z. A Z sample coinciding exactly with the
query point is treated as the query itself and skipped once, so two pointwise
identical windows evaluate to exactly log(n2/(n1-1)). Distances are floored at
`epsilon_d` to keep the logarithms finite for duplicated samples (replayed
residuals produce those).

`estimate_kl` evaluates one pair of sample sets. `KnnWindowBank` keeps the
sliding windows of a whole network and updates their distance matrices by one
row and column per step; its estimates equal `estimate_kl`'s bit for bit. It
also keeps each row's last T estimates for the detectors' sliding mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

H0 = "H0"
H1 = "H1"


@dataclass
class DetectorConfig:
    k_nn: int = 4
    window: int = 40          # w, innovation samples per window
    average: int = 10         # T, divergence values in the sliding mean
    delta: float = 0.5        # detection threshold
    epsilon_d: float = 1e-12  # distance floor
    reference: str = "shadow"  # "shadow" | "synthetic" | "calibrated"

    def __post_init__(self):
        if not 1 <= self.k_nn < self.window:
            raise ConfigurationError(
                f"need 1 <= k_nn < window, got k_nn={self.k_nn}, window={self.window}"
            )
        if self.average < 1:
            raise ConfigurationError(f"average window T must be >= 1, got {self.average}")
        baseline = np.log(self.window / (self.window - 1))
        if self.delta <= baseline:
            raise ConfigurationError(
                f"delta={self.delta} must exceed the identical-window baseline "
                f"log(w/(w-1))={baseline:.4g}"
            )
        if self.reference not in ("shadow", "synthetic", "calibrated"):
            raise ConfigurationError(f"unknown reference mode {self.reference!r}")


def pairwise_distances(X, Z) -> np.ndarray:
    """Euclidean distances between the rows of X (..., n1, m) and Z (..., n2, m).

    Returns (..., n1, n2), bit-identical to
    `np.linalg.norm(X[..., :, None, :] - Z[..., None, :, :], axis=-1)` but
    computed one coordinate plane at a time: `add.reduce` over a short last
    axis costs more than the arithmetic. It sums fewer than 8 terms left to
    right, which the plane sum repeats; longer axes are summed pairwise, so
    they go through `norm` itself. Each plane is read from a contiguous copy
    and subtracted, squared and added into two buffers allocated once.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    m = X.shape[-1]
    if m >= 8:
        return np.linalg.norm(X[..., :, None, :] - Z[..., None, :, :], axis=-1)
    Xc = np.ascontiguousarray(np.moveaxis(X, -1, 0))[..., :, None]   # (m, ..., n1, 1)
    Zc = np.ascontiguousarray(np.moveaxis(Z, -1, 0))[..., None, :]   # (m, ..., 1, n2)
    total = np.subtract(Xc[0], Zc[0])
    np.multiply(total, total, out=total)
    d = np.empty_like(total)
    for c in range(1, m):
        np.subtract(Xc[c], Zc[c], out=d)
        np.multiply(d, d, out=d)
        np.add(total, d, out=total)
    return np.sqrt(total, out=total)


def kth_neighbor_distance(D, k_nn: int) -> np.ndarray:
    """k-th smallest entry along the last axis of a distance matrix D.

    A row holding an exact zero (the query itself, or a coincident copy of it)
    has one such entry skipped, so it reads the (k+1)-th smallest instead.
    Needs more than `k_nn` entries per row.
    """
    # A full sort: on x86 numpy sorts float rows with SIMD kernels, which
    # measured faster than np.partition for w = 10-160, and the zero test then
    # reads one column instead of reducing over the k smallest.
    S = np.sort(D, axis=-1)
    return np.where(S[..., 0] == 0.0, S[..., k_nn], S[..., k_nn - 1])


def _divergence(d_x, d_z, n2: int, epsilon_d: float, m: int):
    """(m/n1) sum_i log(dZ_k(i)/dX_k(i)) + log(n2/(n1-1)) over the last axis.

    The logs are summed in the order given, so callers pass the query rows in
    chronological order on a C-contiguous last axis. A non-finite result
    (distances that overflow) reads as +inf, as far from the reference as
    can be, so it is flagged H1.
    """
    n1 = d_x.shape[-1]
    ratio = np.maximum(d_z, epsilon_d) / np.maximum(d_x, epsilon_d)
    d = m / n1 * np.sum(np.log(ratio), axis=-1) + np.log(n2 / (n1 - 1))
    return np.where(np.isfinite(d), d, np.inf)


def estimate_kl(X, Z, k_nn: int, epsilon_d: float = DetectorConfig.epsilon_d) -> float:
    """k-NN relative-entropy estimate of D(P_X || P_Z) from two sample sets."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n1, m = X.shape
    n2 = Z.shape[0]
    if Z.shape[1] != m:
        raise ConfigurationError(f"X dim {m} != Z dim {Z.shape[1]}")
    if n1 <= k_nn or n2 <= k_nn:
        raise ConfigurationError(
            f"degenerate windows: n1={n1}, n2={n2} too small for k_nn={k_nn}"
        )
    # The zero on the within-X diagonal is the query itself; a zero among the
    # cross distances is its coincident copy. Either is skipped once.
    d_x = kth_neighbor_distance(pairwise_distances(X, X), k_nn)
    d_z = kth_neighbor_distance(pairwise_distances(X, Z), k_nn)
    return float(_divergence(d_x, d_z, n2, epsilon_d, m))


class KnnWindowBank:
    """Sliding k-NN divergence estimates for a stack of innovation windows.

    Row b of the bank is one window of `dim`-dimensional samples. Each `push`
    gives every row one sample, written to ring slot `count % window`, which
    evicts the oldest once the ring is full. The within-window distances of
    all rows live in a ring-indexed (rows, w, w) matrix, and a push writes
    only the new sample's row and column of it. With a sliding reference,
    each push also carries every row's newest reference sample, and the cross
    distances are kept the same way. Otherwise `estimates` takes freshly
    drawn reference windows and computes all rows' cross distances at once.

    `estimates()[b]` equals `estimate_kl` of row b's window, in chronological
    order, against its reference window, bit for bit. `average` keeps the last
    `average` (T) estimates of every row in a (rows, T) ring and returns their
    means, each equal to `np.mean` of the row's last <= T estimates.
    """

    def __init__(self, rows: int, dim: int, window: int, k_nn: int,
                 epsilon_d: float = DetectorConfig.epsilon_d, sliding_reference: bool = False,
                 average: int = 1):
        if not 1 <= k_nn < window:
            raise ConfigurationError(
                f"need 1 <= k_nn < window, got k_nn={k_nn}, window={window}")
        if average < 1:
            raise ConfigurationError(f"average window T must be >= 1, got {average}")
        self.dim = int(dim)
        self.window = int(window)
        self.k_nn = int(k_nn)
        self.epsilon_d = epsilon_d
        self.count = 0
        self._x = np.zeros((rows, self.window, self.dim))
        self._dxx = np.zeros((rows, self.window, self.window))
        self._z = self._dxz = None
        if sliding_reference:
            self._z = np.zeros_like(self._x)
            self._dxz = np.zeros_like(self._dxx)
        self._raw = np.zeros((rows, int(average)))
        self._averaged = 0

    @property
    def full(self) -> bool:
        return self.count >= self.window

    def _one_per_row(self, samples) -> np.ndarray:
        s = np.asarray(samples, dtype=float)
        if s.shape != (len(self._x), self.dim):
            raise ConfigurationError(
                f"samples of shape {s.shape} for {len(self._x)} rows of dim {self.dim}")
        return s

    def push(self, samples, reference=None) -> None:
        """Append one sample per row, (rows, dim), and with a sliding reference
        one reference sample per row as well."""
        x = self._one_per_row(samples)
        if (reference is None) != (self._z is None):
            raise ConfigurationError(
                "a reference sample goes with every push to a sliding-reference bank, "
                "and only to one")
        z = None if reference is None else self._one_per_row(reference)
        s = self.count % self.window
        self._x[:, s] = x
        d = pairwise_distances(x[:, None], self._x)[:, 0]
        self._dxx[:, s, :] = d
        self._dxx[:, :, s] = d
        if z is not None:
            self._z[:, s] = z
            self._dxz[:, s, :] = pairwise_distances(x[:, None], self._z)[:, 0]
            self._dxz[:, :, s] = pairwise_distances(self._x, z[:, None])[..., 0]
        self.count += 1

    def estimates(self, reference=None) -> np.ndarray:
        """One divergence estimate per row, (rows,); needs a full ring.

        `reference` is (rows, n2, dim), each row's freshly drawn reference
        window; a sliding-reference bank uses its own ring instead.
        """
        if not self.full:
            raise ConfigurationError(f"windows hold {self.count} of {self.window} samples")
        if self._z is not None:
            if reference is not None:
                raise ConfigurationError("a sliding-reference bank takes no reference window")
            dxz, n2 = self._dxz, self.window
        else:
            Z = np.asarray(reference, dtype=float)
            if Z.ndim != 3 or Z.shape[0] != len(self._x) or Z.shape[2] != self.dim \
                    or Z.shape[1] <= self.k_nn:
                raise ConfigurationError(
                    f"reference of shape {Z.shape} for {len(self._x)} rows of dim "
                    f"{self.dim} and k_nn={self.k_nn}")
            dxz, n2 = pairwise_distances(self._x, Z), Z.shape[1]
        d_x = _oldest_first(kth_neighbor_distance(self._dxx, self.k_nn), self.count)
        d_z = _oldest_first(kth_neighbor_distance(dxz, self.k_nn), self.count)
        return _divergence(d_x, d_z, n2, self.epsilon_d, self.dim)

    def average(self, values) -> np.ndarray:
        """Record one estimate per row, (rows,), and return each row's mean of
        its last <= T estimates, summed oldest first as `np.mean` sums them."""
        T = self._raw.shape[1]
        self._raw[:, self._averaged % T] = values
        self._averaged += 1
        return np.mean(_oldest_first(self._raw[:, :self._averaged], self._averaged), axis=1)


def _oldest_first(ring, count: int, axis: int = -1) -> np.ndarray:
    """A ring written `count` times in slot order, oldest entry first, C-contiguous.

    Once the ring is full, slot `count % size` holds the oldest entry.
    """
    size = ring.shape[axis]
    return np.ascontiguousarray(np.roll(ring, -(count % size) if size else 0, axis=axis))


def reference_factors(omega) -> np.ndarray:
    """Lower factors L with L L^T = Omega of a stack (..., p, p) of reference
    covariances, so that `Z @ L.T` maps standard normal (w, p) draws Z to
    N(0, Omega) windows.

    Each is the Cholesky factor, or for a PSD but singular Omega the eigen
    square root V sqrt(max(lambda, 0)). An Omega that is not PSD raises
    `ConfigurationError`. A stack gives its matrices' factors bit for bit.
    """
    omega = np.asarray(omega, dtype=float)
    sym = 0.5 * (omega + np.swapaxes(omega, -1, -2))
    eig = np.linalg.eigvalsh(sym)
    bad = eig[..., 0] < -1e-10 * np.maximum(1.0, np.abs(eig[..., -1]))
    if bad.any():
        raise ConfigurationError(f"reference covariance not PSD (min eig {eig[..., 0][bad][0]:g})")
    try:
        return np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        if omega.ndim > 2:   # factor one by one, so each singular one falls back alone
            return np.stack([reference_factors(o) for o in omega])
        vals, vecs = np.linalg.eigh(sym)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def nominal_reference_window(omega, w: int, rng: np.random.Generator) -> np.ndarray:
    """w i.i.d. draws from N(0, Omega) for the synthetic H0 reference."""
    L = reference_factors(omega)
    return rng.standard_normal((w, L.shape[0])) @ L.T


def detect(value, delta: float) -> np.ndarray:
    """H1 where the averaged divergence strictly exceeds delta, elementwise (NaN stays H0)."""
    return np.where(np.asarray(value) > delta, H1, H0)
