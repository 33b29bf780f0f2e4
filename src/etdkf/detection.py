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
row and column per step; its estimates equal `estimate_kl`'s bit for bit.
`sliding_mean` takes the detectors' T-step mean over a whole run's estimates.

A bank whose window is long enough for its k (`4 * (k_nn + 2) <= window`)
slides its sorted rows as well: it keeps each query's k+1 smallest distances
and, per push, inserts the one new entry of every row and re-sorts only the
rows that lose an entry at or under their k+1-th smallest (or a NaN), plus
the new sample's own row. The prefix it keeps equals the first k+1 entries
of `np.sort` of the whole row bit for bit: order statistics are values,
whichever algorithm finds them; distances are never -0.0; and `np.sort` puts
NaN last, while a NaN never enters a kept prefix except through a re-sort.
A shorter window sends about (k+2)/w of its rows back to the sort on every
push, too many to gain, so its banks sort every whole row per estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError

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
        errors = []
        if not 1 <= self.k_nn < self.window:
            errors.append(f"need 1 <= k_nn < window, got k_nn={self.k_nn}, window={self.window}")
        if self.average < 1:
            errors.append(f"average window T must be >= 1, got {self.average}")
        if self.window >= 2:   # else the window failed above, and the baseline has no value
            baseline = np.log(self.window / (self.window - 1))
            if self.delta <= baseline:
                errors.append(f"delta={self.delta} must exceed the identical-window baseline "
                              f"log(w/(w-1))={baseline:.4g}")
        if self.reference not in ("shadow", "synthetic", "calibrated"):
            errors.append(f"unknown reference mode {self.reference!r}")
        if errors:
            raise ValidationError(errors)


def pairwise_distances(X, Z) -> np.ndarray:
    """Euclidean distances between the rows of X (..., n1, m) and Z (..., n2, m).

    Returns (..., n1, n2), bit-identical to
    `np.linalg.norm(X[..., :, None, :] - Z[..., None, :, :], axis=-1)`: the
    root of `_squared_distances` over the coordinate planes of X and Z.
    """
    X = np.moveaxis(np.asarray(X, dtype=float), -1, 0)
    Z = np.moveaxis(np.asarray(Z, dtype=float), -1, 0)
    squares = _squared_distances(X[..., :, None], Z[..., None, :])
    return np.sqrt(squares, out=squares)


_PAIRWISE = 8   # planes from which `norm` sums pairwise


def _squared_distances(A, B, out=None) -> np.ndarray:
    """The sum over coordinate planes c of (A[c] - B[c])**2, for plane-major A
    and B, (m, ...), whose planes broadcast against each other: the squares
    that `pairwise_distances` and a bank's rings take the roots of.

    `out`, when given, is a pair (total, work) of C-contiguous float arrays
    that the sum and its terms are written to: total of the result's shape,
    and work of that shape too below 8 planes, or of that shape plus a last
    axis of the m planes from 8 up. The sum is returned in total.

    `add.reduce` over a short last axis costs more than the arithmetic, so the
    planes are subtracted, squared and added one at a time: `norm` sums fewer
    than 8 terms left to right, as this does. From 8 planes up `norm` sums
    pairwise along a contiguous last axis, so the differences are laid out
    that way (`order="C"`; numpy would otherwise keep plane-major inputs
    plane-major) and reduced as `norm` reduces them. (a - b)**2 equals
    (b - a)**2 exactly, so either order of the operands gives the same bits.
    """
    total, work = (None, None) if out is None else out
    if len(A) >= _PAIRWISE:
        diff = np.subtract(np.moveaxis(A, 0, -1), np.moveaxis(B, 0, -1), out=work, order="C")
        return np.add.reduce(np.multiply(diff, diff, out=diff), axis=-1, out=total)
    total, d = np.subtract(A[0], B[0], out=total), work
    np.multiply(total, total, out=total)
    for c in range(1, len(A)):
        d = np.subtract(A[c], B[c], out=d)
        np.multiply(d, d, out=d)
        np.add(total, d, out=total)
    return total


def kth_neighbor_distance(D, k_nn: int) -> np.ndarray:
    """k-th smallest entry along the last axis of a distance matrix D.

    A row holding an exact zero (the query itself, or a coincident copy of it)
    has one such entry skipped, so it reads the (k+1)-th smallest instead.
    Needs more than `k_nn` entries per row.
    """
    # A full sort: on x86 numpy sorts float rows with SIMD kernels, which
    # measured faster than np.partition for w = 10-160, and the zero test then
    # reads one column instead of reducing over the k smallest.
    return _kth_of_sorted(np.sort(D, axis=-1), k_nn)


def _kth_of_sorted(S, k_nn: int) -> np.ndarray:
    """`kth_neighbor_distance` of rows already sorted along the last axis
    (at least their `k_nn + 1` smallest entries)."""
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
    d = m / n1 * np.add.reduce(np.log(ratio), axis=-1) + np.log(n2 / (n1 - 1))
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
    evicts the oldest once the ring is full. The rings are plane-major and
    stacked, (dim, rings, rows, w), the sample ring first and a sliding
    reference's ring second: each coordinate of all rows' samples is one
    contiguous plane, which `_squared_distances` reads in place, and a push
    takes the new sample's distances to every ring in one call. The
    within-window distances of all rows live in a ring-indexed (rows, w, w)
    matrix, and a push writes only the new sample's row and column of it.
    With a sliding reference, each push also carries every row's newest
    reference sample, and the cross distances are kept the same way.
    Otherwise `estimates` takes freshly drawn reference windows and computes
    all rows' cross distances at once. Each ring matrix reads its k-th neighbors through
    `_RingDistances`, which slides the sorted prefix of its rows when
    `4 * (k_nn + 2) <= window`. The fresh cross squares, (rows, w, n2), and
    their terms are written to one scratch pair kept by the bank and made
    again only when n2 changes, so a steady step maps no new pages; every
    other array is allocated where it is used.

    `estimates()[b]` equals `estimate_kl` of row b's window, in chronological
    order, against its reference window, bit for bit. The bank keeps no
    estimates: the detectors' mean over them is `sliding_mean`'s.
    """

    def __init__(self, rows: int, dim: int, window: int, k_nn: int,
                 epsilon_d: float = DetectorConfig.epsilon_d, sliding_reference: bool = False):
        if not 1 <= k_nn < window:
            raise ConfigurationError(
                f"need 1 <= k_nn < window, got k_nn={k_nn}, window={window}")
        self.rows = int(rows)
        self.dim = int(dim)
        self.window = int(window)
        self.k_nn = int(k_nn)
        self.epsilon_d = epsilon_d
        self.count = 0
        # The sample ring, then the reference ring of a sliding reference.
        self._rings = np.zeros((self.dim, 1 + bool(sliding_reference), self.rows, self.window))
        self._x = self._rings[:, 0]
        self._dxx = _RingDistances(self.rows, self.window, self.k_nn)
        self._z = self._dxz = None
        if sliding_reference:
            self._z = self._rings[:, 1]
            self._dxz = _RingDistances(self.rows, self.window, self.k_nn)
        self._fresh = None   # the fresh cross squares and their terms, per n2

    @property
    def full(self) -> bool:
        return self.count >= self.window

    def _planes(self, samples) -> np.ndarray:
        """One sample per row, (rows, dim), as planes (dim, rows, 1)."""
        s = np.asarray(samples, dtype=float)
        if s.shape != (self.rows, self.dim):
            raise ConfigurationError(
                f"samples of shape {s.shape} for {self.rows} rows of dim {self.dim}")
        return s.T[..., None]

    def push(self, samples, reference=None) -> None:
        """Append one sample per row, (rows, dim), and with a sliding reference
        one reference sample per row as well."""
        x = self._planes(samples)
        if (reference is None) != (self._z is None):
            raise ConfigurationError(
                "a reference sample goes with every push to a sliding-reference bank, "
                "and only to one")
        z = None if reference is None else self._planes(reference)
        s = self.count % self.window
        self._x[..., s:s + 1] = x
        if z is not None:
            self._z[..., s:s + 1] = z
        # The new sample's distances to every ring in one call.
        d = np.sqrt(_squared_distances(self._rings, x[:, None]))
        self._dxx.write(s, d[0], d[0])
        if z is not None:
            self._dxz.write(s, d[1], np.sqrt(_squared_distances(self._x, z)))
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
            kth_z, n2 = self._dxz.kth(), self.window
        else:
            Z = np.asarray(reference, dtype=float)
            if Z.ndim != 3 or Z.shape[0] != self.rows or Z.shape[2] != self.dim \
                    or Z.shape[1] <= self.k_nn:
                raise ConfigurationError(
                    f"reference of shape {Z.shape} for {self.rows} rows of dim "
                    f"{self.dim} and k_nn={self.k_nn}")
            n2 = Z.shape[1]
            shape = (self.rows, self.window, n2)
            if self._fresh is None or self._fresh[0].shape != shape:
                self._fresh = (np.empty(shape),
                               np.empty(shape + ((self.dim,) if self.dim >= _PAIRWISE else ())))
            # The squares, sorted in place, and the root of the selected
            # column only: sqrt is correctly rounded and non-decreasing, so it
            # commutes with the sort, and a square is 0 exactly where its root is.
            squares = _squared_distances(self._x[..., None], np.moveaxis(Z, -1, 0)[:, :, None],
                                         out=self._fresh)
            squares.sort(axis=-1)
            kth_z = np.sqrt(_kth_of_sorted(squares, self.k_nn))
        d_x = _oldest_first(self._dxx.kth(), self.count)
        d_z = _oldest_first(kth_z, self.count)
        return _divergence(d_x, d_z, n2, self.epsilon_d, self.dim)


class _RingDistances:
    """A ring-indexed (rows, w, w) distance matrix `d` and its rows' k-th
    smallest entries under the zero rule, one query per (row, slot).

    Once `kth` has read a full ring, a matrix with `4 * (k_nn + 2) <= w`
    keeps `prefix`, (k+1, rows, w): plane j holds every query's j-th smallest
    entry, equal to `np.sort(d, axis=-1)[..., j]` bit for bit. `write` then
    moves it with the matrix. A push changes one entry of every query, in the
    written column, and all of the written slot's own query. A query whose
    evicted entry was strictly above its k+1-th smallest loses nothing from
    its prefix, and the new entry is merged in; every other query is sorted
    again from its whole row. That is about (k+2)/w of the queries per push,
    so a shorter window sorts every whole row per `kth` instead. Each push
    builds a new prefix, and each whole-row sort sorts a fresh copy of the
    rows it reads.
    """

    def __init__(self, rows: int, window: int, k_nn: int):
        self.d = np.zeros((rows, window, window))
        self.k_nn = k_nn
        self.slides = 4 * (k_nn + 2) <= window
        self.prefix = None

    def write(self, s: int, row, column) -> None:
        """Write slot s's query row (rows, w) and column (rows, w)."""
        old = None if self.prefix is None else self.d[:, :, s].copy()
        self.d[:, s, :] = row
        self.d[:, :, s] = column
        if old is not None:
            self._slide(s, old, column)

    def _slide(self, s: int, old, new) -> None:
        P, k = self.prefix, self.k_nn
        resort = ~(old > P[k])     # ties and NaN included
        resort[:, s] = True
        # Merge each query's new entry into its prefix. fmin keeps a NaN out:
        # a prefix holds a NaN only where the whole row's sort put one there.
        merged = np.fmin(new, P)
        np.maximum(P[:-1], merged[1:], out=merged[1:])
        queries = np.flatnonzero(resort)
        rows = self.d.reshape(-1, self.d.shape[-1])[queries]
        rows.sort(axis=-1)
        merged.reshape(k + 1, -1)[:, queries] = rows[:, :k + 1].T
        self.prefix = merged

    def kth(self) -> np.ndarray:
        """Each query's k-th neighbor distance, (rows, w); needs a full ring."""
        k = self.k_nn
        if self.prefix is None:
            rows = np.sort(self.d, axis=-1)
            if not self.slides:
                return _kth_of_sorted(rows, k)
            self.prefix = np.ascontiguousarray(rows[..., :k + 1].transpose(2, 0, 1))
        return _kth_of_sorted(self.prefix.transpose(1, 2, 0), k)


@functools.lru_cache(maxsize=1024)
def _ring_order(size: int, oldest: int) -> np.ndarray:
    """Slot indices of a ring of `size` slots, oldest (slot `oldest`) first."""
    order = (np.arange(size) + oldest) % size
    order.setflags(write=False)
    return order


def _oldest_first(ring, count: int) -> np.ndarray:
    """A ring (..., size) written `count` times in slot order, oldest entry
    first along the last axis, C-contiguous (a gather, as `np.roll` gives it).

    Once the ring is full, slot `count % size` holds the oldest entry.
    """
    size = ring.shape[-1]
    return np.take(ring, _ring_order(size, count % size), axis=-1)


def sliding_mean(values, T: int, first: int = 0) -> np.ndarray:
    """Each entry's mean of its last <= T values, per row of a whole-run
    record (steps, entries), counting from row `first`: row k >= first is
    `np.mean(values[max(first, k + 1 - T):k + 1], axis=0)` bit for bit, and
    the rows before `first` are NaN. Row by row, each window is summed
    oldest first along a contiguous last axis with `np.mean`'s own reduce
    and division, so one (entries, T) window is gathered at a time.
    """
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape, np.nan)
    for k in range(first, len(values)):
        window = values[max(first, k + 1 - T):k + 1]
        out[k] = np.add.reduce(np.ascontiguousarray(window.T), axis=-1) / len(window)
    return out


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


def detect(value, delta: float) -> np.ndarray:
    """H1 where the averaged divergence strictly exceeds delta, elementwise (NaN stays H0)."""
    return np.where(np.asarray(value) > delta, H1, H0)
