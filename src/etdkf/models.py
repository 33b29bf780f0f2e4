"""Linear process / sensor models, seeded noise streams, observability checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ValidationError

# Singular values below RANK_RTOL * sigma_max count as zero in rank tests.
RANK_RTOL = 1e-9


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ConfigurationError(f"{name} has a non-finite entry")
    return a


def _check_symmetric_psd(m: np.ndarray, name: str, strict: bool = False) -> None:
    if m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {m.shape}")
    if not np.allclose(m, m.T, atol=1e-10):
        raise ConfigurationError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    lo = -1e-10 * max(1.0, abs(eig[-1]))
    if strict and eig[0] <= 0:
        raise ConfigurationError(f"{name} must be positive definite (min eig {eig[0]:g})")
    if eig[0] < lo:
        raise ConfigurationError(f"{name} must be positive semidefinite (min eig {eig[0]:g})")


@dataclass
class ProcessModel:
    """Linear plant x(k+1) = A x(k) + w(k), w ~ N(0, Q), x(0) ~ N(x0_mean, P0)."""

    A: np.ndarray
    Q: np.ndarray
    x0_mean: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        errors = []

        def checked(check, *args):   # check's result, or None with its violation listed
            try:
                return check(*args)
            except ConfigurationError as exc:
                errors.append(str(exc))
                return None

        def square(m, name):   # an n x n matrix, symmetric PSD unless its shape failed
            m = checked(_as_matrix, m, name)
            if m is not None and n is not None and m.shape != (n, n):
                errors.append(f"{name} shape {m.shape} incompatible with n={n}")
            elif m is not None:
                checked(_check_symmetric_psd, m, name)
            return m

        self.A = checked(_as_matrix, self.A, "A")
        n = None if self.A is None else self.A.shape[0]
        if n is not None and self.A.shape != (n, n):
            errors.append(f"A must be square, got {self.A.shape}")
            n = None
        self.Q = square(self.Q, "Q")
        x0 = checked(_as_matrix, np.reshape(self.x0_mean, (1, -1)), "x0_mean")
        self.x0_mean = None if x0 is None else x0[0]
        if x0 is not None and n is not None and self.x0_mean.shape != (n,):
            errors.append(f"x0_mean length {self.x0_mean.shape[0]} != n={n}")
        self.P0 = square(self.P0, "P0")
        if errors:
            raise ValidationError(errors)
        # Factors F with F F^T = Q (P0): every draw reuses them.
        self.Q_factor, self.P0_factor = _factor(self.Q), _factor(self.P0)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass
class SensorModel:
    """Observation y_i(k) = C_i x(k) + v_i(k), v_i ~ N(0, R_i), R_i > 0."""

    C: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.C = _as_matrix(self.C, "C")
        self.R = _as_matrix(self.R, "R")
        p = self.C.shape[0]
        if self.R.shape != (p, p):
            raise ConfigurationError(f"R shape {self.R.shape} incompatible with p={p}")
        _check_symmetric_psd(self.R, "R", strict=True)
        # Lower Cholesky factor of R: every noise draw reuses it.
        self.R_factor = np.linalg.cholesky(self.R)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[1]


# Stream-key constants for NoiseSource sub-streams.  Keyed derivation (rather
# than sequential spawning) keeps every stream stable when sensors or attack
# plans are added to a scenario.
STREAM_PROCESS = 0
STREAM_SENSOR = 1
STREAM_REFERENCE = 2
STREAM_ATTACK = 3
STREAM_INITIAL_STATE = 4


@dataclass
class NoiseSource:
    """Deterministic per-purpose random streams derived from one master seed."""

    seed: int
    _cache: dict = field(default_factory=dict, repr=False)

    def stream(self, *key: int) -> np.random.Generator:
        """Return the generator for a stream key, creating it on first use."""
        if key not in self._cache:
            self._cache[key] = np.random.default_rng(
                np.random.SeedSequence([int(self.seed), *map(int, key)])
            )
        return self._cache[key]

    # Each draw equals multivariate_normal(mean, cov) bit for bit, with the
    # method `_factor` picks, without factoring cov again. Given `steps`, a
    # draw returns the stream's next `steps` draws as (steps, dim), equal to
    # `steps` single draws: `np.matvec(F, Z)` applies the factor row by row as
    # `z @ F.T` does, where `Z @ F.T` would move last bits for dim >= 2.
    def draw_initial_state(self, model: ProcessModel) -> np.ndarray:
        return model.x0_mean + self._draw((STREAM_INITIAL_STATE,), model.P0_factor, None)

    def draw_process_noise(self, model: ProcessModel, steps: int | None = None) -> np.ndarray:
        # Zero mean added as multivariate_normal adds it: -0.0 entries become 0.0.
        return 0.0 + self._draw((STREAM_PROCESS,), model.Q_factor, steps)

    def draw_measurement_noise(self, sensor: SensorModel, node: int,
                               steps: int | None = None) -> np.ndarray:
        return self._draw((STREAM_SENSOR, node), sensor.R_factor, steps)

    def _draw(self, key, factor: np.ndarray, steps: int | None) -> np.ndarray:
        shape = factor.shape[:1] if steps is None else (steps, len(factor))
        return np.matvec(factor, self.stream(*key).standard_normal(shape))


def _factor(m: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a PSD matrix, or u sqrt(s) from its SVD
    when it is singular (multivariate_normal's "svd" method)."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        u, s, _ = np.linalg.svd(m)
        return u * np.sqrt(s)


def step_process(model: ProcessModel, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One plant step: A @ x + w."""
    x = np.asarray(x, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    if x.shape != (model.n,) or w.shape != (model.n,):
        raise ConfigurationError(
            f"state/noise dimension mismatch: x {x.shape}, w {w.shape}, n={model.n}"
        )
    return model.A @ x + w


def channel_groups(sensors):
    """Sensors grouped by channel count: (groups, C, R), with groups p -> their
    positions, ascending, and C and R p -> those sensors' matrices stacked."""
    groups = {}
    for b, s in enumerate(sensors):
        groups.setdefault(s.p, []).append(b)
    C = {p: np.stack([sensors[b].C for b in rows]) for p, rows in groups.items()}
    R = {p: np.stack([sensors[b].R for b in rows]) for p, rows in groups.items()}
    return {p: np.array(rows) for p, rows in groups.items()}, C, R


def sensor_models(sensors):
    """The distinct sensor models: (first, model), with first[m] the position
    of model m's first sensor, ascending, and model[b] the model of sensor b.

    Two sensors share a model when their C and their R have the same shapes
    and the same bytes, so -0.0 and +0.0 differ. Whatever reads only (C, R)
    is then equal bit for bit across a model's sensors.
    """
    index, first, model = {}, [], []
    for b, s in enumerate(sensors):
        key = (s.C.shape, s.C.tobytes(), s.R.shape, s.R.tobytes())
        if key not in index:
            index[key] = len(first)
            first.append(b)
        model.append(index[key])
    return np.array(first, dtype=int), np.array(model, dtype=int)


def model_groups(sensors):
    """The sensor models grouped by channel count, and the gathers back to
    the sensors: (first, model, groups, C, R, take), with first and model as
    `sensor_models` gives them, (groups, C, R) the models' `channel_groups`
    (groups holding model rows) and take p -> the row in its group of each
    p-channel sensor's model, in sensor order."""
    first, model = sensor_models(sensors)
    groups, C, R = channel_groups([sensors[b] for b in first])
    row = np.empty(len(first), dtype=int)      # each model's row in its group
    for rows in groups.values():
        row[rows] = np.arange(len(rows))
    channels = np.array([s.p for s in sensors])
    return first, model, groups, C, R, {p: row[model[channels == p]] for p in groups}


def measure(C, x: np.ndarray, v) -> np.ndarray:
    """Observations C x + v: of one sensor (C is p x n), or of a stack of
    sensors sharing the state x (C is N x p x n, v is N x p)."""
    return np.matvec(np.asarray(C, float), np.asarray(x, float)) + np.asarray(v, float)


def observability_rank(A: np.ndarray, C: np.ndarray) -> int:
    """Numeric rank of the stacked observability matrix [C; CA; ...; CA^(n-1)].

    Singular values below RANK_RTOL times the largest count as zero.
    """
    A = _as_matrix(A, "A")
    C = _as_matrix(C, "C")
    n = A.shape[0]
    if C.shape[1] != n:
        raise ConfigurationError(f"C has {C.shape[1]} columns, expected {n}")
    blocks = []
    block = C
    for _ in range(n):
        blocks.append(block)
        block = block @ A
    obs = np.vstack(blocks)
    s = np.linalg.svd(obs, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def is_collectively_observable(model, sensors, subset, total_nodes: int) -> bool:
    """True iff the subset is a strict majority and its stacked pair is observable.

    Nodes are 1-based; ``sensors[i-1]`` is node i's model.
    """
    if not sensors:
        raise ConfigurationError("sensor list is empty")
    subset = sorted(set(subset))
    if any(i < 1 or i > total_nodes for i in subset):
        raise ConfigurationError(f"subset {subset} not within 1..{total_nodes}")
    if len(subset) * 2 <= total_nodes:   # an empty subset too
        return False
    stacked = np.vstack([sensors[i - 1].C for i in subset])
    return observability_rank(model.A, stacked) == model.n
