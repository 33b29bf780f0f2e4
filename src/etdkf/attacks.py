"""Attack injection (false-data, channel, non-triggering, replay) and the
corrupted-filter moment recursions used to predict estimator degradation.

The signal side crafts the measurements of the non-triggering and replay
attacks; the engine adds injected signals to measurements and transmitted
priors itself. Nodes keep running the nominal filter code on whatever they
receive. The recursion side (`AttackRecursion`) advances the corrupted error
first and second moments, including the three cross-covariance families
between predictive and prior errors, for deterministic attack signals and a
given trigger schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ValidationError
from .filtering import nominal_covariances
from .graphs import Graph, laplacian
from .models import channel_groups


MEASUREMENT_INJECTION = "measurement_injection"
CHANNEL_INJECTION = "channel_injection"
NON_TRIGGERING = "non_triggering"
REPLAY = "replay"

ATTACK_KINDS = (MEASUREMENT_INJECTION, CHANNEL_INJECTION, NON_TRIGGERING, REPLAY)


@dataclass
class SignalSpec:
    """Deterministic attack waveform evaluated at simulation time t = k * dt.

    kind "constant": `value` (vector or scalar broadcast over channels);
    kind "sinusoid": offset + amplitude * sin(frequency * t), broadcast.
    """

    kind: str = "constant"
    value: object = 0.0
    offset: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0

    def evaluate(self, t: float, dim: int) -> np.ndarray:
        if self.kind == "constant":
            v = np.asarray(self.value, dtype=float).reshape(-1)
            if not np.isfinite(v).all():
                raise ConfigurationError(f"constant signal value {self.value!r} is not finite")
            if v.size == 1:
                return np.full(dim, v[0])
            if v.size != dim:
                raise ConfigurationError(f"constant signal dim {v.size} != {dim}")
            return v
        if self.kind == "sinusoid":
            return (self.offset + self.amplitude * np.sin(self.frequency * t)) * np.ones(dim)
        raise ConfigurationError(f"unknown signal kind {self.kind!r}")


@dataclass
class AttackPlan:
    """One attack: what is hit, from when, and with which signal class."""

    kind: str
    onset: int
    node: int | None = None        # for node-targeted kinds
    edge: tuple[int, int] | None = None   # (j, i): channel j -> i
    signal: SignalSpec = field(default_factory=SignalSpec)
    phi: float = 0.0               # non-triggering residual budget, must be < alpha
    sampler: bool = False          # non-triggering: paper-sampler mode
    upsilon: object = None         # replay disruption (vector, or scalar norm)

    def __post_init__(self):
        errors = []
        if self.kind not in ATTACK_KINDS:
            errors.append(f"unknown attack kind {self.kind!r}")
        if self.onset < 0:
            errors.append(f"onset must be >= 0, got {self.onset}")
        if self.kind == CHANNEL_INJECTION:
            if self.edge is None:
                errors.append("channel_injection needs edge=(j, i)")
        elif self.kind in ATTACK_KINDS and self.node is None:   # the target follows the kind
            errors.append(f"{self.kind} needs a target node")
        if errors:
            raise ValidationError(errors)

    def active(self, k: int) -> bool:
        return k >= self.onset

    def upsilon_vector(self, p: int) -> np.ndarray:
        """Replay disruption: explicit vector, or a scalar interpreted as the
        norm spread evenly over the p channels."""
        if self.upsilon is None:
            raise ConfigurationError("replay attack needs upsilon")
        u = np.asarray(self.upsilon, dtype=float)
        if u.ndim == 0:
            return float(u) / math.sqrt(p) * np.ones(p)
        if u.shape != (p,):
            raise ConfigurationError(f"upsilon shape {u.shape} != ({p},)")
        return u


def craft_non_triggering(y, C, x_pred_prev, phi, rng, sampler=False):
    """Crafted measurement keeping the trigger residual at or below phi < alpha.

    Direct mode places the corrupted measurement on the radius-phi sphere
    around the predicted output. Sampler mode draws a scalar shift from the
    uniform interval whose endpoints depend on ||C x_pred|| and ||y||; the
    interval is empty unless ||y|| < ||C x_pred||, and even when nonempty the
    draw does not always respect the phi budget, so any violation falls back
    to the direct construction. So does an interval too wide for a uniform
    draw, whose width overflows once ||C x_pred|| does.

    Returns (y_a, fell_back); the engine counts the fallbacks of a run.
    """
    y = np.asarray(y, float)
    C = np.asarray(C, float)
    target = C @ np.asarray(x_pred_prev, float)
    p = y.shape[0]

    def direct():
        if phi == 0.0:
            return target.copy()
        direction = rng.standard_normal(p)
        nrm = np.linalg.norm(direction)
        if nrm == 0.0:
            direction = np.ones(p)
            nrm = np.sqrt(p)
        return target + phi * direction / nrm

    if not sampler:
        return direct(), False

    norm_target, norm_y = np.linalg.norm(target), np.linalg.norm(y)
    a = phi - norm_target + norm_y
    b = phi + norm_target - norm_y
    if not (a < b and math.isfinite(b - a)):
        return direct(), True
    theta = rng.uniform(a, b)
    y_a = y + theta * np.ones(p)
    if np.linalg.norm(y_a - target) > phi:
        return direct(), True
    return y_a, False


def craft_replay(x_prior_last, C, upsilon) -> np.ndarray:
    """Replayed measurement: predicted output of the last transmitted prior plus
    the disruption term. ||upsilon|| > alpha forces a trigger at every step."""
    return np.asarray(C, float) @ np.asarray(x_prior_last, float) + np.asarray(upsilon, float)


def _blkdiag(blocks) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks of any shapes."""
    blocks = list(blocks)
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


class AttackRecursion:
    """Network-wide corrupted moment recursion under deterministic attacks.

    Tracks raw (mean-inclusive) second moments of prior, posterior, and
    predictive errors for every node pair, plus the error means driven by the
    attack inputs; the attack-statistic terms of the corrupted posterior
    covariance are evaluated from these (deterministic outer products).

    Every moment is one stacked (Nn x Nn) array whose (i, j) block, nodes
    numbered from 1, pairs node i's error with node j's: `P_prior`, `P_post`,
    `P_pred`, `P_pred_prior` (E[pred_i prior_j^T]), `P_prior_pred`
    (E[prior_i pred_j^T]) and `X` (E[post_i pred_j^T] of the previous step).
    The means `e_prior`, `e_pred`, `e_post` are Nn vectors. With
    G = -(L kron I_n) the consensus term sum_{r in N_i} (e_r - e_i) is
    [G e]_i, so each family is a few matrix products per step.

    The gains are the attack-free filter's, `nominal_covariances` step by
    step and its last item once it ends, as an oblivious filter keeps
    running them. A step whose gains fail (a singular innovation covariance)
    raises `NumericalError` before any moment moves, as does every later step.

    Cross blocks start at zero and the diagonal at P0; with shared estimator
    initialization the true initial cross moment equals P0, so recursion and
    simulation agree only after the filter transient has washed out.
    """

    def __init__(self, process, sensors, graph: Graph, gamma: float):
        if len(sensors) != graph.node_count:
            raise ConfigurationError(f"{len(sensors)} sensors for the {graph.node_count} "
                                     f"nodes of the graph; one sensor per node")
        self.graph = graph
        self.gamma = float(gamma)
        self.N = N = graph.node_count
        self.n = n = process.n
        self._G = -np.kron(laplacian(graph), np.eye(n))
        self._AA = np.kron(np.eye(N), process.A)
        self._QQ = np.kron(np.ones((N, N)), process.Q)
        self._C = _blkdiag([s.C for s in sensors])
        self._R = _blkdiag([s.R for s in sensors])
        self._y_ofs = np.cumsum([0] + [s.p for s in sensors])
        self._groups = channel_groups(sensors)[0]
        self._nominal, self._failed = nominal_covariances(process, sensors), None
        self._pairs = [(i, j) for i in graph.nodes for j in graph.nodes]

        self.k = 0
        self.P_prior = np.kron(np.eye(N), process.P0)
        self.P_pred = self.P_prior.copy()
        self.P_pred_prior = self.P_prior.copy()
        self.P_prior_pred = self.P_prior.copy()
        self.P_post = np.zeros((N * n, N * n))
        self.X = np.zeros((N * n, N * n))
        self.e_prior = np.zeros(N * n)
        self.e_pred = np.zeros(N * n)
        self.e_post = np.zeros(N * n)
        # Held bias of channel j -> i at [j - 1, i - 1]; zero off the graph.
        self.f_tilde = np.zeros((N, N, n))
        self.gains = {i: None for i in graph.nodes}

    def step(self, zetas: dict, f_meas: dict | None = None, f_chan: dict | None = None):
        """Advance one step given triggers and active deterministic signals.

        zetas: {node: 0 or 1} for this step. f_meas: {node: p-vector} direct
        measurement injections. f_chan: {(j, i): n-vector} channel injections.
        At k=0 every node is treated as transmitting regardless of `zetas`.
        A channel off the graph is ignored; any other malformed input (a
        missing trigger, an injection into no node, a vector of the wrong
        length) raises ConfigurationError naming the node or channel.
        Returns the posterior moment as {(i, j): n x n block}.
        """
        N, n, gamma = self.N, self.n, self.gamma
        AA, QQ, G = self._AA, self._QQ, self._G
        nodes = self.graph.nodes

        # The inputs and the step's gains are read before any moment moves,
        # so a rejected or failed step leaves the recursion as it was.
        if self.k == 0:
            z = np.ones(N, dtype=bool)
        else:
            missing = [i for i in nodes if i not in zetas]
            if missing:
                raise ConfigurationError(f"zetas has no trigger for node(s) {missing}")
            z = np.array([bool(zetas[i]) for i in nodes])
        chan = np.zeros((N, N, n))
        for (j, i), f in (f_chan or {}).items():
            if (min(i, j), max(i, j)) in self.graph.edges:
                if np.shape(f) != (n,):
                    raise ConfigurationError(f"f_chan for channel ({j}, {i}) has shape "
                                             f"{np.shape(f)}, not the state's ({n},)")
                chan[j - 1, i - 1] = f
        f_y = np.zeros(self._y_ofs[-1])
        for i, f in (f_meas or {}).items():
            if i not in nodes:
                raise ConfigurationError(f"f_meas for node {i!r}, not a node of the graph")
            lo, hi = self._y_ofs[i - 1], self._y_ofs[i]
            if np.shape(f) != (hi - lo,):
                raise ConfigurationError(f"f_meas for node {i} has shape {np.shape(f)}, "
                                         f"not its sensor's ({hi - lo},)")
            f_y[lo:hi] = f
        if self._failed is None:
            try:
                entry = next(self._nominal, None)   # None once it ends: the last gains serve on
            except NumericalError as exc:
                self._failed = exc
        if self._failed:
            raise self._failed
        if entry is not None:
            by_row = {b: K_b for p, rows in self._groups.items()
                      for b, K_b in zip(rows.tolist(), entry[1][p])}
            self.gains = {i: by_row[i - 1] for i in nodes}
            K = _blkdiag(self.gains.values())
            self._K, self._M, self._KRK = K, np.eye(N * n) - K @ self._C, K @ self._R @ K.T

        if self.k:
            self.P_prior = AA @ self.P_post @ AA.T + QQ
            self.e_prior = AA @ self.e_post
            # Branch table per pair (i, j): both triggering collapse onto the
            # cross prior; a non-triggering side extrapolates through A with
            # the shared process noise contributing Q.
            rows = np.repeat(z, n)[:, None]
            cols = rows.T
            AXA = AA @ self.X @ AA.T
            ax, ay = AXA + QQ, AXA.T + QQ
            ap = AA @ self.P_pred @ AA.T + QQ
            self.P_prior_pred = np.where(cols, self.P_prior, ax)
            self.P_pred_prior = np.where(rows, self.P_prior, ay)
            self.P_pred = np.where(rows, self.P_prior_pred, np.where(cols, ay, ap))
            self.e_pred = np.where(rows[:, 0], self.e_prior, AA @ self.e_pred)

        # Held channel biases: refreshed when the sender transmits.
        self.f_tilde = np.where(z[:, None, None], chan, self.f_tilde)

        K, M, KRK = self._K, self._M, self._KRK
        d = -(K @ f_y) - gamma * self.f_tilde.sum(axis=0).reshape(-1)

        stoch_mean = M @ self.e_prior + gamma * (G @ self.e_pred)
        dcol = d[:, None]
        post = (M @ self.P_prior @ M.T
                + gamma * (M @ self.P_prior_pred @ G.T + G @ self.P_pred_prior @ M.T)
                + gamma * gamma * (G @ self.P_pred @ G.T) + KRK
                + dcol * stoch_mean + stoch_mean[:, None] * d + dcol * d)
        blocks = post.reshape(N, n, N, n)
        r = np.arange(N)
        diag = blocks[r, :, r, :]
        blocks[r, :, r, :] = 0.5 * (diag + diag.transpose(0, 2, 1))
        self.P_post = post
        self.e_post = stoch_mean + d
        self.X = M @ self.P_prior_pred + gamma * (G @ self.P_pred) + dcol * self.e_pred

        self.k += 1
        return dict(zip(self._pairs, blocks.transpose(0, 2, 1, 3).reshape(N * N, n, n)))
