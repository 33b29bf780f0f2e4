"""Second-order inference: confidence/trust beliefs, belief weights, the bound monitor.

Belief statistics map divergences through chi = U1 / (U1 + D) and are
accumulated with a normalized discounted sum

    beta(k) = sum_l kappa^(k-l+1) chi(l) / sum_l kappa^(k-l+1)

computed recursively. The literal unnormalized sum converges to
kappa^2/(1-kappa) times the input level, which contradicts the claimed (0,1]
range and limits; normalization preserves both stated limits (constant input c
gives beta -> c) and is the default. The unnormalized form stays available
behind `discounting` for fidelity studies.

Divergence inputs are floored at zero before the chi/theta map so beliefs stay
in (0,1] even when the k-NN estimator goes slightly negative; raw estimates
are reported unclipped by the detection layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .filtering import neighbor_slots, slot_sum

DISCOUNTING_MODES = ("normalized", "unnormalized")
_SMALLEST = np.finfo(float).smallest_subnormal


@dataclass
class ResilientConfig:
    upsilon1: float = 0.5   # confidence divergence scale, in (0,1)
    lambda1: float = 0.5    # trust divergence scale, in (0,1)
    kappa1: float = 0.5     # confidence discount, in (0,1)
    kappa2: float = 0.5     # trust discount, in (0,1)
    tau: float = 10.0       # diagnostic bound on ||m_i - x||
    discounting: str = "normalized"

    def __post_init__(self):
        errors = [f"{name} must lie in (0,1), got {v}"
                  for name in ("upsilon1", "lambda1", "kappa1", "kappa2")
                  if not 0.0 < (v := getattr(self, name)) < 1.0]
        if self.tau <= 0:
            errors.append(f"tau must be positive, got {self.tau}")
        if self.discounting not in DISCOUNTING_MODES:
            errors.append(f"unknown discounting mode {self.discounting!r}")
        if errors:
            raise ValidationError(errors)


def divergence_statistic(divergence, scale: float):
    """chi (or theta): scale / (scale + D), D the divergence clipped to [0,
    the largest finite float], so +inf stays in (0, 1]; NaN maps to 1.

    A tiny scale with a huge D underflows the ratio to 0; it is floored at
    the smallest positive float, as the beliefs are. Elementwise over an
    array of divergences; a scalar gives a scalar.
    """
    d = np.minimum(np.maximum(np.asarray(divergence, float), 0.0), np.finfo(float).max)
    return np.maximum(np.where(np.isnan(d), 1.0, scale / (scale + d)), _SMALLEST)[()]


@dataclass
class DiscountedBelief:
    """A recursively-updated discounted belief value, or an array of them
    (one per node or edge) advanced elementwise."""

    kappa: float
    mode: str = "normalized"
    value: float = 1.0
    _num: float = 0.0
    _den: float = 0.0

    def update(self, stat):
        k = self.kappa
        self._num = k * (self._num + k * stat)
        if self.mode == "normalized":
            self._den = k * (self._den + k)
            # den is 0 exactly when kappa^2 underflows, and num with it: the
            # newest statistic then carries all the weight.
            value = self._num / self._den if k * k else np.asarray(stat, float)
        else:
            value = self._num
        # A tiny kappa and statistic underflow the sum to 0; the smallest
        # positive float keeps the value in (0, 1] without moving any other.
        self.value = np.maximum(value, _SMALLEST)[()]
        return self.value


class BeliefState:
    """Confidence of every node and trust of every incoming edge, as arrays
    in the order of `nodes` and `incoming_edges`."""

    def __init__(self, nodes, incoming_edges, config: ResilientConfig):
        self.config = config
        N, E = len(nodes), len(incoming_edges)
        self.chi, self.theta = np.ones(N), np.ones(E)
        self.beta = DiscountedBelief(config.kappa1, config.discounting,
                                     np.ones(N), np.zeros(N), np.zeros(N))
        self.sigma = DiscountedBelief(config.kappa2, config.discounting,
                                      np.ones(E), np.zeros(E), np.zeros(E))

    def step(self, node_divergence, edge_divergence=None) -> None:
        """Advance every node with its divergence, (N,) with NaN where there
        is none yet, and every edge with (E,) once the edge windows are full."""
        self.chi = divergence_statistic(node_divergence, self.config.upsilon1)
        self.beta.update(self.chi)
        if edge_divergence is not None:
            self.theta = divergence_statistic(edge_divergence, self.config.lambda1)
            self.sigma.update(self.theta)


def weighted_neighbor_estimate(x_prior_i, neighbor_preds, weights, mask=None) -> np.ndarray:
    """m_i: belief-weighted average of neighbor predictive estimates.

    `neighbor_preds` (..., D, n) holds each node's neighbor predictions in
    slots, `weights` (..., D) the matching w_ij = sigma_ij * beta_j and
    `mask` (..., D) which slots hold a neighbor (all of them when omitted).
    Follows the stated 1/|N_i| normalization, so down-weighted neighbors
    shrink the average rather than renormalizing it. Falls back to the
    node's own prior when it has no neighbors.
    """
    x_prior_i = np.asarray(x_prior_i, float)
    preds, weights, mask = neighbor_slots(x_prior_i, neighbor_preds, weights, mask)
    if preds.shape[-2] == 0:
        return x_prior_i.copy()
    terms = weights[..., None] * preds
    # The sum starts from the first neighbor's term, as a per-node loop does.
    acc = slot_sum(terms[..., 1:, :], mask[..., 1:], terms[..., 0, :])
    degree = mask.sum(axis=-1)[..., None]
    return np.where(degree > 0, acc / np.maximum(degree, 1), x_prior_i)


@dataclass
class BoundMonitor:
    """Running uniform bound on the stacked prior error norm, in two halves.

    Per step: bound(k+1) = A_o(k) * bound(k) + B_o(k) with
    A_o = max_i sigma_max(A M_i) and B_o combining the triggering backlog term
    and the confidence-deficit term; non-contractive where A_o >= 1. B_o
    scales with B, the bound on ||x(k+1) - x(k) + v(k+1)||, which takes the
    whole plant path: `start` and `step` record what each step reads, and
    `bounds(B)` runs the recursion after the run, in a step-by-step
    monitor's order. ||A||_2 is taken once, and A_o again only for a new
    `gains_M` or one that can be written to: a read-only stack passed again
    (the engine's covariance schedule shares one across its steady-state
    tail) keeps its A_o. ||L_masked||_2 is kept the same way: a read-only
    Laplacian passed again (the engine builds one per distinct vector of
    trust weights) keeps its norm.

    Only maxima over nodes are read of `gains_M` and `C_norms`, so each may
    hold one entry per sensor model (`sensor_models`) rather than per node,
    as the engine passes them: nodes of one model have equal entries.
    """

    A: np.ndarray
    C_norms: list
    alpha: float
    tau: float
    bound0: float = field(default=float("nan"), init=False)   # the first prior error norm
    A_o: list = field(default_factory=list, init=False)        # per step taken
    # Per step taken, the backlog term without its factor alpha / max(C_norms)
    # + B, and the deficit term.
    _terms: list = field(default_factory=list, init=False, repr=False, compare=False)
    _sA: float = field(init=False, repr=False, compare=False)   # ||A||_2
    _gains_M: object = field(default=None, init=False, repr=False, compare=False)  # of A_o
    _laplacian: object = field(default=None, init=False, repr=False, compare=False)  # of _sL
    _sL: float = field(default=float("nan"), init=False, repr=False, compare=False)

    def __post_init__(self):
        self._sA = float(np.linalg.norm(np.asarray(self.A, float), 2))

    def start(self, eta0_norm: float) -> None:
        self.bound0 = float(eta0_norm)

    def step(self, gains_M, laplacian_masked: np.ndarray, gamma_max: float,
             betas: list) -> None:
        """Record one step; `gains_M` stacks I - K_i C_i as (models, n, n), and
        the masked Laplacian (N, N) gives the node count N."""
        gains_M = np.asarray(gains_M, float)     # a float array comes back as itself
        if gains_M is not self._gains_M or gains_M.flags.writeable:
            self._gains_M = gains_M
            A_o = max(np.linalg.norm(np.asarray(self.A, float) @ gains_M, 2,
                                     axis=(-2, -1)).tolist())
        else:
            A_o = self.A_o[-1]
        laplacian_masked = np.asarray(laplacian_masked, float)
        if laplacian_masked is not self._laplacian or laplacian_masked.flags.writeable:
            self._laplacian = laplacian_masked
            self._sL = float(np.linalg.norm(laplacian_masked, 2))
        N, sA, sL = len(laplacian_masked), self._sA, self._sL
        beta_bar = max(0.0, 1.0 - min(betas)) if betas else 0.0
        self.A_o.append(A_o)
        self._terms.append((sA * sL * gamma_max * np.sqrt(N),
                            (sA + A_o) * beta_bar * np.sqrt(N) * self.tau))

    def offsets(self, B: float) -> list:
        """B_o of every step taken, for the increment bound B."""
        factor = self.alpha / max(self.C_norms) + B
        return [backlog * factor + deficit for backlog, deficit in self._terms]

    def bounds(self, B: float) -> list:
        """The bound holding at every step taken, bound(0) first."""
        bound = [self.bound0]
        for A_o, B_o in zip(self.A_o, self.offsets(B)):
            bound.append(A_o * bound[-1] + B_o)
        return bound[:len(self.A_o)]


def trust_masked_laplacian(weights) -> np.ndarray:
    """Laplacian of the belief-weighted graph from its directed weights,
    `weights[i-1, j-1]` = w_ij = sigma_(i,j) * beta_j on each edge and 0 off
    the graph.

    The two directions are averaged so the result stays a valid Laplacian of
    an undirected weighted graph.
    """
    W = np.asarray(weights, float)
    W = 0.5 * (W + W.T)
    return np.diag(W.sum(axis=1)) - W


def assumption4_satisfied(graph, compromised) -> dict:
    """Per-node check: intact neighbors form a strict majority.

    The half-plus-one count is read as floor(|N_i|/2) + 1 (for q compromised
    neighbors there are at least q+1 intact ones); the literal real-valued
    |N_i|/2 + 1 would be unsatisfiable for degree-1 nodes even without attacks.
    """
    from .graphs import neighbors as nbrs
    out = {}
    for i in graph.nodes:
        ns = nbrs(graph, i)
        intact = sum(1 for j in ns if j not in compromised)
        out[i] = intact >= len(ns) // 2 + 1 if ns else True
    return out
