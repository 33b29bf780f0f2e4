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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .filtering import slot_sum

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
        for name in ("upsilon1", "lambda1", "kappa1", "kappa2"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigurationError(f"{name} must lie in (0,1), got {v}")
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.discounting not in DISCOUNTING_MODES:
            raise ConfigurationError(f"unknown discounting mode {self.discounting!r}")


def divergence_statistic(divergence, scale: float):
    """chi (or theta): scale / (scale + D), D the divergence clipped to [0,
    the largest finite float], so +inf stays in (0, 1]; NaN maps to 1.

    Elementwise over an array of divergences; a scalar gives a scalar.
    """
    d = np.minimum(np.maximum(np.asarray(divergence, float), 0.0), np.finfo(float).max)
    return np.where(np.isnan(d), 1.0, scale / (scale + d))[()]


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


def update_confidence(beta: DiscountedBelief, chi_k):
    """Advance a node's confidence (or every node's) with this step's statistic."""
    if not np.all((0.0 < chi_k) & (chi_k <= 1.0)):
        raise ConfigurationError(f"chi must lie in (0,1], got {chi_k}")
    return beta.update(chi_k)


def update_trust(sigma: DiscountedBelief, theta_k):
    """Advance an edge's trust (or every edge's) with this step's statistic."""
    if not np.all((0.0 < theta_k) & (theta_k <= 1.0)):
        raise ConfigurationError(f"theta must lie in (0,1], got {theta_k}")
    return sigma.update(theta_k)


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
        update_confidence(self.beta, self.chi)
        if edge_divergence is not None:
            self.theta = divergence_statistic(edge_divergence, self.config.lambda1)
            update_trust(self.sigma, self.theta)


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
    preds = np.asarray(neighbor_preds, float).reshape(
        *x_prior_i.shape[:-1], -1, x_prior_i.shape[-1])
    weights = np.asarray(weights, float).reshape(preds.shape[:-1])
    mask = np.ones(weights.shape, bool) if mask is None else np.asarray(mask, bool)
    if preds.shape[-2] == 0:
        return x_prior_i.copy()
    terms = weights[..., None] * preds
    # The sum starts from the first neighbor's term, as a per-node loop does.
    acc = slot_sum(terms[..., 1:, :], mask[..., 1:], terms[..., 0, :])
    degree = mask.sum(axis=-1)[..., None]
    return np.where(degree > 0, acc / np.maximum(degree, 1), x_prior_i)


@dataclass
class BoundMonitor:
    """Running uniform bound on the stacked prior error norm.

    Per step: bound(k+1) = A_o(k) * bound(k) + B_o(k) with
    A_o = max_i sigma_max(A M_i) and B_o combining the triggering backlog term
    and the confidence-deficit term. Reported non-contractive when A_o >= 1.
    """

    A: np.ndarray
    C_norms: list
    alpha: float
    B: float            # empirical bound on ||x(k+1)-x(k)+v(k+1)||, from the twin run
    tau: float
    bound: float = 0.0
    A_o: float = float("nan")
    B_o: float = float("nan")
    contractive: bool = True

    def start(self, eta0_norm: float) -> None:
        self.bound = float(eta0_norm)

    def step(self, gains_M, laplacian_masked: np.ndarray, gamma_max: float,
             betas: list) -> float:
        """Advance one step; `gains_M` stacks every node's I - K_i C_i as (N, n, n)."""
        A = np.asarray(self.A, float)
        gains_M = np.asarray(gains_M, float)
        N = len(gains_M)
        self.A_o = max(np.linalg.norm(A @ gains_M, 2, axis=(-2, -1)).tolist())
        self.contractive = self.A_o < 1.0
        sA = float(np.linalg.norm(A, 2))
        sL = float(np.linalg.norm(np.asarray(laplacian_masked, float), 2))
        trigger_term = sA * sL * gamma_max * np.sqrt(N) * (
            self.alpha / max(self.C_norms) + self.B)
        beta_bar = max(0.0, 1.0 - min(betas)) if betas else 0.0
        deficit_term = (sA + self.A_o) * beta_bar * np.sqrt(N) * self.tau
        self.B_o = trigger_term + deficit_term
        self.bound = self.A_o * self.bound + self.B_o
        return self.bound


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
