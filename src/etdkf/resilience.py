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

DISCOUNTING_MODES = ("normalized", "unnormalized")


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


def divergence_statistic(divergence: float, scale: float) -> float:
    """chi (or theta): scale / (scale + max(divergence, 0)); NaN maps to 1."""
    if np.isnan(divergence):
        return 1.0
    return scale / (scale + max(float(divergence), 0.0))


@dataclass
class DiscountedBelief:
    """One recursively-updated discounted belief value."""

    kappa: float
    mode: str = "normalized"
    value: float = 1.0
    _num: float = 0.0
    _den: float = 0.0

    def update(self, stat: float) -> float:
        k = self.kappa
        self._num = k * (self._num + k * stat)
        if self.mode == "normalized":
            self._den = k * (self._den + k)
            self.value = self._num / self._den
        else:
            self.value = self._num
        return self.value


def update_confidence(beta: DiscountedBelief, chi_k: float) -> float:
    """Advance a node's confidence with this step's statistic."""
    if not 0.0 < chi_k <= 1.0:
        raise ConfigurationError(f"chi must lie in (0,1], got {chi_k}")
    return beta.update(chi_k)


def update_trust(sigma: DiscountedBelief, theta_k: float) -> float:
    """Advance an edge's trust with this step's statistic."""
    if not 0.0 < theta_k <= 1.0:
        raise ConfigurationError(f"theta must lie in (0,1], got {theta_k}")
    return sigma.update(theta_k)


class BeliefState:
    """Per-node confidence and per-incoming-edge trust for one network."""

    def __init__(self, nodes, incoming_edges, config: ResilientConfig):
        self.config = config
        self.chi = {i: 1.0 for i in nodes}
        self.theta = {e: 1.0 for e in incoming_edges}
        self.beta = {i: DiscountedBelief(config.kappa1, config.discounting) for i in nodes}
        self.sigma = {e: DiscountedBelief(config.kappa2, config.discounting) for e in incoming_edges}

    def step(self, node_divergence: dict, edge_divergence: dict) -> None:
        for i, d in node_divergence.items():
            self.chi[i] = divergence_statistic(d, self.config.upsilon1)
            update_confidence(self.beta[i], self.chi[i])
        for e, d in edge_divergence.items():
            self.theta[e] = divergence_statistic(d, self.config.lambda1)
            update_trust(self.sigma[e], self.theta[e])

    def beta_value(self, i) -> float:
        return self.beta[i].value

    def sigma_value(self, edge) -> float:
        return self.sigma[edge].value


def weighted_neighbor_estimate(x_prior_i, neighbor_preds, weights) -> np.ndarray:
    """m_i: belief-weighted average of neighbor predictive estimates.

    `weights` holds w_ij = sigma_ij * beta_j for each entry of
    `neighbor_preds`. Follows the stated 1/|N_i| normalization, so
    down-weighted neighbors shrink the average rather than renormalizing it.
    Falls back to the node's own prior when there are no neighbors.
    """
    if not neighbor_preds:
        return np.array(x_prior_i, dtype=float)
    acc = None
    for w, xj in zip(weights, neighbor_preds):
        term = w * np.asarray(xj, float)
        acc = term if acc is None else acc + term
    return acc / len(neighbor_preds)


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

    def step(self, gains_M: list, laplacian_masked: np.ndarray, gamma_max: float,
             betas: list) -> float:
        A = np.asarray(self.A, float)
        N = len(gains_M)
        self.A_o = max(float(np.linalg.norm(A @ M, 2)) for M in gains_M)
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


def trust_masked_laplacian(graph, sigma: dict, beta: dict) -> np.ndarray:
    """Laplacian of the belief-weighted graph, a_ij = sigma_(i,j) * beta_j.

    Asymmetric weights are symmetrized by averaging the two directions so the
    result stays a valid Laplacian of an undirected weighted graph.
    """
    N = graph.node_count
    W = np.zeros((N, N))
    for a, b in graph.sorted_edges():
        w_ab = sigma.get((a, b), 1.0) * beta.get(b, 1.0)   # b's data as seen by a
        w_ba = sigma.get((b, a), 1.0) * beta.get(a, 1.0)
        w = 0.5 * (w_ab + w_ba)
        W[a - 1, b - 1] = W[b - 1, a - 1] = w
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
