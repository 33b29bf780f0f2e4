"""Second-order inference: confidence/trust beliefs, belief weights, the error bound.

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

`BeliefState` is one vector over [nodes; edges]: a step is one
`divergence_statistic` call and one `DiscountedBelief` update, with each
entry's scale (upsilon1 or lambda1) and discount (kappa1 or kappa2).

The error bound is taken after a run, over one record of scalars per step:
the norms of what the run held (its gains, consensus gain and trust-masked
Laplacian) and the confidences (`error_bounds`). The neighbor average m_i
that the beliefs weight is part of the update law, in `filtering`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DISCOUNTING_MODES = ("normalized", "unnormalized")
_SMALLEST, _LARGEST = np.finfo(float).smallest_subnormal, np.finfo(float).max


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


def divergence_statistic(divergence, scale):
    """chi (or theta): scale / (scale + D), D the divergence clipped to [0,
    the largest finite float], so +inf stays in (0, 1] and NaN maps to 1.

    A tiny scale with a huge D underflows the ratio to 0; it is floored at
    the smallest positive float, as the beliefs are. Elementwise over an
    array of divergences, with one scale or one each; a scalar gives a scalar.
    """
    d = np.fmin(np.fmax(np.asarray(divergence, float), 0.0), _LARGEST)
    return np.maximum(scale / (scale + d), _SMALLEST)[()]


@dataclass
class DiscountedBelief:
    """A recursively-updated discounted belief value, or an array of them
    (one per node or edge, with one `kappa` or one each) advanced elementwise."""

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
            # den is 0 exactly where kappa^2 underflows, and num with it: the
            # newest statistic then carries all the weight.
            value = np.empty_like(self._num)
            value[...] = stat
            np.divide(self._num, self._den, out=value, where=self._den != 0)
        else:
            value = self._num
        # A tiny kappa and statistic underflow the sum to 0; the smallest
        # positive float keeps the value in (0, 1] without moving any other.
        self.value = np.maximum(value, _SMALLEST)[()]
        return self.value


class BeliefState:
    """Confidence of every node and trust of every incoming edge as one
    vector over [nodes; edges], in the order of `nodes` and
    `incoming_edges`: `stat` holds chi then theta, and `belief.value` beta
    then sigma, each as long as the last step's input."""

    def __init__(self, nodes, incoming_edges, config: ResilientConfig):
        sizes = [len(nodes), len(incoming_edges)]
        self.scale = np.repeat([config.upsilon1, config.lambda1], sizes)
        self.kappa = np.repeat([config.kappa1, config.kappa2], sizes)
        self.stat = np.ones(0)
        self.belief = DiscountedBelief(self.kappa[:0], config.discounting, *np.empty((3, 0)))

    def step(self, divergence) -> None:
        """Advance the first entries with their divergences, NaN where there
        is none yet: (N,) the nodes alone, (N + E,) every entry, as the engine
        does once the edge windows are full. An entry joins at its first
        step, from its initial state (belief 1, empty discounted sums), and
        advances at every step after: the input never shrinks."""
        d = np.asarray(divergence, float)
        b, grow = self.belief, len(d) - len(self.belief.value)
        if grow:
            self.belief = b = DiscountedBelief(self.kappa[:len(d)], b.mode, *(
                np.concatenate([a, np.full(grow, fill)])
                for a, fill in ((b.value, 1.0), (b._num, 0.0), (b._den, 0.0))))
        self.stat = divergence_statistic(d, self.scale[:len(d)])
        b.update(self.stat)


def error_bounds(A, C_norms, alpha: float, tau: float, eta0: float, records, B: float) -> list:
    """The uniform bound on the stacked prior error norm holding at every
    step recorded, bound(0) = `eta0` (the first prior error norm) first.

    Per step: bound(k+1) = A_o(k) * bound(k) + B_o(k) with A_o = max_i
    sigma_max(A M_i) and B_o combining the triggering backlog term and the
    confidence-deficit term; non-contractive where A_o >= 1. B_o scales with
    B, the bound on ||x(k+1) - x(k) + v(k+1)||, which takes the whole plant
    path, so the recursion runs once, after the run, in a step-by-step
    monitor's order.

    A record is one step's scalars (A_o, gamma_max, sL, betas): A_o over
    that step's gains, gamma_max the largest ||gamma_i||_2, sL =
    ||L_masked||_2 of the trust-masked Laplacian, and betas every node's
    confidence, whose count is the node count N. The engine takes each of
    A_o, gamma_max and sL in one stacked norm over the run's distinct
    values; ||A||_2 is taken here, once. Only the maximum over nodes is read
    of `C_norms`, so it may hold one entry per sensor model (`sensor_models`)
    rather than per node, as the engine passes it: nodes of one model have
    equal entries.
    """
    sA = float(np.linalg.norm(np.asarray(A, float), 2))
    factor = alpha / max(C_norms) + B
    bound = [float(eta0)]
    for A_o, gamma_max, sL, betas in records:
        N = len(betas)
        beta_bar = max(0.0, 1.0 - min(betas)) if betas else 0.0
        backlog = sA * sL * gamma_max * np.sqrt(N)
        deficit = (sA + A_o) * beta_bar * np.sqrt(N) * tau
        bound.append(A_o * bound[-1] + (backlog * factor + deficit))
    return bound[:len(records)]


def trust_masked_laplacian(weights) -> np.ndarray:
    """Laplacian of the belief-weighted graph from its directed weights,
    `weights[i-1, j-1]` = w_ij = sigma_(i,j) * beta_j on each edge and 0 off
    the graph, or of each graph of a stack (..., N, N).

    The two directions are averaged so the result stays a valid Laplacian of
    an undirected weighted graph. It is diag(row sums) - W elementwise, so
    every off-diagonal entry is 0.0 - w (+0.0 where w is +0.0, not -0.0).
    """
    W = np.asarray(weights, float)
    W = 0.5 * (W + np.swapaxes(W, -1, -2))
    diag, i = np.zeros(W.shape), np.arange(W.shape[-1])
    diag[..., i, i] = W.sum(axis=-1)
    return diag - W


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
