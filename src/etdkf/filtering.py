"""Event-triggered distributed Kalman filter: triggers, the update law, gains.

Every kernel is pure and stack-native: a leading batch axis of nodes
broadcasts through it, and one node is the case without that axis. Per-node
vectors stack as (N, n) or (N, p), matrices as (N, rows, cols); a matrix
shared by every node (A, Q) broadcasts as one 2-D array. Covariances are
re-symmetrized after every update. The update law forms the neighbor
average m_i itself (`weighted_neighbor_estimate`), so the whole law,
neighbor slots included, lives in this module.

A stacked call equals the per-node calls bit for bit. Matrix-vector products
go through `np.matvec`, never `X @ A.T` (a different BLAS path that moves
last bits), and vector norms through `vector_norm`, never
`np.linalg.norm(X, axis=-1)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .models import model_groups


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(m, -1, -2)


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetrize to kill round-off drift."""
    return 0.5 * (m + _t(m))


def vector_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, equal bit for bit to `np.linalg.norm`
    of each vector on its own."""
    v = np.asarray(v, float)
    return np.sqrt(np.vecdot(v, v))


def slot_sum(terms, mask, start) -> np.ndarray:
    """`start` plus the neighbor-slot terms (..., D, n) whose `mask` (..., D)
    is set, added one slot at a time in slot order, as a loop over each
    node's neighbors adds them.

    Every masked slot is filled with -0.0 and every slot added: x + (-0.0)
    is x bit for bit for every x (-0.0, +-inf and quiet NaNs included), so a
    masked slot leaves the sum as skipping it would. Only a signaling NaN
    `start` would come back quieted; no sum of the update law starts at one.
    """
    terms = np.where(mask[..., None], terms, -0.0)
    acc = start
    for d in range(terms.shape[-2]):
        acc = acc + terms[..., d, :]
    return acc


def neighbor_slots(own, neighbor_preds, weights, mask):
    """The neighbor arguments of the update law as stacks shaped after
    `own` (..., n): predictions (..., D, n), weights (..., D), None (every
    weight one) kept as None, and the mask (..., D), every slot when None.
    Float stacks of those shapes, as the engine passes, are returned as
    they are."""
    if (type(neighbor_preds) is type(mask) is np.ndarray and neighbor_preds.dtype == float
            and neighbor_preds.ndim == own.ndim + 1 and (weights is None or (
                type(weights) is np.ndarray and weights.dtype == float
                and weights.ndim == own.ndim))):
        return neighbor_preds, weights, mask
    preds = np.asarray(neighbor_preds, float).reshape(*own.shape[:-1], -1, own.shape[-1])
    if weights is not None:
        weights = np.asarray(weights, float).reshape(preds.shape[:-1])
    return preds, weights, (np.ones(preds.shape[:-1], bool) if mask is None
                            else np.asarray(mask, bool))


@dataclass
class TriggerConfig:
    """Event-trigger threshold; transmit when the output residual norm >= alpha."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")


def innovation(y, C, x_prior) -> np.ndarray:
    """Residual y - C x_prior."""
    return np.asarray(y, float) - np.matvec(np.asarray(C, float), np.asarray(x_prior, float))


def should_transmit(y, C, x_pred_prev, alpha: float) -> np.ndarray:
    """Transmit decision: residual against the extrapolated predictive estimate.

    True (zeta=1) iff ||y - C x_pred_prev|| >= alpha. The boundary transmits,
    so a crafted residual of norm exactly alpha still triggers.
    """
    return vector_norm(innovation(y, C, x_pred_prev)) >= alpha


def update_predictive(zeta, x_prior, x_pred_prev, A) -> np.ndarray:
    """Predictive estimate: the prior when transmitting, else A-extrapolation."""
    extrapolated = np.matvec(np.asarray(A, float), np.asarray(x_pred_prev, float))
    return np.where(np.asarray(zeta, bool)[..., None], np.asarray(x_prior, float), extrapolated)


def prior_covariance(P_post, A, Q) -> np.ndarray:
    """The covariance half of the time update, A P_post A^T + Q; the state
    half is np.matvec(A, x_post)."""
    A = np.asarray(A, float)
    return sym(A @ np.asarray(P_post, float) @ A.T + np.asarray(Q, float))


def kalman_gain(P_prior, C, R, nodes=None) -> np.ndarray:
    """K = P_prior C^T (R + C P_prior C^T)^{-1}.

    A singular innovation covariance raises `NumericalError`; with `nodes`
    given it names the node of the worst-conditioned slice.
    """
    P_prior = np.asarray(P_prior, float)
    C = np.asarray(C, float)
    S = np.asarray(R, float) + C @ P_prior @ _t(C)
    try:
        # Solve S K^T = C P_prior instead of forming S^{-1}.
        return _t(np.linalg.solve(S, C @ _t(P_prior)))
    except np.linalg.LinAlgError as exc:
        flat = S.reshape(-1, *S.shape[-2:])
        cond = np.linalg.cond(flat)
        b = int(np.argmax(cond))
        where = "" if nodes is None else f" at node {nodes[b]}"
        raise NumericalError(
            f"singular innovation covariance{where} (cond ~ {cond[b]:.3g}); "
            f"S diagonal {np.diag(flat[b])}"
        ) from exc


def innovation_covariance(P_prior, C, R) -> np.ndarray:
    """Omega = C P_prior C^T + R."""
    C = np.asarray(C, float)
    return sym(C @ np.asarray(P_prior, float) @ _t(C) + np.asarray(R, float))


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
    # The sum starts from -0.0, which the first unmasked term replaces bit
    # for bit, as a per-node loop starting from that term does.
    acc = slot_sum(weights[..., None] * preds, mask, -0.0)
    degree = mask.sum(axis=-1, keepdims=True)
    if degree.all():   # every row has a neighbor
        return acc / degree
    return np.where(degree > 0, acc / np.maximum(degree, 1), x_prior_i)


def measurement_update(x_prior, K, gamma, y, C, beta, neighbor_preds, weights, own_pred,
                       mask=None) -> np.ndarray:
    """Posterior update law of every filter mode; returns x_post.

    The measurement is blended, by the node's own confidence `beta`, with
    m_i = `weighted_neighbor_estimate` of its priors and neighbor slots,
    and each consensus term is scaled by its belief weight w_ij = sigma_ij *
    beta_j. `neighbor_preds` (..., D, n) holds the latest predictive
    estimate of each neighbor as seen by this node (non-transmitting
    neighbors already extrapolated), in ascending neighbor order, `weights`
    (..., D) the matching w_ij, and `mask` (..., D) which slots hold a
    neighbor (all of them when omitted). `beta` and `weights` are given
    together, or both None.

    A row whose beta is exactly 1 takes y unblended, so its m_i is never
    read: (1 - beta) C m would be 0 * inf = NaN once C m overflows. With
    `beta` and `weights` None every belief is one, m_i is not formed, and
    this is the nominal update x_prior + K (y - C x_prior) + gamma sum_j
    (x_j - own_pred), with no unit factor formed; unit arrays give the same
    bits.
    """
    C = np.asarray(C, float)
    x_prior = np.asarray(x_prior, float)
    own = np.asarray(own_pred, float)
    preds, weights, mask = neighbor_slots(own, neighbor_preds, weights, mask)
    y = np.asarray(y, float)
    if beta is not None:
        m = weighted_neighbor_estimate(x_prior, preds, weights, mask)
        beta = np.asarray(beta, float)[..., None]
        y = np.where(beta == 1.0, y, beta * y + (1.0 - beta) * np.matvec(C, m))
    r = y - np.matvec(C, x_prior)
    terms = preds - own[..., None, :]
    consensus = slot_sum(terms if weights is None else weights[..., None] * terms, mask,
                         np.zeros(x_prior.shape))
    # A scalar gamma multiplies, a matrix (stack) acts.
    gamma = np.asarray(gamma, float)
    coupling = np.matvec(gamma, consensus) if gamma.ndim >= 2 else gamma * consensus
    return x_prior + np.matvec(np.asarray(K, float), r) + coupling


def posterior_covariance(P_prior, K, C, R) -> np.ndarray:
    """Joseph form: (I-KC) P (I-KC)^T + K R K^T."""
    P_prior = np.asarray(P_prior, float)
    K = np.asarray(K, float)
    M = np.eye(P_prior.shape[-1]) - K @ np.asarray(C, float)
    return sym(M @ P_prior @ _t(M) + K @ np.asarray(R, float) @ _t(K))


def nominal_covariances(process, sensors):
    """The attack-free Riccati recursion of every node, one step per item:
    (P_prior, K, M, P_post) with every node's P_prior, P_post and M = I - K C
    as (N, n, n) and the gains K as p -> (nodes with p channels, n, p). A
    singular innovation covariance raises `NumericalError` naming the node.

    The recursion reads (C, R) and no data, so it runs once per sensor model
    (`sensor_models`): nodes that share one get equal inputs and so equal
    bits. Each item gathers the models' rows to the nodes; a singular model
    is named by its first node, the node a per-node recursion names.

    Every item is a pure function of its P_prior. Once the next P_prior
    equals it bit for bit (the steady-state filter), the generator ends; its
    last item serves every later step, so its arrays are read-only. One that
    never settles runs without end: read it as `zip(range(steps), ...)`,
    range first, so that no step past the run is computed.
    """
    first, model, groups, C, R, take = model_groups(sensors)
    P_prior = np.tile(process.P0, (len(first), 1, 1))
    while True:
        K, M, P_post = {}, np.empty(P_prior.shape), np.empty(P_prior.shape)
        for p, rows in groups.items():
            K[p] = kalman_gain(P_prior[rows], C[p], R[p], nodes=first[rows] + 1)
            M[rows] = np.eye(process.n) - K[p] @ C[p]
            P_post[rows] = posterior_covariance(P_prior[rows], K[p], C[p], R[p])
        entry = (P_prior[model], {p: K[p][take[p]] for p in K}, M[model], P_post[model])
        for a in (entry[0], entry[2], entry[3], *entry[1].values()):
            a.setflags(write=False)
        yield entry
        P_next = prior_covariance(P_post, process.A, process.Q)
        # Bit patterns, so that -0.0 and +0.0 (or two NaN payloads) differ.
        if np.array_equal(P_next.view(np.int64), P_prior.view(np.int64)):
            return
        P_prior = P_next


def consensus_gain(M, A, P_priors, lam_L: float, fallback: float = 0.0):
    """Matrix-valued coupling gains of every node from the network-wide design rule.

    gamma_i = 2 M_i Gamma_i^+ / (lam_L * lambda_max(Gamma^+)),
    Gamma_i = M_i^T A^T P_prior_i^+ A M_i, with M_i = I - K_i C_i stacked
    as (N, n, n), lam_L the largest eigenvalue of the graph Laplacian (fixed
    for a run, so the caller computes it once) and pseudo-inverses where
    blocks are singular. If every block is degenerate the configured scalar
    `fallback` is returned instead.

    With a leading entry axis, (E, N, n, n), each entry gets its own
    lambda_max(Gamma^+) and fallback: a list of E results, each the call on
    that entry alone bit for bit.
    """
    A, M = np.asarray(A, float), np.asarray(M, float)
    if M.ndim == 3:   # one entry
        return consensus_gain(M[None], A, np.asarray(P_priors)[None], lam_L, fallback)[0]
    Gammas = _t(M) @ A.T @ np.linalg.pinv(np.asarray(P_priors, float)) @ A @ M
    G_pinvs = np.linalg.pinv(Gammas)
    # Python's max, in node order, as a loop over nodes takes it.
    denoms = [lam_L * max([0.0, *lam]) for lam in
              np.linalg.eigvalsh(sym(G_pinvs))[..., -1].tolist()]
    keep = [not (denom <= 0 or not np.isfinite(denom)) for denom in denoms]
    gains = iter(2.0 * M[keep] @ G_pinvs[keep] / np.array(denoms)[keep][:, None, None, None])
    return [next(gains) if kept else fallback for kept in keep]
