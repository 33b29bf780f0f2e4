"""Event-triggered distributed Kalman filter: triggers, the update law, gains.

All operations are pure; `NodeEstimator` is a plain state container owned by
one logical node. Covariances are re-symmetrized after every update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetrize to kill round-off drift."""
    return 0.5 * (m + m.T)


@dataclass
class TriggerConfig:
    """Event-trigger threshold; transmit when the output residual norm >= alpha."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")


@dataclass
class NodeEstimator:
    """One sensor's filter state.

    x_prior/x_post/x_pred are the pre-measurement, post-measurement, and
    neighbor-visible estimates; zeta is the current transmit flag.
    """

    x_prior: np.ndarray
    x_post: np.ndarray
    x_pred: np.ndarray
    P_prior: np.ndarray
    P_post: np.ndarray
    K: np.ndarray = None
    gamma: float = 0.0
    zeta: int = 1

    @classmethod
    def initial(cls, x0_mean, P0, gamma=0.0):
        x0 = np.array(x0_mean, dtype=float)
        P0 = np.array(P0, dtype=float)
        return cls(
            x_prior=x0.copy(),
            x_post=x0.copy(),
            x_pred=x0.copy(),
            P_prior=P0.copy(),
            P_post=P0.copy(),
            K=None,
            gamma=gamma,
            zeta=1,
        )


def should_transmit(y, C, x_pred_prev, alpha: float) -> bool:
    """Transmit decision: residual against the extrapolated predictive estimate.

    Returns True (zeta=1) iff ||y - C x_pred_prev|| >= alpha. The boundary
    transmits, so a crafted residual of norm exactly alpha still triggers.
    """
    r = np.asarray(y, float) - np.asarray(C, float) @ np.asarray(x_pred_prev, float)
    return bool(np.linalg.norm(r) >= alpha)


def update_predictive(zeta: int, x_prior, x_pred_prev, A) -> np.ndarray:
    """Predictive estimate: the prior when transmitting, else A-extrapolation."""
    if zeta:
        return np.array(x_prior, dtype=float)
    return np.asarray(A, float) @ np.asarray(x_pred_prev, float)


def time_update(est: NodeEstimator, A, Q) -> None:
    """Advance prior: x_prior = A x_post, P_prior = A P_post A^T + Q."""
    A = np.asarray(A, float)
    est.x_prior = A @ est.x_post
    est.P_prior = sym(A @ est.P_post @ A.T + np.asarray(Q, float))


def kalman_gain(P_prior, C, R) -> np.ndarray:
    """K = P_prior C^T (R + C P_prior C^T)^{-1}."""
    P_prior = np.asarray(P_prior, float)
    C = np.asarray(C, float)
    S = np.asarray(R, float) + C @ P_prior @ C.T
    try:
        # Solve S K^T = C P_prior instead of forming S^{-1}.
        return np.linalg.solve(S, C @ P_prior.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular innovation covariance (cond ~ {np.linalg.cond(S):.3g}); "
            f"S diagonal {np.diag(S)}"
        ) from exc


def innovation(y, C, x_prior) -> np.ndarray:
    """Residual y - C x_prior."""
    return np.asarray(y, float) - np.asarray(C, float) @ np.asarray(x_prior, float)


def innovation_covariance(P_prior, C, R) -> np.ndarray:
    """Omega = C P_prior C^T + R."""
    C = np.asarray(C, float)
    return sym(C @ np.asarray(P_prior, float) @ C.T + np.asarray(R, float))


def apply_coupling(gamma, vec: np.ndarray) -> np.ndarray:
    """Consensus coupling: scalar multiply or matrix action, per gamma mode."""
    if np.ndim(gamma) == 2:
        return np.asarray(gamma, float) @ vec
    return gamma * vec


def measurement_update(est: NodeEstimator, y, C, m_i, beta_i: float, neighbor_preds,
                       weights, own_pred) -> None:
    """Posterior update law of every filter mode.

    The measurement is blended with the weighted neighbor estimate `m_i` by
    the node's own confidence `beta_i`, and each consensus term is scaled by
    its belief weight w_ij = sigma_ij * beta_j. `neighbor_preds` holds the
    latest predictive estimate of each neighbor as seen by this node
    (non-transmitting neighbors already extrapolated), in ascending neighbor
    order, and `weights` the matching w_ij. With beta_i = 1 and every weight 1
    this is the nominal update x_prior + K (y - C x_prior) + gamma sum_j
    (x_j - own_pred), bit for bit.
    """
    C = np.asarray(C, float)
    blended = beta_i * np.asarray(y, float) + (1.0 - beta_i) * (C @ np.asarray(m_i, float))
    r = blended - C @ est.x_prior
    consensus = np.zeros_like(est.x_prior)
    own = np.asarray(own_pred, float)
    for w, xj in zip(weights, neighbor_preds):
        consensus = consensus + w * (np.asarray(xj, float) - own)
    est.x_post = est.x_prior + est.K @ r + apply_coupling(est.gamma, consensus)


def posterior_covariance(P_prior, K, C, R) -> np.ndarray:
    """Joseph form: (I-KC) P (I-KC)^T + K R K^T."""
    P_prior = np.asarray(P_prior, float)
    K = np.asarray(K, float)
    C = np.asarray(C, float)
    M = np.eye(P_prior.shape[0]) - K @ C
    return sym(M @ P_prior @ M.T + K @ np.asarray(R, float) @ K.T)


def consensus_gain(gains, Cs, A, P_priors, L, fallback: float = 0.0):
    """Matrix-valued coupling gains per node from the network-wide design rule.

    gamma_i = 2 (I - K_i C_i) Gamma_i^+ / (lambda_max(L) * lambda_max(Gamma^+)),
    Gamma_i = (I - K_i C_i)^T A^T P_prior_i^+ A (I - K_i C_i), with pseudo-
    inverses where blocks are singular. If every block is degenerate the
    configured scalar `fallback` is used for all nodes.

    Returns a list of n x n arrays (or scalars when falling back).
    """
    A = np.asarray(A, float)
    n = A.shape[0]
    N = len(gains)
    Ms, Gammas = [], []
    for K, C, Pb in zip(gains, Cs, P_priors):
        M = np.eye(n) - np.asarray(K, float) @ np.asarray(C, float)
        Pb_pinv = np.linalg.pinv(np.asarray(Pb, float))
        Gammas.append(M.T @ A.T @ Pb_pinv @ A @ M)
        Ms.append(M)
    lam_L = float(np.max(np.linalg.eigvalsh(np.asarray(L, float))))
    lam_Ginv = 0.0
    G_pinvs = []
    for G in Gammas:
        Gp = np.linalg.pinv(G)
        G_pinvs.append(Gp)
        ev = np.linalg.eigvalsh(sym(Gp))
        lam_Ginv = max(lam_Ginv, float(ev[-1]))
    denom = lam_L * lam_Ginv
    if denom <= 0 or not np.isfinite(denom):
        return [fallback] * N
    return [2.0 * M @ Gp / denom for M, Gp in zip(Ms, G_pinvs)]
