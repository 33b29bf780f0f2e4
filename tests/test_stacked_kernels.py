"""Stack-native kernels: a stack of nodes gives, bit for bit, what the same
kernel gives one node at a time.

The engine calls every kernel once per step on (N, ...) stacks, with each
node's neighbor predictions padded to the largest degree and masked; the
golden traces rely on these equalities holding under `np.array_equal`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.filtering import (consensus_gain, innovation, innovation_covariance,
                             kalman_gain, measurement_update, posterior_covariance,
                             prior_covariance, should_transmit, slot_sum, sym,
                             update_predictive, vector_norm)
from etdkf.models import measure
from etdkf.resilience import BoundMonitor, weighted_neighbor_estimate

pytestmark = pytest.mark.bits

SHAPES = [(1, 1), (2, 1), (2, 2), (4, 2), (3, 3)]


def spd(rng, N, n):
    B = rng.standard_normal((N, n, n))
    return B @ B.transpose(0, 2, 1) + 0.1 * np.eye(n)


class Network:
    """Random per-node filter inputs for N nodes with state dim n and p channels."""

    def __init__(self, seed, N, shape, matrix_gamma):
        rng = np.random.default_rng(seed)
        n, p = shape
        self.N, self.n, self.p = N, n, p
        self.A = rng.standard_normal((n, n))
        self.Q = spd(rng, 1, n)[0]
        self.C = rng.standard_normal((N, p, n))
        self.R = spd(rng, N, p)
        self.P = spd(rng, N, n)
        self.x_prior = rng.standard_normal((N, n))
        self.x_pred = rng.standard_normal((N, n))
        self.y = rng.standard_normal((N, p)) * 5.0
        self.beta = rng.uniform(0.0, 1.0, N)
        self.gamma = (rng.standard_normal((N, n, n)) if matrix_gamma
                      else float(rng.uniform(0.0, 1.0)))
        # Degrees 0..D, padded slots hold garbage that the mask must hide.
        self.degree = rng.integers(0, 5, N)
        D = int(self.degree.max())
        self.mask = np.arange(D) < self.degree[:, None]
        self.preds = rng.standard_normal((N, D, n)) * 5.0
        self.weights = rng.uniform(0.0, 1.0, (N, D))

    def gamma_of(self, b):
        return self.gamma[b] if np.ndim(self.gamma) == 3 else self.gamma

    def neighbors_of(self, b):
        d = self.degree[b]
        return list(self.preds[b, :d]), self.weights[b, :d].tolist()


networks = st.builds(Network, st.integers(0, 2**32 - 1), st.integers(1, 12),
                     st.sampled_from(SHAPES), st.booleans())


def per_node(f, *stacks):
    return np.array([f(*args) for args in zip(*stacks)])


@settings(max_examples=80, deadline=None)
@given(networks)
def test_filter_kernels_equal_per_node(net):
    K = kalman_gain(net.P, net.C, net.R)
    assert np.array_equal(K, per_node(kalman_gain, net.P, net.C, net.R))
    assert np.array_equal(posterior_covariance(net.P, K, net.C, net.R),
                          per_node(posterior_covariance, net.P, K, net.C, net.R))
    assert np.array_equal(innovation_covariance(net.P, net.C, net.R),
                          per_node(innovation_covariance, net.P, net.C, net.R))
    assert np.array_equal(innovation(net.y, net.C, net.x_prior),
                          per_node(innovation, net.y, net.C, net.x_prior))
    assert np.array_equal(np.matvec(net.A, net.x_prior),
                          np.array([np.matvec(net.A, xb) for xb in net.x_prior]))
    assert np.array_equal(prior_covariance(net.P, net.A, net.Q),
                          np.array([prior_covariance(Pb, net.A, net.Q) for Pb in net.P]))
    assert np.array_equal(measure(net.C, net.x_prior[0], net.y),
                          per_node(lambda C, v: measure(C, net.x_prior[0], v), net.C, net.y))


@settings(max_examples=80, deadline=None)
@given(networks, st.floats(0.0, 8.0))
def test_trigger_and_predictive_equal_per_node(net, alpha):
    zeta = should_transmit(net.y, net.C, net.x_pred, alpha)
    assert np.array_equal(zeta, [should_transmit(y, C, xp, alpha)
                                 for y, C, xp in zip(net.y, net.C, net.x_pred)])
    assert np.array_equal(update_predictive(zeta, net.x_prior, net.x_pred, net.A),
                          per_node(lambda z, xb, xp: update_predictive(z, xb, xp, net.A),
                                   zeta, net.x_prior, net.x_pred))


def neighbor_loop(x_prior, K, gamma, y, C, beta, preds, weights, own):
    """m_i and x_post of one node, its neighbors summed in a Python loop."""
    m = x_prior
    if preds:
        acc = None
        for w, xj in zip(weights, preds):
            acc = w * xj if acc is None else acc + w * xj
        m = acc / len(preds)
    consensus = np.zeros_like(x_prior)
    for w, xj in zip(weights, preds):
        consensus = consensus + w * (xj - own)
    coupled = gamma @ consensus if np.ndim(gamma) == 2 else gamma * consensus
    r = beta * y + (1.0 - beta) * (C @ m) - C @ x_prior
    return m, x_prior + K @ r + coupled


@settings(max_examples=80, deadline=None)
@given(networks)
def test_padded_neighbor_kernels_equal_per_node(net):
    K = kalman_gain(net.P, net.C, net.R)
    m = weighted_neighbor_estimate(net.x_prior, net.preds, net.weights, net.mask)
    x_post = measurement_update(net.x_prior, K, net.gamma, net.y, net.C, m, net.beta,
                                net.preds, net.weights, net.x_pred, net.mask)
    for b in range(net.N):
        preds, weights = net.neighbors_of(b)
        m_b = weighted_neighbor_estimate(net.x_prior[b], preds, weights)
        assert np.array_equal(m[b], m_b)
        assert np.array_equal(x_post[b], measurement_update(
            net.x_prior[b], K[b], net.gamma_of(b), net.y[b], net.C[b], m_b, net.beta[b],
            preds, weights, net.x_pred[b]))
        m_loop, x_loop = neighbor_loop(net.x_prior[b], K[b], net.gamma_of(b), net.y[b],
                                       net.C[b], net.beta[b], preds, weights, net.x_pred[b])
        assert np.array_equal(m[b], m_loop)
        assert np.array_equal(x_post[b], x_loop)



def slot_sum_where_per_slot(terms, mask, start):
    """The slot sum as one select per slot: a masked slot keeps the sum."""
    acc = start
    for d in range(terms.shape[-2]):
        acc = np.where(mask[..., d, None], acc + terms[..., d, :], acc)
    return acc


# Signed zeros, infinities and NaNs, beside any float hypothesis draws.
slot_values = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
                        st.floats())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(1, 6), st.integers(1, 3))
def test_slot_sum_equals_where_per_slot(data, D, rows, n):
    terms = np.array(data.draw(st.lists(slot_values, min_size=rows * D * n,
                                        max_size=rows * D * n))).reshape(rows, D, n)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=rows * D,
                                       max_size=rows * D)), bool).reshape(rows, D)
    mask[data.draw(st.integers(0, rows - 1))] = False   # a row with no neighbor
    start = np.full((rows, n), data.draw(st.sampled_from([0.0, -0.0])))
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf, and overflow
        got, want = slot_sum(terms, mask, start), slot_sum_where_per_slot(terms, mask, start)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(networks)
def test_vector_norm_equals_linalg_norm(net):
    for v in (net.y, net.x_prior, net.preds):
        got = vector_norm(v)
        want = np.array([np.linalg.norm(u) for u in v.reshape(-1, v.shape[-1])])
        assert np.array_equal(got.reshape(-1), want)


def consensus_gain_per_node(M, A, P, L, fallback):
    """The design rule evaluated one node at a time, maxima taken in node order."""
    lam_L = float(np.max(np.linalg.eigvalsh(L)))
    G_pinvs = [np.linalg.pinv(Mb.T @ A.T @ np.linalg.pinv(Pb) @ A @ Mb) for Mb, Pb in zip(M, P)]
    lam = 0.0
    for Gp in G_pinvs:
        lam = max(lam, float(np.linalg.eigvalsh(sym(Gp))[-1]))
    denom = lam_L * lam
    if denom <= 0 or not np.isfinite(denom):
        return fallback
    return np.array([2.0 * Mb @ Gp / denom for Mb, Gp in zip(M, G_pinvs)])


@settings(max_examples=80, deadline=None)
@given(networks)
def test_consensus_gain_and_monitor_equal_per_node(net):
    K = kalman_gain(net.P, net.C, net.R)
    M = np.eye(net.n) - K @ net.C
    L = np.diag(net.degree.astype(float)) - 0.1
    got = consensus_gain(M, net.A, net.P, float(np.max(np.linalg.eigvalsh(L))), fallback=0.05)
    assert np.array_equal(got, consensus_gain_per_node(M, net.A, net.P, L, 0.05))
    # Gains with one row per sensor model (M) and gathered to nodes that
    # share them give the monitor equal bytes: A_o as the engine takes it,
    # one stacked norm over entries and Python's max in row order, equals
    # the per-node maximum; with gamma_max = 0 and beta = 1, bound(1) =
    # A_o * bound(0) = A_o.
    mon = BoundMonitor(A=net.A, C_norms=[1.0] * net.N, alpha=1.0, tau=1.0)
    per_node = np.concatenate([M, M[::-1]])
    A_o = [max(row) for row in np.linalg.norm(net.A @ np.stack([per_node, per_node[::-1]]), 2,
                                              axis=(-2, -1)).tolist()]
    A_o.append(max(np.linalg.norm(net.A @ M, 2, axis=(-2, -1)).tolist()))
    assert A_o == [max(float(np.linalg.norm(net.A @ Mb, 2)) for Mb in per_node)] * 3
    sL = float(np.linalg.norm(L, 2))
    got = [mon.bounds(1.0, [(a, g, sL, betas)] * 2, B=1.0)
           for a in A_o[1:] for g, betas in ((0.1, net.beta.tolist()), (0.0, [1.0] * net.N))]
    assert np.array(got[:2]).tobytes() == np.array(got[2:]).tobytes()
    assert got[1][1] == A_o[0]


@settings(max_examples=40, deadline=None)
@given(networks)
def test_consensus_gain_all_degenerate_falls_back(net):
    # M = 0 makes every Gamma_i zero, so lambda_max(Gamma^+) is 0 everywhere.
    M = np.zeros((net.N, net.n, net.n))
    L = np.diag(net.degree.astype(float))
    assert consensus_gain(M, net.A, net.P, float(np.max(np.linalg.eigvalsh(L))),
                          fallback=0.05) == 0.05
    assert consensus_gain_per_node(M, net.A, net.P, L, 0.05) == 0.05
