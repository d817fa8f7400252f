"""The inner-loop kernels against dense and library-level oracles."""

import numpy as np
import pytest

from marketgraph import _kernels, laplacian_adj, mm_step_denominator, weighted_scatter
from marketgraph.operators import edge_count, edge_pairs
from marketgraph.solvers import _student_objective

from conftest import dense_quad_operator


@pytest.fixture(params=[3, 8, 17])
def inputs(request, rng):
    p = request.param
    ii, jj = edge_pairs(p)
    w = rng.uniform(0, 2, edge_count(p))
    return p, ii, jj, w


def test_quad_gradient_matches_dense_operator(inputs):
    p, ii, jj, w = inputs
    np.testing.assert_allclose(
        _kernels.quad_gradient_py(w, ii, jj, p), dense_quad_operator(p) @ w, atol=1e-12
    )


def test_student_step_matches_weighted_scatter_oracle(inputs, rng):
    # one inner step: the data term is L*(weighted_scatter(X, w, nu)), the
    # curvature term the dense operator, the step the analytic bound
    p, ii, jj, w = inputs
    X = rng.standard_normal((25, p))
    c0 = rng.standard_normal(w.size)
    nu, rho = 4.0, 1.3
    step = _kernels.mm_inner_student(w, c0, X, nu, rho, p, 1, 0.0, ii, jj)

    grad = (
        laplacian_adj(weighted_scatter(X, w, nu))
        + c0
        + rho * dense_quad_operator(p) @ w
    )
    oracle = np.maximum(w - grad / mm_step_denominator(p, rho), 0.0)
    np.testing.assert_allclose(step, oracle, atol=1e-12)


def test_student_quad_matches_edge_differences(inputs, rng):
    # x_i^T L(w) x_i = sum over edges of w_e (x_i[ii_e] - x_i[jj_e])^2
    p, ii, jj, w = inputs
    X = rng.standard_normal((25, p))
    oracle = ((X[:, ii] - X[:, jj]) ** 2) @ w
    q = _kernels.student_quad(X, _kernels.lap_matrix(w, ii, jj, p))
    np.testing.assert_allclose(q, oracle, rtol=1e-12, atol=1e-12)


def test_student_scatter_matches_explicit_sum(inputs, rng):
    # (1/n) sum_i alpha_i x_i x_i^T, alpha_i = (p + nu) / (q_i + nu), q_i from edge differences
    p, ii, jj, w = inputs
    X = rng.standard_normal((25, p))
    nu = 4.0
    alpha = (p + nu) / (((X[:, ii] - X[:, jj]) ** 2) @ w + nu)
    oracle = sum(a * np.outer(x, x) for a, x in zip(alpha, X)) / X.shape[0]
    out = _kernels.student_scatter(X, _kernels.lap_matrix(w, ii, jj, p), nu)
    np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=1e-12)


def test_student_loop_is_gaussian_loop_with_scatter_at_incoming_w(inputs, rng):
    # the Student-t term is linearized once, at the incoming w, and then held
    p, ii, jj, w = inputs
    X = rng.standard_normal((25, p))
    c0 = rng.standard_normal(w.size)
    nu, rho = 4.0, 1.3
    out = _kernels.mm_inner_student(w, c0, X, nu, rho, p, 20, 0.0, ii, jj)
    c0_t = c0 + laplacian_adj(weighted_scatter(X, w, nu))
    oracle = _kernels.mm_inner_gaussian(w, c0_t, rho, p, 20, 0.0, ii, jj)
    np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-12)


def test_student_objective_gradient_is_scatter_adjoint(inputs, rng):
    # d/dw of (p + nu)/n sum_i log(1 + x_i^T L(w) x_i / nu) is L*(weighted_scatter(X, w, nu))
    p, ii, jj, w = inputs
    X = rng.standard_normal((25, p))
    nu, h = 4.0, 1e-6

    def objective(v):
        return _student_objective(X, _kernels.lap_matrix(v, ii, jj, p), nu)

    basis = np.eye(w.size)
    fd = np.array([(objective(w + h * e) - objective(w - h * e)) / (2 * h) for e in basis])
    np.testing.assert_allclose(fd, laplacian_adj(weighted_scatter(X, w, nu)), rtol=1e-6, atol=1e-8)


def test_accelerated_loop_beats_plain_projected_gradient(inputs, rng):
    # same step bound, same 20 gradient evaluations: the momentum must land
    # at most half as far from the subproblem's minimizer as plain projected
    # gradient does (0.001-0.24 of the distance on these fixtures)
    p, ii, jj, w = inputs
    c0 = rng.standard_normal(w.size)
    rho = 1.3
    Q = rho * dense_quad_operator(p)
    denom = mm_step_denominator(p, rho)
    w_star = _kernels.mm_inner_gaussian(w, c0, rho, p, 20000, 0.0, ii, jj)
    plain = w
    for _ in range(20):
        plain = np.maximum(plain - (c0 + Q @ plain) / denom, 0.0)
    fast = _kernels.mm_inner_gaussian(w, c0, rho, p, 20, 0.0, ii, jj)
    assert np.max(np.abs(fast - w_star)) < 0.5 * np.max(np.abs(plain - w_star))
