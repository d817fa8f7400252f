"""The inner-loop kernels against dense and library-level oracles."""

import numpy as np
import pytest

from marketgraph import _kernels, laplacian_adj, mm_step_denominator, weighted_scatter
from marketgraph.operators import edge_count, edge_pairs

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
