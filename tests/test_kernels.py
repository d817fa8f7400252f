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
    sq_diff = np.ascontiguousarray((X[:, ii] - X[:, jj]) ** 2)
    scale = (p + nu) / X.shape[0]
    step = _kernels.mm_inner_student(w, c0, sq_diff, nu, scale, rho, p, 1, 0.0, ii, jj)

    grad = (
        laplacian_adj(weighted_scatter(X, w, nu))
        + c0
        + rho * dense_quad_operator(p) @ w
    )
    oracle = np.maximum(w - grad / mm_step_denominator(p, rho), 0.0)
    np.testing.assert_allclose(step, oracle, atol=1e-12)
