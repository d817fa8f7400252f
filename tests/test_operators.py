import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import (
    DimensionError,
    SymmetricMatrix,
    WeightVector,
    adjacency_op,
    degree_adj,
    degree_op,
    edge_linear_index,
    edge_pairs,
    laplacian_adj,
    laplacian_op,
    mm_step_denominator,
)
from marketgraph.operators import edge_count, node_count_from_edges

from conftest import dense_quad_operator


class TestEdgeIndex:
    def test_formula_matches_documented_one_based_expression(self):
        # k = i - j + (j-1)(2p-j)/2 with 1-based indices
        for p in (2, 3, 5, 9):
            ii, jj = edge_pairs(p)
            for k in range(edge_count(p)):
                i1, j1, k1 = int(ii[k]) + 1, int(jj[k]) + 1, k + 1
                assert k1 == i1 - j1 + (j1 - 1) * (2 * p - j1) // 2

    @pytest.mark.parametrize("p", [2, 3, 7, 20, 50])
    def test_round_trip(self, p):
        ii, jj = edge_pairs(p)
        assert ii.size == edge_count(p)
        for k in range(edge_count(p)):
            assert ii[k] > jj[k]
            assert edge_linear_index(int(ii[k]), int(jj[k]), p) == k

    def test_edge_pairs_agree_with_scalar_mapping(self):
        # every node pair i > j appears once, at its linear index
        p = 8
        ii, jj = edge_pairs(p)
        pairs = [(i, j) for j in range(p) for i in range(j + 1, p)]
        assert sorted(pairs, key=lambda e: edge_linear_index(*e, p)) == list(
            zip(ii.tolist(), jj.tolist()))

    def test_invalid_pairs_rejected(self):
        with pytest.raises(DimensionError):
            edge_linear_index(0, 1, 3)
        with pytest.raises(DimensionError):
            edge_linear_index(3, 0, 3)
        with pytest.raises(DimensionError):
            node_count_from_edges(4)


class TestLaplacianOp:
    def test_p3_example(self):
        L = laplacian_op([1.0, 2.0, 3.0])
        expected = np.array([[3.0, -1.0, -2.0], [-1.0, 4.0, -3.0], [-2.0, -3.0, 5.0]])
        np.testing.assert_array_equal(np.asarray(L), expected)

    def test_zero_graph(self):
        np.testing.assert_array_equal(np.asarray(laplacian_op([0.0])), np.zeros((2, 2)))

    def test_complete_graph_p4(self):
        L = np.asarray(laplacian_op(np.ones(6)))
        assert np.all(np.diag(L) == 3.0)
        off = L[~np.eye(4, dtype=bool)]
        assert np.all(off == -1.0)

    def test_row_sums_vanish_and_offdiag_nonpositive(self, rng):
        for p in (2, 5, 11):
            w = rng.uniform(0, 3, edge_count(p))
            L = np.asarray(laplacian_op(w))
            np.testing.assert_allclose(L @ np.ones(p), 0.0, atol=1e-12)
            assert np.all(L[~np.eye(p, dtype=bool)] <= 0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            laplacian_op([1.0, 2.0], p=3)


class TestAdjacencyDegree:
    def test_adjacency_example(self):
        A = np.asarray(adjacency_op([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(A, [[0, 1, 2], [1, 0, 3], [2, 3, 0]])

    def test_adjacency_p2(self):
        np.testing.assert_array_equal(np.asarray(adjacency_op([5.0])), [[0, 5], [5, 0]])

    def test_laplacian_is_degree_minus_adjacency(self, rng):
        w = rng.uniform(0, 2, edge_count(6))
        L = np.asarray(laplacian_op(w))
        A = np.asarray(adjacency_op(w))
        D = np.diag(degree_op(w))
        np.testing.assert_allclose(L, D - A, atol=1e-14)

    def test_degree_examples(self):
        np.testing.assert_array_equal(degree_op([1.0, 2.0, 3.0]), [3, 4, 5])
        np.testing.assert_array_equal(degree_op(np.zeros(3)), np.zeros(3))
        np.testing.assert_array_equal(degree_op(np.ones(6)), 3 * np.ones(4))


class TestAdjoints:
    def test_laplacian_adj_identity_matrix(self):
        np.testing.assert_array_equal(laplacian_adj(np.eye(3)), [2.0, 2.0, 2.0])

    def test_laplacian_adj_ones_matrix(self):
        np.testing.assert_array_equal(laplacian_adj(np.ones((4, 4))), np.zeros(6))

    def test_degree_adj_example(self):
        np.testing.assert_array_equal(degree_adj([1.0, 2.0, 3.0]), [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(degree_adj(np.zeros(3)), np.zeros(3))

    def test_inner_product_identity_p6(self, rng):
        p = 6
        w = rng.uniform(0, 1, edge_count(p))
        M = rng.standard_normal((p, p))
        M = (M + M.T) / 2
        lhs = float(np.sum(np.asarray(laplacian_op(w)) * M))
        rhs = float(w @ laplacian_adj(M))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identities_random(self, p, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 2, edge_count(p))
        M = rng.standard_normal((p, p))
        M = (M + M.T) / 2
        y = rng.standard_normal(p)
        scale = max(1.0, np.abs(M).max() * np.abs(w).max() * p)
        lap_gap = np.sum(np.asarray(laplacian_op(w)) * M) - w @ laplacian_adj(M)
        deg_gap = degree_op(w) @ y - w @ degree_adj(y)
        assert abs(lap_gap) <= 1e-10 * scale
        assert abs(deg_gap) <= 1e-10 * scale

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(2, 15), seed=st.integers(0, 2**32 - 1))
    def test_degree_adj_is_laplacian_adj_of_diag(self, p, seed):
        y = np.random.default_rng(seed).standard_normal(p)
        np.testing.assert_allclose(degree_adj(y), laplacian_adj(np.diag(y)), atol=1e-14)


class TestStepDenominator:
    def test_pinned_values(self):
        assert mm_step_denominator(2, 1.0) == 6.0
        assert mm_step_denominator(10, 2.0) == 76.0

    @pytest.mark.parametrize("p", range(3, 13))
    def test_matches_dense_eigensolve(self, p):
        Q = dense_quad_operator(p)
        lam_max = np.linalg.eigvalsh(Q)[-1]
        assert abs(lam_max - (4 * p - 2)) < 1e-8
        # the denominator 2*rho*(2p-1) is exactly rho * lambda_max
        assert abs(mm_step_denominator(p, 1.0) - lam_max) < 1e-8


class TestTypes:
    def test_weight_vector_rejects_negative(self):
        with pytest.raises(DimensionError):
            WeightVector(np.array([-1.0, 0.0, 0.0]), 3)

    def test_weight_vector_rejects_bad_length(self):
        with pytest.raises(DimensionError):
            WeightVector(np.ones(4), 3)

    def test_weight_vector_from_array(self):
        w = WeightVector.from_array(np.ones(10))
        assert w.p == 5
        assert len(w) == 10

    def test_weight_vector_immutable(self):
        w = WeightVector(np.ones(3), 3)
        with pytest.raises(ValueError):
            w.values[0] = 2.0

    def test_symmetric_matrix_symmetrizes_small_drift(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        S = SymmetricMatrix(M)
        assert S.entries[0, 1] == S.entries[1, 0]

    def test_symmetric_matrix_rejects_genuine_asymmetry(self):
        with pytest.raises(DimensionError):
            SymmetricMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
