import numpy as np
import pytest

from marketgraph import (
    ParameterError,
    component_count,
    edge_linear_index,
    laplacian_op,
    planted_k_component,
    sample_lgmrf,
    sample_student_t,
)

from conftest import partitions_equal


def _planted_weights_one_draw_at_a_time(p, k, intra_prob, weight_range, seed):
    "planted_k_component's weights from scalar draws, one node pair at a time."
    rng = np.random.default_rng(seed)
    lo, hi = float(weight_range[0]), float(weight_range[1])
    sizes = [p // k + (1 if b < p % k else 0) for b in range(k)]
    w = np.zeros(p * (p - 1) // 2)
    start = 0
    for size in sizes:
        nodes = np.arange(start, start + size)
        start += size
        order = rng.permutation(nodes)
        for a in range(1, size):
            u = int(order[a])
            v = int(order[rng.integers(0, a)])
            i, j = (u, v) if u > v else (v, u)
            w[edge_linear_index(i, j, p)] = rng.uniform(lo, hi)
        for a in range(size):
            for b in range(a + 1, size):
                if rng.uniform() < intra_prob:
                    kk = edge_linear_index(int(nodes[b]), int(nodes[a]), p)
                    if w[kk] == 0.0:
                        w[kk] = rng.uniform(lo, hi)
    return w


class TestPlantedKComponent:
    @pytest.mark.parametrize("p, k", [(4, 1), (4, 2), (9, 1), (9, 4), (30, 1), (30, 3), (30, 15)])
    @pytest.mark.parametrize("intra_prob", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("weight_range", [(0.5, 2.0), (1.0, 1.0)])
    def test_weights_equal_one_draw_at_a_time(self, p, k, intra_prob, weight_range):
        for seed in (0, 5):
            g = planted_k_component(p, k, intra_prob, weight_range, seed=seed)
            oracle = _planted_weights_one_draw_at_a_time(p, k, intra_prob, weight_range, seed)
            assert np.asarray(g.weights.values).tobytes() == oracle.tobytes()
    def test_perfect_matching(self):
        g = planted_k_component(6, 3, 1.0, seed=1)
        lam = np.linalg.eigvalsh(np.asarray(laplacian_op(g.weights)))
        assert int(np.sum(lam < 1e-9 * lam[-1])) == 3
        assert component_count(g.weights) == 3

    def test_complete_graph_k1(self):
        g = planted_k_component(8, 1, 1.0, seed=2)
        w = np.asarray(g.weights)
        assert np.all(w > 0)  # every pair connected
        lam = np.linalg.eigvalsh(np.asarray(laplacian_op(g.weights)))
        assert int(np.sum(lam < 1e-9 * lam[-1])) == 1

    def test_p30_k3_nullity(self):
        g = planted_k_component(30, 3, 0.4, seed=7)
        lam = np.linalg.eigvalsh(np.asarray(laplacian_op(g.weights)))
        assert int(np.sum(lam < 1e-9 * lam[-1])) == 3

    def test_partition_labels_match_components(self):
        g = planted_k_component(14, 2, 0.3, seed=3)
        from marketgraph import components

        assert partitions_equal(components(g.weights), g.partition.labels)

    def test_deterministic_in_seed(self):
        a = planted_k_component(10, 2, 0.5, seed=42)
        b = planted_k_component(10, 2, 0.5, seed=42)
        np.testing.assert_array_equal(np.asarray(a.weights), np.asarray(b.weights))

    def test_weights_within_range(self):
        g = planted_k_component(10, 2, 0.8, (0.25, 0.75), seed=5)
        w = np.asarray(g.weights)
        w = w[w > 0]
        assert np.all((w >= 0.25) & (w <= 0.75))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            planted_k_component(10, 6, 0.5)
        with pytest.raises(ParameterError):
            planted_k_component(10, 2, 1.5)
        with pytest.raises(ParameterError):
            planted_k_component(10, 2, 0.5, (-1.0, 2.0))


class TestSampleLgmrf:
    def test_unit_edge_covariance(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        X = sample_lgmrf(L, 100_000, seed=11)
        S = X.T @ X / X.shape[0]
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.linalg.norm(S - expected) / np.linalg.norm(expected) < 0.05

    def test_sample_mean_near_zero(self):
        g = planted_k_component(6, 1, 0.7, seed=13)
        L = np.asarray(laplacian_op(g.weights))
        n = 20_000
        X = sample_lgmrf(L, n, seed=14)
        sigma = np.sqrt(np.diag(np.linalg.pinv(L)))
        assert np.all(np.abs(X.mean(axis=0)) <= 5 * sigma / np.sqrt(n))

    def test_rows_exactly_orthogonal_to_ones(self):
        g = planted_k_component(7, 1, 0.6, seed=15)
        L = np.asarray(laplacian_op(g.weights))
        X = sample_lgmrf(L, 500, seed=16)
        np.testing.assert_allclose(X.sum(axis=1), 0.0, atol=1e-12)

    def test_deterministic(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(
            sample_lgmrf(L, 10, seed=1), sample_lgmrf(L, 10, seed=1)
        )


class TestSampleStudentT:
    def test_large_nu_matches_gaussian_scale(self):
        g = planted_k_component(5, 1, 0.8, seed=21)
        L = np.asarray(laplacian_op(g.weights))
        n = 50_000
        Xt = sample_student_t(L, 1e6, n, seed=22)
        Xg = sample_lgmrf(L, n, seed=23)
        St = Xt.T @ Xt / n
        Sg = Xg.T @ Xg / n
        assert np.linalg.norm(St - Sg) / np.linalg.norm(Sg) < 0.05

    def test_nu4_margins_have_positive_excess_kurtosis(self):
        g = planted_k_component(4, 1, 1.0, seed=25)
        L = np.asarray(laplacian_op(g.weights))
        X = sample_student_t(L, 4.0, 100_000, seed=26)
        col = X[:, 0]
        kurt = np.mean(col**4) / np.mean(col**2) ** 2 - 3.0
        assert kurt > 0.5

    def test_scatter_scales_inversely_with_laplacian(self):
        g = planted_k_component(5, 1, 0.9, seed=27)
        L = np.asarray(laplacian_op(g.weights))
        n = 60_000
        X1 = sample_student_t(L, 6.0, n, seed=28)
        X2 = sample_student_t(3.0 * L, 6.0, n, seed=28)
        S1 = X1.T @ X1 / n
        S2 = X2.T @ X2 / n
        assert np.linalg.norm(3.0 * S2 - S1) / np.linalg.norm(S1) < 0.05

    def test_rejects_small_nu(self):
        with pytest.raises(ParameterError):
            sample_student_t(np.eye(3), 2.0, 10, seed=1)
