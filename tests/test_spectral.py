import numpy as np
import pytest

from marketgraph import (
    DegenerateInputError,
    ParameterError,
    fan_subspace,
    laplacian_op,
    prox_logdet,
    prox_logdet_rank,
    psd_sqrt_pinv,
    spectral_diagnostics,
)
from marketgraph.operators import edge_count
from marketgraph.spectral import SubspaceMatrix, eigendecompose


def random_symmetric(rng, p, scale=1.0):
    M = rng.standard_normal((p, p)) * scale
    return (M + M.T) / 2


class TestEigendecompose:
    def test_invariants(self, rng):
        M = random_symmetric(rng, 8, scale=3.0)
        lam, U = eigendecompose(M)
        assert np.all(np.diff(lam) >= 0)
        np.testing.assert_allclose(U.T @ U, np.eye(8), atol=1e-8)
        recon = (U * lam) @ U.T
        assert np.linalg.norm(recon - M) <= 1e-8 * np.linalg.norm(M)

    def test_subspace_matrix_rejects_non_orthonormal(self):
        from marketgraph import NumericalError

        with pytest.raises(NumericalError):
            SubspaceMatrix(np.ones((4, 2)))


class TestProxLogdet:
    def test_scalar_analogue_gamma0(self):
        out = np.asarray(prox_logdet(np.array([[0.0]]), 1.0))
        assert abs(out[0, 0] - 1.0) < 1e-12

    def test_scalar_analogue_gamma3(self):
        # positive root of x^2 - 3x - 1 = 0
        expected = (3 + np.sqrt(13)) / 2
        out = np.asarray(prox_logdet(np.array([[3.0]]), 1.0))
        assert abs(out[0, 0] - expected) < 1e-12

    def test_scalar_analogue_rho2(self):
        expected = (2 + np.sqrt(12)) / 4
        out = np.asarray(prox_logdet(np.array([[2.0]]), 2.0))
        assert abs(out[0, 0] - expected) < 1e-12

    def test_strongly_negative_gamma_keeps_positive_root(self):
        # (gamma + sqrt(gamma^2 + 4 rho)) / (2 rho) cancels to 0 here
        gamma, rho = -1e10, 1.0
        out = prox_logdet(np.array([[gamma]]), rho)
        x = out.eigenvalues[0]
        assert x > 0
        assert abs(rho * x * x - gamma * x - 1.0) < 1e-12
        assert np.asarray(out)[0, 0] == pytest.approx(x, rel=1e-12)

    def test_carries_mapped_eigenvalues(self, rng):
        M = random_symmetric(rng, 6)
        out = prox_logdet(M, 1.5)
        np.testing.assert_allclose(out.eigenvalues, np.linalg.eigvalsh(np.asarray(out)), rtol=1e-10)
        restricted = prox_logdet_rank(M, 1.5, 2)
        assert restricted.eigenvalues.shape == (4,)
        np.testing.assert_allclose(
            restricted.eigenvalues, np.linalg.eigvalsh(np.asarray(restricted))[2:], rtol=1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_stationarity_residual(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.integers(2, 12)
        rho = float(rng.uniform(0.1, 10.0))
        M = random_symmetric(rng, p, scale=rng.uniform(0.5, 4.0))
        omega = np.asarray(prox_logdet(M, rho))
        resid = -np.linalg.inv(omega) + rho * omega - M
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(M), 1.0)
        assert np.min(np.linalg.eigvalsh(omega)) > 0

    def test_output_symmetric(self, rng):
        M = random_symmetric(rng, 9)
        out = np.asarray(prox_logdet(M, 1.5))
        assert np.max(np.abs(out - out.T)) < 1e-10


class TestProxLogdetRank:
    def test_zero_matrix_rank_one(self):
        p = 4
        out = np.asarray(prox_logdet_rank(np.zeros((p, p)), 1.0, p - 1))
        lam = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(lam[-1], 1.0, atol=1e-12)
        np.testing.assert_allclose(lam[:-1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nullity_is_exactly_k(self, k, rng):
        M = random_symmetric(rng, 8)
        out = np.asarray(prox_logdet_rank(M, 2.0, k))
        lam = np.linalg.eigvalsh(out)
        assert int(np.sum(np.abs(lam) < 1e-9)) == k
        assert np.all(lam[k:] > 0)

    def test_k0_consistent_with_full_prox(self, rng):
        M = random_symmetric(rng, 6)
        full = np.asarray(prox_logdet(M, 1.0))
        restricted = np.asarray(prox_logdet_rank(M, 1.0, 0))
        np.testing.assert_allclose(full, restricted, atol=1e-10)

    def test_output_spans_top_eigenspace(self, rng):
        # eigenvectors of the bottom k eigenvalues of M must be in the null
        # space of the output
        M = random_symmetric(rng, 7)
        k = 2
        out = np.asarray(prox_logdet_rank(M, 1.0, k))
        lam, U = np.linalg.eigh(M)
        np.testing.assert_allclose(out @ U[:, :k], 0.0, atol=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            prox_logdet_rank(np.eye(3), 1.0, 3)


class TestFanSubspace:
    def test_two_disjoint_edges(self):
        w = np.zeros(edge_count(4))
        # edges (1,0) and (3,2): linear indices 0 and 5
        w[0] = 1.0
        w[5] = 1.0
        L = laplacian_op(w)
        V = np.asarray(fan_subspace(L, 2))
        val = np.trace(V.T @ np.asarray(L) @ V)
        assert abs(val) < 1e-10

    def test_connected_path_constant_vector(self):
        w = np.array([1.0, 0.0, 1.0])  # path 1-0, 2-1
        L = laplacian_op(w)
        V = np.asarray(fan_subspace(L, 1))
        expected = np.ones(3) / np.sqrt(3)
        assert min(
            np.linalg.norm(V[:, 0] - expected), np.linalg.norm(V[:, 0] + expected)
        ) < 1e-8
        assert abs(np.trace(V.T @ np.asarray(L) @ V)) < 1e-10

    def test_carries_eigenvalues_of_its_matrix(self):
        w = np.zeros(edge_count(5))
        w[[0, 9]] = 1.0
        L = np.asarray(laplacian_op(w))
        sub = fan_subspace(L, 2)
        np.testing.assert_allclose(sub.eigenvalues, np.linalg.eigvalsh(L), atol=1e-12)

    def test_monte_carlo_minimality(self, rng):
        p, k = 7, 3
        A = rng.standard_normal((p, p))
        L = A @ A.T
        V = np.asarray(fan_subspace(L, k))
        val = np.trace(V.T @ L @ V)
        lam = np.linalg.eigvalsh(L)
        assert abs(val - lam[:k].sum()) < 1e-8
        for _ in range(100):
            W, _ = np.linalg.qr(rng.standard_normal((p, k)))
            assert val <= np.trace(W.T @ L @ W) + 1e-10


class TestPsdSqrtPinv:
    def test_identity(self):
        B = psd_sqrt_pinv(np.eye(3))
        np.testing.assert_allclose(B @ B.T, np.eye(3), atol=1e-12)

    def test_unit_edge_laplacian(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        B = psd_sqrt_pinv(L)
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])  # hand pseudo-inverse
        np.testing.assert_allclose(B @ B.T, expected, atol=1e-12)

    def test_pinv_property_on_random_laplacians(self, rng):
        for p in (3, 6):
            w = rng.uniform(0.2, 2.0, edge_count(p))
            L = np.asarray(laplacian_op(w))
            B = psd_sqrt_pinv(L)
            np.testing.assert_allclose((B @ B.T) @ L @ B, B, atol=1e-9)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            psd_sqrt_pinv(np.zeros((3, 3)))


class TestSpectralDiagnostics:
    def test_identity(self):
        out = spectral_diagnostics(np.eye(4))
        assert out["condition_number"] == 1.0

    def test_diag_4_1(self):
        out = spectral_diagnostics(np.diag([4.0, 1.0]))
        assert abs(out["condition_number"] - 4.0) < 1e-12
        # standard basis eigenvectors: components (1, 0), sample variance
        # with denominator p-1 = 1 is 0.5
        np.testing.assert_allclose(out["eigenvector_variances"], [0.5, 0.5], atol=1e-12)

    def test_rank_deficient_flags_infinite(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert spectral_diagnostics(L)["condition_number"] == np.inf

    def test_variances_ordered_by_descending_eigenvalue(self, rng):
        M = np.diag([1.0, 10.0, 5.0])
        out = spectral_diagnostics(M)
        # descending eigenvalues 10, 5, 1 -> eigenvectors e2, e3, e1, all
        # with the same component variance here
        assert out["eigenvector_variances"].shape == (3,)
