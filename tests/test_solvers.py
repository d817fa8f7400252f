import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from marketgraph import (
    DimensionError,
    DivergenceError,
    ParameterError,
    SolverConfig,
    SymmetricMatrix,
    WeightVector,
    augmented_lagrangian,
    components,
    degree_op,
    init_weights,
    laplacian_adj,
    laplacian_op,
    learn_connected_gaussian,
    learn_connected_t,
    learn_k_component_gaussian,
    learn_kt,
    planted_k_component,
    sample_lgmrf,
    sample_student_t,
    similarity,
    weighted_scatter,
)
from marketgraph import solvers
from marketgraph.operators import degree_adj, edge_count
from marketgraph.spectral import DEFAULT_RANK_TOL

from conftest import partitions_equal, sinkhorn_degrees


def correlation_of(X):
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / X.shape[0]
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


class TestInitWeights:
    def test_identity_gives_zero(self):
        w = init_weights(np.eye(4))
        np.testing.assert_array_equal(np.asarray(w), np.zeros(6))

    def test_negate_mode_projection(self):
        # pinv of this S has a negative entry at edge (1, 0), which the
        # readout negates into a positive weight; a positive entry projects to 0
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        P = np.linalg.pinv(S)
        assert P[1, 0] < 0
        assert np.asarray(init_weights(S))[0] == pytest.approx(-P[1, 0])
        assert np.asarray(init_weights(np.array([[2.0, -1.0], [-1.0, 2.0]])))[0] == 0.0

    def test_matches_direct_pinv_readout(self, rng):
        X = rng.standard_normal((200, 3))
        S = correlation_of(X)
        P = np.linalg.pinv(S)
        w = np.asarray(init_weights(S))
        expected = np.maximum([-P[1, 0], -P[2, 0], -P[2, 1]], 0.0)
        # both a kept and a projected entry, so the readout's sign is pinned
        assert np.any(expected > 0) and np.any(expected == 0)
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_asymmetric_plain_array_rejected(self, monkeypatch):
        # pinv(hermitian=True) reads only the lower triangle, so without the
        # check this S would give the weights of its symmetrization
        S = np.array([[2.0, 1.0, 0.0], [0.5, 2.0, 1.0], [0.0, 0.2, 2.0]])
        with pytest.raises(DimensionError, match="asymmetric"):
            init_weights(S)
        # the bound is SymmetricMatrix's: 1e-9 relative to the largest entry
        S = correlation_of(np.random.default_rng(5).standard_normal((300, 4)))
        E = np.zeros((4, 4))
        E[1, 0] = 1.0
        with pytest.raises(DimensionError):
            init_weights(S + 1e-8 * E)
        expected = np.asarray(init_weights(S))
        np.testing.assert_allclose(np.asarray(init_weights(S + 1e-10 * E)), expected, atol=1e-8)
        # a SymmetricMatrix passed the check when it was built: not checked again
        M = SymmetricMatrix(S)

        def refuse(_):
            raise AssertionError("SymmetricMatrix checked again")

        monkeypatch.setattr(solvers, "_check_symmetric", refuse)
        np.testing.assert_array_equal(np.asarray(init_weights(M)), expected)


class TestInnerUpdate:
    @staticmethod
    def _w_step(w, theta, Y, y, S, cfg):
        # the solver's Gaussian w-update at the default degree target
        p = theta.shape[0]
        return solvers._w_step(
            np.asarray(w, dtype=float), theta, Y, y, cfg.resolved_degrees(p), cfg.rho, cfg, S=S
        )

    def _subproblem_objective(self, w, S, theta, Y, y, d, rho):
        # rho/2 w'(dd* + LL*)w + <w, L*(S - Y - rho theta) + d*(y - rho d)>
        p = theta.shape[0]
        Lw = np.asarray(laplacian_op(WeightVector(w, p)))
        quad = np.sum(Lw * Lw) + float(degree_op(WeightVector(w, p)) @ degree_op(WeightVector(w, p)))
        lin = float(w @ (laplacian_adj(S - Y - rho * theta) + degree_adj(y - rho * d)))
        return rho / 2 * quad + lin

    def test_fixed_point_when_gradient_vanishes(self):
        # at w = 0 with S = Y, theta = 0, y = rho*d the gradient is zero
        p = 4
        w = WeightVector(np.zeros(edge_count(p)), p)
        S = np.eye(p)
        cfg = SolverConfig(rho=1.0)
        out = self._w_step(
            w, np.zeros((p, p)), S, cfg.rho * np.ones(p), S, cfg
        )
        # gradient at zero: L*(S - S) + d*(rho*1 - rho*1) = 0
        np.testing.assert_array_equal(np.asarray(out), np.zeros(edge_count(p)))

    def test_single_step_arithmetic(self):
        # p=3, rho=1: denominator 2*rho*(2p-1) = 10.  With theta = L(w),
        # Y = 0, y = 0, d = degrees(w), the gradient reduces to L*(S);
        # S = 5I gives L*(S) = (10, 10, 10), so one step sends w to zero.
        p = 3
        w = WeightVector(np.ones(3), p)
        theta = np.asarray(laplacian_op(w))
        d = degree_op(w)
        cfg = SolverConfig(rho=1.0, inner_iter=1)
        out = self._w_step(w, theta, np.zeros((p, p)), np.zeros(p), 5 * np.eye(p), cfg)
        np.testing.assert_allclose(np.asarray(out), np.zeros(3), atol=1e-15)

    def test_matches_long_run_projected_gradient_oracle(self, rng):
        p = 4
        m = edge_count(p)
        S = correlation_of(rng.standard_normal((100, p)))
        theta = np.asarray(laplacian_op(WeightVector(rng.uniform(0, 1, m), p)))
        Y = rng.standard_normal((p, p))
        Y = (Y + Y.T) / 2
        y = rng.standard_normal(p)
        d = np.ones(p)
        rho = 1.0

        # oracle: 1e5 tiny projected-gradient steps at learning rate 1e-4
        w_o = rng.uniform(0, 1, m)
        lin = laplacian_adj(S - Y - rho * theta) + degree_adj(y - rho * d)
        for _ in range(100_000):
            Lw = np.asarray(laplacian_op(WeightVector(w_o, p)))
            grad = lin + rho * (laplacian_adj(Lw) + degree_adj(degree_op(WeightVector(w_o, p))))
            w_o = np.maximum(w_o - 1e-4 * grad, 0.0)

        cfg = SolverConfig(rho=rho, inner_iter=5000, tol=1e-10)
        w_f = np.asarray(
            self._w_step(WeightVector(np.full(m, 0.5), p), theta, Y, y, S, cfg)
        )
        np.testing.assert_allclose(w_f, w_o, atol=1e-6)

    def test_inner_iterates_never_increase_objective(self, rng):
        p = 5
        m = edge_count(p)
        S = correlation_of(rng.standard_normal((50, p)))
        theta = np.asarray(laplacian_op(WeightVector(rng.uniform(0, 1, m), p)))
        Y = np.zeros((p, p))
        y = rng.standard_normal(p)
        d = np.ones(p)
        rho = 2.0
        w = np.full(m, 0.3)
        prev = self._subproblem_objective(w, S, theta, Y, y, d, rho)
        cfg = SolverConfig(rho=rho, inner_iter=1, tol=1e-12)
        for _ in range(30):
            w = np.asarray(
                self._w_step(WeightVector(w, p), theta, Y, y, S, cfg)
            )
            cur = self._subproblem_objective(w, S, theta, Y, y, d, rho)
            assert cur <= prev + 1e-12
            prev = cur


class TestWeightedScatter:
    def test_zero_weights(self, rng):
        X = rng.standard_normal((40, 5))
        n, p = X.shape
        nu = 4.0
        out = np.asarray(weighted_scatter(X, np.zeros(edge_count(p)), nu))
        np.testing.assert_allclose(out, (p + nu) / nu * X.T @ X / n, atol=1e-12)

    def test_large_nu_limit(self, rng):
        X = rng.standard_normal((60, 4))
        w = rng.uniform(0, 1, 6)
        out = np.asarray(weighted_scatter(X, w, 1e6))
        base = X.T @ X / X.shape[0]
        assert np.linalg.norm(out - base) / np.linalg.norm(base) < 1e-4

    def test_single_observation_unit_weight(self):
        # an observation with x^T L(w) x = p gets per-observation weight
        # (p + nu)/(p + nu) = 1, so the scatter is exactly its outer product
        p = 3
        w = np.array([1.0, 0.0, 0.0])
        x = np.array([1.0, -1.0, 0.5])
        q = (x[0] - x[1]) ** 2 * w[0]
        x *= np.sqrt(p / q)
        X = x[None, :]
        assert abs((X[0, 0] - X[0, 1]) ** 2 * w[0] - p) < 1e-12
        out = np.asarray(weighted_scatter(X, w, nu=5.0))
        np.testing.assert_allclose(out, np.outer(X[0], X[0]), atol=1e-12)

    def test_rejects_bad_nu(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ParameterError):
            weighted_scatter(X, np.zeros(3), 2.0)


def make_connected_fixture(p=8, n=1500, seed=5):
    g = planted_k_component(p, 1, 0.5, (0.5, 2.0), seed=seed)
    w_true = sinkhorn_degrees(np.asarray(g.weights), p, np.ones(p))
    L_true = np.asarray(laplacian_op(WeightVector(w_true, p)))
    X = sample_lgmrf(L_true, n, seed=seed + 1)
    return w_true, L_true, X


class TestConnectedGaussian:
    def test_contracts_on_lgmrf_data(self):
        w_true, L_true, X = make_connected_fixture()
        S = correlation_of(X)
        est = learn_connected_gaussian(S, SolverConfig(), [f"a{i}" for i in range(8)])
        assert est.converged
        L = np.asarray(est.laplacian)
        p = L.shape[0]
        np.testing.assert_allclose(L @ np.ones(p), 0.0, atol=1e-8)
        assert np.all(L[~np.eye(p, dtype=bool)] <= 1e-15)
        assert np.min(np.linalg.eigvalsh(L)) >= -1e-8
        assert est.trace.r_norm[-1] <= est.config.tol
        assert est.trace.s_norm[-1] <= est.config.tol
        np.testing.assert_allclose(degree_op(est.weights), 1.0, atol=1e-4)
        # estimate must beat the initializer
        rel = np.linalg.norm(L - L_true) / np.linalg.norm(L_true)
        w0 = init_weights(S)
        rel0 = np.linalg.norm(np.asarray(laplacian_op(w0)) - L_true) / np.linalg.norm(L_true)
        assert rel < rel0

    def test_laplacian_equals_operator_of_weights(self):
        _, _, X = make_connected_fixture(p=6, n=800, seed=9)
        est = learn_connected_gaussian(correlation_of(X))
        np.testing.assert_array_equal(
            np.asarray(est.laplacian), np.asarray(laplacian_op(est.weights))
        )

    def test_determinism_bitwise(self):
        _, _, X = make_connected_fixture(p=6, n=500, seed=13)
        S = correlation_of(X)
        a = learn_connected_gaussian(S)
        b = learn_connected_gaussian(S)
        assert np.array_equal(np.asarray(a.weights), np.asarray(b.weights))
        assert np.array_equal(a.trace.lagrangian, b.trace.lagrangian)
        assert np.array_equal(a.trace.r_norm, b.trace.r_norm)

    def test_dual_updates_replay_exactly(self):
        _, _, X = make_connected_fixture(p=6, n=500, seed=17)
        S = correlation_of(X)
        snaps = []
        learn_connected_gaussian(
            S, SolverConfig(max_iter=40), callback=lambda it, s: snaps.append(s)
        )
        for prev, cur in zip(snaps, snaps[1:]):
            rho = prev["rho"]
            np.testing.assert_array_equal(cur["Y"], prev["Y"] + rho * cur["r"])
            np.testing.assert_array_equal(cur["y"], prev["y"] + rho * cur["s"])

    def test_divergence_error_reports_iteration(self, monkeypatch):
        from marketgraph import solvers as solvers_mod

        def bad_inner(w, *args, **kwargs):
            return np.full_like(w, np.nan)

        monkeypatch.setattr(solvers_mod._kernels, "mm_inner_gaussian", bad_inner)
        _, _, X = make_connected_fixture(p=5, n=300, seed=3)
        with pytest.raises(DivergenceError) as err:
            learn_connected_gaussian(correlation_of(X))
        assert err.value.iteration == 1

    @pytest.mark.parametrize("learn", [learn_connected_gaussian, learn_k_component_gaussian])
    def test_non_symmetric_similarity_rejected(self, learn):
        # the data term would read (S + S^T)/2 and the start only S's lower
        # triangle, so an asymmetric S is refused before the first iteration
        calls = []
        with pytest.raises(DimensionError, match="asymmetric"):
            learn(np.arange(9.0).reshape(3, 3), callback=lambda it, s: calls.append(it))
        assert calls == []
        # the bound is SymmetricMatrix's: 1e-9 relative to the largest entry
        S = correlation_of(make_connected_fixture(p=4, n=300, seed=3)[2])
        E = np.zeros((4, 4))
        E[1, 0] = 1.0
        with pytest.raises(DimensionError):
            learn(S + 1e-8 * E, SolverConfig(k=2, max_iter=1))
        assert learn(S + 1e-10 * E, SolverConfig(k=2, max_iter=1)).iterations == 1


    @pytest.mark.parametrize("seed", [3, 10, 17, 22, 25, 26, 31])
    def test_small_scale_covariances_give_finite_weights(self, seed):
        # covariances of 2-30 rows; these seeds draw column scales of 1e-8 to
        # 6e-5.  The log-det prox maps strongly negative eigenvalues to tiny
        # positive ones, which must not round to zero
        rng = np.random.default_rng(seed)
        p = rng.integers(2, 8)
        n = rng.integers(2, 31)
        scale = 10 ** rng.uniform(-8, 8)
        S = np.cov((rng.standard_normal((n, p)) * scale).T, bias=True)
        est = learn_connected_gaussian(S, SolverConfig(max_iter=50))
        w = np.asarray(est.weights)
        assert np.all(np.isfinite(w)) and np.all(w >= 0)
        assert np.all(est.trace.eta == 0.0)


class TestKComponentGaussian:
    def test_nullity_and_partition(self):
        g = planted_k_component(18, 3, 0.6, (0.5, 2.0), seed=2)
        L_true = np.asarray(laplacian_op(g.weights))
        X = sample_lgmrf(L_true, 2000, seed=3)
        est = learn_k_component_gaussian(correlation_of(X), SolverConfig(k=3))
        assert est.converged
        lam = np.linalg.eigvalsh(np.asarray(est.laplacian))
        assert int(np.sum(lam < DEFAULT_RANK_TOL * lam[-1])) == 3
        np.testing.assert_allclose(degree_op(est.weights), 1.0, atol=1e-4)

    def test_k1_has_single_zero_eigenvalue(self):
        _, _, X = make_connected_fixture(p=7, n=900, seed=23)
        est = learn_k_component_gaussian(correlation_of(X), SolverConfig(k=1))
        lam = np.linalg.eigvalsh(np.asarray(est.laplacian))
        assert int(np.sum(lam < DEFAULT_RANK_TOL * lam[-1])) == 1

    def test_eta_resolved_in_config_snapshot(self):
        _, _, X = make_connected_fixture(p=6, n=600, seed=29)
        S = correlation_of(X)
        est = learn_k_component_gaussian(S, SolverConfig(k=2))
        assert est.config.eta == pytest.approx(100 * np.mean(np.abs(S)))

    @pytest.mark.parametrize("p, k", [(200, 4), (100, 2)])
    def test_recovers_planted_partition_at_scale(self, p, k):
        g = planted_k_component(p, k, 0.3, seed=4)
        S = similarity(sample_lgmrf(laplacian_op(g.weights), 20 * p, seed=4))
        est = learn_k_component_gaussian(S, SolverConfig(k=k))
        assert est.converged
        assert partitions_equal(components(est.weights), g.partition.labels)

    def test_eta_starts_at_snapshot_and_moves_in_powers_of_two(self):
        g = planted_k_component(40, 2, 0.3, seed=4)
        S = similarity(sample_lgmrf(laplacian_op(g.weights), 800, seed=4))
        # a tenth of the default eta, so L(w) starts with fewer than k zero eigenvalues
        eta = 0.1 * 100 * float(np.mean(np.abs(S)))
        est = learn_k_component_gaussian(S, SolverConfig(k=2, eta=eta, max_iter=25))
        ratio = est.trace.eta / est.config.eta
        assert ratio[0] == 1.0
        assert ratio[-1] > 1.0  # fewer than k zero eigenvalues doubled eta
        np.testing.assert_array_equal(ratio, 2.0 ** np.round(np.log2(ratio)))

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ParameterError):
            learn_k_component_gaussian(np.eye(4), SolverConfig(k=4))
        # positive degree targets leave no isolated node: k <= p // 2
        with pytest.raises(ParameterError):
            learn_k_component_gaussian(np.eye(4), SolverConfig(k=3))
        X = np.random.default_rng(0).standard_normal((50, 8))
        with pytest.raises(ParameterError):
            learn_kt(X, SolverConfig(k=7, nu=4.0))

    def test_rank_deficient_similarity_gives_finite_warm_start(self):
        # the correlation of this k=4 graph has rank p - k; without a rank
        # cut-off in init_weights a round-off null eigenvalue of S reached
        # the warm start and the first iteration raised EvaluationError
        seed = 5395249943
        truth = planted_k_component(200, 4, 0.3, seed=seed).weights
        S = similarity(sample_lgmrf(laplacian_op(truth), 4000, seed))
        est = learn_k_component_gaussian(S, SolverConfig(k=4, max_iter=1))
        assert est.iterations == 1


class TestStudentT:
    def test_requires_nu(self):
        with pytest.raises(ParameterError):
            learn_connected_t(np.random.default_rng(0).standard_normal((50, 4)))

    def test_rejects_small_nu(self):
        with pytest.raises(ParameterError):
            learn_connected_t(
                np.random.default_rng(0).standard_normal((50, 4)), SolverConfig(nu=2.0)
            )

    def test_converged_estimate_satisfies_degree_constraint(self):
        from marketgraph import sample_student_t

        g = planted_k_component(8, 1, 0.5, seed=31)
        w_true = sinkhorn_degrees(np.asarray(g.weights), 8, np.ones(8))
        L_true = np.asarray(laplacian_op(WeightVector(w_true, 8)))
        X = sample_student_t(L_true, 4.0, 1200, seed=32)
        est = learn_connected_t(X, SolverConfig(nu=4.0))
        assert est.converged
        np.testing.assert_allclose(degree_op(est.weights), 1.0, atol=1e-4)

    def test_kt_k1_matches_connected_component_count(self):
        from marketgraph import component_count, sample_student_t

        g = planted_k_component(8, 1, 0.6, seed=37)
        L_true = np.asarray(laplacian_op(g.weights))
        X = sample_student_t(L_true, 5.0, 1500, seed=38)
        kt = learn_kt(X, SolverConfig(k=1, nu=5.0))
        ct = learn_connected_t(X, SolverConfig(nu=5.0))
        assert component_count(kt.weights) == component_count(ct.weights) == 1


class TestStudentTMemory:
    # p=100, n=2000: one n x m array of per-edge values would take
    # n * p(p-1)/2 * 8 bytes = 75.5 MiB; the Student-t paths need O(n p + p^2)
    P, N = 100, 2000
    BOUND_MIB = 10.0

    @pytest.fixture
    def data(self):
        X = np.random.default_rng(0).standard_normal((self.N, self.P))
        w = np.full(edge_count(self.P), 1.0 / (self.P - 1))
        return X, w

    def _peak_mib(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_solve_peak(self, data):
        X, _ = data
        peak = self._peak_mib(lambda: learn_connected_t(X, SolverConfig(nu=4.0, max_iter=2)))
        assert peak < self.BOUND_MIB

    def test_weighted_scatter_peak(self, data):
        X, w = data
        assert self._peak_mib(lambda: weighted_scatter(X, w, 4.0)) < self.BOUND_MIB

    def test_augmented_lagrangian_peak(self, data):
        X, w = data
        p = self.P
        theta, Y = SymmetricMatrix(np.eye(p)), SymmetricMatrix(np.zeros((p, p)))
        peak = self._peak_mib(lambda: augmented_lagrangian(
            theta, Y, np.zeros(p), WeightVector(w, p), X, SolverConfig(nu=4.0), "connected-t"))
        assert peak < self.BOUND_MIB


class TestPermutationEquivariance:
    """Relabelling the assets relabels the estimate."""

    P, N = 40, 800

    @pytest.mark.parametrize("method", ["connected-gaussian", "k-gaussian", "connected-t", "kt"])
    def test_permuted_input_gives_permuted_graph(self, method):
        k = 2 if method in ("k-gaussian", "kt") else 1
        g = planted_k_component(self.P, k, 0.3, seed=4)
        L = laplacian_op(g.weights)
        perm = np.random.default_rng(7).permutation(self.P)
        if method in ("connected-t", "kt"):
            X = sample_student_t(L, 4.0, self.N, seed=4)
            learn = learn_kt if k > 1 else learn_connected_t
            cfg = SolverConfig(k=k, nu=4.0)
            est = learn(X, cfg)
            est_perm = learn(X[:, perm], cfg)
        else:
            S = np.asarray(similarity(sample_lgmrf(L, self.N, seed=4)))
            learn = learn_k_component_gaussian if k > 1 else learn_connected_gaussian
            cfg = SolverConfig(k=k)
            est = learn(S, cfg)
            est_perm = learn(S[np.ix_(perm, perm)], cfg)
        assert est.converged and est_perm.converged
        assert est_perm.iterations == est.iterations
        A = np.asarray(est.adjacency)
        np.testing.assert_allclose(
            np.asarray(est_perm.adjacency), A[np.ix_(perm, perm)], rtol=0, atol=1e-12
        )


class TestAugmentedLagrangian:
    def test_feasible_state_equals_objective(self):
        # with theta = L(w) and degrees(w) = d, all penalty terms vanish
        p = 6
        g = planted_k_component(p, 1, 0.8, seed=41)
        w = sinkhorn_degrees(np.asarray(g.weights), p, np.ones(p))
        wv = WeightVector(w, p)
        L = np.asarray(laplacian_op(wv))
        S = np.eye(p)
        cfg = SolverConfig(rho=3.0)
        value = augmented_lagrangian(
            SymmetricMatrix(L), SymmetricMatrix(np.ones((p, p))), np.arange(p, dtype=float),
            wv, S, cfg, "connected-gaussian",
        )
        J = np.full((p, p), 1.0 / p)
        expected = float(laplacian_adj(S) @ w) - np.linalg.slogdet(L + J)[1]
        assert value == pytest.approx(expected, abs=1e-9)

    def test_doubling_rho_at_feasible_state_is_invariant(self):
        p = 5
        g = planted_k_component(p, 1, 0.9, seed=43)
        w = sinkhorn_degrees(np.asarray(g.weights), p, np.ones(p))
        wv = WeightVector(w, p)
        L = np.asarray(laplacian_op(wv))
        state = (SymmetricMatrix(L), SymmetricMatrix(np.zeros((p, p))), np.zeros(p))
        v1 = augmented_lagrangian(*state, wv, np.eye(p), SolverConfig(rho=1.0), "connected-gaussian")
        v2 = augmented_lagrangian(*state, wv, np.eye(p), SolverConfig(rho=2.0), "connected-gaussian")
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_matches_trace_value(self):
        _, _, X = make_connected_fixture(p=6, n=700, seed=47)
        S = correlation_of(X)
        snaps = []
        est = learn_connected_gaussian(
            S, SolverConfig(max_iter=25), callback=lambda it, s: snaps.append(s)
        )
        last = snaps[-1]
        value = augmented_lagrangian(
            SymmetricMatrix(last["theta"]), SymmetricMatrix(last["Y"]), last["y"],
            WeightVector(last["w"], 6), S, est.config, "connected-gaussian",
        )
        assert value == pytest.approx(est.trace.lagrangian[-1], rel=1e-12)

    def test_matches_trace_value_student(self):
        _, _, X = make_connected_fixture(p=6, n=700, seed=47)
        snaps = []
        est = learn_connected_t(
            X, SolverConfig(nu=4.0, max_iter=25), callback=lambda it, s: snaps.append(s)
        )
        last = snaps[-1]
        value = augmented_lagrangian(
            SymmetricMatrix(last["theta"]), SymmetricMatrix(last["Y"]), last["y"],
            WeightVector(last["w"], 6), X, est.config, "connected-t",
        )
        assert value == pytest.approx(est.trace.lagrangian[-1], rel=1e-12)

    def test_matches_trace_value_k_component(self):
        # eta adapts during the solve; the trace records the value each
        # iteration's Lagrangian used
        g = planted_k_component(40, 2, 0.3, seed=4)
        S = similarity(sample_lgmrf(laplacian_op(g.weights), 800, seed=4))
        snaps = []
        # a tenth of the default eta, so eta has to move
        eta = 0.1 * 100 * float(np.mean(np.abs(S)))
        est = learn_k_component_gaussian(
            S, SolverConfig(k=2, eta=eta, max_iter=25), callback=lambda it, s: snaps.append(s)
        )
        assert est.trace.eta[-1] != est.config.eta
        # every row, so the rows where eta changed are covered too
        for snap, eta, lagrangian in zip(snaps, est.trace.eta, est.trace.lagrangian):
            value = augmented_lagrangian(
                SymmetricMatrix(snap["theta"]), SymmetricMatrix(snap["Y"]), snap["y"],
                WeightVector(snap["w"], 40), S, replace(est.config, eta=eta), "k-gaussian",
            )
            assert value == pytest.approx(lagrangian, rel=1e-12)

    def test_kcomponent_requires_enough_positive_eigenvalues(self):
        from marketgraph import EvaluationError

        p = 5
        cfg = SolverConfig(rho=1.0, k=1, eta=1.0)
        zero = SymmetricMatrix(np.zeros((p, p)))
        w = WeightVector(np.zeros(edge_count(p)), p)
        with pytest.raises(EvaluationError):
            augmented_lagrangian(zero, zero, np.zeros(p), w, np.eye(p), cfg, "k-gaussian",
                                 V=np.eye(p)[:, :1])
