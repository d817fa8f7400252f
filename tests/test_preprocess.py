import numpy as np
import pytest

from marketgraph import (
    DataError,
    ReturnsMatrix,
    SimilaritySpec,
    log_returns,
    remove_market,
    scale_columns,
    similarity,
)


class TestLogReturns:
    def test_geometric_prices(self):
        P = np.array([[1.0], [np.e], [np.e**2]])
        # single asset would violate the p >= 2 contract; use two copies
        P = np.hstack([P, P])
        out = log_returns(P)
        np.testing.assert_allclose(out.values, np.ones((2, 2)), atol=1e-12)

    def test_constant_prices(self):
        P = np.full((5, 3), 7.0)
        np.testing.assert_allclose(log_returns(P).values, 0.0, atol=1e-15)

    def test_matches_hand_computed_differences(self):
        P = np.array([[100.0, 50.0], [110.0, 48.0], [105.0, 51.0]])
        expected = np.array(
            [
                [np.log(110.0) - np.log(100.0), np.log(48.0) - np.log(50.0)],
                [np.log(105.0) - np.log(110.0), np.log(51.0) - np.log(48.0)],
            ]
        )
        np.testing.assert_allclose(log_returns(P).values, expected, atol=1e-12)

    def test_nonpositive_price_locates_cell(self):
        P = np.array([[1.0, 2.0], [3.0, -1.0], [4.0, 5.0]])
        with pytest.raises(DataError, match="row 1, column 1"):
            log_returns(P)

    def test_timestamps_shift_by_one(self):
        P = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        out = log_returns(P, names=["a", "b"], timestamps=["d0", "d1", "d2"])
        assert out.timestamps == ["d1", "d2"]


class TestScaleColumns:
    def test_halves_variance_four_column(self, rng):
        X = rng.standard_normal((400, 2))
        X[:, 0] *= 2.0
        out = scale_columns(X)
        var = np.mean((out.values - out.values.mean(0)) ** 2, axis=0)
        np.testing.assert_allclose(var, 1.0, atol=1e-12)

    def test_unit_variance_unchanged(self, rng):
        X = rng.standard_normal((300, 3))
        Xc = X - X.mean(0)
        X = Xc / np.sqrt(np.mean(Xc * Xc, axis=0))
        out = scale_columns(X)
        np.testing.assert_allclose(out.values, X, atol=1e-12)

    def test_zero_variance_rejected(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        with pytest.raises(DataError, match="column 0"):
            scale_columns(X)

    def test_correlation_of_scaled_equals_covariance_of_scaled(self, rng):
        X = rng.standard_normal((250, 4)) * np.array([1.0, 3.0, 0.2, 7.0])
        scaled = scale_columns(X)
        corr = np.asarray(similarity(scaled, SimilaritySpec("correlation")))
        cov = np.asarray(similarity(scaled, SimilaritySpec("covariance")))
        np.testing.assert_allclose(corr, cov, atol=1e-12)


class TestSimilarity:
    def test_correlation_unit_diagonal_and_range(self, rng):
        X = rng.standard_normal((150, 5)) @ rng.standard_normal((5, 5))
        S = np.asarray(similarity(X, SimilaritySpec("correlation")))
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-12)
        assert np.all(S <= 1 + 1e-12) and np.all(S >= -1 - 1e-12)

    def test_nmi_zero_correlation_maps_to_zero(self):
        # orthogonal columns: correlation 0 -> nmi 0
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        S = np.asarray(similarity(X, SimilaritySpec("nmi")))
        assert abs(S[0, 1]) < 1e-12
        np.testing.assert_allclose(np.diag(S), 1.0)

    def test_nmi_formula_inversion_point(self, rng):
        # corr^2 = 1 - e^-2  ->  nmi = 1
        target = np.sqrt(1 - np.exp(-2.0))
        n = 4000
        z = np.random.default_rng(7).standard_normal((n, 2))
        X = np.stack([z[:, 0], target * z[:, 0] + np.sqrt(1 - target**2) * z[:, 1]], axis=1)
        S = np.asarray(similarity(X, SimilaritySpec("correlation")))
        nmi = np.asarray(similarity(X, SimilaritySpec("nmi")))
        expected = -0.5 * np.log(1 - S[0, 1] ** 2)
        assert nmi[0, 1] == pytest.approx(expected, abs=1e-12)
        assert nmi[0, 1] == pytest.approx(1.0, abs=0.1)

    def test_identical_columns(self, rng):
        x = rng.standard_normal(100)
        X = np.stack([x, x], axis=1)
        corr = np.asarray(similarity(X, SimilaritySpec("correlation")))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
        nmi = np.asarray(similarity(X, SimilaritySpec("nmi")))
        assert np.isfinite(nmi[0, 1])  # clipped, not infinite

    def test_nmi_symmetric_nonnegative_monotone(self, rng):
        X = rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6))
        S = np.asarray(similarity(X, SimilaritySpec("correlation")))
        nmi = np.asarray(similarity(X, SimilaritySpec("nmi")))
        np.testing.assert_allclose(nmi, nmi.T, atol=1e-14)
        off = ~np.eye(6, dtype=bool)
        assert np.all(nmi[off] >= 0)
        # monotone in |corr|
        order_corr = np.argsort(np.abs(S[off]))
        order_nmi = np.argsort(nmi[off])
        np.testing.assert_array_equal(order_corr, order_nmi)

    def test_market_removed_flag_matches_remove_market(self, rng):
        X = rng.standard_normal((200, 4))
        direct = np.asarray(
            similarity(X, SimilaritySpec("correlation", market_removed=True))
        )
        two_step = np.asarray(remove_market(similarity(X, SimilaritySpec("correlation"))))
        np.testing.assert_allclose(direct, two_step, atol=1e-14)

    def test_unknown_kind_rejected(self):
        from marketgraph import ParameterError

        with pytest.raises(ParameterError):
            SimilaritySpec("mutual-info")


class TestRemoveMarket:
    def test_rank_one_becomes_zero(self, rng):
        v = rng.standard_normal(5)
        S = np.outer(v, v)
        np.testing.assert_allclose(np.asarray(remove_market(S)), 0.0, atol=1e-10)

    def test_identity_trace_drops_by_top_eigenvalue(self):
        out = np.asarray(remove_market(np.eye(4)))
        assert np.trace(out) == pytest.approx(3.0, abs=1e-12)
        lam = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(lam, [0.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_remaining_spectrum_unchanged(self, rng):
        A = rng.standard_normal((6, 6))
        S = A @ A.T
        lam = np.linalg.eigvalsh(S)
        out = np.linalg.eigvalsh(np.asarray(remove_market(S)))
        np.testing.assert_allclose(out, np.concatenate([[0.0], lam[:-1]]), atol=1e-9)

    def test_applying_twice_removes_two_factors(self, rng):
        A = rng.standard_normal((5, 5))
        S = A @ A.T
        lam = np.linalg.eigvalsh(S)
        twice = np.asarray(remove_market(remove_market(S)))
        assert np.trace(twice) == pytest.approx(lam[:-2].sum(), abs=1e-9)


class TestReturnsMatrix:
    def test_rejects_nonfinite(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(DataError):
            ReturnsMatrix(X, ["a", "b"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="'b'"):
            ReturnsMatrix(np.eye(3), ["a", "b", "b"])

    def test_rejects_tiny_panels(self):
        with pytest.raises(DataError):
            ReturnsMatrix(np.ones((1, 3)), ["a", "b", "c"])
