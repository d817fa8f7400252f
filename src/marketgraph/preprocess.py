"""Preparation of multivariate time-series data for graph estimation.

Log-returns from price panels, column scaling, similarity matrices
(covariance, correlation, normalized mutual information) and removal of the
dominant common factor.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .operators import SymmetricMatrix, _as_matrix
from .spectral import eigendecompose

__all__ = [
    "ReturnsMatrix",
    "SimilaritySpec",
    "log_returns",
    "scale_columns",
    "similarity",
    "remove_market",
]

SIMILARITY_KINDS = ("covariance", "correlation", "nmi")

# Squared correlations are capped below 1 before the NMI log: the formula is
# singular for perfectly correlated pairs.
_NMI_CLIP = 1.0 - 1e-12


@dataclass(frozen=True)
class ReturnsMatrix:
    """An n x p panel of returns with asset names and optional timestamps.

    Asset names must be distinct: graph outputs and label files refer to
    nodes by name.
    """

    values: np.ndarray
    names: list
    timestamps: list | None = None

    def __post_init__(self):
        X = np.asarray(self.values, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
            raise DataError(f"returns matrix must be at least 2x2, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise DataError("returns matrix contains non-finite entries")
        names = [str(s) for s in self.names]
        if len(names) != X.shape[1]:
            raise DataError(f"{len(names)} names for {X.shape[1]} columns")
        repeated = [s for s, count in Counter(names).items() if count > 1]
        if repeated:
            raise DataError(f"asset name {repeated[0]!r} appears more than once")
        if self.timestamps is not None and len(self.timestamps) != X.shape[0]:
            raise DataError("timestamp count does not match row count")
        object.__setattr__(self, "values", X)
        object.__setattr__(self, "names", names)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


@dataclass(frozen=True)
class SimilaritySpec:
    """How to turn a returns panel into a similarity matrix.

    correlation and nmi imply unit-variance scaling; covariance honors the
    scaled flag.  market_removed zeroes the top eigenvalue of the result.
    """

    kind: str = "correlation"
    market_removed: bool = False
    scaled: bool = False

    def __post_init__(self):
        if self.kind not in SIMILARITY_KINDS:
            raise ParameterError(
                f"unknown similarity kind {self.kind!r}; expected one of {SIMILARITY_KINDS}"
            )


def _as_returns(X):
    if isinstance(X, ReturnsMatrix):
        return X
    X = np.asarray(X, dtype=float)
    return ReturnsMatrix(X, [f"v{j}" for j in range(X.shape[1])])


def log_returns(P, names=None, timestamps=None):
    """Log-differences of a positive price panel, row i minus row i-1.

    Raises DataError naming the first offending (row, column) if any price is
    not strictly positive.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise DataError("price matrix must be 2-d (observations x assets)")
    bad = ~(np.isfinite(P) & (P > 0))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise DataError(f"nonpositive or non-finite price at row {i}, column {j}")
    X = np.diff(np.log(P), axis=0)
    if names is None:
        names = [f"v{j}" for j in range(P.shape[1])]
    ts = list(timestamps)[1:] if timestamps is not None else None
    return ReturnsMatrix(X, names, ts)


def _column_variances(X):
    # denominator n, consistent with the covariance convention below
    Xc = X - X.mean(axis=0)
    return np.mean(Xc * Xc, axis=0)


def scale_columns(X):
    "Rescale each column to unit variance (denominator n)."
    rm = _as_returns(X)
    var = _column_variances(rm.values)
    if np.any(var <= 0):
        j = int(np.flatnonzero(var <= 0)[0])
        raise DataError(f"column {j} ({rm.names[j]}) has zero variance")
    return ReturnsMatrix(rm.values / np.sqrt(var), rm.names, rm.timestamps)


def _covariance(X):
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / X.shape[0]


def similarity(X, spec=None):
    """Similarity matrix of a returns panel under a SimilaritySpec.

    covariance: sample covariance (denominator n), optionally of the
    unit-variance-scaled panel.  correlation: covariance normalized to unit
    diagonal.  nmi: normalized mutual information under a Gaussian
    assumption, -0.5 log(1 - corr^2) off the diagonal and 1 on it.
    """
    rm = _as_returns(X)
    spec = spec or SimilaritySpec()
    needs_scale = spec.kind in ("correlation", "nmi") or spec.scaled
    if needs_scale:
        rm = scale_columns(rm)
    S = _covariance(rm.values)
    if spec.kind in ("correlation", "nmi"):
        dd = np.sqrt(np.diag(S))
        S = S / np.outer(dd, dd)
    if spec.kind == "nmi":
        C2 = np.clip(S * S, 0.0, _NMI_CLIP)
        S = -0.5 * np.log(1.0 - C2)
        np.fill_diagonal(S, 1.0)
    out = SymmetricMatrix(S)
    if spec.market_removed:
        out = remove_market(out)
    return out


def remove_market(S):
    """Zero the largest eigenvalue of S, leaving the rest of the spectrum.

    Removes the dominant common component (the market factor, whose
    eigenvector is near-constant for correlated asset panels).
    """
    S = _as_matrix(S)
    lam, U = eigendecompose(S)
    lam[-1] = 0.0
    return SymmetricMatrix((U * lam) @ U.T)
