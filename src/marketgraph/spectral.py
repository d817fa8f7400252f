"""Eigendecomposition-backed building blocks.

The log-det proximal operator (full-rank and rank-restricted), the trace-
minimizing subspace of the k smallest eigenvalues, pseudo-inverse square
roots for sampling, and spectral diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NumericalError, ParameterError
from .operators import SymmetricMatrix, _as_matrix

__all__ = [
    "ProxMatrix",
    "SubspaceMatrix",
    "eigendecompose",
    "prox_logdet",
    "prox_logdet_rank",
    "fan_subspace",
    "psd_sqrt_pinv",
    "spectral_diagnostics",
]

DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class ProxMatrix(SymmetricMatrix):
    """Output of the log-det prox together with its mapped eigenvalues x.

    eigenvalues holds the positive eigenvalues x the prox assigned, ascending:
    all p of them for :func:`prox_logdet`, the p - k nonzero ones for
    :func:`prox_logdet_rank`.
    """

    eigenvalues: np.ndarray


@dataclass(frozen=True)
class SubspaceMatrix:
    """p x k matrix with orthonormal columns.

    eigenvalues, when the subspace was read off a decomposition, holds all
    eigenvalues of the decomposed matrix, ascending.
    """

    columns: np.ndarray
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        V = np.asarray(self.columns, dtype=float)
        k = V.shape[1]
        gram_gap = np.max(np.abs(V.T @ V - np.eye(k)))
        if gram_gap > 1e-8:
            raise NumericalError(f"columns not orthonormal: |V^T V - I| = {gram_gap:.3e}")
        object.__setattr__(self, "columns", V)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.columns, dtype=dtype)


def eigendecompose(M):
    """Symmetric eigendecomposition with error wrapping.

    Returns eigh's (eigenvalues, eigenvectors): eigenvalues ascending,
    eigenvectors as orthonormal columns.
    """
    M = _as_matrix(M)
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for a {M.shape[0]}x{M.shape[0]} matrix "
            f"(max |entry| = {np.max(np.abs(M)):.3e}): {exc}"
        ) from exc


def _prox_eigenvalue_map(gamma, rho):
    # positive root of rho*x^2 - gamma*x - 1 = 0.  For gamma < 0 the form
    # (gamma + root) / (2 rho) cancels to 0; the product of the roots, -1/rho,
    # gives it as 2 / (root - gamma) = 2 / (root + |gamma|) without cancellation
    root = np.sqrt(gamma * gamma + 4.0 * rho)
    return np.where(gamma < 0, 2.0 / (root + np.abs(gamma)), (gamma + root) / (2.0 * rho))


def _prox_top(M, rho, k):
    # U_k Diag(x) U_k^T over the p - k largest eigenvalues of M, and x; the
    # eigenvectors are freed on return, before the caller symmetrizes
    gamma, U = eigendecompose(M)
    U = U[:, k:]
    x = _prox_eigenvalue_map(gamma[k:], rho)
    return (U * x) @ U.T, x


def prox_logdet(M, rho):
    """Closed-form solution of the penalized log-det subproblem.

    M is the combined argument rho*A - Y of
    argmin_X  -log det(X) + <X, Y> + (rho/2) ||X - A||_F^2.
    Given the eigendecomposition M = U Gamma U^T, returns
    (1/(2 rho)) U (Gamma + sqrt(Gamma^2 + 4 rho I)) U^T: each output
    eigenvalue x solves rho x^2 - gamma x - 1 = 0, so the (positive
    definite) output satisfies the stationarity condition -X^{-1} + rho X = M.
    The result carries the eigenvalues x, so log det X needs no second
    decomposition.
    """
    return ProxMatrix(*_prox_top(M, rho, 0))


def prox_logdet_rank(M, rho, k):
    """Rank-restricted variant of :func:`prox_logdet`.

    Applies the eigenvalue map only to the p - k largest eigenvalues of M and
    reconstructs from the matching eigenvectors; the output is positive
    semidefinite with rank exactly p - k.  k = 0 reproduces
    :func:`prox_logdet`.
    """
    M = _as_matrix(M)
    p = M.shape[0]
    if not 0 <= k < p:
        raise ParameterError(f"component count k={k} must satisfy 0 <= k < p={p}")
    return ProxMatrix(*_prox_top(M, rho, k))


def fan_subspace(L, k):
    """Orthonormal basis of the k smallest-eigenvalue eigenvectors of L.

    tr(V^T L V) over orthonormal p x k matrices is minimized by this choice,
    with minimum equal to the sum of the k smallest eigenvalues.  The result
    carries all eigenvalues of L, so its nullity needs no second decomposition.
    The k columns are copied, so the p x p eigenvector matrix is freed on
    return.
    """
    L = _as_matrix(L)
    p = L.shape[0]
    if not 1 <= k < p:
        raise ParameterError(f"component count k={k} must satisfy 1 <= k < p={p}")
    lam, U = eigendecompose(L)
    return SubspaceMatrix(U[:, :k].copy(), lam)


def psd_sqrt_pinv(M, rank_tol=DEFAULT_RANK_TOL):
    """Factor B with B B^T equal to the pseudo-inverse of a PSD matrix M.

    B = U_+ Diag(lambda_+^{-1/2}) over eigenvalues above rank_tol * lambda_max.
    Used to sample zero-mean vectors whose precision matrix is M.
    """
    lam, U = eigendecompose(M)
    cutoff = rank_tol * max(lam[-1], 0.0)
    keep = lam > cutoff
    if not np.any(keep):
        raise DegenerateInputError("matrix has no eigenvalue above the rank tolerance")
    return U[:, keep] / np.sqrt(lam[keep])


def spectral_diagnostics(M, rank_tol=DEFAULT_RANK_TOL):
    """Condition number and per-eigenvector component variances.

    condition_number is lambda_max / lambda_min, set to +inf when the
    smallest eigenvalue is at or below rank_tol * max|eigenvalue| (near-
    singular or indefinite input).  eigenvector_variances holds the sample
    variance (denominator p - 1) of each eigenvector's components, ordered by
    descending eigenvalue.
    """
    lam, U = eigendecompose(M)
    tol = rank_tol * float(np.max(np.abs(lam))) if lam.size else 0.0
    if lam[0] <= tol:
        condition = np.inf
    else:
        condition = float(lam[-1] / lam[0])
    variances = np.var(U[:, ::-1], axis=0, ddof=1)
    return {"condition_number": condition, "eigenvector_variances": variances}
