"""Vectorized graph operators, their adjoints, and the edge-index convention.

A graph on ``p`` nodes is represented by a nonnegative weight vector of
length ``m = p(p-1)/2``.  Edge ``k`` connects the node pair ``(i, j)`` with
``i > j`` under the column-major lower-triangle ordering: in 1-based index
arithmetic ``k = i - j + (j-1)(2p-j)/2``.  Nodes are stored 0-based
internally; :func:`edge_linear_index` and :func:`edge_pairs` are the single
source of truth for the mapping.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import mm_step_denominator
from .errors import DimensionError

__all__ = [
    "WeightVector",
    "SymmetricMatrix",
    "edge_count",
    "node_count_from_edges",
    "edge_pairs",
    "edge_linear_index",
    "laplacian_op",
    "adjacency_op",
    "degree_op",
    "laplacian_adj",
    "degree_adj",
    "mm_step_denominator",
]

_pair_cache = {}


def edge_count(p):
    "Number of node pairs on p nodes."
    return p * (p - 1) // 2


def node_count_from_edges(m):
    "Invert m = p(p-1)/2; raises if m is not a triangular number."
    p = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
    if p < 2 or edge_count(p) != m:
        raise DimensionError(f"{m} is not p(p-1)/2 for any integer p >= 2")
    return p


def edge_pairs(p):
    """Endpoint arrays (ii, jj) for all edges, ii[k] > jj[k], 0-based.

    The linear order matches the documented 1-based formula
    k = i - j + (j-1)(2p-j)/2.
    """
    if p < 2:
        raise DimensionError(f"need p >= 2 nodes, got {p}")
    cached = _pair_cache.get(p)
    if cached is None:
        jj, ii = np.triu_indices(p, k=1)
        cached = (np.ascontiguousarray(ii), np.ascontiguousarray(jj))
        _pair_cache[p] = cached
    return cached


def edge_linear_index(i, j, p):
    "Linear edge index k for node pair i > j (all 0-based)."
    if not 0 <= j < i < p:
        raise DimensionError(f"need 0 <= j < i < p, got i={i}, j={j}, p={p}")
    return (j * (2 * p - j - 1)) // 2 + (i - j - 1)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative edge weights of a graph on p nodes.

    values has length p(p-1)/2 and is validated (and made read-only) at
    construction.
    """

    values: np.ndarray
    p: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if self.p < 2:
            raise DimensionError(f"need p >= 2 nodes, got p={self.p}")
        if values.ndim != 1 or values.size != edge_count(self.p):
            raise DimensionError(
                f"weight vector of length {values.size} does not match "
                f"p={self.p} (expected {edge_count(self.p)})"
            )
        if not np.all(np.isfinite(values)):
            raise DimensionError("weight vector contains non-finite entries")
        if np.any(values < 0):
            raise DimensionError("weight vector contains negative entries")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_array(cls, values):
        "Build a WeightVector inferring p from the vector length."
        values = np.asarray(values, dtype=float)
        return cls(values, node_count_from_edges(values.size))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense symmetric matrix, symmetrized as (M + M^T)/2 at construction.

    Asymmetry beyond 1e-9 (relative to the largest entry, floored at 1) is
    rejected rather than silently averaged away.
    """

    entries: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {M.shape}")
        _check_symmetric(M)
        M = (M + M.T) / 2.0
        M.flags.writeable = False
        object.__setattr__(self, "entries", M)

    @property
    def p(self):
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _check_symmetric(M):
    "Reject asymmetry beyond 1e-9 relative to the largest entry, floored at 1."
    gap = np.max(np.abs(M - M.T)) if M.size else 0.0
    tol = 1e-9 * max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
    if gap > tol:
        raise DimensionError(f"matrix is asymmetric: max |M - M^T| = {gap:.3e}")


def _as_weights(w, p=None):
    "Coerce WeightVector or array to (values, p)."
    if isinstance(w, WeightVector):
        if p is not None and p != w.p:
            raise DimensionError(f"weight vector declares p={w.p}, caller expects {p}")
        return np.asarray(w.values), w.p
    values = np.asarray(w, dtype=float)
    if values.ndim != 1:
        raise DimensionError("edge weights must be a 1-d vector")
    if p is None:
        p = node_count_from_edges(values.size)
    elif values.size != edge_count(p):
        raise DimensionError(
            f"weight vector of length {values.size} does not match p={p}"
        )
    return values, p


def _as_matrix(M):
    "Coerce SymmetricMatrix or array to a square ndarray."
    if isinstance(M, SymmetricMatrix):
        return np.asarray(M.entries)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return M


def laplacian_op(w, p=None):
    """Laplacian matrix of the weight vector w.

    Off-diagonal (i, j) holds -w_k for the mapped edge; the diagonal is the
    negative off-diagonal row sum, so the result annihilates the constant
    vector.
    """
    values, p = _as_weights(w, p)
    ii, jj = edge_pairs(p)
    return SymmetricMatrix(_kernels.lap_matrix(values, ii, jj, p))


def adjacency_op(w, p=None):
    "Adjacency matrix of the weight vector w (zero diagonal)."
    values, p = _as_weights(w, p)
    ii, jj = edge_pairs(p)
    return SymmetricMatrix(_kernels.adj_matrix(values, ii, jj, p))


def degree_op(w, p=None):
    "Weighted node degrees (adjacency row sums)."
    values, p = _as_weights(w, p)
    ii, jj = edge_pairs(p)
    return _kernels.degree_vector(values, ii, jj, p)


def laplacian_adj(M):
    """Adjoint of the Laplacian operator.

    Edge k mapped to (i, j) reads M_ii - M_ij - M_ji + M_jj, so that
    <laplacian_op(w), M> = <w, laplacian_adj(M)> for every w.
    """
    M = _as_matrix(M)
    ii, jj = edge_pairs(M.shape[0])
    return _kernels.lap_adjoint(M, ii, jj)


def degree_adj(y):
    "Adjoint of the degree operator: edge k mapped to (i, j) reads y_i + y_j."
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionError("expected a 1-d node vector")
    ii, jj = edge_pairs(y.size)
    return _kernels.degree_adjoint(y, ii, jj)

