"""Ground-truth graph generators and samplers used to verify the solvers."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .metrics import NodeLabels
from .operators import WeightVector, _as_matrix, edge_linear_index, edge_pairs
from .spectral import DEFAULT_RANK_TOL, psd_sqrt_pinv

__all__ = [
    "PlantedGraph",
    "planted_k_component",
    "sample_lgmrf",
    "sample_student_t",
]


@dataclass(frozen=True)
class PlantedGraph:
    """A k-component graph with known block partition."""

    weights: WeightVector
    partition: NodeLabels
    seed: int


def planted_k_component(p, k, intra_prob, weight_range=(0.5, 2.0), seed=0):
    """Random graph with exactly k components given by contiguous node blocks.

    Nodes split into k near-equal blocks; every block gets a random spanning
    tree (so each block is connected regardless of intra_prob) plus extra
    intra-block edges with probability intra_prob.  Weights are uniform in
    weight_range.  No cross-block edges, so the Laplacian nullity is exactly k.
    """
    if p < 2:
        raise ParameterError(f"need p >= 2, got {p}")
    if not 1 <= k <= p // 2:
        raise ParameterError(f"need 1 <= k <= p/2, got k={k}, p={p}")
    if not 0.0 <= intra_prob <= 1.0:
        raise ParameterError(f"intra_prob must be in [0, 1], got {intra_prob}")
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not 0 < lo <= hi:
        raise ParameterError(f"weight range must satisfy 0 < lo <= hi, got {weight_range}")

    rng = np.random.default_rng(seed)
    sizes = [p // k + (1 if b < p % k else 0) for b in range(k)]
    labels = np.repeat(np.arange(1, k + 1), sizes)
    ii, jj = edge_pairs(p)
    w = np.zeros(ii.size)

    start = 0
    for size in sizes:
        nodes = np.arange(start, start + size)
        # random spanning tree: attach each node (in random order) to an
        # earlier one
        order = rng.permutation(nodes)
        for a in range(1, size):
            u = int(order[a])
            v = int(order[rng.integers(0, a)])
            i, j = (u, v) if u > v else (v, u)
            w[edge_linear_index(i, j, p)] = rng.uniform(lo, hi)
        # extra edges: the block's node pairs in edge order, each tested with
        # one uniform draw; a pass over an edge not yet in the tree takes the
        # next draw as its weight.  Draws come in chunks no larger than the
        # draws still certain to be taken, one per untested pair and one per
        # pending weight, so the generator ends where one draw at a time would
        pairs = np.flatnonzero((jj >= start) & (ii < start + size)).tolist()
        start += size
        pos, pending = 0, None
        while pos < len(pairs) or pending is not None:
            for x in rng.random(len(pairs) - pos + (pending is not None)).tolist():
                if pending is not None:
                    w[pending] = lo + (hi - lo) * x
                    pending = None
                else:
                    kk = pairs[pos]
                    pos += 1
                    if x < intra_prob and w[kk] == 0.0:
                        pending = kk

    return PlantedGraph(
        weights=WeightVector(w, p),
        partition=NodeLabels(labels, k),
        seed=int(seed),
    )


def _lgmrf_rows(L, n, rng, rank_tol=DEFAULT_RANK_TOL):
    B = psd_sqrt_pinv(_as_matrix(L), rank_tol)
    z = rng.standard_normal((n, B.shape[1]))
    return z @ B.T


def sample_lgmrf(L, n, seed=0):
    """Zero-mean Gaussian samples whose precision matrix is the Laplacian L.

    Each row is B z with B the pseudo-inverse square root of L and z standard
    normal, so the population covariance is pinv(L) and every sample is
    exactly orthogonal to the constant vector.
    """
    rng = np.random.default_rng(seed)
    return _lgmrf_rows(L, n, rng)


def sample_student_t(L, nu, n, seed=0):
    """Heavy-tailed samples with inverse scatter L: Gaussian over sqrt(chi2/nu).

    nu > 2 so that the covariance exists (it equals nu/(nu-2) pinv(L)).
    """
    if nu is None or nu <= 2:
        raise ParameterError(f"nu must exceed 2, got {nu}")
    rng = np.random.default_rng(seed)
    g = _lgmrf_rows(L, n, rng)
    u = rng.chisquare(nu, size=n)
    return g / np.sqrt(u / nu)[:, None]
