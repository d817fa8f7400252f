"""ADMM solvers for Laplacian-structured graph learning.

Four estimators share one primal-dual loop:

* ``learn_connected_gaussian`` -- connected graph, Gaussian likelihood, from a
  similarity matrix S.
* ``learn_k_component_gaussian`` -- graph with exactly k connected components,
  Gaussian likelihood, rank-restricted auxiliary variable plus a spectral
  subspace penalty.
* ``learn_connected_t`` -- connected graph, Student-t likelihood, from the raw
  data matrix X.
* ``learn_kt`` -- k components plus Student-t likelihood.

Each outer iteration updates the auxiliary precision variable Theta through a
closed-form log-det prox, runs a short accelerated projected-gradient inner
loop on the edge weights w (FISTA with adaptive restart, step size from the
analytic curvature bound; the Student-t methods reweight the observations
once per w-step, at the incoming w), optionally
refreshes the spectral subspace V, and performs dual ascent on the two
constraint blocks Theta = L(w) and degrees(w) = d.  The k-component methods
double the subspace weight eta while L(w) has fewer than k zero eigenvalues
and halve it while it has more.  Iterations stop when both primal residuals
fall below the tolerance in max-norm.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import (
    DimensionError,
    DivergenceError,
    EvaluationError,
    ParameterError,
)
from .operators import (
    SymmetricMatrix,
    WeightVector,
    _as_matrix,
    _as_weights,
    _check_symmetric,
    adjacency_op,
    edge_pairs,
    laplacian_op,
)
from .spectral import DEFAULT_RANK_TOL, fan_subspace, prox_logdet, prox_logdet_rank

__all__ = [
    "METHODS",
    "SolverConfig",
    "SolverTrace",
    "GraphEstimate",
    "init_weights",
    "weighted_scatter",
    "augmented_lagrangian",
    "learn_connected_gaussian",
    "learn_k_component_gaussian",
    "learn_connected_t",
    "learn_kt",
]

METHODS = ("connected-gaussian", "k-gaussian", "connected-t", "kt")
_K_METHODS = ("k-gaussian", "kt")
_T_METHODS = ("connected-t", "kt")
# eta never grows past this multiple of its starting value
_ETA_MAX_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the four solvers.

    degree_target may be a scalar (broadcast to all nodes), a length-p vector,
    or None for the all-ones default.  eta is the starting weight of the
    spectral-subspace term (k-component methods only); None resolves to
    100 * mean|S| at solve time.  The solver doubles it while L(w) has fewer
    than k zero eigenvalues (below DEFAULT_RANK_TOL times the largest) and
    halves it while it has more; the trace records the value each iteration
    used.  rho stays fixed.  nu is required for the Student-t methods, > 2.
    """

    rho: float = 1.0
    eta: float | None = None
    nu: float | None = None
    k: int = 1
    degree_target: object = None
    tol: float = 1e-6
    max_iter: int = 10000
    inner_iter: int = 20

    def resolved_degrees(self, p):
        "Degree target as a validated length-p vector."
        d = self.degree_target
        if d is None:
            return np.ones(p)
        if np.isscalar(d):
            d = np.full(p, float(d))
        d = np.asarray(d, dtype=float)
        if d.shape != (p,):
            raise DimensionError(f"degree target has shape {d.shape}, expected ({p},)")
        if np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise ParameterError("degree targets must be positive and finite")
        return d

    def validate(self, p, method):
        if self.rho <= 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if self.tol <= 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1 or self.inner_iter < 1:
            raise ParameterError("max_iter and inner_iter must be >= 1")
        if method in _K_METHODS:
            # positive degree targets give every node an edge, so every
            # component has at least two nodes
            if not 1 <= self.k <= p // 2:
                raise ParameterError(
                    f"component count k={self.k} must satisfy 1 <= k <= p // 2 = {p // 2}"
                )
            if self.eta is not None and self.eta <= 0:
                raise ParameterError(f"eta must be positive, got {self.eta}")
        if method in _T_METHODS:
            if self.nu is None:
                raise ParameterError("nu is required for Student-t methods")
            if self.nu <= 2:
                raise ParameterError(f"nu must exceed 2, got {self.nu}")
        self.resolved_degrees(p)


@dataclass
class SolverTrace:
    """Per-iteration residual norms and augmented-Lagrangian values.

    eta is the spectral-subspace weight each iteration's Lagrangian used;
    0.0 for the connected methods.
    """

    iters: np.ndarray
    r_norm: np.ndarray
    s_norm: np.ndarray
    v_norm: np.ndarray
    lagrangian: np.ndarray
    eta: np.ndarray

    def __len__(self):
        return self.iters.size


@dataclass
class GraphEstimate:
    """Result of a solver run."""

    weights: WeightVector
    laplacian: SymmetricMatrix
    node_names: list
    method: str
    converged: bool
    iterations: int
    trace: SolverTrace
    config: SolverConfig

    @property
    def adjacency(self):
        return adjacency_op(self.weights)


def _as_similarity(S):
    "S as an array; a plain array must pass SymmetricMatrix's asymmetry rule."
    M = _as_matrix(S)
    # a SymmetricMatrix passed this check when it was built; it is not copied
    if not isinstance(S, SymmetricMatrix):
        _check_symmetric(M)
    return M


def init_weights(S):
    """Initial edge weights read from the pseudo-inverse of a similarity matrix.

    Projects the negated strict-lower-triangle entries of pinv(S) onto the
    nonnegative orthant: a Laplacian's edges are its negative off-diagonals,
    so this is the adjacency readout of pinv(S) taken as a precision matrix.
    Eigenvalues below DEFAULT_RANK_TOL times the largest are treated as zero,
    so the round-off null space of a rank-deficient S does not blow up the
    warm start.  A plain-array S asymmetric beyond SymmetricMatrix's bound
    raises DimensionError.
    """
    S = _as_similarity(S)
    P = np.linalg.pinv(S, rcond=DEFAULT_RANK_TOL, hermitian=True)
    ii, jj = edge_pairs(S.shape[0])
    return WeightVector(np.maximum(-P[ii, jj], 0.0), S.shape[0])


def weighted_scatter(X, w, nu):
    """Student-t reweighted scatter matrix.

    Each observation x_i is weighted by (p + nu) / (x_i^T L(w) x_i + nu); the
    result is the weighted average of the outer products x_i x_i^T.  The
    quadratic forms come from X and L(w) in one pass, so memory stays
    O(n p + p^2) and no matrix is formed per observation.  The Student-t
    w-step uses the same scatter, taken at its incoming w, as its data term.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError("data matrix must be 2-d (observations x nodes)")
    p = X.shape[1]
    if nu is None or nu <= 2:
        raise ParameterError(f"nu must exceed 2, got {nu}")
    values, _ = _as_weights(w, p)
    ii, jj = edge_pairs(p)
    Lw = _kernels.lap_matrix(values, ii, jj, p)
    return SymmetricMatrix(_kernels.student_scatter(X, Lw, nu))


def _w_step(w, theta, Y, y, d, rho, config, S=None, penalty=None, student=None):
    """One w-update: the linear term c0, then the accelerated inner loop.

    c0 = L*(C) + d*(y - rho d) with C = -Y - rho Theta (+ penalty) (+ S).
    student = (X, nu), with X the n x p data matrix, selects the Student-t
    loop, which reweights the rows of X once, at the incoming w, and adds
    that scatter in place of S, so S is left out of C.
    """
    p = d.size
    ii, jj = edge_pairs(p)
    C = -Y - rho * theta
    if penalty is not None:
        C = C + penalty
    if student is None:
        C = C + S
    c0 = _kernels.lap_adjoint(C, ii, jj) + _kernels.degree_adjoint(y - rho * d, ii, jj)
    # C is p x p; freed here so it does not add to the inner loop's peak memory
    del C
    n_steps, step_tol = config.inner_iter, config.tol / 10.0
    if student is None:
        return _kernels.mm_inner_gaussian(w, c0, rho, p, n_steps, step_tol, ii, jj)
    X, nu = student
    return _kernels.mm_inner_student(w, c0, X, nu, rho, p, n_steps, step_tol, ii, jj)


def _logdet_term(x, p, method, k):
    """-log det part of the objective, from eigenvalues x.

    Connected methods pass the eigenvalues of Theta + J, which must all be
    positive.  k-component methods pass those of Theta and use the
    pseudo-determinant over the eigenvalues above DEFAULT_RANK_TOL * max(x),
    of which they require at least p - k.
    """
    if method in _K_METHODS:
        pos = x[x > DEFAULT_RANK_TOL * max(float(np.max(x)), 0.0)]
        if pos.size < p - k:
            raise EvaluationError(
                f"Theta has {pos.size} positive eigenvalues, needs >= {p - k}"
            )
        return -float(np.sum(np.log(pos)))
    if np.min(x) <= 0:
        raise EvaluationError("Theta + J is not positive definite")
    return -float(np.sum(np.log(x)))


def _student_objective(X, Lw, nu):
    "Student-t data term (p + nu)/n * sum_i log(1 + x_i^T L(w) x_i / nu)."
    n, p = X.shape
    q = _kernels.student_quad(X, Lw)
    return (p + nu) / n * float(np.sum(np.log1p(q / nu)))


def _lagrangian(method, w, Lw, x, Y, y, r, s, rho, config,
                LS=None, eta=None, V=None, student=None):
    """Partial augmented Lagrangian from the iterates and the residuals.

    Lw is L(w), x holds the eigenvalues that :func:`_logdet_term` reads,
    r = Theta - L(w) and s = degrees(w) - d.  student = (X, nu), with X the
    n x p data matrix, selects the Student-t data term, read from the
    quadratic forms x_i^T L(w) x_i; otherwise <LS, w> with LS = L*(S) is
    used.  V (with eta) adds the spectral-subspace penalty of the
    k-component methods.
    """
    p = r.shape[0]
    ii, jj = edge_pairs(p)
    if student is None:
        obj = float(LS @ w)
    else:
        X, nu = student
        obj = _student_objective(X, Lw, nu)
    if V is not None:
        obj += eta * float(_kernels.lap_adjoint(V @ V.T, ii, jj) @ w)
    obj += _logdet_term(x, p, method, config.k)
    obj += float(y @ s) + rho / 2.0 * float(s @ s)
    obj += float(np.sum(Y * r)) + rho / 2.0 * float(np.sum(r * r))
    return obj


def augmented_lagrangian(theta, Y, y, w, data, config, method, V=None):
    """Evaluate the partial augmented Lagrangian at the ADMM state (Theta, Y, y, w).

    Theta is the auxiliary precision and (Y, y) the dual pair.  At a
    callback snapshot it equals that iteration's ``trace.lagrangian`` value.
    data is the similarity matrix S for the Gaussian methods and the n x p
    data matrix X for the Student-t methods.  V (the spectral subspace) is
    required by the k-component methods; when omitted it is taken as the
    minimizing subspace of the current Laplacian.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")
    values, p = _as_weights(w)
    ii, jj = edge_pairs(p)
    theta = _as_matrix(theta)
    Y = _as_matrix(Y)
    y = np.asarray(y, dtype=float)
    d = config.resolved_degrees(p)
    rho = config.rho
    Lw = _kernels.lap_matrix(values, ii, jj, p)

    LS = student = None
    if method in _T_METHODS:
        student = (np.asarray(data, dtype=float), config.nu)
    else:
        LS = _kernels.lap_adjoint(_as_matrix(data), ii, jj)

    if method in _K_METHODS:
        if config.eta is None:
            raise ParameterError("eta must be resolved for k-component methods")
        V = np.asarray(fan_subspace(Lw, config.k) if V is None else V)
        x = np.linalg.eigvalsh(theta)
    else:
        V = None
        x = np.linalg.eigvalsh(theta + np.full((p, p), 1.0 / p))

    r = theta - Lw
    s = _kernels.degree_vector(values, ii, jj, p) - d
    return _lagrangian(
        method, values, Lw, x, Y, y, r, s, rho, config,
        LS=LS, eta=config.eta, V=V, student=student,
    )


def _theta_step(Lw, Y, rho, J, k):
    """Theta-update through the log-det prox; returns Theta and the prox's eigenvalues x.

    k = 0 selects the full-rank prox of the connected methods, shifted by J;
    k >= 1 the rank p - k prox.  The prox matrix itself is not kept.
    """
    if k:
        prox = prox_logdet_rank(rho * Lw - Y, rho, k)
        return np.asarray(prox.entries), prox.eigenvalues
    prox = prox_logdet(rho * (Lw + J) - Y, rho)
    return np.asarray(prox.entries) - J, prox.eigenvalues


def _check_finite(iteration, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DivergenceError(iteration)


def _run_admm(method, S, X, config, names, callback=None, w0=None):
    """Shared ADMM loop; S is used by Gaussian methods, X by Student-t ones.

    callback(iteration, snapshot) is invoked after each outer iteration with
    copies of the iterates; intended for tests and diagnostics.  w0 overrides
    the pseudo-inverse initialization of the edge weights.
    """
    if method in _T_METHODS:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise DimensionError("data matrix must be 2-d with at least 2 rows")
        n, p = X.shape
        S = X.T @ X / n
    else:
        S = _as_similarity(S)
        p = S.shape[0]
    if p < 2:
        raise DimensionError("need at least 2 nodes")
    config.validate(p, method)
    if not np.all(np.isfinite(S)):
        raise DimensionError("similarity matrix contains non-finite entries")

    names = [str(x) for x in names] if names is not None else [str(i) for i in range(p)]
    if len(names) != p:
        raise DimensionError(f"{len(names)} node names for p={p} nodes")

    k_mode = method in _K_METHODS
    t_mode = method in _T_METHODS
    rho = float(config.rho)
    k = config.k
    eta = config.eta
    if k_mode and eta is None:
        eta = 100.0 * float(np.mean(np.abs(S)))
    eta0 = eta
    d = config.resolved_degrees(p)
    ii, jj = edge_pairs(p)
    J = np.full((p, p), 1.0 / p)

    if w0 is None:
        w = np.asarray(init_weights(S).values)
    else:
        w = np.asarray(_as_weights(w0, p)[0]).copy()
    Y = np.zeros((p, p))
    y = np.zeros(p)
    # L(w) of the current w: built once per iteration, read by the next prox
    Lw = _kernels.lap_matrix(w, ii, jj, p)
    theta = Lw
    V = np.asarray(fan_subspace(Lw, k).columns) if k_mode else None
    LS = student = None
    if t_mode:
        student = (X, float(config.nu))
    else:
        LS = _kernels.lap_adjoint(S, ii, jj)

    it_log, r_log, s_log, v_log, lag_log, eta_log = [], [], [], [], [], []
    converged = False
    iterations = 0

    for l in range(config.max_iter):
        theta_next, x = _theta_step(Lw, Y, rho, J, k if k_mode else 0)
        # the dual residual is taken now, so the old Theta is freed before the w-step
        v_norm = float(np.max(np.abs(rho * _kernels.lap_adjoint(theta_next - theta, ii, jj))))
        theta = theta_next

        penalty = eta * (V @ V.T) if k_mode else None
        w = _w_step(w, theta, Y, y, d, rho, config, S, penalty, student)

        Lw = _kernels.lap_matrix(w, ii, jj, p)
        if k_mode:
            subspace = fan_subspace(Lw, k)
            V = np.asarray(subspace.columns)
            lam = subspace.eigenvalues
            nullity = int(np.sum(lam < DEFAULT_RANK_TOL * lam[-1]))
        r = theta - Lw
        s = _kernels.degree_vector(w, ii, jj, p) - d
        Y = Y + rho * r
        y = y + rho * s
        iterations = l + 1
        _check_finite(iterations, w, theta, Y, y)

        # augmented Lagrangian at the full post-iteration state
        obj = _lagrangian(method, w, Lw, x, Y, y, r, s, rho, config, LS, eta, V, student)

        r_norm = float(np.max(np.abs(r)))
        s_norm = float(np.max(np.abs(s)))
        it_log.append(iterations)
        r_log.append(r_norm)
        s_log.append(s_norm)
        v_log.append(v_norm)
        lag_log.append(obj)
        eta_log.append(eta if k_mode else 0.0)

        if callback is not None:
            callback(
                iterations,
                {
                    "theta": theta.copy(),
                    "w": w.copy(),
                    "Y": Y.copy(),
                    "y": y.copy(),
                    "r": r.copy(),
                    "s": s.copy(),
                    "rho": rho,
                    "V": None if V is None else V.copy(),
                },
            )

        if r_norm <= config.tol and s_norm <= config.tol:
            converged = True
            break

        # the next iteration's subspace weight, keyed to the observed nullity
        if k_mode and nullity < k:
            eta = min(2.0 * eta, _ETA_MAX_FACTOR * eta0)
        elif k_mode and nullity > k:
            eta = 0.5 * eta

    trace = SolverTrace(
        iters=np.asarray(it_log, dtype=int),
        r_norm=np.asarray(r_log),
        s_norm=np.asarray(s_log),
        v_norm=np.asarray(v_log),
        lagrangian=np.asarray(lag_log),
        eta=np.asarray(eta_log),
    )
    weights = WeightVector(w, p)
    snapshot = replace(config, eta=eta0, degree_target=d)
    return GraphEstimate(
        weights=weights,
        laplacian=laplacian_op(weights),
        node_names=names,
        method=method,
        converged=converged,
        iterations=iterations,
        trace=trace,
        config=snapshot,
    )


def learn_connected_gaussian(S, config=None, names=None, callback=None, w0=None):
    """Estimate a connected graph from a similarity matrix.

    Alternates the closed-form log-det prox for the auxiliary precision
    (shifted by the rank-one constant matrix J so the determinant is proper),
    the accelerated projected-gradient inner loop for the edge weights (up to
    config.inner_iter FISTA steps), and dual ascent, until both primal
    residuals are below config.tol in max-norm.  A plain-array S asymmetric
    beyond SymmetricMatrix's bound raises DimensionError.
    """
    return _run_admm("connected-gaussian", S, None, config or SolverConfig(), names, callback, w0)


def learn_k_component_gaussian(S, config=None, names=None, callback=None, w0=None):
    """Estimate a graph with exactly config.k connected components.

    The auxiliary precision is restricted to rank p - k by the prox itself;
    the weight subproblem carries an extra eta * V V^T similarity term whose
    subspace V tracks the k smallest-eigenvalue eigenvectors of the current
    Laplacian.  config.eta is only the starting weight: after each subspace
    step eta doubles while L(w) has fewer than k zero eigenvalues (below
    DEFAULT_RANK_TOL * lambda_max) and halves while it has more; trace.eta
    records it per iteration.  Node degrees are pinned to the degree target, which
    rules out isolated nodes.  S must be symmetric, as for
    :func:`learn_connected_gaussian`.
    """
    config = config or SolverConfig()
    return _run_admm("k-gaussian", S, None, config, names, callback, w0)


def learn_connected_t(X, config=None, names=None, callback=None, w0=None):
    """Estimate a connected graph from raw data under a Student-t model.

    X is the n x p data matrix, assumed zero-mean: it is not centered, and
    the warm start reads X^T X / n.  The loop is the Gaussian one except that
    each w-step first reweights the observations at the incoming w: an
    observation with a large quadratic form x^T L(w) x is down-weighted by
    (p + nu) / (x^T L(w) x + nu).  The weighted scatter then stands in for S
    for the whole inner loop, the tangent majorizer of the Student-t data
    term at w.  The quadratic forms are computed from X and L(w), so memory
    is O(n p + p^2).
    """
    config = config or SolverConfig()
    return _run_admm("connected-t", None, X, config, names, callback, w0)


def learn_kt(X, config=None, names=None, callback=None, w0=None):
    """Estimate a k-component graph under a Student-t model.

    Combines the rank-restricted prox and spectral subspace term of the
    k-component Gaussian solver with the re-weighted scatter of the Student-t
    solver.
    """
    config = config or SolverConfig()
    return _run_admm("kt", None, X, config, names, callback, w0)
