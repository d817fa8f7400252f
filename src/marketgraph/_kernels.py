"""Hot array kernels: graph operators and the accelerated inner loop of the w-step.

Each kernel is a single vectorized numpy function.  Kernels that work in
edge space take the edge-endpoint index arrays ``ii``/``jj`` (0-based, with
``ii[k] > jj[k]``) produced by :func:`marketgraph.operators.edge_pairs`, so no
index arithmetic happens inside the loops.
"""

import numpy as np


def lap_matrix(w, ii, jj, p):
    "Laplacian matrix from edge weights."
    A = adj_matrix(w, ii, jj, p)
    L = -A
    L[np.diag_indices(p)] = A.sum(axis=1)
    return L


def adj_matrix(w, ii, jj, p):
    "Adjacency matrix from edge weights."
    A = np.zeros((p, p))
    A[ii, jj] = w
    A[jj, ii] = w
    return A


def lap_adjoint(M, ii, jj):
    "Adjoint of the Laplacian operator: M_ii - M_ij - M_ji + M_jj per edge."
    p = M.shape[0]
    # flat gathers from the raveled matrix take half the time of M[ii, jj]
    flat = M.ravel()
    d = flat[:: p + 1]
    return d[ii] + d[jj] - flat[ii * p + jj] - flat[jj * p + ii]


def degree_vector(w, ii, jj, p):
    "Weighted node degrees."
    return np.bincount(ii, weights=w, minlength=p) + np.bincount(
        jj, weights=w, minlength=p
    )


def degree_adjoint(y, ii, jj):
    "Adjoint of the degree operator: y_i + y_j per edge."
    return y[ii] + y[jj]


def mm_step_denominator(p, rho):
    """Step-size denominator 2*rho*(2p - 1) of the projected gradient step.

    Equals rho times the largest eigenvalue of the edge-space curvature
    operator (adjoint-of-degree o degree + adjoint-of-Laplacian o Laplacian),
    which is 2(2p - 1) = 4p - 2.
    """
    return 2.0 * rho * (2 * p - 1)


def quad_gradient_py(w, ii, jj, p):
    """Curvature part of the inner-loop gradient.

    Applies (adjoint-of-Laplacian o Laplacian + adjoint-of-degree o degree)
    to w, which collapses to 2*(deg_i + deg_j) + 2*w_k per edge.  The inner
    loop calls it exactly once per step, so wrapping it counts inner steps.
    """
    d = degree_vector(w, ii, jj, p)
    return 2.0 * (d[ii] + d[jj]) + 2.0 * w


def _projected_steps(w, gradient, denom, n_steps, step_tol, t=1.0):
    """Up to n_steps of accelerated projected gradient on a convex quadratic.

    FISTA (Beck & Teboulle 2009): each step is w_new = max(z - gradient(z) /
    denom, 0) at an extrapolated point z.  t is the starting momentum: 1.0
    starts afresh, so the first step, taken at z = w, is the plain
    projected-gradient step; the t a one-step run returns continues that run
    from its iterate.  The momentum restarts whenever it points uphill,
    (z - w_new) . (w_new - w) > 0 (O'Donoghue & Candes 2015).  Stops early
    once a step moves w by less than step_tol in max-norm.  w is not written.

    Returns (w, taken, t): the last iterate, the number of steps taken, and
    the momentum to continue with, which is None after an early stop.
    """
    z = w
    for taken in range(1, n_steps + 1):
        w_new = np.maximum(z - gradient(z) / denom, 0.0)
        step = w_new - w
        delta = np.max(np.abs(step)) if w.size else 0.0
        if (z - w_new) @ step > 0:
            z, t = w_new, 1.0
        else:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            z, t = w_new + ((t - 1.0) / t_next) * step, t_next
        w = w_new
        if delta < step_tol:
            return w, taken, None
    return w, n_steps, t


def mm_inner_gaussian(w, c0, rho, p, n_steps, step_tol, ii, jj):
    """Accelerated inner loop for the Gaussian w-subproblem: screen, then restrict.

    c0 is the iterate-independent part of the gradient; the step size is the
    analytic curvature bound :func:`mm_step_denominator`.  Each phase opens
    with one projected-gradient step over every edge, the screen, which
    identifies the face of the nonnegativity bound (Calamai & More 1987).
    The same FISTA run then moves only the free edges, those positive before
    or after the screen: every other edge is 0 and adds nothing to the
    degrees, so each restricted step equals the full step on the free edges.
    When the restricted steps stop early (a step below step_tol, or below
    the rounding of the largest weight) with budget left, the next phase
    screens again, so an edge whose gradient has turned negative comes back.
    The loop ends when a screen moves w by less than step_tol, or after
    n_steps steps in all, full and restricted.  When more than half of the
    edges are free, the rest of the budget runs over every edge, so the
    restricted copies of the edge arrays stay smaller than the full ones.
    """
    denom = mm_step_denominator(p, rho)

    def gradient(c, ei, ej):
        return lambda v: c + rho * quad_gradient_py(v, ei, ej, p)

    full = gradient(c0, ii, jj)
    while n_steps:
        screened, _, t = _projected_steps(w, full, denom, 1, step_tol)
        n_steps -= 1
        if t is None or not n_steps:
            return screened
        free = (screened > 0) | (w > 0)
        w = screened
        n_free = np.count_nonzero(free)
        if not n_free or 2 * n_free > w.size:
            del free  # not held through the full steps, which set the loop's peak memory
            return _projected_steps(w, full, denom, n_steps, step_tol, t)[0]
        w_free = w[free]
        # a step below the rounding of w makes no progress on this face
        phase_tol = max(step_tol, np.finfo(float).eps * np.max(w_free))
        w_free, taken, _ = _projected_steps(
            w_free, gradient(c0[free], ii[free], jj[free]), denom, n_steps, phase_tol, t
        )
        # the screen returned a new array, 0 off the free edges
        w[free] = w_free
        n_steps -= taken
    return w


def student_quad(X, L):
    "Quadratic forms x_i^T L x_i of every row x_i of X, without forming x_i x_i^T."
    return np.einsum("ij,ij->i", X @ L, X)


def student_scatter(X, L, nu):
    """Student-t reweighted scatter X^T diag(alpha) X / n of the rows of X.

    alpha_i = (p + nu) / (x_i^T L x_i + nu).  Memory is O(n p + p^2).
    """
    n, p = X.shape
    alpha = (p + nu) / (student_quad(X, L) + nu)
    # one operand on both sides of the product, so BLAS takes its symmetric (syrk) path
    Xa = X * np.sqrt(alpha / n)[:, None]
    return Xa.T @ Xa


def mm_inner_student(w, c0, X, nu, rho, p, n_steps, step_tol, ii, jj):
    """Inner loop for the Student-t w-subproblem, reweighted once at w.

    X is the (n, p) data matrix.  The data term L*(student_scatter(X, L(w),
    nu)) is taken at the incoming w only, so each observation keeps the
    weight (p + nu) / (x_i^T L(w) x_i + nu) for the whole w-step.  That is
    the tangent majorizer of the log data term at w (Sun, Babu & Palomar
    2017); it is added to c0 and the Gaussian loop minimizes the resulting
    convex quadratic.
    """
    data = lap_adjoint(student_scatter(X, lap_matrix(w, ii, jj, p), nu), ii, jj)
    return mm_inner_gaussian(w, c0 + data, rho, p, n_steps, step_tol, ii, jj)
