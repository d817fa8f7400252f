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
    d = np.diag(M)
    return d[ii] + d[jj] - M[ii, jj] - M[jj, ii]


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


def _projected_steps(w, gradient, denom, n_steps, step_tol):
    """Up to n_steps of accelerated projected gradient on a convex quadratic.

    FISTA (Beck & Teboulle 2009): each step is w_new = max(z - gradient(z) /
    denom, 0) at an extrapolated point z, so the first step, taken at z = w,
    is the plain projected-gradient step.  The momentum restarts whenever
    it points uphill, (z - w_new) . (w_new - w) > 0 (O'Donoghue & Candes
    2015).  Stops early once a step moves w by less than step_tol in max-norm.
    """
    w = w.copy()
    z, t = w, 1.0
    for _ in range(n_steps):
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
            break
    return w


def mm_inner_gaussian(w, c0, rho, p, n_steps, step_tol, ii, jj):
    """Accelerated inner loop for the Gaussian w-subproblem.

    c0 is the iterate-independent part of the gradient; the step size is the
    analytic curvature bound :func:`mm_step_denominator`.
    """
    return _projected_steps(
        w,
        lambda v: c0 + rho * quad_gradient_py(v, ii, jj, p),
        mm_step_denominator(p, rho),
        n_steps,
        step_tol,
    )


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
