"""Nonnegative nonlinear least squares: scipy's bounded TRF, retraced in numpy.

The trust-region-reflective method (M. A. Branch, T. F. Coleman and Y. Li,
SIAM J. Sci. Comput. 21, 1 (1999)) as `scipy.optimize.least_squares` runs it
with `method="trf"` (`scipy/optimize/_lsq/trf.py`, `trf_bounds`, and its
helpers in `_lsq/common.py` and `_numdiff.py`; SciPy, BSD-3-Clause), step for
step, for the one call the stage-2 scaling fit makes: lower bounds 0 and no
upper bounds, linear loss, x_scale = 1, the exact (SVD) trust-region solver,
the '2-point' Jacobian and ftol = xtol = gtol = 1e-8. So it stops where
`least_squares` stops, short of a bound included; only the LAPACK build
behind the SVD can move the last digits.
"""

from math import copysign

import numpy as np
from numpy.linalg import norm

EPS = np.finfo(float).eps
TOL = 1e-8  # ftol, xtol and gtol


def _jacobian(fun, x, f):
    """Forward differences at x (f = fun(x)), step sqrt(eps) max(1, |x|),
    each column divided by (x + h) - x. Laid out as scipy's (Fortran order)."""
    h = EPS**0.5 * np.maximum(1.0, np.abs(x))
    jac_t = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        jac_t[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return jac_t.T


def _scaling(x, g):
    """Coleman-Li scaling vector v and its derivative dv for x >= 0."""
    up = g > 0
    return np.where(up, x, 1.0), up.astype(float)


def _to_bound(x, s):
    """The step along s from x to the bound x = 0 (inf if none), and the
    entries that reach it first."""
    steps = np.full_like(x, np.inf)
    down = s < 0
    with np.errstate(over="ignore"):
        steps[down] = (0.0 - x[down]) / s[down]
    step = np.min(steps)
    return step, (steps == step) & (s != 0)


def _phi(alpha, suf, s, delta):
    denom = s**2 + alpha
    p_norm = norm(suf / denom)
    return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm


def _trust_region(n, m, uf, s, v, delta, alpha):
    """More's Levenberg-Marquardt step of norm <= delta from one SVD
    (scipy's solve_lsq_trust_region, rtol 0.01, 10 iterations)."""
    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -v.dot(uf / s)
        if norm(p) <= delta:
            return p, 0.0
    alpha_upper = norm(suf) / delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = _phi(0.0, suf, s, delta)
        alpha_lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = _phi(alpha, suf, s, delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -v.dot(suf / (s**2 + alpha))
    p *= delta / norm(p)
    return p, alpha


def _line(jac, g, s, diag, s0=None):
    """The quadratic 0.5 x (J^T J + diag) x + g x along x = s0 + t s: (a, b)
    of a t^2 + b t, and c with s0. Its value at x = s is a + b."""
    v = jac.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = jac.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lo, hi, c=0):
    t = [lo, hi]
    if a != 0:
        extremum = -0.5 * b / a
        if lo < extremum < hi:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _to_sphere(x, s, delta):
    """The positive t with ||x + t s|| = delta."""
    a = np.dot(s, s)
    b = np.dot(x, s)
    c = np.dot(x, x) - delta**2
    q = -(b + copysign(np.sqrt(b * b - a * c), b))
    return max(q / a, c / q)


def _select_step(x, jac_h, diag_h, g_h, p, p_h, d, delta, theta):
    """The best of the trust-region step (cut back from the bound), its
    reflection and the scaled gradient step: (step, hat step, predicted
    reduction)."""
    if np.all(x + p >= 0):
        return p, p_h, -sum(_line(jac_h, g_h, p_h, diag_h))
    p_stride, hits = _to_bound(x, p)
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    to_tr = _to_sphere(p_h, r_h, delta)
    to_bound, _ = _to_bound(x + p, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    r_value = np.inf
    if r_stride_l <= r_stride_u:
        a, b, c = _line(jac_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    p *= theta
    p_h *= theta
    p_value = sum(_line(jac_h, g_h, p_h, diag_h))

    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / norm(ag_h)
    to_bound, _ = _to_bound(x, ag)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _line(jac_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _update_radius(delta, actual, predicted, step_norm, bound_hit):
    if predicted > 0:
        ratio = actual / predicted
    elif predicted == actual == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        delta *= 2.0
    return delta, ratio


def _termination(cost_drop, cost, step_norm, x_norm, ratio):
    """scipy's status: 2 ftol, 3 xtol, 4 both, None to go on."""
    ftol = cost_drop < TOL * cost and ratio > 0.25
    xtol = step_norm < TOL * (TOL + x_norm)
    if ftol and xtol:
        return 4
    return 2 if ftol else 3 if xtol else None


def least_squares_nonneg(fun, x0, max_nfev=None):
    """Minimise 0.5 ||fun(x)||^2 over x >= 0 from x0 >= 0.

    Returns (x, fun(x), Jacobian at x, status); status is scipy's, 1 to 4
    when a tolerance is met and 0 when max_nfev evaluations (default 100
    per parameter) are spent first.
    """
    x = np.atleast_1d(x0).astype(float)
    x[x <= 1e-10] = 1e-10  # scipy's make_strictly_feasible(x0, lb, ub)
    n = x.size
    max_nfev = 100 * n if max_nfev is None else max_nfev
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    jac = _jacobian(fun, x, f)
    nfev = 1
    m = f.size
    cost = 0.5 * np.dot(f, f)
    g = jac.T.dot(f)
    v, _ = _scaling(x, g)
    delta = norm(x / v**0.5)
    if delta == 0:
        delta = 1.0
    f_aug = np.zeros(m + n)
    jac_aug = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling(x, g)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_aug[:m] = f
        jac_aug[:m] = jac * d
        jac_h = jac_aug[:m]
        jac_aug[m:] = np.diag(diag_h**0.5)
        u, s, vt = np.linalg.svd(jac_aug, full_matrices=False)
        uf = u.T.dot(f_aug)
        theta = max(0.995, 1 - g_norm)  # step-back ratio from the bound

        cost_drop = -1
        while cost_drop <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region(n, m, uf, s, vt.T, delta, alpha)
            step, step_h, predicted = _select_step(
                x, jac_h, diag_h, g_h, d * p_h, p_h, d, delta, theta)
            x_new = x + step
            x_new[x_new <= 0] = np.nextafter(0.0, 1.0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            cost_drop = cost - cost_new
            delta_new, ratio = _update_radius(delta, cost_drop, predicted, step_h_norm,
                                              step_h_norm > 0.95 * delta)
            status = _termination(cost_drop, cost, norm(step), norm(x), ratio)
            if status is not None:
                break
            alpha *= delta / delta_new
            delta = delta_new
        if cost_drop > 0:
            x, f, cost = x_new, f_new, cost_new
            jac = _jacobian(fun, x, f)
            g = jac.T.dot(f)
    return x, f, jac, 0 if status is None else status
