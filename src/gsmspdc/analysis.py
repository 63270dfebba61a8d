"""Curve fitting and figure-of-merit extraction.

Every fit starts from values computed from the scan, with no random
restarts, so repeated runs give identical results.  fit_gaussian starts from
the best cell of a grid over (mu, sigma), at which its linear amplitude and
offset are solved in closed form (variable projection: Golub & Pereyra, SIAM
J. Numer. Anal. 10, 413, 1973); fit_visibility starts from the fringe period
it is given.  Both nonlinear fits share one Levenberg-Marquardt solver with
analytic Jacobians, which solves a stack of problems at once (fit_visibility's
scans on one detector axis).  At each new point it takes one QR of [J r], then
an SVD of the scaled triangle, as MINPACK's solver works on the triangle R of
J = QR (More, LNM 630, 1978).  The problems step in lockstep, each with its
own scaling, damping and stopping rule: every update is a mask over the
stack, a stopped problem takes a zero step, and every reduction runs row by
row, so a problem's fit is bit for bit its fit alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .records import Scan1D

__all__ = [
    "GaussianFit",
    "VisibilityFit",
    "fit_gaussian",
    "fit_visibility",
]

FWHM_SIGMA_RATIO = 2.0 * np.sqrt(2.0 * np.log(2.0))  # 2.35482

# Levenberg-Marquardt: a step is kept when it lowers the cost, or, once the
# steps change the cost by less than _LM_FLAT of itself (its rounding in a
# flat valley), when it lowers the scaled gradient.  Converged when a step
# moves the scaled parameters by at most _LM_XTOL of their norm, or when the
# residual's cosine with every Jacobian column is at most _LM_GTOL.
_LM_XTOL = 1e-12
_LM_GTOL = 1e-15
_LM_FLAT = 1e-12
_LM_DAMPING0 = 1e-3     # initial damping, relative to the largest scaled J^T J entry
_GAUSSIAN_MAX_NFEV = 1000  # fit_gaussian's evaluation budget
# fit_gaussian's start grid: sigmas per mu, log-spaced from half the sample
# pitch to half the span
_GRID_SIGMAS = 12
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    mean: float
    sigma: float
    offset: float
    residual_rms: float

    @property
    def fwhm(self) -> float:
        return FWHM_SIGMA_RATIO * self.sigma


@dataclass(frozen=True)
class VisibilityFit:
    visibility: float       # in [0, 1]
    fringe_period: float    # same units as the scan axis
    phase: float            # rad
    residual_rms: float


def _rowdot(a, b):
    """Dot product of each row pair of two (B, n) stacks, each by the BLAS
    dot a 1-D a @ b calls."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(m, v):
    """m[k] @ v[k] for a (B, i, j) stack m and a (B, j) stack v, each by the
    BLAS matrix-vector product a 2-D m @ 1-D v calls."""
    return (m @ v[:, :, None])[:, :, 0]


def _levenberg_marquardt(fun, theta0, max_nfev):
    """Minimize |r_k(theta_k)|^2 for each problem k of a stack.

    theta0 is (B, p); fun(theta) evaluates the whole stack at theta (B, p)
    and returns r (B, n) and J = dr/dtheta (B, n, p).  Each parameter is
    measured in units of the largest norm its Jacobian column has reached
    (Marquardt scaling), so the damping does not depend on the parameters'
    units.  A trial step solves the damped normal equations without forming
    J^T J: at each new point the n x (p + 1) QR of [J r] gives R of J = Q R
    and Q^T r, the column norms of J are those of R, the gradient J^T r is
    R^T (Q^T r), and the SVD of the p x p R / scale = U_R S V^T gives
    U^T r = U_R^T (Q^T r), the same step as the SVD of the scaled n x p
    Jacobian in exact arithmetic, with only the QR reading the n rows.  The
    damping follows Nielsen's update.

    The problems step in lockstep, each with its own scale, damping,
    accepted steps and stopping rule: every update is a mask over the stack,
    and a stopped problem keeps its point and takes a zero step.  The QR and
    SVD run on the whole stack whenever a problem moved; the others refactor
    to the values they had.  Every reduction is taken row by row the way a
    stack of one takes it, so a problem's result does not depend on the
    others in its stack.  Returns (theta, r, converged) stacks, where
    converged[k] is False when problem k spent max_nfev evaluations before
    its stopping rule held, or started at a non-finite cost.
    """
    theta = np.array(theta0, dtype=float)
    count, p = theta.shape
    start, jac = fun(theta)
    finite = np.isfinite(_rowdot(start, start))
    converged = np.zeros(count, dtype=bool)
    if not finite.any():
        return theta, start, converged
    # a non-finite start stays put, zeroed: a NaN row fails the batched SVD
    r = np.where(finite[:, None], start, 0.0)
    jac = np.where(finite[:, None, None], jac, 0.0)
    running, nfev, moved = finite, 1, True
    scale, damping, growth = 0.0, None, np.full(count, 2.0)
    while True:
        if moved:  # a problem that did not move refactors to what it had
            cost = _rowdot(r, r)
            # R of [J r] is [[R, Q^T r], [0, |r - Q Q^T r|]] for J = Q R,
            # and (R, Q^T r) stand for (J, r) in every product below
            tri = np.linalg.qr(np.concatenate([jac, r[:, :, None]], axis=2),
                               mode="r")
            tri, qtr = tri[:, :p, :p], tri[:, :p, p]
            norms = np.linalg.norm(tri, axis=1)
            grad = _matvec(tri.transpose(0, 2, 1), qtr)
            stop = running & np.all(np.abs(grad) <= _LM_GTOL * norms
                                    * np.sqrt(cost)[:, None], axis=1)
            converged, running = converged | stop, running & ~stop
            scale = np.maximum(scale, norms)
            scale[scale == 0.0] = 1.0
            u, s, vt = np.linalg.svd(tri / scale[:, None, :],
                                     full_matrices=False)
            ur = _matvec(u.transpose(0, 2, 1), qtr)
            # from each problem's first SVD; one stopped at its start (s may
            # be 0) gets 1, so its unused step never divides 0 by 0
            if damping is None:
                damping = np.where(running, _LM_DAMPING0 * s[:, 0] * s[:, 0],
                                   1.0)
            size = np.sqrt(_rowdot(scale * theta, scale * theta))
        lam = damping[:, None]
        shrink = lam / (s * s + lam)
        step = -_matvec(vt.transpose(0, 2, 1), s * ur / (s * s + lam))
        small = running & (np.sqrt(_rowdot(step, step))
                           <= _LM_XTOL * (size + _LM_XTOL))
        converged, running = converged | small, running & ~small
        if nfev >= max_nfev or not running.any():
            return theta, np.where(finite[:, None], r, start), converged
        trial = theta + np.where(running[:, None], step, 0.0) / scale
        r_trial, jac_trial = fun(trial)
        nfev += 1
        predicted = _rowdot(ur * ur, 1.0 - shrink * shrink)
        actual = _rowdot(r - r_trial, r + r_trial)  # no cancellation
        accept = running & (actual > 0.0)  # False for a non-finite trial too
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = 2.0 * actual / predicted - 1.0
            factor = np.where(accept, np.maximum(1.0 / 3.0, 1.0 - t * t * t),
                              0.0)
        valley = running & ~accept & (predicted <= _LM_FLAT * cost)
        if valley.any():
            trial_grad = _matvec(jac_trial.transpose(0, 2, 1), r_trial) / scale
            lower = valley & (np.sqrt(_rowdot(trial_grad, trial_grad))
                              < np.sqrt(_rowdot(grad / scale, grad / scale)))
            accept, factor = accept | lower, np.where(lower, 1.0 / 3.0, factor)
        back = running & ~accept
        # s = 0 directions stay still
        damping = np.where(accept, np.maximum(damping * factor, _TINY),
                           np.where(back, damping * growth, damping))
        growth = np.where(back, growth * 2.0, np.where(accept, 2.0, growth))
        moved = accept.any()
        if moved:
            theta = np.where(accept[:, None], trial, theta)
            r = np.where(accept[:, None], r_trial, r)
            jac = np.where(accept[:, None, None], jac_trial, jac)


def fit_gaussian(scan: Scan1D, weights=None) -> GaussianFit:
    """Nonlinear least-squares Gaussian fit y = A exp(-(x-mu)^2/(2 s^2)) + c.

    The scan must be single-peaked with at least 5 samples, and its peak must
    not sit on the boundary.  A fitted sigma below half the sample pitch is
    a spike the samples cannot resolve, not a peak, and is rejected.

    The fit starts from a grid: mu on the scan's samples, and sigma on
    _GRID_SIGMAS log-spaced values from half the sample pitch to half the
    span.  A and c enter linearly, so at each cell they solve the weighted
    2 x 2 normal equations in closed form; one Levenberg-Marquardt fit runs
    from the cell of lowest cost with A > 0.

    Parameters
    ----------
    weights : array, optional
        Per-point weights applied to the residuals.

    Raises
    ------
    FitError
        If the data is degenerate (flat, too short, boundary peak), no cell
        of the grid has A > 0, the optimizer fails to converge, or the fitted
        peak is narrower than half the sample pitch.
    """
    xs, ys = scan.xs, scan.values
    if xs.size < 5:
        raise FitError("need at least 5 samples for a Gaussian fit")
    i_max = int(np.argmax(ys))
    span = ys.max() - ys.min()
    if span <= 0 or span < 1e-12 * max(abs(ys.max()), 1e-300):
        raise FitError("scan is flat; no peak to fit")
    if i_max in (0, xs.size - 1):
        raise FitError("peak sits on the scan boundary")

    wts = np.ones_like(ys) if weights is None else np.asarray(weights, dtype=float)
    pitch = (xs[-1] - xs[0]) / (xs.size - 1)

    # at each (sigma, mu) cell, g = exp(-(x - mu)^2 / (2 sigma^2)) and
    # [[S_gg, S_g], [S_g, S_1]] (A, c) = (S_gy, S_y), every sum weighted by
    # w^2; one sigma at a time, so the grid holds n^2 values, not 12 n^2
    w2 = wts * wts
    s1, sy, syy = w2.sum(), w2 @ ys, w2 @ (ys * ys)
    dx2 = (xs[:, None] - xs) ** 2
    best = (np.inf, None)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular cells
        for sigma in abs(pitch) * np.geomspace(0.5, 0.5 * (xs.size - 1),
                                               _GRID_SIGMAS):
            g = np.exp(-dx2 / (2.0 * sigma * sigma))    # (mu, x)
            sgg, sg, sgy = (g * g) @ w2, g @ w2, g @ (w2 * ys)
            det = sgg * s1 - sg * sg
            amp = (s1 * sgy - sg * sy) / det
            offset = (sgg * sy - sg * sgy) / det
            cost = np.where((amp > 0) & (det > 0),
                            syy - amp * sgy - offset * sy, np.inf)
            i = int(np.argmin(cost))
            if cost[i] < best[0]:
                best = (cost[i], [amp[i], xs[i], sigma, offset[i]])
    if best[1] is None:
        raise FitError("no Gaussian of positive amplitude fits the scan")

    def residuals(theta):
        a, mu, s, c = theta.T[:, :, None]
        dx = xs - mu
        bump = np.exp(-dx * dx / (2.0 * s * s))
        jac = np.stack([bump, a * bump * dx / (s * s),
                        a * bump * dx * dx / (s * s * s),
                        np.ones_like(bump)], axis=2)
        return wts * (a * bump + c - ys), wts[:, None] * jac

    (theta,), (r,), (converged,) = _levenberg_marquardt(
        residuals, [best[1]], _GAUSSIAN_MAX_NFEV)
    a, mu, s, c = theta
    if not converged:
        raise FitError(f"Gaussian fit did not converge in {_GAUSSIAN_MAX_NFEV} "
                       "evaluations")
    if abs(s) < 0.5 * abs(pitch):
        raise FitError(f"fitted sigma {abs(s):.3g} is below half the "
                       f"sample pitch {abs(pitch):.3g}")
    rms = float(np.sqrt(np.mean((r / np.where(wts == 0, 1, wts)) ** 2)))
    return GaussianFit(amplitude=float(a), mean=float(mu), sigma=float(abs(s)),
                       offset=float(c), residual_rms=rms)


def fit_visibility(scans, period_hint: float, window=None) -> list[VisibilityFit]:
    """Fit I(x) = E(x) [1 + V cos(2 pi x / P + phi)] to each scan, with V in [0, 1].

    E(x) = exp(e0 + e1 x + e2 x^2) is a slowly varying non-negative envelope.
    The scans must share one xs, covering at least 3 fringe periods; they
    are fitted as one stack, and each fit equals the fit of its scan alone.
    Returns one VisibilityFit per scan.

    Parameters
    ----------
    period_hint : float
        Expected fringe period, the fits' starting value.
    window : float, optional
        Restrict the fits to |x - x_center| <= window.

    Raises
    ------
    ValueError
        If there are no scans, or their xs differ.
    FitError
        If a scan's fit does not converge or leaves a residual RMS above 20%
        of its maximum intensity; the first such scan's error is raised.
    """
    scans = list(scans)
    if not scans or any(not np.array_equal(scan.xs, scans[0].xs)
                        for scan in scans):
        raise ValueError("fit_visibility needs at least one scan, all on one xs")
    xs = scans[0].xs
    keep = (slice(None) if window is None
            else np.abs(xs - 0.5 * (xs[0] + xs[-1])) <= window)
    xs = xs[keep]
    if xs.size < 8:
        raise FitError("too few samples for a fringe fit")

    # fit in shifted dimensionless coordinates so all parameters share scale
    x_mid = 0.5 * (xs[0] + xs[-1])
    x_half = 0.5 * (xs[-1] - xs[0])
    u = (xs - x_mid) / x_half

    errors = [None] * len(scans)
    fits = [None] * len(scans)
    fitted, ys, theta0 = [], [], []  # the scans the solver gets
    for k, scan in enumerate(scans):
        values = scan.values[keep]
        scale = float(values.max())
        if scale <= 0:
            errors[k] = "scan has no positive samples"
            continue
        values = values / scale
        if values.max() - values.min() < 1e-12:  # no fringe content at all
            fits[k] = VisibilityFit(visibility=0.0, fringe_period=xs[-1] - xs[0],
                                    phase=0.0, residual_rms=0.0)
            continue
        fitted.append(k)
        ys.append(values)
        theta0.append([np.log(max(values.mean(), 1e-12)), 0.0, 0.0, 0.5,
                       period_hint / x_half, 0.0])

    ys = np.array(ys)

    def residuals(theta):
        e0, e1, e2, v, period, phi = theta.T[:, :, None]
        env = np.exp(e0 + e1 * u + e2 * u * u)
        arg = 2.0 * np.pi * u / period + phi
        cos, sin = np.cos(arg), np.sin(arg)
        model = env * (1.0 + v * cos)
        jac = np.stack([model, u * model, u * u * model, env * cos,
                        env * v * sin * 2.0 * np.pi * u / (period * period),
                        -env * v * sin], axis=2)
        return model - ys, jac

    max_nfev = 20000
    if fitted:
        solved = _levenberg_marquardt(residuals, theta0, max_nfev)
        for k, theta, r, converged in zip(fitted, *solved):
            if not converged:
                errors[k] = (f"visibility fit did not converge in {max_nfev} "
                             f"evaluations")
                continue
            rms = float(np.sqrt(np.mean(r * r)))
            if rms > 0.20:
                errors[k] = (f"visibility fit residual RMS {rms:.3f} exceeds "
                             f"20% of max")
                continue
            period = abs(float(theta[4])) * x_half
            phase = float(theta[5]) - 2.0 * np.pi * x_mid / period
            fits[k] = VisibilityFit(
                visibility=min(abs(float(theta[3])), 1.0), fringe_period=period,
                phase=float(np.mod(phase + np.pi, 2 * np.pi) - np.pi),
                residual_rms=rms)
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise FitError(error)
    return fits
