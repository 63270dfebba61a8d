"""Curve fitting and figure-of-merit extraction.

All fits start from values computed from the scan (moments, and for the
Gaussian also the half-maximum width; no random restarts), so repeated runs
give identical results.  Both nonlinear fits share one
Levenberg-Marquardt solver with analytic Jacobians, which solves a stack of
problems at once: fit_visibility's scans on one detector axis, or
fit_gaussian's starts.  At each new point of a long residual it takes one
QR, then an SVD of the scaled triangle, as MINPACK's solver works on the
triangle R of J = QR (More, LNM 630, 1978); a short one's Jacobian costs
less to decompose whole.  Each problem keeps its own scaling, damping,
evaluation count and stopping rule, and the stack only shares the residual
evaluations and factorizations, so a problem's fit is bit for bit its fit
alone.
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
    "scan_fwhm",
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
# rows per parameter from which the QR of [J r] pays for itself: below it one
# SVD of the scaled n x p Jacobian costs less than that QR and the SVD of its
# p x p triangle together (about 200 rows at p = 4 and 6, measured on 2 vCPU
# with OpenBLAS 0.3.31; fit_gaussian's 48 x 4 stays below, and
# fit_visibility's four central periods of 1001 samples, 501 x 6, above)
_LM_QR_ROWS = 32
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


def _scalar_pow(values, exponent):
    """values ** exponent in NumPy's scalar pow, element by element: its
    vectorized pow rounds some of them differently."""
    return np.array([x**exponent for x in values.ravel()]).reshape(values.shape)


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

    theta0 is (B, p); fun(theta, rows) evaluates the problems rows (indices
    into the stack) at theta (len(rows), p) and returns r (len(rows), n) and
    J = dr/dtheta (len(rows), n, p).  Each parameter is measured in units of
    the largest norm its Jacobian column has reached (Marquardt scaling), so
    the damping does not depend on the parameters' units.  A trial step
    solves the damped normal equations without forming J^T J, through an
    SVD of the scaled Jacobian.  With n >= _LM_QR_ROWS p residual rows, it
    takes one QR, then an SVD of the scaled triangle: at each new point the
    n x (p + 1) QR of [J r] gives R of J = Q R and Q^T r, the column norms
    of J are those of R, the gradient J^T r is R^T (Q^T r), and the SVD of
    the p x p R / scale = U_R S V^T gives U^T r = U_R^T (Q^T r), the same
    step as the SVD of the scaled n x p Jacobian in exact arithmetic, with
    only the QR reading the n rows.  The damping follows Nielsen's update.

    Each problem keeps its own scale, damping, evaluation count, accepted
    steps and stopping rule; only the evaluations and factorizations of the
    problems still running are done together, and every reduction is taken
    row by row the way a stack of one takes it, so a problem's result does
    not depend on the others in its stack.  Returns (theta, r, converged)
    stacks, where converged[k] is False when problem k spent max_nfev
    evaluations before its stopping rule held.
    """
    theta = np.array(theta0, dtype=float)
    count, p = theta.shape
    fresh = np.arange(count)    # the problems at a point not yet factored
    r, jac = fun(theta, fresh)  # jac: the Jacobians of the fresh problems
    nfev = np.ones(count, dtype=int)
    scale = np.zeros((count, p))
    damping = np.full(count, np.nan)    # set from each problem's first SVD
    growth = np.full(count, 2.0)
    converged = np.zeros(count, dtype=bool)
    running = np.ones(count, dtype=bool)
    # each problem's cost, gradient, SVD and |scale theta| at its point
    cost, size = np.empty(count), np.empty(count)
    grad, s, ur = np.empty((count, p)), np.empty((count, p)), np.empty((count, p))
    vt = np.empty((count, p, p))
    while True:
        if fresh.size:
            rf = r[fresh]
            cost[fresh] = _rowdot(rf, rf)
            stop = ~np.isfinite(cost[fresh])
            running[fresh[stop]] = False
            if stop.any():
                fresh, jac, rf = fresh[~stop], jac[~stop], rf[~stop]
            if rf.shape[1] >= _LM_QR_ROWS * p:
                # R of [J r] is [[R, Q^T r], [0, |r - Q Q^T r|]] for J = Q R,
                # and (R, Q^T r) stand for (J, r) in every product below
                tri = np.linalg.qr(np.concatenate([jac, rf[:, :, None]],
                                                  axis=2), mode="r")
                jac, rf = tri[:, :p, :p], tri[:, :p, p]
            norms = np.linalg.norm(jac, axis=1)
            g = _matvec(jac.transpose(0, 2, 1), rf)
            stop = np.all(np.abs(g) <= _LM_GTOL * norms
                          * np.sqrt(cost[fresh])[:, None], axis=1)
            converged[fresh[stop]] = True
            running[fresh[stop]] = False
            if stop.any():
                fresh, jac, rf, norms, g = (fresh[~stop], jac[~stop], rf[~stop],
                                            norms[~stop], g[~stop])
            grad[fresh] = g
            sc = np.maximum(scale[fresh], norms)
            sc[sc == 0.0] = 1.0
            scale[fresh] = sc
            u, s[fresh], vt[fresh] = np.linalg.svd(jac / sc[:, None, :],
                                                   full_matrices=False)
            ur[fresh] = _matvec(u.transpose(0, 2, 1), rf)
            first = fresh[np.isnan(damping[fresh])]
            damping[first] = _LM_DAMPING0 * _scalar_pow(s[first, 0], 2)
            size[fresh] = np.sqrt(_rowdot(sc * theta[fresh], sc * theta[fresh]))
        rows = np.flatnonzero(running)
        if rows.size == 0:
            return theta, r, converged
        lam, sv = damping[rows][:, None], s[rows]
        shrink = lam / (sv * sv + lam)
        step = -_matvec(vt[rows].transpose(0, 2, 1),
                        sv * ur[rows] / (sv * sv + lam))
        small = (np.sqrt(_rowdot(step, step))
                 <= _LM_XTOL * (size[rows] + _LM_XTOL))
        converged[rows[small]] = True
        spent = ~small & (nfev[rows] >= max_nfev)
        running[rows[small | spent]] = False
        go = ~(small | spent)
        rows, step, shrink = rows[go], step[go], shrink[go]
        if rows.size == 0:
            fresh = rows
            continue
        trial = theta[rows] + step / scale[rows]
        r_trial, jac_trial = fun(trial, rows)
        nfev[rows] += 1
        predicted = _rowdot(ur[rows] * ur[rows], 1.0 - shrink * shrink)
        actual = _rowdot(r[rows] - r_trial, r[rows] + r_trial)  # no cancellation
        accept = actual > 0.0  # False for a non-finite trial residual too
        # in Python floats, whose cube the factor has always been rounded by
        factor = np.array([max(1.0 / 3.0, 1.0 - (2.0 * a / q - 1.0) ** 3)
                           if a > 0.0 else 0.0
                           for a, q in zip(actual.tolist(), predicted.tolist())])
        valley = np.flatnonzero(~accept & (predicted <= _LM_FLAT * cost[rows]))
        if valley.size:
            k = rows[valley]
            trial_grad = _matvec(jac_trial[valley].transpose(0, 2, 1),
                                 r_trial[valley]) / scale[k]
            lower = (np.sqrt(_rowdot(trial_grad, trial_grad))
                     < np.sqrt(_rowdot(grad[k] / scale[k], grad[k] / scale[k])))
            accept[valley[lower]] = True
            factor[valley[lower]] = 1.0 / 3.0
        back = rows[~accept]
        damping[back] *= growth[back]
        growth[back] *= 2.0
        if not accept.all():
            rows, trial, r_trial, jac_trial, factor = (
                rows[accept], trial[accept], r_trial[accept], jac_trial[accept],
                factor[accept])
        # s = 0 directions stay still
        damping[rows] = np.maximum(damping[rows] * factor, _TINY)
        growth[rows] = 2.0
        theta[rows], r[rows] = trial, r_trial
        fresh, jac = rows, jac_trial


def fit_gaussian(scan: Scan1D, weights=None, max_iter=200) -> GaussianFit:
    """Nonlinear least-squares Gaussian fit y = A exp(-(x-mu)^2/(2 s^2)) + c.

    The scan must be single-peaked with at least 5 samples, and its peak must
    not sit on the boundary.  A fitted sigma below half the sample pitch is
    a spike the samples cannot resolve, not a peak, and is rejected.

    The fit runs from two starts of sigma, the width at half maximum above
    the scan minimum and the second moment, solved as one stack, and returns
    the accepted fit of lower cost: on a noisy scan either start alone can slide into a
    one-sample spike or fail to converge.  Where the scan does not fall to
    half maximum on both sides, only the second moment is tried.

    Parameters
    ----------
    weights : array, optional
        Per-point weights applied to the residuals.

    Raises
    ------
    FitError
        If the data is degenerate (flat, too short, boundary peak), or from
        every start the optimizer fails to converge or the fitted peak is
        narrower than half the sample pitch.
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

    offset0 = float(ys.min())
    amp0 = float(ys[i_max] - offset0)
    w = np.clip(ys - offset0, 0.0, None)
    mu0 = float(np.sum(w * xs) / np.sum(w))
    var0 = float(np.sum(w * (xs - mu0) ** 2) / np.sum(w))
    sigma_starts = [np.sqrt(var0) if var0 > 0 else (xs[-1] - xs[0]) / 6.0]
    left, right = (_half_crossing(xs, ys, i_max, offset0 + amp0 / 2.0, step)
                   for step in (-1, 1))
    if left is not None and right is not None:
        sigma_starts.insert(0, abs(right - left) / FWHM_SIGMA_RATIO)
    wts = np.ones_like(ys) if weights is None else np.asarray(weights, dtype=float)
    pitch = (xs[-1] - xs[0]) / (xs.size - 1)
    max_nfev = max_iter * 5

    def residuals(theta, rows):
        a, mu, s, c = theta.T[:, :, None]
        dx = xs - mu
        bump = np.exp(-dx * dx / (2.0 * s * s))
        jac = np.stack([bump, a * bump * dx / _scalar_pow(s, 2),
                        a * bump * dx * dx / _scalar_pow(s, 3),
                        np.ones_like(bump)], axis=2)
        return wts * (a * bump + c - ys), wts[:, None] * jac

    thetas, rs, converged = _levenberg_marquardt(
        residuals, [[amp0, mu0, sigma0, offset0] for sigma0 in sigma_starts],
        max_nfev)
    fits = []  # (cost, theta, r) of each accepted fit
    for theta, r, ok in zip(thetas, rs, converged):
        if not ok:  # if none is accepted, the last start's failure is raised
            error = f"Gaussian fit did not converge in {max_nfev} evaluations"
        elif abs(theta[2]) < 0.5 * abs(pitch):
            error = (f"fitted sigma {abs(theta[2]):.3g} is below half the "
                     f"sample pitch {abs(pitch):.3g}")
        else:
            fits.append((float(r @ r), theta, r))
    if not fits:
        raise FitError(error)
    _, (a, mu, s, c), r = min(fits, key=lambda fit: fit[0])
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

    def residuals(theta, rows):
        e0, e1, e2, v, period, phi = theta.T[:, :, None]
        env = np.exp(e0 + e1 * u + e2 * u * u)
        arg = 2.0 * np.pi * u / period + phi
        cos, sin = np.cos(arg), np.sin(arg)
        model = env * (1.0 + v * cos)
        jac = np.stack([model, u * model, u * u * model, env * cos,
                        env * v * sin * 2.0 * np.pi * u / _scalar_pow(period, 2),
                        -env * v * sin], axis=2)
        return model - ys[rows], jac

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


def _half_crossing(xs, ys, i_max, half, step):
    """x where ys first falls below half, walking from i_max by step (+-1),
    linearly interpolated; None if it never does inside the scan."""
    for i in range(i_max + step, xs.size if step > 0 else -1, step):
        if ys[i] < half:
            x0, x1 = xs[i - step], xs[i]
            y0, y1 = ys[i - step], ys[i]
            return x0 + (half - y0) * (x1 - x0) / (y1 - y0)
    return None


def scan_fwhm(scan: Scan1D) -> float:
    """Full width at half maximum of a single-peaked scan, linearly interpolated."""
    xs, ys = scan.xs, scan.values
    i_max = int(np.argmax(ys))
    if i_max in (0, xs.size - 1):
        raise FitError("peak sits on the scan boundary")
    half = ys[i_max] / 2.0
    right = _half_crossing(xs, ys, i_max, half, +1)
    left = _half_crossing(xs, ys, i_max, half, -1)
    if right is None or left is None:
        raise FitError("half-maximum level not reached inside the scan")
    return float(right - left)
