"""Curve fitting and figure-of-merit extraction.

All fits start from values computed from the scan (moments, and for the
Gaussian also the half-maximum width; no random restarts), so repeated runs
give identical results.  Both nonlinear fits share one
Levenberg-Marquardt solver with analytic Jacobians.
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


def _levenberg_marquardt(fun, theta0, max_nfev):
    """Minimize |r(theta)|^2 for fun(theta) -> (r, J), with J = dr/dtheta.

    Each parameter is measured in units of the largest norm its Jacobian
    column has reached (Marquardt scaling), so the damping does not depend on
    the parameters' units.  A trial step solves the damped normal equations
    through one SVD of the scaled Jacobian, without forming J^T J; the damping
    follows Nielsen's update.  Returns (theta, r, converged), where converged
    is False when max_nfev evaluations were spent before the stopping rule held.
    """
    theta = np.array(theta0, dtype=float)
    r, jac = fun(theta)
    nfev = 1
    scale = np.zeros(theta.size)
    damping, growth = None, 2.0
    while True:
        cost = float(r @ r)
        if not np.isfinite(cost):
            return theta, r, False
        norms = np.linalg.norm(jac, axis=0)
        grad = jac.T @ r
        if np.all(np.abs(grad) <= _LM_GTOL * norms * np.sqrt(cost)):
            return theta, r, True
        scale = np.maximum(scale, norms)
        scale[scale == 0.0] = 1.0
        u, s, vt = np.linalg.svd(jac / scale, full_matrices=False)
        ur = u.T @ r
        if damping is None:
            damping = _LM_DAMPING0 * s[0] ** 2
        size = np.linalg.norm(scale * theta)
        while True:
            shrink = damping / (s * s + damping)
            scaled_step = -(vt.T @ (s * ur / (s * s + damping)))
            if np.linalg.norm(scaled_step) <= _LM_XTOL * (size + _LM_XTOL):
                return theta, r, True
            if nfev >= max_nfev:
                return theta, r, False
            trial = theta + scaled_step / scale
            r_trial, jac_trial = fun(trial)
            nfev += 1
            predicted = float(ur * ur @ (1.0 - shrink * shrink))
            actual = float((r - r_trial) @ (r + r_trial))  # no cancellation
            if actual > 0.0:  # False for a non-finite trial residual too
                factor = max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
            elif (predicted <= _LM_FLAT * cost
                  and np.linalg.norm(jac_trial.T @ r_trial / scale)
                  < np.linalg.norm(grad / scale)):
                factor = 1.0 / 3.0
            else:
                damping *= growth
                growth *= 2.0
                continue
            damping = max(damping * factor, _TINY)  # s = 0 directions stay still
            growth = 2.0
            theta, r, jac = trial, r_trial, jac_trial
            break


def fit_gaussian(scan: Scan1D, weights=None, max_iter=200) -> GaussianFit:
    """Nonlinear least-squares Gaussian fit y = A exp(-(x-mu)^2/(2 s^2)) + c.

    The scan must be single-peaked with at least 5 samples, and its peak must
    not sit on the boundary.  A fitted sigma below half the sample pitch is
    a spike the samples cannot resolve, not a peak, and is rejected.

    The fit runs from two starts of sigma, the width at half maximum above
    the scan minimum and the second moment, and returns the accepted fit of
    lower cost: on a noisy scan either start alone can slide into a
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

    def residuals(theta):
        a, mu, s, c = theta
        dx = xs - mu
        bump = np.exp(-dx * dx / (2.0 * s * s))
        jac = np.stack([bump, a * bump * dx / s**2, a * bump * dx * dx / s**3,
                        np.ones_like(xs)], axis=1)
        return wts * (a * bump + c - ys), wts[:, None] * jac

    fits = []  # (cost, theta, r) of each accepted fit
    for sigma0 in sigma_starts:  # if none is accepted, the last one's failure
        theta, r, converged = _levenberg_marquardt(
            residuals, [amp0, mu0, sigma0, offset0], max_nfev)
        if not converged:
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


def fit_visibility(scan: Scan1D, period_hint: float, window=None) -> VisibilityFit:
    """Fit I(x) = E(x) [1 + V cos(2 pi x / P + phi)] and return V in [0, 1].

    E(x) = exp(e0 + e1 x + e2 x^2) is a slowly varying non-negative envelope.
    The scan must cover at least 3 fringe periods.

    Parameters
    ----------
    period_hint : float
        Expected fringe period, the fit's starting value.
    window : float, optional
        Restrict the fit to |x - x_center| <= window.

    Raises
    ------
    FitError
        If the fit does not converge or the residual RMS exceeds 20% of the
        maximum intensity.
    """
    xs, ys = scan.xs, scan.values
    if window is not None:
        center = 0.5 * (xs[0] + xs[-1])
        keep = np.abs(xs - center) <= window
        xs, ys = xs[keep], ys[keep]
    if xs.size < 8:
        raise FitError("too few samples for a fringe fit")
    scale = float(ys.max())
    if scale <= 0:
        raise FitError("scan has no positive samples")
    ys = ys / scale

    # fit in shifted dimensionless coordinates so all parameters share scale
    x_mid = 0.5 * (xs[0] + xs[-1])
    x_half = 0.5 * (xs[-1] - xs[0])
    u = (xs - x_mid) / x_half

    # constant scan: no fringe content at all
    if ys.max() - ys.min() < 1e-12:
        return VisibilityFit(visibility=0.0, fringe_period=xs[-1] - xs[0],
                             phase=0.0, residual_rms=0.0)

    def residuals(theta):
        e0, e1, e2, v, period, phi = theta
        env = np.exp(e0 + e1 * u + e2 * u * u)
        arg = 2.0 * np.pi * u / period + phi
        cos, sin = np.cos(arg), np.sin(arg)
        model = env * (1.0 + v * cos)
        jac = np.stack([model, u * model, u * u * model, env * cos,
                        env * v * sin * 2.0 * np.pi * u / period**2,
                        -env * v * sin], axis=1)
        return model - ys, jac

    max_nfev = 20000
    theta0 = [np.log(max(ys.mean(), 1e-12)), 0.0, 0.0, 0.5,
              period_hint / x_half, 0.0]
    theta, r, converged = _levenberg_marquardt(residuals, theta0, max_nfev)
    if not converged:
        raise FitError(f"visibility fit did not converge in {max_nfev} evaluations")
    rms = float(np.sqrt(np.mean(r * r)))
    if rms > 0.20:
        raise FitError(f"visibility fit residual RMS {rms:.3f} exceeds 20% of max")
    v = min(abs(float(theta[3])), 1.0)
    period = abs(float(theta[4])) * x_half
    phase = float(theta[5]) - 2.0 * np.pi * x_mid / period
    return VisibilityFit(visibility=v, fringe_period=period,
                         phase=float(np.mod(phase + np.pi, 2 * np.pi) - np.pi),
                         residual_rms=rms)


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
