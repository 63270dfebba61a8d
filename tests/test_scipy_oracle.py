"""The package's NumPy J1 and fits against SciPy, the independent oracle.

SciPy is a test dependency only (`pip install .[test]`); the package itself
imports none of it.  The fit references are MINPACK Levenberg-Marquardt runs
from deterministic starts computed from the scan, with the analytic Jacobian
and every tolerance at 1e-15.
"""

import numpy as np
import pytest
from frame_sources import drawn_stack, stack_scan
from scipy.optimize import least_squares, root
from scipy.special import j1

from gsmspdc.analysis import fit_gaussian, fit_visibility
from gsmspdc.errors import FitError
from gsmspdc.interference import SlitGeometry, fringe_profiles
from gsmspdc.profiles import overlap_point
from gsmspdc.pump import PumpParams, _bessel_j1, csd_coefficients
from gsmspdc.records import Scan1D
from gsmspdc.spdc import CrystalParams, joint_momentum_rate

TIGHT = dict(method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=100000)
CRYSTAL = CrystalParams(L=2e-3, kind="II", theta_nc=np.deg2rad(3),
                        rho_p=0.07, rho_i=0.07)


def test_bessel_j1_matches_scipy():
    x = np.concatenate([
        np.linspace(0.0, 40.0, 40001),
        np.linspace(24.999, 25.001, 2001),    # both sides of the branch switch
        np.geomspace(1e-9, 3e5, 20001),
        np.linspace(0.0, 3e5, 60001),
    ])
    assert np.max(np.abs(_bessel_j1(x) - j1(x))) <= 2e-15


# ---------------------------------------------------------------- Gaussian

def reference_gaussian_sigma(scan, weights):
    """|sigma| at the optimum nearest the scan's second-moment start, an
    independent start: fit_gaussian starts from its grid's best cell.

    On noisy coincidence scans the cost is flat along sigma to within its
    rounding, and MINPACK's relative-reduction test ends up to 1e-8 short of
    the optimum even at 1e-15.  So the reference then solves the stationarity
    condition J^T r = 0 from there (MINPACK hybrd), which pins sigma to
    rounding; its success flag may read False at that floor.
    """
    xs, ys = scan.xs, scan.values
    offset0 = ys.min()
    w = np.clip(ys - offset0, 0.0, None)
    mu0 = np.sum(w * xs) / np.sum(w)
    sigma0 = np.sqrt(np.sum(w * (xs - mu0) ** 2) / np.sum(w))
    wts = np.ones_like(ys) if weights is None else weights

    def residuals(theta):
        a, mu, s, c = theta
        return wts * (a * np.exp(-((xs - mu) ** 2) / (2 * s * s)) + c - ys)

    def jacobian(theta):
        a, mu, s, _ = theta
        dx = xs - mu
        bump = np.exp(-dx * dx / (2 * s * s))
        return wts[:, None] * np.stack(
            [bump, a * bump * dx / s**2, a * bump * dx * dx / s**3,
             np.ones_like(xs)], axis=1)

    start = [ys.max() - offset0, mu0, sigma0, offset0]
    fit = least_squares(residuals, start, jac=jacobian, **TIGHT)
    stationary = root(lambda theta: jacobian(theta).T @ residuals(theta), fit.x,
                      method="hybr", options={"xtol": 1e-15})
    return abs(stationary.x[2])


def coincidence_scan(A, seed):
    """Jackknifed conditional scan of a synthesized stack at the overlap point."""
    pump = PumpParams.from_coherence(405e-9, 0.5e-3, A)
    q_s0 = overlap_point(CRYSTAL, pump.k_p)[0]
    sigma = csd_coefficients(pump).sum_sigma
    qs = np.linspace(q_s0 - 5 * sigma, q_s0 + 5 * sigma, 48)
    qi = np.linspace(-q_s0 - 5 * sigma, -q_s0 + 5 * sigma, 48)
    joint = joint_momentum_rate((qs[:, None], 0.0), (qi[None, :], 0.0),
                                pump, CRYSTAL)
    stack = drawn_stack(joint, 20.0, 1e-3, 4000, seed=seed)
    return stack_scan(stack, (0, int(np.argmax(joint.sum(axis=1)))), row=1)


def gaussian_corpus():
    rng = np.random.default_rng(101)
    xs = np.linspace(-10, 10, 200)
    cases = {
        "noiseless": Scan1D(xs=np.arange(40.0), values=3.0 * np.exp(
            -((np.arange(40.0) - 17.0) ** 2) / 8.0) + 0.5),
        "noisy": Scan1D(xs=xs, values=np.exp(-xs**2 / 8.0)
                        + 0.01 * rng.normal(size=xs.size)),
        "shifted": Scan1D(xs=np.linspace(-5, 5, 150) + 42.0, values=2.0 * np.exp(
            -np.linspace(-5, 5, 150) ** 2 / (2 * 1.3**2)) + 0.1),
    }
    for A, seed in ((0.3, 1), (0.5, 2), (0.7, 3)):
        cases[f"coincidence-A{A}"] = coincidence_scan(A, seed)
    return cases


GAUSSIAN_CORPUS = gaussian_corpus()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("case", sorted(GAUSSIAN_CORPUS))
def test_fit_gaussian_matches_scipy(case, weighted):
    scan = GAUSSIAN_CORPUS[case]
    weights = None
    if weighted:  # inverse jackknife stderr, or a ramp where there is none
        stderr = scan.meta.get("stderr", np.linspace(0.5, 2.0, scan.xs.size))
        weights = 1.0 / np.clip(stderr, 1e-12, None)
    sigma = fit_gaussian(scan, weights=weights).sigma
    assert sigma == pytest.approx(reference_gaussian_sigma(scan, weights),
                                  rel=1e-10, abs=0)


def test_fit_gaussian_finds_the_peak_past_a_one_sample_spike():
    """On this noisy scan a fit started from the second moment (11 px) slides
    into a one-sample spike of sigma 0.0015 px.  From the grid's best cell
    (mu 23 px, sigma 4.08 px) it reaches the peak, at a point where SciPy
    finds J^T r = 0, and agrees with the jackknife-weighted fit."""
    scan = coincidence_scan(0.7, 3 + 23 * 1000003)
    fit = fit_gaussian(scan)
    xs, ys = scan.xs, scan.values

    def gradient(theta):
        a, mu, s, c = theta
        dx = xs - mu
        bump = np.exp(-dx * dx / (2 * s * s))
        jac = np.stack([bump, a * bump * dx / s**2, a * bump * dx * dx / s**3,
                        np.ones_like(xs)], axis=1)
        return jac.T @ (a * bump + c - ys)

    stationary = root(gradient, [fit.amplitude, fit.mean, fit.sigma, fit.offset],
                      method="hybr", options={"xtol": 1e-15})
    assert fit.sigma == pytest.approx(abs(stationary.x[2]), rel=1e-10, abs=0)
    weights = 1.0 / np.clip(scan.meta["stderr"], 1e-12, None)
    assert fit.sigma == pytest.approx(fit_gaussian(scan, weights=weights).sigma,
                                      rel=0.05)
    assert fit.sigma > 3.0


# -------------------------------------------------------------- visibility

def reference_visibility(scan, period_hint, window=None):
    """V of a tightly converged MINPACK fit from fit_visibility's start."""
    xs, ys = scan.xs, scan.values
    if window is not None:
        keep = np.abs(xs - 0.5 * (xs[0] + xs[-1])) <= window
        xs, ys = xs[keep], ys[keep]
    ys = ys / ys.max()
    x_half = 0.5 * (xs[-1] - xs[0])
    u = (xs - 0.5 * (xs[0] + xs[-1])) / x_half

    def residuals(theta):
        e0, e1, e2, v, period, phi = theta
        env = np.exp(e0 + e1 * u + e2 * u * u)
        return env * (1 + v * np.cos(2 * np.pi * u / period + phi)) - ys

    def jacobian(theta):
        e0, e1, e2, v, period, phi = theta
        env = np.exp(e0 + e1 * u + e2 * u * u)
        arg = 2 * np.pi * u / period + phi
        model = env * (1 + v * np.cos(arg))
        return np.stack([model, u * model, u * u * model, env * np.cos(arg),
                         env * v * np.sin(arg) * 2 * np.pi * u / period**2,
                         -env * v * np.sin(arg)], axis=1)

    fit = least_squares(residuals, [np.log(ys.mean()), 0, 0, 0.5,
                                    period_hint / x_half, 0],
                        jac=jacobian, **TIGHT)
    return min(abs(fit.x[3]), 1.0)


def visibility_corpus():
    xs = np.linspace(0.0, 6.0, 600)
    wide = np.linspace(-3, 3, 1200)
    cases = {
        "raised-cosine": (Scan1D(xs=xs, values=0.5 + 0.5 * np.cos(
            2 * np.pi * xs + 0.3)), {"period_hint": 1.0}),
        "three-to-one": (Scan1D(xs=xs, values=2.0 + np.cos(
            2 * np.pi * xs + 0.3)), {"period_hint": 1.0}),
        "gaussian-envelope": (Scan1D(xs=wide, values=np.exp(-wide**2 / 2.0) * (
            1 + 0.62 * np.cos(2 * np.pi * wide / 0.8 + 0.1))), {"period_hint": 0.8}),
        # the id dates from when this case ran without a period hint
        "no-hint": (Scan1D(xs=wide, values=np.exp(-wide**2 / 8.0) * (
            1 + 0.8 * np.cos(2 * np.pi * wide / 0.5))), {"period_hint": 0.5}),
    }
    pumps = [PumpParams.from_coherence(405e-9, 0.5e-3, A) for A in (0.9, 0.5, 0.2)]
    for d in (0.25e-3, 0.75e-3):
        slits = SlitGeometry(a=0.15e-3, d=d, z=0.10, z1=0.20)
        for scan in fringe_profiles(pumps, CRYSTAL, slits, samples=1001):
            period = scan.meta["fringe_period_m"]
            cases[f"fringes-A{scan.meta['A']:.1f}-d{d * 1e3:.2f}mm"] = (
                scan, {"period_hint": period, "window": 2.0 * period})
    return cases


VISIBILITY_CORPUS = visibility_corpus()


@pytest.mark.parametrize("case", sorted(VISIBILITY_CORPUS))
def test_fit_visibility_matches_scipy(case):
    scan, kwargs = VISIBILITY_CORPUS[case]
    assert fit_visibility([scan], **kwargs)[0].visibility == pytest.approx(
        reference_visibility(scan, **kwargs), abs=1e-10)


def fringe_batches():
    """The corpus's fringe scans grouped by slit separation, one xs each."""
    batches = {}
    for case, (scan, kwargs) in sorted(VISIBILITY_CORPUS.items()):
        if case.startswith("fringes-"):
            batches.setdefault(case.rsplit("-", 1)[1], []).append((scan, kwargs))
    return batches


@pytest.mark.parametrize("d", sorted(fringe_batches()))
def test_fit_visibility_batch_equals_each_scan_alone(d):
    scans, kwargs = zip(*fringe_batches()[d])
    assert len(scans) == 3 and all(k == kwargs[0] for k in kwargs)
    alone = [fit_visibility([scan], **kwargs[0])[0] for scan in scans]
    assert fit_visibility(scans, **kwargs[0]) == alone  # bit for bit
    assert fit_visibility(scans[::-1], **kwargs[0]) == alone[::-1]


def test_fit_visibility_batch_raises_what_its_failing_scan_raises():
    # narrow periodic pulses leave > 20% residual under the fringe model,
    # while the raised cosines beside them fit
    xs = np.linspace(0.0, 6.0, 600)
    pulses = Scan1D(xs=xs, values=np.where(np.mod(xs, 1.0) < 0.15, 1.0, 0.02))
    good = [VISIBILITY_CORPUS[case][0] for case in ("raised-cosine",
                                                    "three-to-one")]
    with pytest.raises(FitError) as alone:
        fit_visibility([pulses], period_hint=1.0)
    assert "exceeds 20% of max" in str(alone.value)
    for batch in ([good[0], pulses, good[1]], [good[1], pulses, good[0]]):
        with pytest.raises(FitError) as batched:
            fit_visibility(batch, period_hint=1.0)
        assert str(batched.value) == str(alone.value)
    assert fit_visibility(good, period_hint=1.0) == [
        fit_visibility([scan], period_hint=1.0)[0] for scan in good]


def test_fit_visibility_rejects_scans_on_different_axes():
    scan = VISIBILITY_CORPUS["raised-cosine"][0]
    shifted = Scan1D(xs=scan.xs + 0.5, values=scan.values)
    with pytest.raises(ValueError, match="one xs"):
        fit_visibility([scan, shifted], period_hint=1.0)
    with pytest.raises(ValueError, match="one xs"):
        fit_visibility([], period_hint=1.0)
