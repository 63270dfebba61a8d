import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shared import scan_fwhm

from gsmspdc import analysis
from gsmspdc.analysis import (FWHM_SIGMA_RATIO, _levenberg_marquardt,
                              fit_gaussian, fit_visibility)
from gsmspdc.errors import FitError
from gsmspdc.records import Scan1D


def raised_cosine(i_max, i_min, periods=6.0, n=600, phase=0.3):
    xs = np.linspace(0.0, periods, n)
    mean = 0.5 * (i_max + i_min)
    amp = 0.5 * (i_max - i_min)
    return Scan1D(xs=xs, values=mean + amp * np.cos(2 * np.pi * xs + phase))


class TestFitVisibility:
    def test_constant_scan(self):
        scan = Scan1D(xs=np.linspace(0, 1, 100), values=np.full(100, 2.5))
        assert fit_visibility([scan], period_hint=0.1)[0].visibility == 0.0

    def test_pure_raised_cosine(self):
        fit = fit_visibility([raised_cosine(1.0, 0.0)], period_hint=1.0)[0]
        assert fit.visibility == pytest.approx(1.0, abs=1e-6)
        assert fit.fringe_period == pytest.approx(1.0, rel=1e-6)

    def test_three_to_one_contrast(self):
        fit = fit_visibility([raised_cosine(3.0, 1.0)], period_hint=1.0)[0]
        assert fit.visibility == pytest.approx(0.5, abs=1e-6)

    def test_scale_invariance(self):
        scan = raised_cosine(3.0, 1.0)
        base = fit_visibility([scan], period_hint=1.0)[0].visibility
        for scale in (1e-6, 7.3, 1e4):
            scaled = Scan1D(xs=scan.xs, values=scale * scan.values)
            assert fit_visibility([scaled], period_hint=1.0)[0].visibility == pytest.approx(
                base, abs=1e-9)

    def test_gaussian_envelope_recovered(self):
        xs = np.linspace(-3, 3, 1200)
        env = np.exp(-xs**2 / 2.0)
        values = env * (1 + 0.62 * np.cos(2 * np.pi * xs / 0.8 + 0.1))
        fit = fit_visibility([Scan1D(xs=xs, values=values)], period_hint=0.8)[0]
        assert fit.visibility == pytest.approx(0.62, abs=1e-6)

    def test_residual_threshold_reports_failure(self):
        # narrow periodic pulses leave > 20% residual under the fringe model
        xs = np.linspace(0, 6, 600)
        values = np.where(np.mod(xs, 1.0) < 0.15, 1.0, 0.02)
        with pytest.raises(FitError):
            fit_visibility([Scan1D(xs=xs, values=values)], period_hint=1.0)[0]


# Problems r = f(A theta) - y of one (n, p) shape.  Together they stop in
# every way the solver stops: the gradient rule at an exact start, a step
# below _LM_XTOL (most linear and nonlinear problems), a zero Jacobian
# column, a spent evaluation budget, and a non-finite start.
KINDS = ("exact", "linear", "zero-column", "nonlinear", "non-finite")


def problem_stack(kinds, n, p, seed):
    """(a, y, sine, bad, theta0) of a stack of one problem per kind: f is sin
    where sine holds and the identity elsewhere, and the residual and
    Jacobian are NaN everywhere where bad holds."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(kinds), n, p))
    y = rng.normal(size=(len(kinds), n))
    theta0 = rng.normal(size=(len(kinds), p))
    for k, kind in enumerate(kinds):
        if kind == "exact":  # integers, so y = A theta0 holds exactly
            a[k] = rng.integers(-3, 4, size=(n, p))
            theta0[k] = rng.integers(-3, 4, size=p)
            y[k] = a[k] @ theta0[k]
        elif kind == "zero-column":
            a[k, :, 0] = 0.0
    sine = np.array([kind == "nonlinear" for kind in kinds])
    bad = np.array([kind == "non-finite" for kind in kinds])
    return a, y, sine, bad, theta0


def stack_residuals(a, y, sine, bad):
    def fun(theta):
        z = (a @ theta[:, :, None])[:, :, 0]
        r = np.where(sine[:, None], np.sin(z), z) - y
        jac = np.where(sine[:, None, None], np.cos(z)[:, :, None] * a, a)
        return (np.where(bad[:, None], np.nan, r),
                np.where(bad[:, None, None], np.nan, jac))
    return fun


class TestSingularJacobian:
    """Stacks with a problem whose Jacobian is (nearly) singular: each
    problem's QR of [J r] and SVD of its triangle stay its own, on short and
    long residuals alike."""

    PERIOD = 3.2e-4

    def fit(self, scans):
        return fit_visibility(scans, period_hint=self.PERIOD,
                              window=2 * self.PERIOD)

    # 81 and 301 rows in the fitted window
    @pytest.mark.parametrize("samples", [161, 601])
    def test_pair_fits_as_each_scan_alone(self, samples):
        xs = np.linspace(-4 * self.PERIOD, 4 * self.PERIOD, samples)
        envelope = np.exp(-(xs / (3 * self.PERIOD)) ** 2)
        # fringe-free: as V -> 0 the period and phase columns vanish
        flat_scan = Scan1D(xs=xs, values=envelope)
        fringe_scan = Scan1D(xs=xs, values=envelope * (
            1 + 0.6 * np.cos(2 * np.pi * xs / (1.02 * self.PERIOD) + 0.3)))
        flat, = self.fit([flat_scan])
        fringe, = self.fit([fringe_scan])
        assert self.fit([flat_scan, fringe_scan]) == [flat, fringe]
        assert self.fit([fringe_scan, flat_scan]) == [fringe, flat]
        # each reaches its exact fit, the singular one too
        assert flat.visibility < 1e-12 and flat.residual_rms < 1e-12
        assert fringe.visibility == pytest.approx(0.6, abs=1e-12)
        assert fringe.fringe_period == pytest.approx(1.02 * self.PERIOD,
                                                     rel=1e-12)
        assert fringe.phase == pytest.approx(0.3, abs=1e-12)
        assert fringe.residual_rms < 1e-12

    @pytest.mark.parametrize("rows", [40, 400])
    def test_zero_column_stays_still(self, rows):
        # r = A theta - y with an all-zero third column in the first problem
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, rows, 3))
        a[0, :, 2] = 0.0
        y = rng.normal(size=(2, rows))
        theta0 = np.array([[0.5, -0.5, 0.25], [0.5, -0.5, 0.25]])

        off = np.zeros(2, dtype=bool)  # neither sine nor NaN
        problems = (a, y, off, off)

        stacked = _levenberg_marquardt(stack_residuals(*problems), theta0, 200)
        for k in range(2):
            alone = _levenberg_marquardt(
                stack_residuals(*(x[k:k + 1] for x in problems)),
                theta0[k:k + 1], 200)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[k], want[0])
        theta, _, converged = stacked
        assert converged.all()
        assert theta[0, 2] == theta0[0, 2]
        ols = [np.linalg.lstsq(a[0, :, :2], y[0])[0],
               np.linalg.lstsq(a[1], y[1])[0]]
        assert np.allclose(theta[0, :2], ols[0], rtol=0, atol=1e-9)
        assert np.allclose(theta[1], ols[1], rtol=0, atol=1e-9)


class TestStackContract:
    @settings(max_examples=60, deadline=None, database=None)
    @given(extra=st.integers(0, 2), n=st.integers(1, 6), p=st.integers(1, 3),
           max_nfev=st.sampled_from([1, 2, 3, 200]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_each_problem_fits_as_alone(self, extra, n, p, max_nfev, seed,
                                        data):
        kinds = data.draw(st.permutations(list(KINDS) + ["linear"] * extra))
        *problems, theta0 = problem_stack(kinds, n, p, seed)
        with np.errstate(all="raise"):
            stacked = _levenberg_marquardt(stack_residuals(*problems), theta0,
                                           max_nfev)
            for k, kind in enumerate(kinds):
                alone = _levenberg_marquardt(
                    stack_residuals(*(x[k:k + 1] for x in problems)),
                    theta0[k:k + 1], max_nfev)
                for got, want in zip(stacked, alone):
                    assert got[k].tobytes() == want[0].tobytes(), kind
        theta, r, converged = stacked
        for k, kind in enumerate(kinds):
            if kind == "exact":
                assert converged[k] and not r[k].any()
                assert np.array_equal(theta[k], theta0[k])
            elif kind == "non-finite":
                assert not converged[k] and np.isnan(r[k]).all()
                assert np.array_equal(theta[k], theta0[k])
            elif kind == "zero-column" and n >= p:  # R has a zero column
                assert theta[k, 0] == theta0[k, 0]
            elif kind == "linear":
                assert converged[k] == (max_nfev > 3)

    def test_all_non_finite_stack_returns_its_start(self):
        *problems, theta0 = problem_stack(["non-finite"] * 3, 4, 2, 0)
        fun, calls = stack_residuals(*problems), []

        def counted(theta):
            calls.append(len(theta))
            return fun(theta)

        theta, r, converged = _levenberg_marquardt(counted, theta0, 200)
        assert calls == [3]
        assert np.array_equal(theta, theta0)
        assert np.isnan(r).all() and not converged.any()


class TestFitGaussian:
    def test_noiseless_recovery(self):
        xs = np.arange(40.0)
        values = 3.0 * np.exp(-((xs - 17.0) ** 2) / (2 * 2.0**2)) + 0.5
        fit = fit_gaussian(Scan1D(xs=xs, values=values))
        assert fit.sigma == pytest.approx(2.0, abs=1e-6)
        assert fit.fwhm == pytest.approx(4.70964, abs=1e-4)
        assert fit.mean == pytest.approx(17.0, abs=1e-8)
        assert fit.offset == pytest.approx(0.5, abs=1e-8)

    def test_noisy_recovery_within_5pc(self):
        rng = np.random.default_rng(101)
        xs = np.linspace(-10, 10, 200)
        clean = np.exp(-xs**2 / (2 * 2.0**2))
        noisy = clean + 0.01 * rng.normal(size=xs.size)
        fit = fit_gaussian(Scan1D(xs=xs, values=noisy))
        assert abs(fit.sigma - 2.0) / 2.0 < 0.05

    def test_flat_scan_raises(self):
        with pytest.raises(FitError):
            fit_gaussian(Scan1D(xs=np.arange(20.0), values=np.ones(20)))

    def test_boundary_peak_raises(self):
        xs = np.arange(20.0)
        with pytest.raises(FitError):
            fit_gaussian(Scan1D(xs=xs, values=np.exp(-xs / 3.0)))

    def test_too_few_samples_raises(self):
        with pytest.raises(FitError):
            fit_gaussian(Scan1D(xs=np.arange(4.0), values=np.array([0, 1, 2, 1.0])))

    def test_spike_narrower_than_half_pitch_raises(self):
        # one raised sample fits a sigma of about 0.12 pitches
        xs = np.arange(20.0)
        with pytest.raises(FitError, match="half the sample pitch"):
            fit_gaussian(Scan1D(xs=xs, values=np.where(xs == 9.0, 1.0, 0.0)))
        # a peak the samples resolve still fits
        values = np.exp(-((xs - 9.0) ** 2) / (2 * 0.75**2))
        fit = fit_gaussian(Scan1D(xs=xs, values=values))
        assert fit.sigma == pytest.approx(0.75, abs=1e-6)

    def test_zero_weights_raise(self):
        # no cell of the start grid has a solvable amplitude
        xs = np.arange(20.0)
        values = np.exp(-((xs - 9.0) ** 2) / 8.0)
        with pytest.raises(FitError, match="positive amplitude"):
            fit_gaussian(Scan1D(xs=xs, values=values), weights=np.zeros(20))

    def test_lower_cost_start_wins(self):
        # a one-sample spike on a broad peak: the grid's half-pitch cells fit
        # the spike, but a cell on the broad peak leaves the smaller residual
        xs = np.arange(40.0)
        values = np.exp(-((xs - 20.0) ** 2) / (2 * 6.0**2)) + 1.5 * (xs == 20.0)
        fit = fit_gaussian(Scan1D(xs=xs, values=values))
        assert fit.sigma == pytest.approx(4.776, abs=1e-3)

    def test_translation_equivariance(self):
        xs = np.linspace(-5, 5, 150)
        values = 2.0 * np.exp(-xs**2 / (2 * 1.3**2)) + 0.1
        base = fit_gaussian(Scan1D(xs=xs, values=values))
        shifted = fit_gaussian(Scan1D(xs=xs + 42.0, values=values))
        assert shifted.mean - base.mean == pytest.approx(42.0, abs=1e-9)
        assert shifted.sigma == pytest.approx(base.sigma, abs=1e-9)

    def test_evaluation_budget_exhausted_raises(self, monkeypatch):
        # the noisy scan above needs more than 5 evaluations
        monkeypatch.setattr(analysis, "_GAUSSIAN_MAX_NFEV", 5)
        rng = np.random.default_rng(101)
        xs = np.linspace(-10, 10, 200)
        noisy = np.exp(-xs**2 / (2 * 2.0**2)) + 0.01 * rng.normal(size=xs.size)
        with pytest.raises(FitError, match="did not converge in 5 evaluations"):
            fit_gaussian(Scan1D(xs=xs, values=noisy))

    def test_fwhm_sigma_ratio(self):
        assert FWHM_SIGMA_RATIO == pytest.approx(2.35482, abs=1e-5)


class TestScanFwhm:
    def test_gaussian_fwhm(self):
        xs = np.linspace(-10, 10, 4001)
        values = np.exp(-xs**2 / (2 * 1.5**2))
        assert scan_fwhm(Scan1D(xs=xs, values=values)) == pytest.approx(
            FWHM_SIGMA_RATIO * 1.5, rel=1e-5)

    def test_boundary_peak_raises(self):
        xs = np.linspace(0, 5, 50)
        with pytest.raises(FitError):
            scan_fwhm(Scan1D(xs=xs, values=np.exp(-xs)))
