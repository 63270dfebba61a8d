import numpy as np
import pytest

from gsmspdc.analysis import (FWHM_SIGMA_RATIO, fit_gaussian, fit_visibility,
                              scan_fwhm)
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

    def test_lower_cost_start_wins(self):
        # a one-sample spike on a broad peak: the half-maximum start fits the
        # spike (sigma 0.72), the second-moment start the broad peak, which
        # leaves the smaller residual
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

    def test_evaluation_budget_exhausted_raises(self):
        # the noisy scan above needs more than the 5 evaluations max_iter=1 allows
        rng = np.random.default_rng(101)
        xs = np.linspace(-10, 10, 200)
        noisy = np.exp(-xs**2 / (2 * 2.0**2)) + 0.01 * rng.normal(size=xs.size)
        with pytest.raises(FitError, match="did not converge"):
            fit_gaussian(Scan1D(xs=xs, values=noisy), max_iter=1)

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
