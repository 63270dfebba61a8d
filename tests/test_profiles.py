import numpy as np
import pytest

from gsmspdc import quadrature
from gsmspdc.analysis import fit_gaussian, scan_fwhm
from gsmspdc.errors import ConvergenceError
from gsmspdc.interference import SlitGeometry, fringe_profiles
from gsmspdc.profiles import (conditional_scan, momentum_to_position,
                              overlap_point, position_to_momentum,
                              ring_radial_profile, ring_radius, singles_profile)
from gsmspdc.pump import PumpParams
from gsmspdc.spdc import CrystalParams, noncollinear_mismatch

LAMBDA_P = 405e-9
K_P = 2 * np.pi / LAMBDA_P
THETA = np.deg2rad(3.0)


def pump_for(A, w0=0.5e-3):
    return PumpParams.from_coherence(LAMBDA_P, w0, A)


class TestGeometryHelpers:
    def test_ring_radius(self):
        crystal = CrystalParams(L=2e-3, kind="I", theta_nc=THETA)
        assert ring_radius(crystal, K_P) == pytest.approx(K_P * THETA / 2)

    def test_overlap_point_is_phase_matched(self):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=THETA,
                                rho_p=0.07, rho_i=0.07)
        q = overlap_point(crystal, K_P)
        dkz = noncollinear_mismatch(q, (-q[0], -q[1]), crystal, K_P)
        assert abs(dkz) < 1e-6 * K_P * THETA**2

    def test_overlap_point_reduces_to_ring_radius(self):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=THETA)
        q = overlap_point(crystal, K_P)
        assert q[0] == pytest.approx(ring_radius(crystal, K_P), rel=1e-12)

    def test_pixel_mapping_roundtrip(self):
        q = position_to_momentum(1.3e-3, 0.2, 810e-9)
        assert momentum_to_position(q, 0.2, 810e-9) == pytest.approx(
            1.3e-3, rel=1e-12)


class TestSinglesProfile:
    def test_mirror_symmetry_without_walkoff(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        prof = singles_profile(pump_for(0.9, w0=1e-4), crystal, which="signal",
                               samples=96, order=24, check_convergence=False)
        flipped = prof.grid[:, ::-1]
        assert np.max(np.abs(prof.grid - flipped)) < 0.01

    def test_ring_peak_at_expected_radius(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        pump = pump_for(0.7, w0=1e-4)
        radius = ring_radius(crystal, K_P)
        radii = np.linspace(0.5 * radius, 1.5 * radius, 401)
        scan = ring_radial_profile(pump, crystal, [0.0], radii)
        peak_r = radii[int(np.argmax(scan.values))]
        # within one pitch of a 256-sample image grid spanning 3.2 R
        assert abs(peak_r - radius) <= 3.2 * radius / 256

    def test_ring_width_grows_as_coherence_drops(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        radius = ring_radius(crystal, K_P)
        radii = np.linspace(0.6 * radius, 1.4 * radius, 501)
        angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        widths = []
        for A in (0.9, 0.5, 0.2):
            scan = ring_radial_profile(pump_for(A, w0=1e-4), crystal,
                                       angles, radii)
            widths.append(scan_fwhm(scan))
        assert widths[0] < widths[1] < widths[2]

    def test_walkoff_broadens_opposite_side(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        pump = pump_for(0.2, w0=1e-4)
        radius = ring_radius(crystal, K_P)
        radii = np.linspace(0.5 * radius, 1.6 * radius, 501)
        plus = ring_radial_profile(pump, crystal, [0.0], radii)
        minus = ring_radial_profile(pump, crystal, [np.pi], radii)
        assert scan_fwhm(minus) > 1.05 * scan_fwhm(plus)

    def test_type2_has_two_offset_rings(self):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=THETA)
        prof = singles_profile(pump_for(0.8), crystal, which="both",
                               samples=128, order=16, check_convergence=False)
        ys = prof.axis_y()
        column = prof.grid[:, prof.grid.shape[1] // 2]
        # two offset rings put intensity off the horizontal axis
        top = column[ys > 0]
        assert top.max() > 2.0 * column[int(np.argmin(np.abs(ys)))]

    def test_extent_must_cover_ring(self):
        crystal = CrystalParams(L=2e-3, kind="I", theta_nc=THETA)
        with pytest.raises(ValueError):
            singles_profile(pump_for(0.5), crystal,
                            extent=ring_radius(crystal, K_P), samples=32)

    @pytest.mark.parametrize("rule, integrate", [
        ("inner", lambda pump, crystal, radius: singles_profile(
            pump, crystal, which="signal", samples=16)),
        ("inner", lambda pump, crystal, radius: ring_radial_profile(
            pump, crystal, [0.0, np.pi],
            np.linspace(0.5 * radius, 1.6 * radius, 101))),
        ("aperture", lambda pump, crystal, radius: fringe_profiles(
            [pump], crystal, SlitGeometry(a=0.15e-3, d=0.25e-3))),
    ], ids=["singles_profile", "ring_radial_profile", "fringe_profiles"])
    def test_non_convergence_reported(self, rule, integrate, monkeypatch):
        # the inner rule needs order 16 here and the aperture rule order 8;
        # with the shared cap at 4 the gate must give up and name the rule
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        with pytest.raises(ConvergenceError, match=f"{rule} quadrature"):
            integrate(pump_for(0.2, w0=1e-4), crystal, ring_radius(crystal, K_P))

    def test_order_doubling_gate_recorded(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        prof = singles_profile(pump_for(0.2, w0=1e-4), crystal, which="signal",
                               samples=16)
        assert prof.meta["rule"] == "gauss-hermite"
        assert prof.meta["order"] > 4
        assert prof.meta["order_doubling_delta"] <= 1e-4
        fixed = singles_profile(pump_for(0.2, w0=1e-4), crystal, which="signal",
                                samples=16, order=prof.meta["order"],
                                check_convergence=False)
        assert np.array_equal(prof.grid, fixed.grid)
        assert fixed.meta["order_doubling_delta"] is None

    def test_gate_accepts_start_above_cap(self, monkeypatch):
        # a starting order above the cap is checked once by doubling, not
        # rejected unevaluated
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        crystal = CrystalParams(L=2e-3, kind="I", theta_nc=THETA)
        prof = singles_profile(pump_for(0.5), crystal, which="signal",
                               samples=8, order=8)
        assert prof.meta["order"] == 8
        assert prof.meta["order_doubling_delta"] <= 1e-4

    @staticmethod
    def assert_quadrature_matches_montecarlo(pump, crystal, **quad_options):
        # the two integration backends agree within 3 MC standard errors at
        # every tested grid point
        quad = singles_profile(pump, crystal, which="signal", samples=8,
                               **quad_options)
        mc = singles_profile(pump, crystal, which="signal", samples=8,
                             method="montecarlo", mc_samples=20000, seed=20240)
        quad_raw = quad.grid * quad.meta["normalization"]
        mc_raw = mc.grid * mc.meta["normalization"]
        stderr = mc.meta["mc_stderr"] * mc.meta["normalization"]
        z = np.abs(quad_raw - mc_raw) / np.where(stderr > 0, stderr, np.inf)
        assert np.max(z) < 3.0

    def test_quadrature_vs_montecarlo(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        self.assert_quadrature_matches_montecarlo(
            pump_for(0.5, w0=1e-4), crystal, order=32, check_convergence=False)

    def test_gated_quadrature_vs_montecarlo(self):
        # the gate has to climb past orders 4 and 8 here, each of which
        # misses by more than 15 MC standard errors
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        self.assert_quadrature_matches_montecarlo(pump_for(0.2, w0=1e-4),
                                                  crystal)

    def test_montecarlo_seed_recorded_and_deterministic(self):
        crystal = CrystalParams(L=2e-3, kind="I", theta_nc=THETA)
        pump = pump_for(0.5)
        one = singles_profile(pump, crystal, which="signal", samples=8,
                              method="montecarlo", mc_samples=2000, seed=7)
        two = singles_profile(pump, crystal, which="signal", samples=8,
                              method="montecarlo", mc_samples=2000, seed=7)
        assert one.meta["seed"] == 7
        assert np.array_equal(one.grid, two.grid)


class TestConditionalScan:
    CRYSTAL = CrystalParams(L=2e-3, kind="II", theta_nc=THETA,
                            rho_p=0.07, rho_i=0.07)

    def scan_for(self, A):
        pump = pump_for(A)
        q_s = overlap_point(self.CRYSTAL, pump.k_p)
        return conditional_scan(pump, self.CRYSTAL, q_s)

    def test_unit_area(self):
        scan = self.scan_for(0.6)
        assert np.trapezoid(scan.values, scan.xs) == pytest.approx(1.0, abs=1e-6)

    def test_near_coherent_peak_at_anticorrelation(self):
        pump = pump_for(0.999)
        q_s = overlap_point(self.CRYSTAL, pump.k_p)
        scan = conditional_scan(pump, self.CRYSTAL, q_s)
        peak = scan.xs[int(np.argmax(scan.values))]
        sigma = scan_fwhm(scan) / 2.3548
        assert abs(peak - (-q_s[0])) < 3 * sigma

    def test_fwhm_increases_as_coherence_drops(self):
        fwhms = [scan_fwhm(self.scan_for(A)) for A in (0.7, 0.5, 0.3)]
        assert fwhms[0] < fwhms[1] < fwhms[2]

    def test_peak_density_drops_as_coherence_drops(self):
        peaks = [self.scan_for(A).values.max() for A in (0.7, 0.5, 0.3)]
        assert peaks[0] > peaks[1] > peaks[2]

    def test_gaussian_fit_agrees_with_fwhm(self):
        scan = self.scan_for(0.5)
        fit = fit_gaussian(scan)
        assert fit.fwhm == pytest.approx(scan_fwhm(scan), rel=0.02)
