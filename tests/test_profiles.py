import itertools

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from shared import (LAMBDA_P, pump_for, ring_radial_profile, scan_fwhm,
                    singles_at_order, singles_montecarlo)

from gsmspdc import profiles, quadrature
from gsmspdc.analysis import fit_gaussian
from gsmspdc.errors import ConvergenceError
from gsmspdc.interference import SlitGeometry, fringe_profiles
from gsmspdc.profiles import (_singles_quadrature, conditional_scan,
                              momentum_to_position, overlap_point,
                              ring_radius, singles_profile)
from gsmspdc.pump import csd_coefficients
from gsmspdc.quadrature import doubling_gate
from gsmspdc.spdc import CrystalParams, noncollinear_mismatch

K_P = 2 * np.pi / LAMBDA_P
THETA = np.deg2rad(3.0)


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

    def test_momentum_to_position_is_q_f_over_k(self):
        # a collimating lens of focal length f puts momentum q at X = q f / k
        q, f, k = 2.0e4, 0.2, 2.0 * np.pi / 810e-9
        assert momentum_to_position(q, f, 810e-9) == pytest.approx(
            q * f / k, rel=1e-15)


def assert_delta_bounds_error(kind, L, w0, A, rho):
    """The gated 16 x 16 profile lies within its order_doubling_delta of an
    unchecked rule at 4 x the order it returned."""
    crystal = CrystalParams(L=L, kind=kind, theta_nc=THETA, rho_p=rho,
                            rho_i=rho if kind == "II" else 0.0)
    pump = pump_for(A, w0=w0)
    prof = singles_profile(pump, crystal, samples=16)
    finer = singles_at_order(pump, crystal, 16, 4 * prof.meta["order"])
    error = np.max(np.abs(prof.grid - finer / finer.max()))
    assert error <= prof.meta["order_doubling_delta"], (prof.meta["order"],
                                                        error)


def reference_quadrature(qx, qy, pump, crystal, order, center_shift, idler_ring):
    """The inner rule spelled out: hermgauss nodes, the other photon at u - q,
    noncollinear_mismatch and the normalized np.sinc."""
    coeffs = csd_coefficients(pump)
    x, w = hermgauss(order)
    u = np.sqrt(2.0) * coeffs.sum_sigma * x
    ux, uy = (a.ravel() for a in np.meshgrid(u, u, indexing="ij"))
    wts = coeffs.A_c * 2.0 * coeffs.sum_sigma**2 * np.outer(w, w).ravel()
    det = (qx.ravel()[:, None] - center_shift[0],
           qy.ravel()[:, None] - center_shift[1])
    other = (ux - det[0], uy - det[1])
    if idler_ring:
        det, other = other, det
    dkz = noncollinear_mismatch(det, other, crystal, pump.k_p)
    f = np.sinc(crystal.L * dkz / 2.0 / np.pi) ** 2
    return (f @ wts).reshape(qx.shape)


class TestSinglesQuadrature:
    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("idler_ring", [False, True], ids=["signal", "idler"])
    def test_matches_reference(self, order, idler_ring):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=THETA, rho_p=0.07,
                                rho_i=0.07)
        pump = pump_for(0.6)
        radius = ring_radius(crystal, K_P)
        axis = np.linspace(-1.6 * radius, 1.6 * radius, 16)
        qx, qy = np.meshgrid(axis, axis)
        shift = (0.0, -0.5 * radius if idler_ring else 0.5 * radius)
        got = _singles_quadrature(qx, qy, pump, crystal, order, shift,
                                  idler_ring)
        want = reference_quadrature(qx, qy, pump, crystal, order, shift,
                                    idler_ring)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_hermite_rule_is_a_cached_read_only_hermgauss(self):
        nodes, weights = quadrature.hermite_rule(8)
        assert quadrature.hermite_rule(8)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        for got, want in zip((nodes, weights), hermgauss(8)):
            assert np.array_equal(got, want)


class TestSplitPhase:
    """The rule takes its sines per coordinate (L dk_z / 2 = a(q_x) + b(q_y))
    and combines them by the angle-addition formula."""

    crystal = CrystalParams(L=2e-3, kind="II", theta_nc=THETA, rho_p=0.07,
                            rho_i=0.07)

    @pytest.mark.parametrize("idler_ring", [False, True], ids=["signal", "idler"])
    def test_axes_match_meshgrid_bit_for_bit(self, idler_ring):
        radius = ring_radius(self.crystal, K_P)
        axis = np.linspace(-1.6 * radius, 1.6 * radius, 24)
        qx, qy = np.meshgrid(axis, axis)
        shift = (0.0, -0.5 * radius if idler_ring else 0.5 * radius)
        with np.errstate(all="raise"):
            full = _singles_quadrature(qx, qy, pump_for(0.6), self.crystal, 8,
                                       shift, idler_ring)
            axes = _singles_quadrature(axis[None, :], axis[:, None],
                                       pump_for(0.6), self.crystal, 8, shift,
                                       idler_ring)
        assert axes.shape == full.shape
        assert np.array_equal(axes, full)

    @pytest.mark.parametrize("order", [16, 32])
    def test_polar_grid_matches_reference(self, order):
        radius = ring_radius(self.crystal, K_P)
        angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        radii = np.linspace(0.5 * radius, 1.5 * radius, 9)
        qx = radii[:, None] * np.cos(angles)[None, :]
        qy = radii[:, None] * np.sin(angles)[None, :]
        with np.errstate(all="raise"):
            got = _singles_quadrature(qx, qy, pump_for(0.4), self.crystal,
                                      order)
            want = reference_quadrature(qx, qy, pump_for(0.4), self.crystal,
                                        order, (0.0, 0.0), False)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_phase_pixel_matches_reference(self):
        # collinear, no walk-off: a = s (u_i - 2 q_x)^2 and b = s (u_j - 2 q_y)^2,
        # so a pixel at half a node has a + b == 0 exactly at that node pair
        crystal = CrystalParams(L=2e-3, kind="I")
        pump = pump_for(0.6)
        order = 8
        u = (np.sqrt(2.0) * csd_coefficients(pump).sum_sigma
             * quadrature.hermite_rule(order)[0])
        qx = np.array([[u[2] / 2.0, u[5] / 2.0]])
        qy = np.array([[u[6] / 2.0, u[1] / 2.0]])
        with np.errstate(all="raise"):
            got = _singles_quadrature(qx, qy, pump, crystal, order)
            want = reference_quadrature(qx, qy, pump, crystal, order,
                                        (0.0, 0.0), False)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSinglesProfile:
    def test_mirror_symmetry_without_walkoff(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        grid = singles_at_order(pump_for(0.9, w0=1e-4), crystal, 96, 24)
        grid /= grid.max()
        flipped = grid[:, ::-1]
        assert np.max(np.abs(grid - flipped)) < 0.01

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
        grid = singles_at_order(pump_for(0.8), crystal, 128, 16)
        grid /= grid.max()
        n = grid.shape[0]
        ys = np.arange(n) - (n - 1) / 2  # rows from the center, in pitches
        column = grid[:, grid.shape[1] // 2]
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
            pump, crystal, samples=16)),
        ("inner", lambda pump, crystal, radius: ring_radial_profile(
            pump, crystal, [0.0, np.pi],
            np.linspace(0.5 * radius, 1.6 * radius, 101))),
        ("aperture", lambda pump, crystal, radius: fringe_profiles(
            [pump], crystal, SlitGeometry(a=0.15e-3, d=0.25e-3))),
    ], ids=["singles_profile", "ring_radial_profile", "fringe_profiles"])
    def test_non_convergence_reported(self, rule, integrate, monkeypatch):
        # the inner rule first passes the doubling from order 16 here and the
        # aperture rule from order 8; with the shared cap at 4 the gate must
        # give up and name the rule
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        with pytest.raises(ConvergenceError, match=f"{rule} quadrature"):
            integrate(pump_for(0.2, w0=1e-4), crystal, ring_radius(crystal, K_P))

    def test_order_doubling_gate_recorded(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        prof = singles_profile(pump_for(0.2, w0=1e-4), crystal, samples=16)
        assert prof.meta["rule"] == "gauss-hermite"
        assert prof.meta["order"] > 4
        assert prof.meta["order_doubling_delta"] <= 1e-4
        fixed = singles_at_order(pump_for(0.2, w0=1e-4), crystal, 16,
                                 prof.meta["order"])
        assert np.array_equal(prof.grid, fixed / fixed.max())

    def test_gate_accepts_start_above_cap(self, monkeypatch):
        # a starting order above the cap is checked once by doubling, not
        # rejected unevaluated, and the doubled rule is returned
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        crystal = CrystalParams(L=2e-3, kind="I", theta_nc=THETA)
        _, order, delta = doubling_gate(
            lambda n: singles_at_order(pump_for(0.5), crystal, 8, n),
            "inner", order=8)
        assert order == 16
        assert delta <= 1e-4

    @pytest.mark.parametrize("A", [0.9, 0.6, 0.3])
    def test_default_like_profile_pays_for_orders_2_and_4(self, A,
                                                          monkeypatch):
        # the (2, 4) doubling passes on both rings, so each ring is evaluated
        # at orders 2 and 4 only, and the image is the order-4 rule's
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=THETA,
                                rho_p=0.07, rho_i=0.07)
        calls = []

        def spy(qx, qy, pump, crystal, order, center_shift, idler_ring):
            calls.append((order, idler_ring))
            return _singles_quadrature(qx, qy, pump, crystal, order,
                                       center_shift, idler_ring)
        monkeypatch.setattr(profiles, "_singles_quadrature", spy)
        prof = singles_profile(pump_for(A), crystal, samples=32)
        assert sorted(calls) == [(2, False), (2, True), (4, False), (4, True)]
        monkeypatch.undo()
        fixed = singles_at_order(pump_for(A), crystal, 32, 4)
        assert prof.meta["order"] == 4
        assert np.array_equal(prof.grid, fixed / fixed.max())

    @pytest.mark.parametrize("kind, L, w0, A, rho", [
        ("I", 5e-3, 1e-4, 0.2, 0.07),
        ("II", 1e-3, 1e-4, 0.05, 0.0),
    ], ids=["walkoff", "A0.05"])
    def test_reported_delta_bounds_the_error(self, kind, L, w0, A, rho):
        # the walk-off case returns order 32; the A = 0.05 case has the
        # largest error of the slow sweep below, about 1e-8 at order 4
        assert_delta_bounds_error(kind, L, w0, A, rho)

    @pytest.mark.slow
    def test_reported_delta_bounds_the_error_across_configs(self):
        for config in itertools.product(("I", "II"), (1e-3, 2e-3, 5e-3),
                                        (1e-4, 5e-4, 1e-3),
                                        (0.05, 0.2, 0.5, 0.9), (0.0, 0.07)):
            assert_delta_bounds_error(*config)

    @staticmethod
    def assert_quadrature_matches_montecarlo(quad_raw, pump, crystal):
        # the rule's 8 x 8 image agrees with Monte Carlo within 3 MC
        # standard errors at every tested grid point
        mc_raw, stderr = singles_montecarlo(pump, crystal, 8, 20000, 20240)
        z = np.abs(quad_raw - mc_raw) / np.where(stderr > 0, stderr, np.inf)
        assert np.max(z) < 3.0

    def test_quadrature_vs_montecarlo(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        pump = pump_for(0.5, w0=1e-4)
        self.assert_quadrature_matches_montecarlo(
            singles_at_order(pump, crystal, 8, 32), pump, crystal)

    def test_gated_quadrature_vs_montecarlo(self):
        # the gate has to climb past orders 4 and 8 here, each of which
        # misses by more than 15 MC standard errors, and returns order 32
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA, rho_p=0.07)
        pump = pump_for(0.2, w0=1e-4)
        quad = singles_profile(pump, crystal, samples=8)
        self.assert_quadrature_matches_montecarlo(
            quad.grid * quad.meta["normalization"], pump, crystal)

    def test_montecarlo_is_deterministic(self):
        crystal = CrystalParams(L=2e-3, kind="I", theta_nc=THETA)
        pump = pump_for(0.5)
        one = singles_montecarlo(pump, crystal, 8, 2000, 7)
        two = singles_montecarlo(pump, crystal, 8, 2000, 7)
        assert np.array_equal(one[0], two[0])


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
