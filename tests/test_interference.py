import numpy as np
import pytest

from gsmspdc.analysis import fit_visibility
from gsmspdc import interference, quadrature
from gsmspdc.errors import ConvergenceError
from gsmspdc.interference import (SlitGeometry, fringe_profiles,
                                  slit_plane_coherence, slit_transmission,
                                  visibility_curve)
from gsmspdc.pump import PumpParams
from gsmspdc.spdc import CrystalParams

LAMBDA_P = 405e-9
LAMBDA_S = 2 * LAMBDA_P
W0 = 0.5e-3
CRYSTAL = CrystalParams(L=2e-3, kind="II")
SLITS = SlitGeometry(a=0.15e-3, d=0.25e-3, z=0.10, z1=0.20)


def pump_for(A):
    return PumpParams.from_coherence(LAMBDA_P, W0, A)


def geometry(d):
    return SlitGeometry(a=0.15e-3, d=d, z=0.10, z1=0.20)


def coherent_oracle_pattern(slits, xs):
    """Closed-form coherent double-slit pattern: sinc^2 envelope x cos^2 fringes."""
    u = xs / (LAMBDA_S * slits.z1)
    return (np.sinc(slits.a * u) ** 2) * np.cos(np.pi * slits.d * xs
                                                / (LAMBDA_S * slits.z1)) ** 2


def fitted_visibility(scan, slits):
    period = slits.fringe_period(LAMBDA_S)
    return fit_visibility([scan], period_hint=period, window=2 * period)[0].visibility


class TestSlitTransmission:
    def test_slit_centers(self):
        assert slit_transmission(SLITS.d / 2, SLITS) == 1
        assert slit_transmission(-SLITS.d / 2, SLITS) == 1

    def test_between_slits(self):
        assert slit_transmission(0.0, SLITS) == 0

    def test_boundaries_inclusive(self):
        for edge in ((SLITS.d - SLITS.a) / 2, (SLITS.d + SLITS.a) / 2):
            assert slit_transmission(edge, SLITS) == 1
            assert slit_transmission(-edge, SLITS) == 1

    def test_outside(self):
        assert slit_transmission(SLITS.d, SLITS) == 0
        vec = slit_transmission(np.array([0.0, SLITS.d / 2, 1.0]), SLITS)
        assert list(vec) == [0, 1, 0]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SlitGeometry(a=0.2e-3, d=0.15e-3)  # slits would overlap


class TestFringeProfile:
    def test_mirror_symmetry(self):
        scan = fringe_profiles([pump_for(0.6)], CRYSTAL, SLITS)[0]
        assert np.max(np.abs(scan.values - scan.values[::-1])) < 1e-6

    def test_unit_maximum_and_bounds(self):
        scan = fringe_profiles([pump_for(0.4)], CRYSTAL, SLITS)[0]
        assert scan.values.max() == pytest.approx(1.0)
        assert np.all(scan.values >= 0.0)

    def test_coherent_limit_matches_closed_form_oracle(self):
        scan = fringe_profiles([pump_for(0.9995)], CRYSTAL, SLITS)[0]
        v_sim = fitted_visibility(scan, SLITS)
        oracle = coherent_oracle_pattern(SLITS, scan.xs)
        v_oracle = fitted_visibility(
            type(scan)(xs=scan.xs, values=oracle / oracle.max()), SLITS)
        assert v_oracle > 0.97
        assert abs(v_sim - v_oracle) < 0.02

    def test_visibility_decreases_with_coherence_loss(self):
        vis = [fitted_visibility(
                   fringe_profiles([pump_for(A)], CRYSTAL, SLITS)[0], SLITS)
               for A in (0.9, 0.6, 0.3)]
        assert vis[0] > vis[1] > vis[2]

    def test_quadrature_convergence_under_order_doubling(self):
        base = fringe_profiles([pump_for(0.6)], CRYSTAL, SLITS, order=24,
                               check_convergence=False)[0]
        doubled = fringe_profiles([pump_for(0.6)], CRYSTAL, SLITS, order=48,
                                  check_convergence=False)[0]
        assert np.max(np.abs(base.values - doubled.values)) < 1e-4

    def test_non_convergence_reported(self, monkeypatch):
        # SLITS needs aperture order 8: with the shared cap at 4 both the
        # profile and the visibility curve built on it report the failure
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        match = "aperture quadrature not converged by order 4"
        with pytest.raises(ConvergenceError, match=match):
            fringe_profiles([pump_for(0.6)], CRYSTAL, SLITS)
        with pytest.raises(ConvergenceError, match=match):
            visibility_curve([pump_for(0.6)], [SLITS], CRYSTAL)

    def test_meta_records_parameters(self):
        scan = fringe_profiles([pump_for(0.5)], CRYSTAL, SLITS)[0]
        assert scan.meta["slit_d_m"] == SLITS.d
        assert scan.meta["A"] == pytest.approx(0.5, rel=1e-12)

    def test_order_doubling_gate_recorded(self):
        scan = fringe_profiles([pump_for(0.5)], CRYSTAL, SLITS)[0]
        assert scan.meta["rule"] == "gauss-legendre"
        assert scan.meta["order"] >= 4
        assert 0.0 <= scan.meta["order_doubling_delta"] <= 1e-4
        fixed = fringe_profiles([pump_for(0.5)], CRYSTAL, SLITS,
                                order=scan.meta["order"],
                                check_convergence=False)[0]
        assert np.array_equal(scan.values, fixed.values)
        assert fixed.meta["order_doubling_delta"] is None

    def test_start_order_below_need_climbs(self):
        # order 2 is too coarse for SLITS; the gate climbs instead of failing
        scan = fringe_profiles([pump_for(0.6)], CRYSTAL, SLITS, order=2)[0]
        assert scan.meta["order"] > 2
        assert scan.meta["order_doubling_delta"] <= 1e-4


def reference_profile(pump, slits, xs, order):
    """Aperture quadrature as one three-operand einsum per pump, max-normalized,
    on the slit-plane CSD's position form in rad/m."""
    csd = interference._signal_csd(pump, CRYSTAL, slits.z)
    nodes, weights = interference._slit_nodes(slits, order)
    X, Xp = np.meshgrid(nodes, nodes, indexing="ij")
    w_slit = np.exp(-(np.conj(csd.a) * X**2 + csd.a * Xp**2 - 2.0 * csd.c * X * Xp)
                    / (4.0 * csd.delta))
    kernel = weights[:, None] * weights[None, :] * w_slit
    k_s = pump.k_p / 2.0
    phases = np.exp(-1j * k_s * (xs[:, None] - nodes[None, :]) ** 2 / (2.0 * slits.z1))
    p1 = np.maximum(np.real(np.einsum("ij,jk,ik->i", phases, kernel,
                                      np.conj(phases))), 0.0)
    return p1 / p1.max()


class TestFringeProfiles:
    PUMPS = [pump_for(A) for A in (0.9, 0.6, 0.3)]

    @pytest.mark.parametrize("samples", [601, 1001])
    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
    def test_factored_propagator_matches_direct_phases(self, order, samples):
        # the detector phase table and the kernel's diagonal phase stand for
        # the direct exp(-i k_s (x_s - x)^2 / 2 z1) of reference_profile
        scans = fringe_profiles(self.PUMPS, CRYSTAL, SLITS, samples=samples,
                                order=order, check_convergence=False)
        for pump, scan in zip(self.PUMPS, scans):
            ref = reference_profile(pump, SLITS, scan.xs, order)
            assert np.max(np.abs(scan.values - ref)) <= 2e-13

    @pytest.mark.parametrize("d", [0.25e-3, 0.5e-3, 0.75e-3])
    def test_mirror_form_matches_direct_phases_at_accepted_orders(self, d):
        # the order the gate accepts for each pump alone, and the doubled
        # order that checked it
        slits = SlitGeometry(a=0.15e-3, d=d, z=0.10, z1=0.20)
        for A in (0.3, 0.6, 0.99):
            pump = pump_for(A)
            order = fringe_profiles([pump], CRYSTAL, slits)[0].meta["order"]
            for n in (order, 2 * order):
                scan = fringe_profiles([pump], CRYSTAL, slits, order=n,
                                       check_convergence=False)[0]
                ref = reference_profile(pump, slits, scan.xs, n)
                assert np.max(np.abs(scan.values - ref)) <= 1e-14, (A, n)

    @pytest.mark.parametrize("order", [24, 48])
    def test_batch_matches_per_pump_einsum(self, order):
        scans = fringe_profiles(self.PUMPS, CRYSTAL, SLITS, order=order,
                                check_convergence=False)
        assert len(scans) == len(self.PUMPS)
        for pump, scan in zip(self.PUMPS, scans):
            ref = reference_profile(pump, SLITS, scan.xs, order)
            assert np.max(np.abs(scan.values - ref)) < 1e-12
            assert scan.meta["A"] == pump.A

    def test_single_pump_call_is_batch_of_one(self):
        one = fringe_profiles([self.PUMPS[1]], CRYSTAL, SLITS)[0]
        batch = fringe_profiles(self.PUMPS, CRYSTAL, SLITS)
        assert np.array_equal(one.values, batch[1].values)
        assert one.meta == batch[1].meta

    def test_batch_records_each_pumps_own_delta(self):
        batch = fringe_profiles(self.PUMPS, CRYSTAL, SLITS)
        order = batch[0].meta["order"]
        for pump, scan in zip(self.PUMPS, batch):
            alone = fringe_profiles([pump], CRYSTAL, SLITS, order=order)[0]
            assert alone.meta["order"] == order
            assert (scan.meta["order_doubling_delta"]
                    == alone.meta["order_doubling_delta"])
        deltas = {scan.meta["order_doubling_delta"] for scan in batch}
        assert len(deltas) == len(self.PUMPS)

    def test_mixed_wavelengths_rejected(self):
        other = PumpParams.from_coherence(532e-9, W0, 0.6)
        with pytest.raises(ValueError):
            fringe_profiles([self.PUMPS[0], other], CRYSTAL, SLITS)
        with pytest.raises(ValueError):
            fringe_profiles([], CRYSTAL, SLITS)

    def test_gate_fails_batch_when_one_pump_fails(self, monkeypatch):
        order = 12
        deltas = []
        for pump in self.PUMPS:
            base = fringe_profiles([pump], CRYSTAL, SLITS, order=order,
                                   check_convergence=False)[0]
            doubled = fringe_profiles([pump], CRYSTAL, SLITS, order=2 * order,
                                      check_convergence=False)[0]
            deltas.append(np.max(np.abs(base.values - doubled.values)))
        worst = int(np.argmax(deltas))
        others = [p for k, p in enumerate(self.PUMPS) if k != worst]
        tol = (max(d for k, d in enumerate(deltas) if k != worst)
               + deltas[worst]) / 2.0
        assert tol < deltas[worst]
        # a cap at the start order leaves the gate one check, at 2 x order
        monkeypatch.setattr(quadrature, "QUADRATURE_TOL", tol)
        monkeypatch.setattr(quadrature, "MAX_ORDER", order)
        fringe_profiles(others, CRYSTAL, SLITS, order=order)
        with pytest.raises(ConvergenceError, match="aperture quadrature"):
            fringe_profiles(others + [self.PUMPS[worst]], CRYSTAL, SLITS,
                            order=order)


class TestSlitPlaneCoherence:
    def test_coherent_pump_near_unity(self):
        mu = slit_plane_coherence(pump_for(0.9999), CRYSTAL, SLITS.z, SLITS.d)
        assert mu > 0.99

    def test_monotone_in_separation(self):
        pump = pump_for(0.5)
        mus = [slit_plane_coherence(pump, CRYSTAL, SLITS.z, dx)
               for dx in np.linspace(0.05e-3, 1e-3, 12)]
        assert np.all(np.diff(mus) < 0)

    def test_fitted_visibility_tracks_coherence(self):
        # the fitted fringe visibility should sit close to |mu| at the slits
        pump = pump_for(0.6)
        scan = fringe_profiles([pump], CRYSTAL, SLITS)[0]
        v = fitted_visibility(scan, SLITS)
        mu = slit_plane_coherence(pump, CRYSTAL, SLITS.z, SLITS.d)
        assert v == pytest.approx(mu, abs=0.02)


class TestVisibilityCurve:
    def test_monotone_in_both_directions(self):
        pumps = [pump_for(A) for A in (0.9, 0.6, 0.3)]
        rows = visibility_curve(
            pumps, [geometry(d) for d in (0.25e-3, 0.5e-3, 0.75e-3)], CRYSTAL)
        table = {(round(r["A"], 3), r["d_m"]): r["visibility"] for r in rows}
        for A in (0.9, 0.6, 0.3):
            run = [table[(A, d)] for d in (0.25e-3, 0.5e-3, 0.75e-3)]
            assert run[0] > run[1] > run[2]
        for d in (0.25e-3, 0.5e-3, 0.75e-3):
            run = [table[(A, d)] for A in (0.9, 0.6, 0.3)]
            assert run[0] > run[1] > run[2]

    def test_rows_pump_major(self):
        pumps = [pump_for(A) for A in (0.9, 0.3)]
        d_values = [0.25e-3, 0.5e-3, 0.75e-3]
        rows = visibility_curve(pumps, [geometry(d) for d in d_values], CRYSTAL,
                                samples=601)
        assert [(round(r["A"], 6), r["d_m"]) for r in rows] == [
            (A, d) for A in (0.9, 0.3) for d in d_values]

    def test_overlapping_slit_limit(self):
        # d barely above a approximates a single aperture: near-unit
        # visibility for a near-coherent pump
        slim = [pump_for(0.999)]
        rows = visibility_curve(slim, [geometry(0.16e-3)], CRYSTAL)
        assert rows[0]["visibility"] > 0.95
