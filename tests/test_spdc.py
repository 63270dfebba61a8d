import math

import numpy as np
import pytest

from gsmspdc.pump import PumpParams, csd_coefficients
from gsmspdc.spdc import (CrystalParams, _sinc, joint_momentum_rate,
                          mismatch_square, noncollinear_mismatch)

LAMBDA_P = 405e-9
K_P = 2 * np.pi / LAMBDA_P


def collinear(L=2e-3):
    return CrystalParams(L=L, kind="I")


class TestNoncollinearMismatch:
    def test_zero_in_trivial_geometry(self):
        q = (0.0, 0.0)
        assert noncollinear_mismatch(q, q, collinear(), K_P) == 0.0

    def test_x_reflection_even_without_walkoff(self):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=0.05)
        rng = np.random.default_rng(5)
        for _ in range(50):
            sx, sy, ix, iy = rng.normal(scale=3e5, size=4)
            a = noncollinear_mismatch((sx, sy), (ix, iy), crystal, K_P)
            b = noncollinear_mismatch((-sx, sy), (-ix, iy), crystal, K_P)
            assert a == pytest.approx(b, rel=1e-12)

    def test_pump_walkoff_breaks_reflection(self):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=0.05, rho_p=0.07)
        probe_s, probe_i = (2e5, 0.0), (1e5, 0.0)
        a = noncollinear_mismatch(probe_s, probe_i, crystal, K_P)
        b = noncollinear_mismatch((-2e5, 0.0), (-1e5, 0.0), crystal, K_P)
        assert a != pytest.approx(b, rel=1e-6)
        # the broken part is exactly the walk-off term
        assert a - b == pytest.approx(2 * crystal.rho_p * 3e5, rel=1e-9)

    def test_reduces_to_collinear_sinc(self):
        crystal = CrystalParams(L=2e-3, kind="II")
        rng = np.random.default_rng(7)
        sx, sy = rng.normal(scale=3e4, size=(2, 10000))
        ix, iy = rng.normal(scale=3e4, size=(2, 10000))
        dkz = noncollinear_mismatch((sx, sy), (ix, iy), crystal, K_P)
        via_mismatch = np.sinc(crystal.L * dkz / 2.0 / np.pi)
        # the collinear amplitude sinc(|q_s - q_i|^2 L / (4 k_p))
        d2 = (sx - ix) ** 2 + (sy - iy) ** 2
        direct = np.sinc(d2 * crystal.L / (4.0 * K_P) / np.pi)
        assert np.max(np.abs(via_mismatch - direct)) < 1e-12


class TestMismatchSquare:
    @pytest.mark.parametrize("crystal", [
        CrystalParams(L=2e-3, kind="II", theta_nc=0.05, rho_p=0.07, rho_i=0.07),
        CrystalParams(L=5e-3, kind="I", theta_nc=0.05, rho_p=0.07),
        CrystalParams(L=2e-3, kind="II", theta_nc=0.05),
        CrystalParams(L=2e-3, kind="II", rho_p=0.07, rho_i=-0.03),
    ], ids=["type-II", "type-I", "rho-0", "theta-0"])
    @pytest.mark.parametrize("idler_ring", [False, True], ids=["signal", "idler"])
    def test_equals_noncollinear_mismatch(self, crystal, idler_ring):
        # q is one photon's momentum, u the pair sum; the other carries u - q
        rng = np.random.default_rng(23)
        qx, qy = rng.normal(scale=4e5, size=(2, 200, 1))
        ux, uy = rng.normal(scale=2e4, size=(2, 1, 50))
        det, other = (qx, qy), (ux - qx, uy - qy)
        if idler_ring:
            direct = noncollinear_mismatch(other, det, crystal, K_P)
        else:
            direct = noncollinear_mismatch(det, other, crystal, K_P)
        (cx, cy), d0 = mismatch_square(det, crystal, K_P, idler_ring)
        square = ((ux - cx) ** 2 + (uy - cy) ** 2) / (2.0 * K_P)
        largest = max(np.max(np.abs(square)), np.max(np.abs(d0)),
                      np.max(np.abs(direct)))
        assert np.max(np.abs(square + d0 - direct)) <= 1e-12 * largest

    def test_rejects_bad_kp(self):
        with pytest.raises(ValueError):
            mismatch_square((0.0, 0.0), collinear(), 0.0)


class TestSinc:
    XS = [1e-300, -1e-8, 0.1, -1.0, np.pi, 2.5, 37.0, -1234.5, 1e6]

    @staticmethod
    def assert_within_2ulp(got, x):
        want = math.sin(x) / x
        assert abs(got - want) <= 2 * np.spacing(abs(want))

    def test_scalars(self):
        for x in self.XS:
            got = _sinc(x)
            assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
            self.assert_within_2ulp(float(got), x)

    def test_arrays(self):
        xs = np.array(self.XS + list(np.linspace(-50.0, 50.0, 1000)))
        got = _sinc(xs)
        assert got.shape == xs.shape
        for g, x in zip(got, xs):
            self.assert_within_2ulp(g, x)

    def test_exactly_one_at_zero(self):
        with np.errstate(all="raise"):
            assert _sinc(0.0) == 1.0
            assert _sinc(-0.0) == 1.0
            got = _sinc(np.array([[0.0, 1.0], [-0.0, 0.0]]))
        assert got[0, 0] == got[1, 0] == got[1, 1] == 1.0
        assert got[0, 1] == np.sin(1.0)


class TestJointMomentumRate:
    PUMP = PumpParams(LAMBDA_P, 0.5e-3, 0.4e-3)
    CRYSTAL = CrystalParams(L=2e-3, kind="II", theta_nc=np.deg2rad(3))

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(13)
        sx, sy, ix, iy = rng.normal(scale=5e5, size=(4, 10000))
        rate = joint_momentum_rate((sx, sy), (ix, iy), self.PUMP, self.CRYSTAL)
        assert np.all(rate >= 0.0)

    def test_maximized_on_phase_matched_manifold(self):
        # at fixed q_s + q_i the rate peaks where dk_z = 0
        crystal = self.CRYSTAL
        radius = 0.5 * K_P * crystal.theta_nc
        on_s, on_i = (radius, 0.0), (-radius, 0.0)     # dk_z = 0 pair
        assert noncollinear_mismatch(on_s, on_i, crystal, K_P) == pytest.approx(
            0.0, abs=1e-9)
        peak = joint_momentum_rate(on_s, on_i, self.PUMP, crystal)
        for scale in (0.8, 0.9, 1.1, 1.2):
            off = joint_momentum_rate((radius * scale, 0.0),
                                      (-radius * scale, 0.0),
                                      self.PUMP, crystal)
            assert off < peak

    def test_signal_idler_exchange(self):
        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=0.05, rho_p=0.07,
                                rho_i=0.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            q_s = tuple(rng.normal(scale=3e5, size=2))
            q_i = tuple(rng.normal(scale=3e5, size=2))
            a = joint_momentum_rate(q_s, q_i, self.PUMP, crystal)
            b = joint_momentum_rate(q_i, q_s, self.PUMP, crystal)
            assert a == pytest.approx(b, rel=1e-12)

    def test_sum_variance_grows_as_lc_shrinks(self):
        # 2-D quadrature of the CSD diagonal: variance of q_s + q_i vs the
        # closed form 1/(4 s), for two coherence settings in the
        # partially coherent regime
        def sum_variance(pump):
            coeffs = csd_coefficients(pump)
            width = 1.0 / np.sqrt(2.0 * coeffs.s)
            u = np.linspace(-8 * width, 8 * width, 2001)
            weights = coeffs.A_c * np.exp(-u * u / (2.0 * coeffs.sum_sigma**2))
            return np.trapezoid(weights * u * u, u) / np.trapezoid(weights, u)

        w0 = 0.5e-3
        high = PumpParams.from_coherence(LAMBDA_P, w0, 0.7)
        low = PumpParams.from_coherence(LAMBDA_P, w0, 0.3)
        var_high, var_low = sum_variance(high), sum_variance(low)
        assert var_low > var_high
        for pump, var in ((high, var_high), (low, var_low)):
            coeffs = csd_coefficients(pump)
            assert var == pytest.approx(1.0 / (4.0 * coeffs.s), rel=1e-6)


def test_crystal_params_validation():
    with pytest.raises(ValueError):
        CrystalParams(L=0.0)
    with pytest.raises(ValueError):
        CrystalParams(L=1e-3, kind="III")
    with pytest.raises(ValueError):
        CrystalParams(L=1e-3, kind="I", rho_i=0.01)
