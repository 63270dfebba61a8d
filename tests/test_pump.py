import numpy as np
import pytest

from gsmspdc.pump import (CharacterizationSetup, PumpParams, bessel_visibility,
                          correlation_length, correlation_length_for,
                          csd_coefficients, propagate_to_crystal,
                          pump_visibility)


def j1_series(nu, terms=60):
    """Independent J1 oracle: power series sum_m (-1)^m / (m! (m+1)!) (x/2)^(2m+1)."""
    nu = float(nu)
    half = nu / 2.0
    total = 0.0
    term = half  # m = 0
    for m in range(terms):
        total += term
        term *= -(half * half) / ((m + 1) * (m + 2))
    return total


def visibility_oracle(nu):
    if nu == 0.0:
        return 1.0
    return abs(2.0 * j1_series(nu) / nu)


class TestCoherenceFrom:
    # PumpParams.A = delta / (2 w0); delta is read back as 2 w0 A
    def test_coherent_limit(self):
        pump = PumpParams(405e-9, 1e-3, 1e6)
        assert 1.0 - pump.A < 1e-6

    def test_lc_equal_2w0(self):
        pump = PumpParams(405e-9, 1e-3, 2e-3)
        assert 2.0 * pump.w0 * pump.A == pytest.approx(1e-3 * np.sqrt(2.0),
                                                       rel=1e-12)
        assert pump.A == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_incoherent_limit(self):
        pump = PumpParams(405e-9, 1e-3, 1e-6)
        assert pump.A == pytest.approx(5.0e-4, abs=1e-9)

    def test_defining_identity(self):
        pump = PumpParams(405e-9, 0.7e-3, 0.3e-3)
        lhs = 1.0 / (2.0 * pump.w0 * pump.A) ** 2
        rhs = 1.0 / pump.l_c**2 + 1.0 / (4.0 * pump.w0**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PumpParams(405e-9, -1e-3, 1e-3)
        with pytest.raises(ValueError):
            PumpParams(405e-9, 1e-3, 0.0)

    def test_monotone_in_lc(self):
        a_values = [PumpParams(405e-9, 1e-3, lc).A
                    for lc in np.geomspace(1e-5, 1e-1, 30)]
        assert np.all(np.diff(a_values) > 0)

    def test_from_coherence_roundtrip(self):
        pump = PumpParams.from_coherence(405e-9, 0.5e-3, 0.62)
        assert pump.A == pytest.approx(0.62, rel=1e-12)


class TestCsdCoefficients:
    def test_incoherent_closed_forms(self):
        w0 = 1e-3
        c = csd_coefficients(PumpParams(405e-9, w0, 1e-12))
        assert c.a == pytest.approx(w0**2, rel=1e-8)
        assert c.c == pytest.approx(w0**2 / 2.0, rel=1e-12)

    def test_near_coherent_limit(self):
        # a -> w0^2 and c -> 0 as l_c -> inf; at l_c = 150 w0 both are
        # within 3% of the limit (at 100 w0 the a deviation is exactly 4%)
        w0 = 1e-3
        c = csd_coefficients(PumpParams(405e-9, w0, 150 * w0))
        assert abs(c.a / w0**2 - 1.0) < 0.03
        assert abs(c.c) < 0.03 * w0**2
        c100 = csd_coefficients(PumpParams(405e-9, w0, 100 * w0))
        assert abs(c100.a / w0**2 - 1.0) == pytest.approx(0.04, abs=0.001)

    def test_ordering(self):
        for lc in np.geomspace(1e-6, 1.0, 20):
            c = csd_coefficients(PumpParams(405e-9, 1e-3, lc))
            assert c.a > c.c > 0

    def test_exchange_symmetry(self):
        c = csd_coefficients(PumpParams(405e-9, 0.5e-3, 0.4e-3))
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = rng.normal(scale=2e3, size=2)
            qp = rng.normal(scale=2e3, size=2)
            assert c.kernel(q, qp) == pytest.approx(c.kernel(qp, q), rel=1e-12)

    def test_diagonal_matches_kernel(self):
        # the diagonal W(q, q) is the pair-sum Gaussian of width sum_sigma
        c = csd_coefficients(PumpParams(405e-9, 0.5e-3, 0.4e-3))
        q = np.array([1.3e3, -0.4e3])
        diagonal = c.A_c * np.exp(-(q @ q) / (2.0 * c.sum_sigma**2))
        assert diagonal == pytest.approx(c.kernel(q, q), rel=1e-12)

    def test_angular_width_narrows_with_coherence(self):
        # pair-sum width of the diagonal shrinks as l_c grows (more coherent
        # pump -> narrower angular spectrum); monotone below A ~ 0.79, which
        # covers the partially coherent regime of interest
        w0 = 1e-3
        widths = [csd_coefficients(PumpParams(405e-9, w0, lc)).sum_sigma
                  for lc in np.linspace(0.05 * w0, 2.0 * w0, 25)]
        assert np.all(np.diff(widths) < 0)


class TestBesselVisibility:
    def test_nu_zero(self):
        assert bessel_visibility(0.0) == 1.0

    def test_first_zero(self):
        assert bessel_visibility(3.832) < 1e-3

    def test_value_at_one(self):
        # expected value computed from the power-series oracle
        assert visibility_oracle(1.0) == pytest.approx(0.880101, abs=1e-6)
        assert bessel_visibility(1.0) == pytest.approx(0.880101, abs=1e-5)

    def test_matches_series_oracle(self):
        nu = np.linspace(0.0, 20.0, 1000)
        impl = bessel_visibility(nu)
        oracle = np.array([visibility_oracle(v) for v in nu])
        assert np.max(np.abs(impl - oracle)) < 1e-9

    def test_taylor_branch_agrees_with_series(self):
        # the small-nu Taylor branch must agree with the series oracle
        for nu in (1e-6, 5e-5, 0.99e-4):
            assert bessel_visibility(nu) == pytest.approx(
                visibility_oracle(nu), abs=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bessel_visibility(-0.1)


class TestPumpVisibility:
    def test_zero_separation(self):
        setup = CharacterizationSetup(a_s=1e-3, f=0.150, d12=0.0)
        assert pump_visibility(setup, 405e-9) == 1.0

    def test_decreases_with_spot_size(self):
        # fixed d12, growing a_s: strictly non-increasing until the first zero
        d12, f, lam = 0.25e-3, 0.150, 405e-9
        k = 2 * np.pi / lam
        nu_limit = 3.8317
        a_max = nu_limit * f / (k * d12)
        vis = [pump_visibility(CharacterizationSetup(a_s=a, f=f, d12=d12), lam)
               for a in np.linspace(0.01 * a_max, 0.999 * a_max, 40)]
        assert np.all(np.diff(vis) <= 0)

    def test_array_d12_matches_scalar_calls(self):
        # the Taylor branch, Bessel's integral and Hankel's series alike
        lam, f = 405e-9, 0.150
        k_p = 2.0 * np.pi / lam
        d12 = np.concatenate([[0.0, 1e-12, 1e-10], np.linspace(0.0, 2e-3, 64),
                              [5e-3, 0.05]])
        for a_s in (0.25e-3, 0.5e-3, 1.0e-3, 0.7e-3):
            vis = pump_visibility(CharacterizationSetup(a_s=a_s, f=f, d12=d12),
                                  lam)
            # the scalar loop the array replaced, one Python float per d12
            scalar = [float(bessel_visibility(k_p * d * a_s / f))
                      for d in d12.tolist()]
            assert vis.shape == d12.shape
            assert np.array_equal(vis, scalar)
            assert type(pump_visibility(CharacterizationSetup(
                a_s=a_s, f=f, d12=float(d12[5])), lam)) is float

    def test_array_d12_rejects_negative(self):
        with pytest.raises(ValueError):
            CharacterizationSetup(a_s=1e-3, f=0.150, d12=np.array([0.0, -1e-4]))

    def test_zero_at_first_bessel_root(self):
        f, lam = 0.150, 405e-9
        k = 2 * np.pi / lam
        d12 = 0.5e-3
        a_s = 3.832 * f / (k * d12)
        setup = CharacterizationSetup(a_s=a_s, f=f, d12=d12)
        assert pump_visibility(setup, lam) < 1e-3


class TestCorrelationLength:
    def test_printed_constant(self):
        lc = correlation_length(a_s=1.0, f=0.150, lambda_p=405e-9)
        assert lc == pytest.approx(3.70503e-8, rel=1e-5)

    def test_inverse_proportionality(self):
        one = correlation_length(37e-6, 0.150, 405e-9)
        two = correlation_length(74e-6, 0.150, 405e-9)
        assert one == pytest.approx(2.0 * two, rel=1e-12)

    def test_37um_spot(self):
        lc = correlation_length(37e-6, 0.150, 405e-9)
        assert lc == pytest.approx(1.0014e-3, rel=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            correlation_length(0.0, 0.150, 405e-9)


class TestPropagateToCrystal:
    def test_identity(self):
        pump = propagate_to_crystal(1e-3, 4e-3, 1.0, 405e-9)
        assert pump.w0 == 4e-3 and pump.l_c == 1e-3

    def test_demag_preserves_A(self):
        before = PumpParams(405e-9, 4e-3, 1e-3)
        after = propagate_to_crystal(1e-3, 4e-3, 8.0, 405e-9)
        assert after.w0 == pytest.approx(4e-3 / 8.0, rel=1e-12)
        assert after.l_c == pytest.approx(1e-3 / 8.0, rel=1e-12)
        assert after.A == pytest.approx(before.A, abs=1e-12)

    def test_lens_translation_contract(self):
        # scanning l_c at the lens with fixed beam size there: beam size at
        # the crystal stays constant while A varies
        w_lens, demag = 4e-3, 8.0
        pumps = [propagate_to_crystal(lc, w_lens, demag, 405e-9)
                 for lc in np.geomspace(0.1e-3, 10e-3, 10)]
        sizes = np.array([p.w0 for p in pumps])
        assert np.all(sizes == w_lens / demag)
        a_values = [p.A for p in pumps]
        assert np.all(np.diff(a_values) > 0)

    def test_rejects_nonpositive_demag(self):
        with pytest.raises(ValueError):
            propagate_to_crystal(1e-3, 4e-3, 0.0, 405e-9)


def test_correlation_length_for_inverts_coherence():
    w0 = 0.5e-3
    for A in (0.1, 0.5, 0.9):
        lc = correlation_length_for(A, w0)
        assert PumpParams(405e-9, w0, lc).A == pytest.approx(A, rel=1e-12)
