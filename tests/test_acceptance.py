"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import numpy as np
import pytest
from frame_sources import drawn_stack, stack_scan
from shared import (LAMBDA_P, LAMBDA_S, fitted_visibility, fringes_at_order,
                    j1_series, pump_for, ring_radial_profile, scan_fwhm,
                    singles_at_order, singles_montecarlo)

from gsmspdc.analysis import fit_gaussian
from gsmspdc.cli import EXIT_OK, main
from gsmspdc.interference import (SlitGeometry, fringe_profiles,
                                  visibility_curve)
from gsmspdc.profiles import conditional_scan, overlap_point, ring_radius
from gsmspdc.pump import bessel_visibility, correlation_length
from gsmspdc.spdc import CrystalParams, joint_momentum_rate

K_P = 2 * np.pi / LAMBDA_P
THETA = np.deg2rad(3.0)

FRINGE_CRYSTAL = CrystalParams(L=2e-3, kind="II")
SLITS_DEFAULT = SlitGeometry(a=0.15e-3, d=0.25e-3, z=0.10, z1=0.20)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_correlation_length_constant():
    lc = correlation_length(a_s=1.0, f=0.150, lambda_p=LAMBDA_P)
    assert lc == pytest.approx(3.70503e-8, rel=1e-5)
    report(1, f"correlation_length(f=0.150, 405 nm, a_s=1 m) = {lc:.6e} m "
              f"matches 3.70503e-8 to 5 significant figures")


def test_criterion_2_bessel_visibility_oracle():
    nu = np.linspace(0.0, 20.0, 1000)
    impl = bessel_visibility(nu)
    oracle = np.array([1.0 if v == 0 else abs(2.0 * j1_series(v) / v)
                       for v in nu])
    worst = float(np.max(np.abs(impl - oracle)))
    assert worst < 1e-9
    at_zero = bessel_visibility(3.832)
    assert at_zero < 1e-3
    report(2, f"max |impl - J1 series| = {worst:.2e} on [0, 20]; "
              f"V(3.832) = {at_zero:.2e}")


def test_criterion_3_coherent_limit_fringe_oracle():
    pump = pump_for(0.9995)
    scan = fringe_profiles([pump], FRINGE_CRYSTAL, SLITS_DEFAULT)[0]
    v_sim = fitted_visibility(scan, SLITS_DEFAULT)
    u = scan.xs / (LAMBDA_S * SLITS_DEFAULT.z1)
    oracle = (np.sinc(SLITS_DEFAULT.a * u) ** 2
              * np.cos(np.pi * SLITS_DEFAULT.d * u) ** 2)
    v_oracle = fitted_visibility(
        type(scan)(xs=scan.xs, values=oracle / oracle.max()), SLITS_DEFAULT)
    assert abs(v_sim - v_oracle) < 0.02
    report(3, f"near-coherent fitted visibility {v_sim:.4f} vs coherent "
              f"double-slit oracle {v_oracle:.4f} (|diff| < 2%)")


def test_criterion_4_visibility_lattice_trends():
    a_values = (0.9, 0.6, 0.3)
    d_values = (0.25e-3, 0.5e-3, 0.75e-3)
    slits = [SlitGeometry(a=0.15e-3, d=d, z=0.10, z1=0.20) for d in d_values]
    rows = visibility_curve([pump_for(A) for A in a_values], slits, FRINGE_CRYSTAL)
    table = {(round(r["A"], 3), r["d_m"]): r["visibility"] for r in rows}
    for A in a_values:
        run = [table[(A, d)] for d in d_values]
        assert run[0] > run[1] > run[2], f"not monotone in d at A={A}: {run}"
    for d in d_values:
        run = [table[(A, d)] for A in a_values]
        assert run[0] > run[1] > run[2], f"not monotone in A at d={d}: {run}"
    report(4, "fitted visibility strictly decreases along d at fixed A and "
              "along decreasing A at fixed d (3x3 lattice)")


class TestCriterion5ConditionalTrends:
    CRYSTAL = CrystalParams(L=2e-3, kind="II", theta_nc=THETA,
                            rho_p=0.07, rho_i=0.07)
    A_VALUES = (0.7, 0.5, 0.3)

    def direct_scan(self, A, q_sx=None):
        pump = pump_for(A)
        q_s = overlap_point(self.CRYSTAL, pump.k_p) if q_sx is None \
            else (q_sx, 0.0)
        return conditional_scan(pump, self.CRYSTAL, q_s)

    def test_direct_model_trends(self):
        fwhms, peaks = [], []
        for A in self.A_VALUES:
            scan = self.direct_scan(A)
            fwhms.append(scan_fwhm(scan))
            peaks.append(scan.values.max())
        assert fwhms[0] < fwhms[1] < fwhms[2]
        assert peaks[0] > peaks[1] > peaks[2]
        report("5a", f"conditional FWHM strictly increases "
                     f"({[f'{w:.0f}' for w in fwhms]} rad/m) and peak "
                     f"strictly decreases as A drops over {self.A_VALUES}")

    def counting_setup(self, A=0.5, n_px=48):
        """5b's joint pixel distribution, its signal pixel at the maximum of
        the joint's signal marginal, and the signal and idler axes (rad/m)."""
        from gsmspdc.pump import csd_coefficients

        pump = pump_for(A)
        q_s0 = overlap_point(self.CRYSTAL, pump.k_p)[0]
        sigma = csd_coefficients(pump).sum_sigma
        qs = np.linspace(q_s0 - 5 * sigma, q_s0 + 5 * sigma, n_px)
        qi = np.linspace(-q_s0 - 5 * sigma, -q_s0 + 5 * sigma, n_px)
        joint = joint_momentum_rate((qs[:, None], 0.0), (qi[None, :], 0.0),
                                    pump, self.CRYSTAL)
        return joint, int(np.argmax(joint.sum(axis=1))), qs, qi

    @staticmethod
    def fitted_fwhm(frames, i_s, qi):
        scan = stack_scan(frames, (0, i_s), row=1)
        weights = 1.0 / np.clip(scan.meta["stderr"], 1e-12, None)
        return fit_gaussian(scan, weights=weights).fwhm * (qi[1] - qi[0])

    def block_jackknife_se(self, frames, i_s, qi, n_blocks=20):
        """Jackknife stderr of the fitted FWHM: delete one frame block, refit."""
        blocks = np.array_split(np.arange(len(frames)), n_blocks)
        estimates = []
        for b in range(n_blocks):
            keep = np.concatenate([blocks[k] for k in range(n_blocks) if k != b])
            estimates.append(self.fitted_fwhm(frames[keep], i_s, qi))
        estimates = np.array(estimates)
        return np.sqrt((n_blocks - 1) / n_blocks
                       * np.sum((estimates - estimates.mean()) ** 2))

    def test_counting_pipeline_reproduces_fwhm(self):
        A, n_frames = 0.5, 2000
        joint, i_s, qs, qi = self.counting_setup(A)
        stack = drawn_stack(joint, 60.0, 1e-3, n_frames, seed=20250)
        fwhm_counts = self.fitted_fwhm(stack, i_s, qi)
        fwhm_direct = scan_fwhm(self.direct_scan(A, q_sx=float(qs[i_s])))
        stderr = self.block_jackknife_se(stack, i_s, qi)
        assert abs(fwhm_counts - fwhm_direct) < 3 * stderr
        report("5b", f"counting-pipeline FWHM {fwhm_counts:.0f} rad/m matches "
                     f"direct model {fwhm_direct:.0f} rad/m within "
                     f"3 jackknife SE ({3 * stderr:.0f})")

    @pytest.mark.slow
    def test_fwhm_jackknife_se_matches_spread_over_seeds(self):
        # 5b's stack at 40 seeds, 5b's own first.  With a calibrated SE, the
        # fitted FWHM's sample SD over the seeds, over the RMS of the seeds'
        # SEs, is distributed as sqrt(chi2_39 / 39): mean 1, SD about
        # 1 / sqrt(2 * 39).  Accept it within 3 of those SDs.
        joint, i_s, _, qi = self.counting_setup()
        fwhm, se = [], []
        for seed in range(20250, 20290):
            stack = drawn_stack(joint, 60.0, 1e-3, 2000, seed=seed)
            fwhm.append(self.fitted_fwhm(stack, i_s, qi))
            se.append(self.block_jackknife_se(stack, i_s, qi))
        ratio = np.std(fwhm, ddof=1) / np.sqrt(np.mean(np.square(se)))
        assert abs(ratio - 1.0) <= 3.0 / np.sqrt(2 * (len(se) - 1))
        report("5b over seeds", f"FWHM spread / RMS jackknife SE = "
                                f"{ratio:.3f} over {len(se)} seeds")


class TestCriterion6RingAsymmetry:
    CRYSTAL_WALKOFF = CrystalParams(L=5e-3, kind="I", theta_nc=THETA,
                                    rho_p=0.07)
    CRYSTAL_CLEAN = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)

    def test_walkoff_asymmetry_at_low_coherence(self):
        pump = pump_for(0.2, w0=1e-4)
        radius = ring_radius(self.CRYSTAL_WALKOFF, K_P)
        radii = np.linspace(0.5 * radius, 1.6 * radius, 501)
        spread = np.deg2rad(40.0)
        around_plus = np.linspace(-spread, spread, 9)
        around_minus = np.pi + around_plus
        width_plus = scan_fwhm(ring_radial_profile(
            pump, self.CRYSTAL_WALKOFF, around_plus, radii))
        width_minus = scan_fwhm(ring_radial_profile(
            pump, self.CRYSTAL_WALKOFF, around_minus, radii))
        assert width_minus > width_plus
        report("6a", f"low-A type-I ring: azimuthal-averaged width "
                     f"{width_minus:.0f} rad/m on -x exceeds {width_plus:.0f} "
                     f"rad/m on +x (walk-off along +x)")

    def test_mirror_symmetry_without_walkoff(self):
        pump = pump_for(0.2, w0=1e-4)
        grid = singles_at_order(pump, self.CRYSTAL_CLEAN, 96, 24)
        grid /= grid.max()
        worst = float(np.max(np.abs(grid - grid[:, ::-1])))
        assert worst < 0.01
        report("6b", f"rho_p = 0 profile x-mirror symmetric within "
                     f"{worst:.1e} per mirrored pair (< 1%)")


class TestCriterion7CoincidenceCalibration:
    def test_noise_only_pairs(self):
        n_px, n_frames, noise = 32, 3000, 0.1
        stack = drawn_stack(np.ones((n_px, n_px)), 0.0, noise, n_frames,
                            seed=123)
        rng = np.random.default_rng(7)
        pairs = set()
        while len(pairs) < 100:
            i = (int(rng.integers(0, 2)), int(rng.integers(0, n_px)))
            j = (int(rng.integers(0, 2)), int(rng.integers(0, n_px)))
            if i != j:
                pairs.add((i, j))
        violations = 0
        for i, j in sorted(pairs):
            scan = stack_scan(stack, i, row=j[0])
            if abs(scan.values[j[1]]) >= 3 * scan.meta["stderr"][j[1]]:
                violations += 1
        assert violations <= 1  # >= 99% of 100 pairs consistent with zero
        report("7a", f"noise-only stacks: {100 - violations}/100 pixel pairs "
                     f"within 3 stderr of zero covariance")

    def test_perfect_pairing_recovers_rate(self):
        mu = 3.0
        joint = np.zeros((16, 16))
        joint[5, 11] = 1.0
        stack = drawn_stack(joint, mu, 0.0, 4000, seed=42)
        scan = stack_scan(stack, (0, 5), row=1)
        C, stderr = scan.values[11], scan.meta["stderr"][11]
        assert abs(C - mu) < 3 * stderr
        report("7b", f"perfectly paired injection: C = {C:.3f} "
                     f"recovers rate {mu} within 3 stderr ({3 * stderr:.3f})")


class TestCriterion8NumericalHygiene:
    def test_fringe_mirror_symmetry(self):
        [scan] = fringe_profiles([pump_for(0.6)], FRINGE_CRYSTAL, SLITS_DEFAULT)
        worst = float(np.max(np.abs(scan.values - scan.values[::-1])))
        assert worst < 1e-6
        report("8a", f"fringe mirror asymmetry {worst:.1e} (< 1e-6)")

    def test_quadrature_order_doubling(self):
        pump = pump_for(0.6)
        _, [base] = fringes_at_order([pump], FRINGE_CRYSTAL, SLITS_DEFAULT, 24)
        _, [double] = fringes_at_order([pump], FRINGE_CRYSTAL, SLITS_DEFAULT,
                                       48)
        worst_fringe = float(np.max(np.abs(base - double)))
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        prof = singles_at_order(pump_for(0.5, w0=1e-4), crystal, 24, 32)
        prof2 = singles_at_order(pump_for(0.5, w0=1e-4), crystal, 24, 64)
        worst_prof = float(np.max(np.abs(prof / prof.max()
                                         - prof2 / prof2.max())))
        assert worst_fringe < 1e-4 and worst_prof < 1e-4
        report("8b", f"order doubling moves samples by {worst_fringe:.1e} "
                     f"(fringes) and {worst_prof:.1e} (profiles), both < 1e-4")

    def test_montecarlo_quadrature_agreement(self):
        crystal = CrystalParams(L=5e-3, kind="I", theta_nc=THETA)
        pump = pump_for(0.5, w0=1e-4)
        quad_raw = singles_at_order(pump, crystal, 8, 32)
        mc_raw, stderr = singles_montecarlo(pump, crystal, 8, 20000, 20240)
        z = np.abs(quad_raw - mc_raw) / np.where(stderr > 0, stderr, np.inf)
        assert float(np.max(z)) < 3.0
        report("8c", f"MC vs quadrature: max |z| = {float(np.max(z)):.2f} "
                     f"(< 3 standard errors at every tested sample)")

    def test_cli_byte_reproducibility(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[pump]\nlambda_p = 405e-9\nw0 = 0.5e-3\na_values = 0.8, 0.4\n"
            "[crystal]\nL = 2e-3\nkind = II\ntheta_nc_deg = 3.0\n"
            "rho_p = 0.07\nrho_i = 0.07\n"
            "[slits]\na = 0.15e-3\nd_values = 0.25e-3\nz = 0.10\nz1 = 0.20\n"
            "[grid]\nsamples = 32\ndetector_samples = 401\n"
            "[counting]\nn_frames = 200\npairs_per_frame = 8\nnoise = 1e-3\n"
            "seed = 4242\nn_px = 16\n")
        out = tmp_path / "out"
        experiments = ("pump-visibility", "pump-invariance", "fringes",
                       "visibility-curve", "profile", "conditional",
                       "frames-synth", "coincidence")
        snapshots = []
        for _ in range(2):
            for experiment in experiments:
                code = main(["run", experiment, "--config", str(config),
                             "--out", str(out)])
                assert code == EXIT_OK
            snapshots.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())})
        assert snapshots[0].keys() == snapshots[1].keys()
        for name in snapshots[0]:
            assert snapshots[0][name] == snapshots[1][name], name
        report("8d", f"all {len(experiments)} experiments rerun "
                     f"byte-identical across {len(snapshots[0])} output files "
                     f"(CSV, PGM, binary frames, manifest)")
