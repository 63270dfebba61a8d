import numpy as np
import pytest

from gsmspdc import counting
from gsmspdc.analysis import fit_gaussian
from gsmspdc.counting import (BLOCK_DOUBLES, U16_MAX, FrameStack,
                              conditional_map, load_frames, save_frames,
                              synth_frames)


def gaussian_joint(n_px=48, center=(24, 24), sigma=4.0):
    """Separable-peak joint distribution for pipeline tests."""
    i = np.arange(n_px)
    joint = np.exp(-((i[:, None] - center[0]) ** 2
                     + (i[None, :] - center[1]) ** 2) / (2 * sigma**2))
    return joint


def reference_synth(joint, pairs_per_frame, noise, n_frames, seed):
    """Frame synthesis frame by frame, with Generator.choice and np.add.at."""
    P = np.asarray(joint, dtype=float)
    flat = (P / P.sum()).ravel()
    n_px = P.shape[0]
    frames = np.zeros((n_frames, 2, n_px), dtype=np.uint16)
    count_rng, pair_rng, dark_rng = np.random.default_rng(seed).spawn(3)
    for k in range(n_frames):
        n_pairs = count_rng.poisson(pairs_per_frame)
        if n_pairs:
            idx = pair_rng.choice(flat.size, size=n_pairs, p=flat)
            i, j = np.unravel_index(idx, P.shape)
            np.add.at(frames[k], (np.zeros(n_pairs, dtype=np.intp), i), 1)
            np.add.at(frames[k], (np.ones(n_pairs, dtype=np.intp), j), 1)
        if noise > 0:
            frames[k] += (dark_rng.random((2, n_px)) < noise).astype(np.uint16)
    return frames


def sparse_joint():
    joint = gaussian_joint(12, center=(4, 7), sigma=2.0)
    joint[:, ::3] = 0.0
    joint[0] = 0.0
    return joint


class TestSynthStream:
    """synth_frames must draw the same stream as the reference loop."""

    @pytest.mark.parametrize("joint, pairs, noise, n_frames, seed", [
        (gaussian_joint(16), 6.0, 0.02, 300, 99),
        (sparse_joint(), 9.0, 0.0, 200, 5),
        (gaussian_joint(8), 0.0, 0.05, 100, 3),
        (gaussian_joint(16), 40.0, 1e-3, 1, 2**40 + 17),
        (gaussian_joint(16), 6.0, 0.02, BLOCK_DOUBLES // (6 + 2 * 16) + 3, 11),
        (gaussian_joint(8), 40000.0, 0.01, 3, 2**64 - 1),
    ], ids=["gaussian-noise", "zero-entries", "no-pairs", "one-frame",
            "block-boundary", "one-frame-blocks"])
    def test_frames_match_reference(self, joint, pairs, noise, n_frames, seed,
                                    monkeypatch):
        ref = reference_synth(joint, pairs, noise, n_frames, seed)
        # at one double a block holds one frame: the block size bounds
        # memory and is no part of the stream
        for block_doubles in (BLOCK_DOUBLES, 1):
            monkeypatch.setattr(counting, "BLOCK_DOUBLES", block_doubles)
            stack = synth_frames(joint, pairs, noise, n_frames, seed=seed)
            assert stack.frames.dtype == ref.dtype
            assert np.array_equal(stack.frames, ref)


class TestSynthFrames:
    def test_zero_rates_give_zero_stack(self):
        stack = synth_frames(np.ones((8, 8)), 0.0, 0.0, 50, seed=1)
        assert stack.frames.sum() == 0

    def test_noise_only_per_pixel_mean(self):
        # binomial oracle: per-pixel mean = noise +- 3 sqrt(p (1-p) / n)
        p, n = 0.05, 4000
        stack = synth_frames(np.ones((16, 16)), 0.0, p, n, seed=21)
        means = stack.frames.mean(axis=0)
        bound = 3.0 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(means - p) < bound)

    def test_fixed_seed_bit_identical(self):
        kwargs = dict(joint=gaussian_joint(16), pairs_per_frame=3.0,
                      noise=0.01, n_frames=200, seed=99)
        one = synth_frames(**kwargs)
        two = synth_frames(**kwargs)
        assert np.array_equal(one.frames, two.frames)

    def test_counts_are_integer_u16(self):
        stack = synth_frames(gaussian_joint(16), 3.0, 0.01, 50, seed=2)
        assert stack.frames.dtype == np.uint16

    def test_rejects_degenerate_joint(self):
        with pytest.raises(ValueError):
            synth_frames(np.zeros((8, 8)), 1.0, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            synth_frames(np.full((8, 8), -1.0), 1.0, 0.0, 10, seed=0)

    def test_pair_lands_on_both_rows(self):
        joint = np.zeros((8, 8))
        joint[2, 6] = 1.0
        stack = synth_frames(joint, 4.0, 0.0, 100, seed=3)
        assert np.array_equal(stack.frames[:, 0, 2], stack.frames[:, 1, 6])
        others = stack.frames.sum() - 2 * stack.frames[:, 0, 2].sum()
        assert others == 0

    def test_rejects_u16_overflow(self):
        joint = np.zeros((2, 2))
        joint[0, 1] = 1.0
        with pytest.raises(ValueError, match="u16"):
            synth_frames(joint, 70000.0, 0.0, 2, seed=1)
        # the largest count the format holds is still accepted
        stack = synth_frames(joint, 60000.0, 0.0, 2, seed=1)
        assert np.array_equal(stack.frames[:, 0, 0], stack.frames[:, 1, 1])
        assert stack.frames[:, 0, 1].sum() == stack.frames[:, 1, 0].sum() == 0
        assert stack.frames.min(axis=0).max() > 59000

    @pytest.mark.parametrize("block_doubles", [BLOCK_DOUBLES, 2**17])
    def test_overflow_names_frame_beyond_first_block(self, block_doubles,
                                                     monkeypatch):
        # every pair lands on one pixel pair, so a frame's peak is its pair
        # count; at this rate a block holds one frame, or two at 2**17
        monkeypatch.setattr(counting, "BLOCK_DOUBLES", block_doubles)
        joint = np.zeros((2, 2))
        joint[0, 1] = 1.0
        rate, seed = 65450.0, 18
        peaks = np.random.default_rng(seed).spawn(3)[0].poisson(rate, 5)
        bad = next(k for k, n in enumerate(peaks) if n > U16_MAX)
        assert bad >= 2
        with pytest.raises(ValueError,
                           match=f"frame {bad} holds {peaks[bad]} counts"):
            synth_frames(joint, rate, 0.0, 5, seed=seed)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_rejects_seed_outside_u64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            synth_frames(gaussian_joint(8), 1.0, 0.0, 2, seed=seed)


def pair_covariance(stack, i, j):
    """(C, stderr) of pixels i and j, read from the conditional map of i."""
    scan = conditional_map(stack, i, row=j[0])
    return scan.values[j[1]], scan.meta["stderr"][j[1]]


def searched_cdf(joint):
    """The CDF synth_frames draws pair cells from."""
    P = np.asarray(joint, dtype=float)
    cdf = (P / P.sum()).ravel().cumsum()
    return cdf / cdf[-1]


def leading_zeros_joint():
    joint = gaussian_joint(16, center=(10, 9), sigma=2.0)
    joint[:6] = 0.0
    return joint


def trailing_zeros_joint():
    joint = gaussian_joint(16, center=(4, 3), sigma=2.0)
    joint[9:] = 0.0
    joint[8, 5:] = 0.0
    return joint


def one_cell_joint():
    joint = np.zeros((8, 8))
    joint[3, 5] = 2.5
    return joint


class TestGuideLookup:
    """The guide-table lookup must equal cdf.searchsorted(u, side="right")."""

    @pytest.mark.parametrize("joint", [
        gaussian_joint(48), sparse_joint(), leading_zeros_joint(),
        trailing_zeros_joint(), one_cell_joint(),
        gaussian_joint(512, center=(200, 300), sigma=60.0), np.ones((16, 16)),
    ], ids=["gaussian", "zero-entries", "leading-zeros", "trailing-zeros",
            "one-cell", "512x512", "steps-on-bucket-edges"])
    def test_matches_searchsorted(self, joint):
        cdf = searched_cdf(joint)
        guide, crowded = counting._guide_table(cdf)
        edges = np.arange(counting.GUIDE_BUCKETS) / counting.GUIDE_BUCKETS
        steps = cdf[cdf < 1.0]
        u = np.concatenate([
            [0.0], edges, np.nextafter(edges[1:], 0.0),
            [np.nextafter(1.0, 0.0)],
            steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
            np.random.default_rng(5).random(20000)])
        assert np.array_equal(counting._lookup(cdf, guide, crowded, u),
                              cdf.searchsorted(u, side="right"))

    def test_most_buckets_need_one_comparison(self):
        cdf = searched_cdf(gaussian_joint(48))
        _, crowded = counting._guide_table(cdf)
        assert crowded.mean() < 0.5


def sorted_jackknife(x, y):
    """The estimator conditional_map replaced: leave-one-frame-out terms
    summed in sorted order over all n frames."""
    n = x.size
    x64 = x.astype(np.int64)
    y64 = y.astype(np.int64)
    xy = x64 * y64
    sx, sy, sxy = int(x64.sum()), int(y64.sum()), int(xy.sum())
    C = sxy / n - (sx / n) * (sy / n)
    mx = (sx - x64) / (n - 1)
    my = (sy - y64) / (n - 1)
    mxy = (sxy - xy) / (n - 1)
    ck = np.sort(mxy - mx * my)
    mean_ck = float(np.sum(ck)) / n
    dev = np.sort((ck - mean_ck) ** 2)
    return float(C), float(np.sqrt((n - 1) / n * np.sum(dev)))


class TestHistogramJackknife:
    """conditional_map against the sorted sums over every frame: C equal,
    stderr within 4 ulp, on the bincount and on the np.unique histogram."""

    @pytest.mark.parametrize("joint, pairs, noise, n_frames, seed, bincount", [
        (gaussian_joint(48, center=(20, 30), sigma=3.0), 20.0, 1e-3, 20000, 3,
         True),
        (gaussian_joint(16), 5.0, 0.05, 301, 8, True),
        (np.ones((8, 8)), 0.0, 0.1, 3000, 11, True),
        (gaussian_joint(16), 2000.0, 0.01, 300, 9, False),
    ], ids=["full-scale", "small", "noise-only", "high-rate"])
    def test_matches_sorted_sums(self, joint, pairs, noise, n_frames, seed,
                                 bincount):
        stack = synth_frames(joint, pairs, noise, n_frames, seed=seed)
        pixel = (0, int(np.argmax(stack.frames[:, 0].sum(axis=0))))
        x = stack.frames[:, pixel[0], pixel[1]]
        scan = conditional_map(stack, pixel, row=1)
        for j in range(stack.shape[1]):
            y = stack.frames[:, 1, j]
            assert ((int(x.max()) + 1) * (int(y.max()) + 1)
                    <= n_frames) == bincount
            C, stderr = sorted_jackknife(x, y)
            assert scan.values[j] == C
            assert abs(scan.meta["stderr"][j] - stderr) <= 4 * np.spacing(stderr)

    def test_pixel_swap_bit_identical(self):
        # the sums run in a canonical order, not in the histogram's key order
        for seed in range(6):
            stack = synth_frames(gaussian_joint(16), 5.0 + seed, 0.01,
                                 300 + 37 * seed, seed=seed)
            for i, j in [((0, 7), (1, 9)), ((0, 3), (1, 8)), ((0, 8), (1, 8))]:
                assert (pair_covariance(stack, i, j)
                        == pair_covariance(stack, j, i))


class TestPixelCoincidence:
    def test_independent_pixels_consistent_with_zero(self):
        stack = synth_frames(np.ones((8, 8)), 0.0, 0.1, 3000, seed=11)
        C, stderr = pair_covariance(stack, (0, 1), (1, 5))
        assert abs(C) < 3 * stderr

    def test_perfect_pairing_recovers_rate(self):
        mu = 3.0
        joint = np.zeros((16, 16))
        joint[5, 11] = 1.0
        stack = synth_frames(joint, mu, 0.0, 4000, seed=13)
        C, stderr = pair_covariance(stack, (0, 5), (1, 11))
        assert abs(C - mu) < 3 * stderr

    def test_symmetry(self):
        stack = synth_frames(gaussian_joint(16), 5.0, 0.01, 300, seed=17)
        assert (pair_covariance(stack, (0, 7), (1, 9))
                == pair_covariance(stack, (1, 9), (0, 7)))


class TestConditionalMap:
    def test_skips_own_pixel_and_rejects_short_stacks(self):
        joint = gaussian_joint(8, center=(4, 4), sigma=2.0)
        stack = synth_frames(joint, 5.0, 0.0, 50, seed=5)
        scan = conditional_map(stack, (1, 3), row=1)
        # the pixel's own variance is replaced by its neighbours' average
        for values in (scan.values, scan.meta["stderr"]):
            assert values[3] == pytest.approx((values[2] + values[4]) / 2)
        assert scan.values[3] != np.var(stack.frames[:, 1, 3])
        single = FrameStack(frames=stack.frames[:1])
        with pytest.raises(ValueError):
            conditional_map(single, (0, 1), row=1)

    def test_peak_at_conjugate_pixel(self):
        joint = gaussian_joint(48, center=(20, 30), sigma=3.0)
        stack = synth_frames(joint, 20.0, 1e-3, 2000, seed=29)
        scan = conditional_map(stack, (0, 20), row=1)
        # fitted peak center lands on the conjugate pixel of the generating
        # joint within one pixel
        assert fit_gaussian(scan).mean == pytest.approx(30.0, abs=1.0)

    def test_lower_coherence_like_wider_joint_gives_wider_scan(self):
        # a wider generating joint must produce a wider fitted C-scan
        fwhm = []
        for sigma in (2.5, 5.0):
            joint = gaussian_joint(48, sigma=sigma)
            stack = synth_frames(joint, 25.0, 1e-3, 2500, seed=31)
            scan = conditional_map(stack, (0, 24), row=1)
            fwhm.append(fit_gaussian(scan).fwhm)
        assert fwhm[1] > fwhm[0]

    def test_lower_pump_coherence_widens_c_scan(self):
        # end-to-end coherence trend: frames synthesized from the biphoton
        # model at lower A give a larger fitted C-scan FWHM
        import numpy as np

        from gsmspdc.profiles import overlap_point
        from gsmspdc.pump import PumpParams, csd_coefficients
        from gsmspdc.spdc import CrystalParams, joint_momentum_rate

        crystal = CrystalParams(L=2e-3, kind="II", theta_nc=np.deg2rad(3),
                                rho_p=0.07, rho_i=0.07)

        def pipeline_fwhm(A):
            pump = PumpParams.from_coherence(405e-9, 0.5e-3, A)
            q_s0 = overlap_point(crystal, pump.k_p)[0]
            coeffs = csd_coefficients(pump)
            sigma = 1.0 / (2.0 * np.sqrt(coeffs.a - coeffs.c))
            qs = np.linspace(q_s0 - 5 * sigma, q_s0 + 5 * sigma, 48)
            qi = np.linspace(-q_s0 - 5 * sigma, -q_s0 + 5 * sigma, 48)
            joint = joint_momentum_rate((qs[:, None], 0.0), (qi[None, :], 0.0),
                                        pump, crystal)
            i_s = int(np.argmax(joint.sum(axis=1)))
            stack = synth_frames(joint, 60.0, 1e-3, 10000, seed=1)
            scan = conditional_map(stack, (0, i_s), row=1)
            weights = 1.0 / np.clip(scan.meta["stderr"], 1e-12, None)
            return fit_gaussian(scan, weights=weights).fwhm * (qi[1] - qi[0])

        assert pipeline_fwhm(0.3) > pipeline_fwhm(0.7)

    def test_frame_order_invariance(self):
        joint = gaussian_joint(32)
        stack = synth_frames(joint, 10.0, 1e-3, 400, seed=37)
        scan = conditional_map(stack, (0, 16), row=1)
        rng = np.random.default_rng(0)
        shuffled = FrameStack(frames=stack.frames[rng.permutation(400)],
                              pixel_pitch=stack.pixel_pitch,
                              exposure=stack.exposure, seed=stack.seed)
        scan2 = conditional_map(shuffled, (0, 16), row=1)
        assert np.array_equal(scan.values, scan2.values)
        assert np.array_equal(scan.meta["stderr"], scan2.meta["stderr"])

    def test_estimator_consistency_l1_ladder(self):
        # the C-scan shape converges to the generating conditional shape
        joint = gaussian_joint(32, center=(16, 16), sigma=3.0)
        target = joint[16] / joint[16].sum()
        distances = []
        for n_frames in (2000, 8000, 32000):
            stack = synth_frames(joint, 15.0, 1e-3, n_frames, seed=41)
            scan = conditional_map(stack, (0, 16), row=1)
            shape = np.clip(scan.values, 0, None)
            shape = shape / shape.sum()
            distances.append(float(np.sum(np.abs(shape - target))))
        assert distances[0] > distances[1] > distances[2]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        frames = synth_frames(gaussian_joint(24), 8.0, 5e-3, 120, seed=43).frames
        stack = FrameStack(frames=frames, pixel_pitch=13e-6, exposure=0.01,
                           seed=43)
        path = tmp_path / "frames.bin"
        save_frames(stack, path)
        loaded = load_frames(path)
        assert np.array_equal(loaded.frames, stack.frames)
        assert loaded.pixel_pitch == stack.pixel_pitch
        assert loaded.exposure == stack.exposure
        assert loaded.seed == stack.seed

    def test_layout_is_little_endian_u16(self, tmp_path):
        stack = synth_frames(gaussian_joint(8), 2.0, 0.0, 3, seed=47)
        path = tmp_path / "frames.bin"
        save_frames(stack, path)
        blob = path.read_bytes()
        assert blob[:8] == b"GSMFRAM1"
        header_size = 8 + 4 + 4 + 4 + 8 + 8 + 8
        assert len(blob) == header_size + 3 * 2 * 8 * 2
        body = np.frombuffer(blob[header_size:], dtype="<u2")
        assert np.array_equal(body.reshape(3, 2, 8), stack.frames)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFRAME" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_frames(path)
