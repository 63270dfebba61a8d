import decimal
import functools
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from frame_sources import SplitStack, drawn_stack, stack_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmspdc import counting
from gsmspdc.analysis import fit_gaussian
from gsmspdc.counting import (BLOCK_DOUBLES, U16_MAX, FrameFile,
                              covariance_scan, pixel_stats, synth_blocks,
                              write_frames)


def gaussian_joint(n_px=48, center=(24, 24), sigma=4.0):
    """Separable-peak joint distribution for pipeline tests."""
    i = np.arange(n_px)
    joint = np.exp(-((i[:, None] - center[0]) ** 2
                     + (i[None, :] - center[1]) ** 2) / (2 * sigma**2))
    return joint


def reference_synth(joint, pairs_per_frame, noise, n_frames, seed):
    """Frame synthesis frame by frame, with Generator.choice and np.add.at,
    and the dark counts placed one Geometric(noise) gap at a time over the
    stack's flat cells."""
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
    cells = frames.reshape(-1)
    cell = -1
    while noise > 0:
        cell += int(dark_rng.geometric(noise))
        if cell >= cells.size:
            break
        cells[cell] += 1
    return frames


def sparse_joint():
    joint = gaussian_joint(12, center=(4, 7), sigma=2.0)
    joint[:, ::3] = 0.0
    joint[0] = 0.0
    return joint


class TestSynthStream:
    """synth_blocks must draw the same stream as the reference loop."""

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
            frames = drawn_stack(joint, pairs, noise, n_frames, seed)
            assert frames.dtype == ref.dtype
            assert np.array_equal(frames, ref)

    @pytest.mark.parametrize("noise", [0.0, 5e-324, 1e-300, 1e-18, 0.5, 0.9,
                                       1.0])
    def test_dark_counts_match_reference_at_any_rate(self, noise,
                                                     monkeypatch):
        # below about 1e-18 NumPy draws every gap as 2**63 - 1, and from 1/3
        # it draws them by search, not by inversion
        ref = reference_synth(gaussian_joint(8), 2.0, noise, 700, 31)
        for block_doubles in (BLOCK_DOUBLES, 1):
            monkeypatch.setattr(counting, "BLOCK_DOUBLES", block_doubles)
            frames = drawn_stack(gaussian_joint(8), 2.0, noise, 700, 31)
            assert np.array_equal(frames, ref)


class TestSynthFrames:
    def test_zero_rates_give_zero_stack(self):
        assert drawn_stack(np.ones((8, 8)), 0.0, 0.0, 50, seed=1).sum() == 0

    def test_noise_only_per_pixel_mean(self):
        # binomial oracle: per-pixel mean = noise +- 3 sqrt(p (1-p) / n)
        p, n = 0.05, 4000
        means = drawn_stack(np.ones((16, 16)), 0.0, p, n, seed=21).mean(axis=0)
        bound = 3.0 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(means - p) < bound)

    def test_unit_noise_counts_every_cell_once(self):
        assert np.all(drawn_stack(gaussian_joint(8), 0.0, 1.0, 5000,
                                  seed=4) == 1)

    def test_fixed_seed_bit_identical(self):
        kwargs = dict(joint=gaussian_joint(16), pairs_per_frame=3.0,
                      noise=0.01, n_frames=200, seed=99)
        assert np.array_equal(drawn_stack(**kwargs), drawn_stack(**kwargs))

    def test_counts_are_integer_u16(self):
        for block in synth_blocks(gaussian_joint(16), 3.0, 0.01, 50, seed=2):
            assert block.dtype == np.uint16

    def test_rejects_degenerate_joint(self):
        with pytest.raises(ValueError):
            synth_blocks(np.zeros((8, 8)), 1.0, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            synth_blocks(np.full((8, 8), -1.0), 1.0, 0.0, 10, seed=0)

    def test_pair_lands_on_both_rows(self):
        joint = np.zeros((8, 8))
        joint[2, 6] = 1.0
        frames = drawn_stack(joint, 4.0, 0.0, 100, seed=3)
        assert np.array_equal(frames[:, 0, 2], frames[:, 1, 6])
        others = frames.sum() - 2 * frames[:, 0, 2].sum()
        assert others == 0

    def test_rejects_u16_overflow(self):
        joint = np.zeros((2, 2))
        joint[0, 1] = 1.0
        with pytest.raises(ValueError, match="u16"):
            drawn_stack(joint, 70000.0, 0.0, 2, seed=1)
        # the largest count the format holds is still accepted
        frames = drawn_stack(joint, 60000.0, 0.0, 2, seed=1)
        assert np.array_equal(frames[:, 0, 0], frames[:, 1, 1])
        assert frames[:, 0, 1].sum() == frames[:, 1, 0].sum() == 0
        assert frames.min(axis=0).max() > 59000

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
            drawn_stack(joint, rate, 0.0, 5, seed=seed)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_rejects_seed_outside_u64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            synth_blocks(gaussian_joint(8), 1.0, 0.0, 2, seed=seed)

    @staticmethod
    def draw_peak(noise, n_frames):
        """tracemalloc's peak over a draw of 20 pairs a frame on 48 px, after
        a first draw has made the process's one-off allocations."""
        for _ in synth_blocks(gaussian_joint(8), 1.0, 0.5, 1, seed=5):
            pass
        tracemalloc.start()
        try:
            for _ in synth_blocks(gaussian_joint(48), 20.0, noise, n_frames,
                                  seed=5):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_draw_memory_does_not_grow_with_frames(self):
        # a draw holds a block at a time, whatever the number of frames
        assert (self.draw_peak(1e-3, 100_000) - self.draw_peak(1e-3, 10_000)
                < 64 * 1024)

    def test_held_dark_counts_stay_within_a_block(self):
        # at noise 0.5 half a stack's cells count: the drawn cells past a
        # block are held for the next, never more than a block's worth
        cells = counting._block_frames(20.0 + 2 * 48) * 2 * 48
        assert (self.draw_peak(0.5, 100_000) - self.draw_peak(0.5, 10_000)
                < 64 * 1024)
        # the held cells, a batch and its sums, each within a block's cells
        assert (self.draw_peak(0.5, 10_000) - self.draw_peak(0.0, 10_000)
                < 3 * 8 * cells)


def pair_covariance(frames, i, j):
    """(C, stderr) of pixels i and j, read from the covariance scan of i."""
    scan = stack_scan(frames, i, row=j[0])
    return scan.values[j[1]], scan.meta["stderr"][j[1]]


def searched_cdf(joint):
    """The CDF synth_blocks draws pair cells from."""
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
    """The estimator covariance_scan replaced: leave-one-frame-out terms
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


def exact_stderr(x, y):
    """The jackknife stderr of the covariance of x and y, to 60 digits
    rounded to a float: each frame's leave-one-out covariance c_k is held
    exactly (as the int m**2 c_k), and the variance
    (m/n) sum((c_k - mean c)**2) is summed frame by frame into a Fraction."""
    x, y = x.astype(object), y.astype(object)  # Python ints
    n = x.size
    m = n - 1
    sx, sy, sxy = x.sum(), y.sum(), (x * y).sum()
    # m**2 c_k, and n m**2 (c_k - mean c), in ints
    ck = m * (sxy - x * y) - (sx - x) * (sy - y)
    dev = n * ck - ck.sum()
    var = Fraction(m, n) * Fraction(int((dev * dev).sum()), (n * m * m)**2)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(var.numerator) / var.denominator).sqrt())


def assert_matches_frame_sums(scan, x, ys):
    """scan's C equals sorted_jackknife's bit for bit, and its stderr is
    within 1 ulp of exact_stderr, for the fixed pixel's counts x and the
    columns' counts ys."""
    for j, y in enumerate(ys):
        assert scan.values[j] == sorted_jackknife(x, y)[0]
        stderr = exact_stderr(x, y)
        assert abs(scan.meta["stderr"][j] - stderr) <= np.spacing(stderr)


class TestHistogramJackknife:
    """covariance_scan against sums over every frame: C equal to the sorted
    sums, stderr within 1 ulp of the exact jackknife."""

    @pytest.mark.parametrize("joint, pairs, noise, n_frames, seed", [
        (gaussian_joint(48, center=(20, 30), sigma=3.0), 20.0, 1e-3, 20000, 3),
        (gaussian_joint(16), 5.0, 0.05, 301, 8),
        (np.ones((8, 8)), 0.0, 0.1, 3000, 11),
        (gaussian_joint(16), 2000.0, 0.01, 300, 9),
    ], ids=["full-scale", "small", "noise-only", "high-rate"])
    def test_matches_sorted_sums(self, joint, pairs, noise, n_frames, seed):
        frames = drawn_stack(joint, pairs, noise, n_frames, seed=seed)
        pixel = (0, int(np.argmax(frames[:, 0].sum(axis=0))))
        scan = stack_scan(frames, pixel, row=1)
        assert_matches_frame_sums(scan, frames[:, pixel[0], pixel[1]],
                                  frames[:, 1].T)

    def test_pixel_swap_bit_identical(self):
        for seed in range(6):
            stack = drawn_stack(gaussian_joint(16), 5.0 + seed, 0.01,
                                300 + 37 * seed, seed=seed)
            for i, j in [((0, 7), (1, 9)), ((0, 3), (1, 8)), ((0, 8), (1, 8))]:
                assert (pair_covariance(stack, i, j)
                        == pair_covariance(stack, j, i))


def correlated_blocks(n_frames, width, rate, seed, step=10_000):
    """(k, 2, width) uint16 blocks in which every pixel counts
    Poisson(2 rate) and column j of both rows shares Poisson(rate) of it."""
    rng = np.random.default_rng(seed)
    for k0 in range(0, n_frames, step):
        k = min(step, n_frames - k0)
        shared = rng.poisson(rate, (k, 1, width))
        yield (shared + rng.poisson(rate, (k, 2, width))).astype(np.uint16)


# (joint, pairs per frame, noise, frames, seed): at the high rate nearly
# every frame's count pair of two columns is new
STREAM_CASES = {
    "low-rate": (gaussian_joint(16), 5.0, 0.05, 301, 8),
    "mid-rate": (gaussian_joint(16), 150.0, 0.05, 301, 8),
    "high-rate": (gaussian_joint(16, center=(8, 8), sigma=6.0), 2000.0, 0.01,
                  120, 9),
}


@functools.cache
def stream_case_frames(case):
    return drawn_stack(*STREAM_CASES[case])


@functools.cache
def near_u16_limit_frames():
    """40 frames of 2 x 5 pixels that each count 57000-65535, so a frame's
    x**2 y**2 exceeds 2**63; column 0 of row 1 repeats pixel (0, 0), and
    column 1 shares half its counts with it."""
    rng = np.random.default_rng(12)
    frames = rng.integers(57000, U16_MAX + 1, (40, 2, 5))
    frames[:, 1, 0] = frames[:, 0, 0]
    frames[:, 1, 1] = (frames[:, 0, 0] + frames[:, 1, 1]) // 2
    return frames.astype(np.uint16)


def frame_cuts(n):
    """Block boundaries of an n-frame stack: one-frame blocks, one block,
    or up to 12 cuts anywhere."""
    return st.one_of(st.just(range(1, n)), st.just([]),
                     st.lists(st.integers(1, n - 1), max_size=12,
                              unique=True).map(sorted))


class TestBlockSplits:
    """The streamed estimator does not depend on how frames are blocked."""

    @pytest.mark.parametrize("on_row", [False, True],
                             ids=["other-row", "pixel-on-row"])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def test_any_split_gives_the_whole_stack_scan(self, case, on_row, data):
        frames = stream_case_frames(case)
        n, _, width = frames.shape
        cuts = data.draw(frame_cuts(n), label="cuts")
        pixel = (1 if on_row else 0, data.draw(st.integers(0, width - 1),
                                               label="column"))
        assert np.array_equal(pixel_stats(SplitStack(frames, cuts)),
                              frames.sum(axis=0))
        whole = SplitStack(frames, [])
        ref = covariance_scan(whole, pixel, 1)
        split = SplitStack(frames, cuts)
        split_scan = covariance_scan(split, pixel, 1)
        assert whole.passes == split.passes == 1
        assert not np.any(np.isnan(ref.values))
        assert np.array_equal(split_scan.values, ref.values)
        assert np.array_equal(split_scan.meta["stderr"], ref.meta["stderr"])

    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def test_counts_near_the_u16_limit(self, data):
        # a uint64 chunk of these frames holds one frame
        frames = near_u16_limit_frames()
        cuts = data.draw(frame_cuts(len(frames)), label="cuts")
        source = SplitStack(frames, cuts)
        scan = covariance_scan(source, (0, 0), 1)
        assert source.passes == 1
        assert_matches_frame_sums(scan, frames[:, 0, 0], frames[:, 1].T)
        ref = covariance_scan(SplitStack(frames, []), (0, 0), 1)
        assert np.array_equal(scan.values, ref.values)
        assert np.array_equal(scan.meta["stderr"], ref.meta["stderr"])

    @pytest.mark.parametrize("block_doubles", [BLOCK_DOUBLES, 80_000],
                             ids=["column-runs", "one-pass"])
    def test_high_rate_stack_beyond_a_block(self, block_doubles, tmp_path,
                                            monkeypatch):
        # the fixed pixel (0, 0) and column 0 of row 1 count Poisson(1400),
        # half of it shared, so nearly every frame's count pair is new; the
        # other four columns count Poisson(2).  The ids name the pass
        # budgets these block sizes once set (a pass a run of columns, or
        # one pass); the scan makes one pass at both, and the stack's file,
        # read in blocks of 3276 or 8000 frames, gives the split stack's scan
        n = 40_000
        rng = np.random.default_rng(5)
        frames = np.concatenate(
            [np.concatenate(list(correlated_blocks(n, 1, 700.0, 4))),
             rng.poisson(2.0, (n, 2, 4)).astype(np.uint16)], axis=2)
        assert n > BLOCK_DOUBLES
        source = SplitStack(frames, range(500, n, 500))
        scan = covariance_scan(source, (0, 0), 1)
        assert source.passes == 1
        assert_matches_frame_sums(scan, frames[:, 0, 0], frames[:, 1].T)
        path = tmp_path / "frames.bin"
        write_frames(path, [frames], n, (2, 5), 5, 13e-6)
        monkeypatch.setattr(counting, "BLOCK_DOUBLES", block_doubles)
        with FrameFile(path) as file:
            assert 1 < counting._block_frames(10) < n
            read = covariance_scan(file, (0, 0), 1)
        assert np.array_equal(read.values, scan.values)
        assert np.array_equal(read.meta["stderr"], scan.meta["stderr"])


class TestPixelCoincidence:
    def test_independent_pixels_consistent_with_zero(self):
        stack = drawn_stack(np.ones((8, 8)), 0.0, 0.1, 3000, seed=11)
        C, stderr = pair_covariance(stack, (0, 1), (1, 5))
        assert abs(C) < 3 * stderr

    def test_perfect_pairing_recovers_rate(self):
        mu = 3.0
        joint = np.zeros((16, 16))
        joint[5, 11] = 1.0
        stack = drawn_stack(joint, mu, 0.0, 4000, seed=13)
        C, stderr = pair_covariance(stack, (0, 5), (1, 11))
        assert abs(C - mu) < 3 * stderr

    def test_symmetry(self):
        stack = drawn_stack(gaussian_joint(16), 5.0, 0.01, 300, seed=17)
        assert (pair_covariance(stack, (0, 7), (1, 9))
                == pair_covariance(stack, (1, 9), (0, 7)))


class TestConditionalMap:
    def test_skips_own_pixel_and_rejects_short_stacks(self):
        joint = gaussian_joint(8, center=(4, 4), sigma=2.0)
        frames = drawn_stack(joint, 5.0, 0.0, 50, seed=5)
        scan = stack_scan(frames, (1, 3), row=1)
        # the pixel's own variance is replaced by its neighbours' average
        for values in (scan.values, scan.meta["stderr"]):
            assert values[3] == pytest.approx((values[2] + values[4]) / 2)
        assert scan.values[3] != np.var(frames[:, 1, 3])
        with pytest.raises(ValueError):
            stack_scan(frames[:1], (0, 1), row=1)

    def test_peak_at_conjugate_pixel(self):
        joint = gaussian_joint(48, center=(20, 30), sigma=3.0)
        frames = drawn_stack(joint, 20.0, 1e-3, 2000, seed=29)
        scan = stack_scan(frames, (0, 20), row=1)
        # fitted peak center lands on the conjugate pixel of the generating
        # joint within one pixel
        assert fit_gaussian(scan).mean == pytest.approx(30.0, abs=1.0)

    def test_lower_coherence_like_wider_joint_gives_wider_scan(self):
        # a wider generating joint must produce a wider fitted C-scan
        fwhm = []
        for sigma in (2.5, 5.0):
            joint = gaussian_joint(48, sigma=sigma)
            frames = drawn_stack(joint, 25.0, 1e-3, 2500, seed=31)
            scan = stack_scan(frames, (0, 24), row=1)
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
            sigma = csd_coefficients(pump).sum_sigma
            qs = np.linspace(q_s0 - 5 * sigma, q_s0 + 5 * sigma, 48)
            qi = np.linspace(-q_s0 - 5 * sigma, -q_s0 + 5 * sigma, 48)
            joint = joint_momentum_rate((qs[:, None], 0.0), (qi[None, :], 0.0),
                                        pump, crystal)
            i_s = int(np.argmax(joint.sum(axis=1)))
            frames = drawn_stack(joint, 60.0, 1e-3, 10000, seed=1)
            scan = stack_scan(frames, (0, i_s), row=1)
            weights = 1.0 / np.clip(scan.meta["stderr"], 1e-12, None)
            return fit_gaussian(scan, weights=weights).fwhm * (qi[1] - qi[0])

        assert pipeline_fwhm(0.3) > pipeline_fwhm(0.7)

    def test_frame_order_invariance(self):
        joint = gaussian_joint(32)
        frames = drawn_stack(joint, 10.0, 1e-3, 400, seed=37)
        scan = stack_scan(frames, (0, 16), row=1)
        rng = np.random.default_rng(0)
        scan2 = stack_scan(frames[rng.permutation(400)], (0, 16), row=1)
        assert np.array_equal(scan.values, scan2.values)
        assert np.array_equal(scan.meta["stderr"], scan2.meta["stderr"])

    def test_estimator_consistency_l1_ladder(self):
        # the C-scan shape converges to the generating conditional shape
        joint = gaussian_joint(32, center=(16, 16), sigma=3.0)
        target = joint[16] / joint[16].sum()
        distances = []
        for n_frames in (2000, 8000, 32000):
            frames = drawn_stack(joint, 15.0, 1e-3, n_frames, seed=41)
            scan = stack_scan(frames, (0, 16), row=1)
            shape = np.clip(scan.values, 0, None)
            shape = shape / shape.sum()
            distances.append(float(np.sum(np.abs(shape - target))))
        assert distances[0] > distances[1] > distances[2]


def noise_only_z(seeds, n_px=32, n_frames=3000, noise=0.1):
    """z = C / stderr over acceptance 7a's 100 noise-only pixel pairs, at
    each seed, and the same under a permutation null: the scanned row's
    frames shuffled by a seeded generator, the fixed pixel left in place."""
    rng = np.random.default_rng(7)
    pairs = set()
    while len(pairs) < 100:
        i = (int(rng.integers(0, 2)), int(rng.integers(0, n_px)))
        j = (int(rng.integers(0, 2)), int(rng.integers(0, n_px)))
        if i != j:
            pairs.add((i, j))
    shuffle = np.random.default_rng(2024)
    z, z_null = [], []
    for seed in seeds:
        stack = drawn_stack(np.ones((n_px, n_px)), 0.0, noise, n_frames,
                            seed=seed)
        for i, (row, col) in sorted(pairs):
            null = stack.copy()
            null[:, row] = null[shuffle.permutation(n_frames), row]
            null[:, i[0], i[1]] = stack[:, i[0], i[1]]
            for frames, out in ((stack, z), (null, z_null)):
                scan = stack_scan(frames, i, row=row)
                out.append(scan.values[col] / scan.meta["stderr"][col])
    return np.array(z), np.array(z_null)


@pytest.mark.slow
def test_noise_only_z_calibrated_over_seeds():
    # acceptance 7a at one seed, taken over 40: z has unit spread, and
    # |z| >= 3 is as frequent as under the permutation null, within four
    # standard deviations of the difference of two binomial counts of the
    # pooled rate
    z, z_null = noise_only_z(range(123, 163))
    assert abs(np.std(z) - 1.0) <= 0.05
    k, k_null = np.sum(np.abs(z) >= 3), np.sum(np.abs(z_null) >= 3)
    rate = (k + k_null) / (2 * z.size)
    assert abs(k - k_null) <= 4.0 * np.sqrt(2 * z.size * rate * (1 - rate))

class TestSerialization:
    def test_roundtrip(self, tmp_path):
        frames = drawn_stack(gaussian_joint(24), 8.0, 5e-3, 120, seed=43)
        path = tmp_path / "frames.bin"
        write_frames(path, [frames], 120, (2, 24), 43, 13e-6)
        with FrameFile(path) as source:
            assert np.array_equal(np.concatenate(list(source.blocks())),
                                  frames)
            assert source.pixel_pitch == 13e-6
            assert source.exposure == counting.EXPOSURE
            assert source.seed == 43

    def test_layout_is_little_endian_u16(self, tmp_path):
        frames = drawn_stack(gaussian_joint(8), 2.0, 0.0, 3, seed=47)
        path = tmp_path / "frames.bin"
        write_frames(path, [frames], 3, (2, 8), 47, 16e-6)
        blob = path.read_bytes()
        assert blob[:8] == b"GSMFRAM1"
        header_size = 8 + 4 + 4 + 4 + 8 + 8 + 8
        assert len(blob) == header_size + 3 * 2 * 8 * 2
        body = np.frombuffer(blob[header_size:], dtype="<u2")
        assert np.array_equal(body.reshape(3, 2, 8), frames)

    @pytest.mark.parametrize("block_doubles", [BLOCK_DOUBLES, 1])
    def test_streamed_file_equals_saved_stack(self, tmp_path, monkeypatch,
                                              block_doubles):
        # the file of a stack written as one block, and of the same stack
        # streamed a block (of one frame, at one double) at a time
        args = (gaussian_joint(16), 6.0, 0.02, 700, 11)
        frames = drawn_stack(*args)
        saved = tmp_path / "saved.bin"
        write_frames(saved, [frames], 700, (2, 16), 11, 13e-6)
        monkeypatch.setattr(counting, "BLOCK_DOUBLES", block_doubles)
        streamed = tmp_path / "streamed.bin"
        write_frames(streamed, synth_blocks(*args), 700, (2, 16), 11, 13e-6)
        assert streamed.read_bytes() == saved.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["saved.bin",
                                                              "streamed.bin"]
        with FrameFile(streamed) as source:
            assert ((source.n_frames, source.shape, source.seed)
                    == (700, (2, 16), 11))
            assert np.array_equal(np.concatenate(list(source.blocks())),
                                  frames)

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        joint = np.zeros((2, 2))
        joint[0, 1] = 1.0
        path = tmp_path / "frames.bin"
        write_frames(path, synth_blocks(joint, 5.0, 0.0, 3, seed=1), 3,
                     (2, 2), 1, 16e-6)
        old = path.read_bytes()
        # at this rate a block is one frame, and frame 2 overflows the u16
        blocks = synth_blocks(joint, 65450.0, 0.0, 5, seed=18)
        with pytest.raises(ValueError, match="frame 2 holds"):
            write_frames(path, blocks, 5, (2, 2), 18, 16e-6)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["frames.bin"]

    def test_passes_read_the_opened_file(self, tmp_path):
        # a stack written over the path between two passes is not read
        path = tmp_path / "frames.bin"
        first = drawn_stack(gaussian_joint(8), 4.0, 0.0, 40, seed=3)
        write_frames(path, [first], 40, (2, 8), 3, 16e-6)
        with FrameFile(path) as source:
            totals = pixel_stats(source)
            write_frames(path, synth_blocks(gaussian_joint(8), 40.0, 0.0, 40,
                                            seed=4), 40, (2, 8), 4, 16e-6)
            scan = covariance_scan(source, (0, 4), 1)
        assert np.array_equal(totals, first.sum(axis=0))
        ref = stack_scan(first, (0, 4), row=1)
        assert np.array_equal(scan.values, ref.values)
        assert np.array_equal(scan.meta["stderr"], ref.meta["stderr"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFRAME" + b"\x00" * 64)
        with pytest.raises(ValueError):
            FrameFile(path)
