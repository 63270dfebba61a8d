"""Synthetic photon-counting frame stacks and the pixel-covariance estimator.

A frame stack stands in for an EMCCD in photon-counting mode: integer counts,
no gain or threshold physics beyond independent per-pixel dark counts.  The
coincidence estimator between pixels i and j is the count covariance over
frames,

    C = <n_i n_j> - <n_i> <n_j> ,

with a standard error from a leave-one-frame-out jackknife.  For a Poisson
pair process with joint pixel distribution P, C equals
pairs_per_frame * P(i, j) exactly, so C-scans estimate the generating
conditional distribution shape.  Both are computed from exact integer sums
over the frames of n_i**a n_j**b (a, b <= 2), so they do not depend on the
order of the frames or on their split into blocks.

Synthetic frames have shape (2, n_px): row 0 collects the signal photon of
each pair, row 1 the idler photon.  The joint distribution is a 2-D matrix
P[i, j] = P(signal at column i, idler at column j).  A stack is drawn from
three NumPy streams spawned from its seed (pair counts, pair positions, dark
counts), so it depends on the seed alone.  A pair's cell is found through a
guide table over the CDF (Chen & Asau's indexed search), which returns what
cdf.searchsorted(u, side="right") returns.  The dark counts are a Bernoulli
process over the stack's flat (frame, row, column) cells, drawn as
Geometric(noise) gaps between counted cells, so a draw costs one number per
dark count, not one per pixel.

Every stage works a block of frames at a time (BLOCK_DOUBLES doubles), and
beyond a block holds only a few sums per column, at any count rate.
synth_blocks draws a stack as uint16 blocks, write_frames streams blocks to
a file, FrameFile reads one back a block at a time, and pixel_stats and
covariance_scan each make one pass over a frame source.  A frame source
has n_frames, shape (height, width) and blocks(), which yields
(k, height, width) uint16 arrays in frame order.  FrameFile is the
package's source; anything with those three members is one too, as the
tests' in-memory stacks are.

Serialized stack layout (all little-endian), documented for external readers:

    bytes 0-7    magic b"GSMFRAM1"
    u32          n_frames
    u32          height
    u32          width
    u64          seed
    f64          pixel_pitch (m)
    f64          exposure (s)
    u16 * n_frames*height*width   counts, C (row-major) order
"""

import contextlib
import math
import operator
import os
import struct

import numpy as np

from .records import Scan1D

__all__ = [
    "FrameFile",
    "synth_blocks",
    "write_frames",
    "pixel_stats",
    "covariance_scan",
]

MAGIC = b"GSMFRAM1"
_HEADER = struct.Struct("<III Q d d")
U16_MAX = np.iinfo(np.uint16).max
U64_MAX = 2**64 - 1
# Doubles a block of frames may hold: a frame counts its mean pairs plus its
# 2 n_px pixels when drawn, and its pixels when read or scanned.  A block
# stays near 256 KB at any rate, and from 2**15 doubles a frame a block is
# one frame.  It bounds the memory of synthesis, file and scan, whose uint64
# copies of a block's scanned row are a few times its size.  No output
# depends on it.
BLOCK_DOUBLES = 2**15
# buckets of the guide table that maps a uniform draw to its CDF cell
GUIDE_BUCKETS = 4096
EXPOSURE = 20e-3  # s, recorded in the header of every written stack


def _block_frames(doubles_per_frame):
    """Frames a block holds: BLOCK_DOUBLES doubles, and at least one frame."""
    return max(1, int(BLOCK_DOUBLES // doubles_per_frame))


class FrameFile:
    """A serialized stack, read a block at a time.

    Opening checks the magic, the header and the file size, so a malformed
    file raises ValueError before any count is read.  The file stays open
    until close() (or the end of a with block), and every pass of blocks()
    reads that open file, so the passes of one scan see the same file even
    if its path is replaced in between.  Make one pass at a time.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self):
        fh = self._fh
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a frame-stack file: bad magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated frame-stack header")
        (self.n_frames, h, w, self.seed, self.pixel_pitch,
         self.exposure) = _HEADER.unpack(header)
        if h == 0 or w == 0:
            raise ValueError(f"empty {h} x {w} frames")
        body = 2 * self.n_frames * h * w
        # checked before reading, so a corrupt header allocates nothing
        if os.fstat(fh.fileno()).st_size - fh.tell() < body:
            raise ValueError("truncated frame-stack file")
        self.shape = (h, w)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def blocks(self):
        """The frames, read a block at a time, in frame order."""
        h, w = self.shape
        step = _block_frames(h * w)
        self._fh.seek(len(MAGIC) + _HEADER.size)
        for k0 in range(0, self.n_frames, step):
            k = min(step, self.n_frames - k0)
            yield np.frombuffer(self._fh.read(2 * k * h * w),
                                dtype="<u2").reshape(k, h, w)


def synth_blocks(joint, pairs_per_frame: float, noise: float, n_frames: int,
                 seed: int):
    """Draw a photon-counting frame stack from a joint pixel distribution.

    Each frame receives a Poisson number of photon pairs (mean
    pairs_per_frame); each pair lands at (row 0, i) and (row 1, j) with
    probability P[i, j].  Dark counts are independent Bernoulli(noise) per
    pixel per frame.  np.random.default_rng(seed).spawn(3) gives three
    streams: the pair counts are drawn from the first, the pair positions
    from the second, and from the third the Geometric(noise) gaps between
    the dark-counted cells of the stack's flat (frame, row, column) index.
    Each stream is read in frame order, and NumPy's draws do not depend on
    how a stream's reads are split, so the stack depends on the seed alone.
    The seed must fit the format's u64.

    The arguments are checked here.  The frames are drawn lazily: the
    returned iterator yields (k, 2, n_px) uint16 blocks in frame order, and
    raises ValueError at the block in which a pixel's count would not fit
    the u16 format.
    """
    P = np.asarray(joint, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("joint must be a square 2-D matrix P[i, j]")
    total = P.sum()
    if not np.isfinite(total) or total <= 0 or np.any(P < 0):
        raise ValueError("joint distribution is empty or degenerate")
    if not (pairs_per_frame >= 0 and noise >= 0):
        raise ValueError("rates must be >= 0")
    if n_frames < 1:
        raise ValueError("need at least one frame")
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    # the CDF and inverse-CDF draw of Generator.choice(p=...), built once
    cdf = (P / total).ravel().cumsum()
    cdf /= cdf[-1]
    return _drawn_blocks(cdf, P.shape[0], pairs_per_frame, noise, n_frames,
                         seed)


def _drawn_blocks(cdf, n_px, pairs_per_frame, noise, n_frames, seed):
    guide, crowded = _guide_table(cdf)
    count_rng, pair_rng, dark_rng = np.random.default_rng(seed).spawn(3)
    block = _block_frames(pairs_per_frame + 2 * n_px)
    darks = _dark_cells(dark_rng, noise, n_frames * 2 * n_px, block * 2 * n_px)
    for k0, dark in zip(range(0, n_frames, block), darks):
        k1 = min(k0 + block, n_frames)
        n_pairs = count_rng.poisson(pairs_per_frame, k1 - k0)
        # bin every pair of the block keyed by frame * n_px + column
        base = np.repeat(np.arange(k1 - k0) * n_px, n_pairs)
        i, j = np.divmod(_lookup(cdf, guide, crowded,
                                 pair_rng.random(base.size)), n_px)
        size = (k1 - k0) * n_px
        counts = np.empty((k1 - k0, 2, n_px), dtype=np.intp)
        counts[:, 0] = np.bincount(base + i, minlength=size).reshape(-1, n_px)
        counts[:, 1] = np.bincount(base + j, minlength=size).reshape(-1, n_px)
        counts.reshape(-1)[dark] += 1
        if counts.max() > U16_MAX:
            peaks = counts.reshape(k1 - k0, -1).max(axis=1)
            f = int(np.argmax(peaks > U16_MAX))
            raise ValueError(
                f"frame {k0 + f} holds {peaks[f]} counts in one pixel, more "
                f"than the u16 format's {U16_MAX}")
        yield counts.astype(np.uint16)


def _dark_cells(rng, noise, cells, block_cells):
    """The dark counts of a stack of `cells` cells, a Bernoulli(noise)
    process over its flat (frame, row, column) index: for each run of
    block_cells cells in turn, the indices of its counted cells, relative
    to the run.

    The counted cells are the cumulative sums of Geometric(noise) gaps, read
    in order from rng a batch at a time; drawn cells past the current run are
    held for the next, so the cells depend on rng alone, not on block_cells.
    A batch covers a run's expected counts and their spread, and never holds
    more than a run's cells.
    """
    mean = noise * block_cells
    batch = int(min(block_cells, mean + 4.0 * math.sqrt(mean) + 16.0))
    held = np.empty(0, dtype=np.int64)
    last = -1  # the last cell drawn
    for c0 in range(0, cells, block_cells):
        c1 = min(c0 + block_cells, cells)
        while noise > 0 and last < c1 - 1:
            # a gap past the stack ends it, and NumPy returns 2**63 - 1 for
            # noise below about 1e-18: clipped, a batch's sum fits an int64
            drawn = rng.geometric(noise, batch)
            np.minimum(drawn, cells + 1, out=drawn)
            drawn[0] += last
            held = np.concatenate([held, drawn.cumsum(out=drawn)])
            last = int(held[-1])
        n = int(held.searchsorted(c1))
        yield held[:n] - c0
        held = held[n:]


def _guide_table(cdf):
    """Guide table of a CDF over GUIDE_BUCKETS equal buckets of [0, 1).

    guide[b] is the cell cdf.searchsorted(b / GUIDE_BUCKETS, side="right")
    of the bucket's lowest draw.  crowded[b] marks a bucket whose draws span
    more than two cells (Chen & Asau's indexed search, 1974).
    """
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    guide = cdf.searchsorted(edges[:-1], side="right")
    last = cdf.searchsorted(np.nextafter(edges[1:], 0.0), side="right")
    return guide, last - guide > 1


def _lookup(cdf, guide, crowded, u):
    """cdf.searchsorted(u, side="right") for draws u in [0, 1), equal element
    for element: a draw in an uncrowded bucket is in the bucket's first cell
    or the next, and one comparison with that cell's CDF value decides.
    """
    bucket = (u * GUIDE_BUCKETS).astype(np.intp)  # exact: a power of two
    cell = guide[bucket]
    cell += u >= cdf[cell]
    slow = crowded[bucket]
    if slow.any():
        cell[slow] = cdf.searchsorted(u[slow], side="right")
    return cell


def write_frames(path, blocks, n_frames: int, shape, seed: int,
                 pixel_pitch: float):
    """Write a stack in the documented layout, a block of frames at a time.

    blocks must yield the n_frames frames of the given (height, width)
    shape.  They are written under a temporary name beside path, which is
    moved into place once every block is written and removed on any error,
    so an error in a later block (a u16 overflow) leaves no partial file and
    an older file at path as it was.
    """
    header = MAGIC + _HEADER.pack(n_frames, *shape, seed, pixel_pitch,
                                  EXPOSURE)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype="<u2"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def pixel_stats(source):
    """Each pixel's count total over the frames of a frame source: a
    (height, width) int64 array from one pass."""
    totals = np.zeros(source.shape, dtype=np.int64)
    for block in source.blocks():
        totals += block.sum(axis=0, dtype=np.int64)
    return totals


def _moments(source, pixel, row):
    """Exact integer sums over the frames of a source, from one pass: for
    the fixed pixel's counts x and each column's counts y of the row,
    sums[a, b - 1] = sum(x**a * y**b) for a = 0, 1, 2 and b = 1, 2, a
    (3, 2, width) array of ints, and sum(x) and sum(x**2).

    A block is summed in uint64 a chunk of frames at a time, each chunk
    holding as many frames as keep max(x)**2 max(y)**2 times its frames
    below 2**64 (at least one, since 65535**4 < 2**64), and a chunk's sums
    are added as Python ints.
    """
    width = source.shape[1]
    sums = np.zeros((3, 2 * width), dtype=object)
    sx = sxx = 0
    for block in source.blocks():
        x = block[:, pixel[0], pixel[1]].astype(np.uint64)
        # (width, k): each column's counts contiguous, for einsum
        y = block[:, row].T.astype(np.uint64, order="C")
        xmax, ymax = (max(1, int(v.max(initial=0))) for v in (x, y))
        step = U64_MAX // (xmax * ymax)**2
        for k0 in range(0, len(x), step):
            xk, yk = x[k0:k0 + step], y[:, k0:k0 + step]
            powers = np.stack([np.ones_like(xk), xk, xk * xk])
            sums += np.einsum("jk,ak->aj", np.concatenate([yk, yk * yk]),
                              powers).astype(object)
            sx += int(xk.sum())
            sxx += int(powers[2].sum())
    return sums.reshape(3, 2, width), sx, sxx


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den), correctly rounded, for ints num >= 0 and den > 0.

    The ratio is scaled by 4**s so its integer root has at least 57 bits;
    an inexact root gets its lowest bit set, so float() rounds it as it
    would the exact root.
    """
    s = max(0, (113 - num.bit_length() + den.bit_length()) // 2 + 1)
    q, r = divmod(num << 2 * s, den)
    root = math.isqrt(q)
    if r or root * root != q:
        root |= 1
    return math.ldexp(float(root), -s)


def covariance_scan(source, pixel, row: int) -> Scan1D:
    """C(pixel, (row, j)) for j scanning a frame row, with per-point stderr.

    source is a frame source, read in one pass.  Returns a Scan1D over the
    column index; meta carries the stderr array.  The fixed pixel's own
    column is included unless it lies on the scanned row, where the
    self-covariance is skipped (set to the neighbor average).

    Both come from exact integer sums over the frames (_moments), so any
    frame order and any split into blocks give bit-identical results.  C is
    sxy/n - (sx/n)(sy/n) in floats.  With m = n - 1, frame k's
    leave-one-out covariance c_k satisfies

        m**2 c_k = (m sxy - sx sy) + L_k,  L_k = sy x_k + sx y_k - n x_k y_k,

    so the jackknife variance (m/n) sum((c_k - mean c)**2) is exactly
    (n sum(L**2) - sum(L)**2) / (n**2 m**3), and the stderr is its
    correctly rounded square root.
    """
    pixel = tuple(int(v) for v in pixel)
    n = source.n_frames
    if n < 2:
        raise ValueError("need at least two frames")
    height, width = source.shape
    if not (0 <= row < height) or not (0 <= pixel[0] < height
                                       and 0 <= pixel[1] < width):
        raise ValueError("row or pixel out of range")
    sums, sx, sxx = _moments(source, pixel, row)
    (sy, syy), (sxy, sxyy), (sxxy, sxxyy) = sums
    C = (sxy / n - (sx / n) * (sy / n)).astype(float)
    m = n - 1
    sum_l = 2 * sx * sy - n * sxy
    sum_ll = (sy * sy * sxx + sx * sx * syy + n * n * sxxyy
              + 2 * (sx * sy * sxy - n * (sy * sxxy + sx * sxyy)))
    err = np.array([_sqrt_ratio(int(v), n * n * m**3)
                    for v in n * sum_ll - sum_l * sum_l])
    cols = np.arange(width)
    if row == pixel[0]:  # the self-covariance, skipped
        j, good = pixel[1], cols != pixel[1]
        C[j] = np.interp(j, cols[good], C[good])
        err[j] = np.interp(j, cols[good], err[good])
    return Scan1D(xs=cols.astype(float), values=C,
                  meta={"stderr": err, "pixel": pixel, "row": row,
                        "n_frames": n})
