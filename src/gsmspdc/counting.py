"""Synthetic photon-counting frame stacks and the pixel-covariance estimator.

A frame stack stands in for an EMCCD in photon-counting mode: integer counts,
no gain or threshold physics beyond independent per-pixel dark counts.  The
coincidence estimator between pixels i and j is the count covariance over
frames,

    C = <n_i n_j> - <n_i> <n_j> ,

with a standard error from a leave-one-frame-out jackknife.  For a Poisson
pair process with joint pixel distribution P, C equals
pairs_per_frame * P(i, j) exactly, so C-scans estimate the generating
conditional distribution shape.  Both are computed from the exact integer
histogram of the per-frame count pairs (n_i, n_j), so they do not depend on
the order of the frames.

Synthetic frames have shape (2, n_px): row 0 collects the signal photon of
each pair, row 1 the idler photon.  The joint distribution is a 2-D matrix
P[i, j] = P(signal at column i, idler at column j).  A stack is drawn from
three NumPy streams spawned from its seed (pair counts, pair positions, dark
counts), so it depends on the seed alone.  A pair's cell is found through a
guide table over the CDF (Chen & Asau's indexed search), which returns what
cdf.searchsorted(u, side="right") returns.

Every stage works a block of frames at a time (BLOCK_DOUBLES doubles).
Beyond a block, a run holds only a covariance histogram of at most
max(BLOCK_DOUBLES, n_frames) keys a pass: one pass covers every column at
low count rates, and a single column at rates where each frame's count pair
can be new, so a high rate costs passes over the frames, not memory.
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
# Doubles a block of frames may hold: a frame counts its mean pairs plus its
# 2 n_px pixels when drawn, and its pixels when read or scanned.  A block
# stays near 256 KB at any rate, and from 2**15 doubles a frame a block is
# one frame.  It bounds the memory of synthesis, file and scan; a covariance
# histogram may grow to n_frames keys beyond it.  No output depends on it.
BLOCK_DOUBLES = 2**15
# buckets of the guide table that maps a uniform draw to its CDF cell
GUIDE_BUCKETS = 4096
EXPOSURE = 20e-3  # s, recorded with a synthesized stack


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
    from the second and the dark-count uniforms from the third.  Each stream
    is read in frame order, and NumPy's draws do not depend on how a
    stream's reads are split, so the stack depends on the seed alone.  The
    seed must fit the format's u64.

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
    for k0 in range(0, n_frames, block):
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
        if noise > 0:
            counts += dark_rng.random((k1 - k0, 2, n_px)) < noise
        if counts.max() > U16_MAX:
            peaks = counts.reshape(k1 - k0, -1).max(axis=1)
            f = int(np.argmax(peaks > U16_MAX))
            raise ValueError(
                f"frame {k0 + f} holds {peaks[f]} counts in one pixel, more "
                f"than the u16 format's {U16_MAX}")
        yield counts.astype(np.uint16)


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
                 pixel_pitch: float, exposure: float = EXPOSURE):
    """Write a stack in the documented layout, a block of frames at a time.

    blocks must yield the n_frames frames of the given (height, width)
    shape.  They are written under a temporary name beside path, which is
    moved into place once every block is written and removed on any error,
    so an error in a later block (a u16 overflow) leaves no partial file and
    an older file at path as it was.
    """
    header = MAGIC + _HEADER.pack(n_frames, *shape, seed, pixel_pitch,
                                  exposure)
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
    """Each pixel's count total, count minimum and count maximum over the
    frames of a frame source: three (height, width) int64 arrays from one
    pass."""
    totals = np.zeros(source.shape, dtype=np.int64)
    minima = np.full(source.shape, U16_MAX, dtype=np.int64)
    maxima = np.zeros(source.shape, dtype=np.int64)
    for block in source.blocks():
        totals += block.sum(axis=0, dtype=np.int64)
        np.minimum(minima, block.min(axis=0), out=minima)
        np.maximum(maxima, block.max(axis=0), out=maxima)
    return totals, minima, maxima


def _column_runs(sizes, budget):
    """Runs of consecutive columns, as (first, stop) pairs, whose sizes sum
    to at most budget; a run holds at least one column."""
    runs, j0, total = [], 0, 0
    for j, size in enumerate(sizes):
        if total + size > budget and j > j0:
            runs.append((j0, j))
            j0, total = j, 0
        total += size
    runs.append((j0, len(sizes)))
    return runs


def _pair_histogram(blocks, pixel, row, cols, lows, nx, ny, budget):
    """Exact integer histogram of the (fixed pixel, column) count pairs of
    the columns cols (a slice) of a row, from one pass over the blocks.

    lows = (x0, y0): the fixed pixel counts x0 to x0 + nx - 1 and the i-th
    column y0[i] to y0[i] + ny[i] - 1; that column's pair (x0 + a, y0[i] + b)
    is keyed starts[i] + a * ny[i] + b, so the keys of all the columns share
    [0, nx * sum(ny)).  The histogram is a bincount when it has at most
    budget cells, else merged np.unique counts.  A block's keys are queued,
    and the queue is folded into the histogram once it holds more keys than
    the bincount has cells, or than budget: a fold costs about as much as
    its queue, so a pass is linear (bincount) or n log n (np.unique) in its
    keys.  With columns of at most budget distinct pairs, as covariance_scan
    picks them, a pass holds about 2 budget keys at most.  Returns the
    starts, the sorted keys that occur and their int64 counts.
    """
    ends = nx * np.cumsum(ny)
    starts = ends - nx * ny
    cells = int(ends[-1])
    dense = cells <= budget
    keys = np.arange(cells) if dense else np.empty(0, dtype=np.int64)
    counts = np.zeros(keys.size, dtype=np.int64)

    def fold(keys, counts, queue):
        k = np.concatenate(queue) if len(queue) > 1 else queue[0]
        if dense:
            return keys, counts + np.bincount(k, minlength=cells)
        k, c = np.unique(k, return_counts=True)
        if not keys.size:
            return k, c
        merged, inverse = np.unique(np.concatenate([keys, k]),
                                    return_inverse=True)
        # float sums of integer counts below 2**53 are exact
        return merged, np.bincount(inverse, np.concatenate([counts, c])
                                   ).astype(np.int64)

    x0, y0 = lows
    offsets = starts - y0
    if dense:  # the keys of (x0 + a, 0) in each column, a row for each a
        table = offsets + np.arange(nx)[:, None] * ny
    limit = cells if dense else budget
    queue, queued = [], 0
    for block in blocks:
        x = block[:, pixel[0], pixel[1]].astype(np.intp) - x0
        if dense:
            k = table[x]
        else:
            k = x[:, None] * ny
            k += offsets
        k += block[:, row, cols]
        queue.append(k.ravel())
        queued += k.size
        if queued > limit:
            keys, counts = fold(keys, counts, queue)
            queue, queued = [], 0
    if queue:
        keys, counts = fold(keys, counts, queue)
    seen = counts > 0
    return starts, keys[seen], counts[seen]


def _jackknife_covariance(a, b, weight, n: int):
    """Covariance of two per-frame count series and its jackknife stderr,
    from the histogram of their count pairs (a, b), each seen weight times
    in n frames.

    A frame's leave-one-out covariance depends only on its count pair, so
    the float sums run over the histogram, in the order of (leave-one-out
    value, count): any frame permutation, and swapping the two series, gives
    bit-identical results.
    """
    ab = a * b
    sx = int(weight @ a)
    sy = int(weight @ b)
    sxy = int(weight @ ab)
    C = sxy / n - (sx / n) * (sy / n)
    ck = (sxy - ab) / (n - 1) - ((sx - a) / (n - 1)) * ((sy - b) / (n - 1))
    order = np.lexsort((weight, ck))
    weight, ck = weight[order], ck[order]
    mean_ck = float(np.sum(weight * ck)) / n
    stderr = float(np.sqrt((n - 1) / n * np.sum(weight * (ck - mean_ck) ** 2)))
    return float(C), stderr


def covariance_scan(source, pixel, row: int, minima, maxima) -> Scan1D:
    """C(pixel, (row, j)) for j scanning a frame row, with per-point stderr.

    source is a frame source, and minima and maxima its per-pixel count
    minima and maxima (pixel_stats).  Returns a Scan1D over the column
    index; meta carries the stderr array.  The fixed pixel's own column is
    included unless it lies on the scanned row, where the self-covariance
    is skipped (set to the neighbor average).  Each column's C and stderr
    come from the exact integer histogram of its (fixed pixel, column) count
    pairs, so any frame order and any split into blocks give bit-identical
    results.  A column's histogram holds at most the cells of the box its
    count minima and maxima span, and at most n_frames pairs; one pass over
    the source builds the histograms of a run of columns whose bounds sum to
    at most max(BLOCK_DOUBLES, n_frames): every column at once at low count
    rates, and a column a pass at rates where each frame's pair can be new.
    """
    pixel = tuple(int(v) for v in pixel)
    n = source.n_frames
    if n < 2:
        raise ValueError("need at least two frames")
    height, width = source.shape
    if not (0 <= row < height) or not (0 <= pixel[0] < height
                                       and 0 <= pixel[1] < width):
        raise ValueError("row or pixel out of range")
    x0 = int(minima[pixel])
    nx = int(maxima[pixel]) - x0 + 1
    y0 = minima[row].astype(np.int64)
    ny = maxima[row].astype(np.int64) - y0 + 1
    budget = max(BLOCK_DOUBLES, n)
    cols = np.arange(width)
    C = np.full(width, np.nan)
    err = np.full(width, np.nan)
    for j0, j1 in _column_runs(np.minimum(nx * ny, n), budget):
        starts, keys, weight = _pair_histogram(
            source.blocks(), pixel, row, slice(j0, j1), (x0, y0[j0:j1]), nx,
            ny[j0:j1], budget)
        lo = np.searchsorted(keys, starts)
        hi = np.searchsorted(keys, starts + nx * ny[j0:j1])
        for i, j in enumerate(range(j0, j1)):
            if (row, j) != pixel:
                a, b = np.divmod(keys[lo[i]:hi[i]] - starts[i], ny[j])
                C[j], err[j] = _jackknife_covariance(
                    x0 + a, y0[j] + b, weight[lo[i]:hi[i]], n)
    bad = np.isnan(C)
    if np.any(bad):
        good = ~bad
        C[bad] = np.interp(cols[bad], cols[good], C[good])
        err[bad] = np.interp(cols[bad], cols[good], err[good])
    return Scan1D(xs=cols.astype(float), values=C,
                  meta={"stderr": err, "pixel": pixel, "row": row,
                        "n_frames": n})

