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

import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .records import Scan1D

__all__ = [
    "FrameStack",
    "synth_frames",
    "conditional_map",
    "save_frames",
    "load_frames",
]

MAGIC = b"GSMFRAM1"
_HEADER = struct.Struct("<III Q d d")
U16_MAX = np.iinfo(np.uint16).max
# Doubles a block of frames may draw, a frame counting its mean pairs plus
# its 2 n_px pixels: a block's draws stay near 256 KB at any rate, and from
# 2**15 pairs per frame a block is one frame.  A memory bound only: the
# stack does not depend on it.
BLOCK_DOUBLES = 2**15
# buckets of the guide table that maps a uniform draw to its CDF cell
GUIDE_BUCKETS = 4096


@dataclass
class FrameStack:
    """Stack of 2-D photon-count frames plus acquisition metadata."""

    frames: np.ndarray          # (n_frames, height, width) unsigned counts
    pixel_pitch: float = 16e-6  # m
    exposure: float = 20e-3     # s
    seed: int = 0

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3:
            raise ValueError("frames must be a (n_frames, height, width) array")
        # unsigned counts need no scan (and no frame-sized mask) for signs
        if self.frames.dtype.kind != "u" and np.any(self.frames < 0):
            raise ValueError("counts must be non-negative")
        self.frames = self.frames.astype(np.uint16, copy=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self):
        return self.frames.shape[1:]


def synth_frames(joint, pairs_per_frame: float, noise: float, n_frames: int,
                 seed: int, pixel_pitch: float = 16e-6) -> FrameStack:
    """Draw a photon-counting frame stack from a joint pixel distribution.

    Each frame receives a Poisson number of photon pairs (mean
    pairs_per_frame); each pair lands at (row 0, i) and (row 1, j) with
    probability P[i, j].  Dark counts are independent Bernoulli(noise) per
    pixel per frame.  np.random.default_rng(seed).spawn(3) gives three
    streams: every frame's pair count is drawn from the first in one call,
    the pair positions from the second and the dark-count uniforms from the
    third.  Each stream is read in frame order, and NumPy's draws do not
    depend on how a stream's reads are split, so the stack depends on the
    seed alone; the frames are binned a block at a time.  The seed must fit
    the format's u64.  Raises ValueError if a pixel's count would not fit
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
    guide, crowded = _guide_table(cdf)
    n_px = P.shape[0]
    count_rng, pair_rng, dark_rng = np.random.default_rng(seed).spawn(3)
    n_pairs = count_rng.poisson(pairs_per_frame, n_frames)
    block = max(1, int(BLOCK_DOUBLES // (pairs_per_frame + 2 * n_px)))

    frames = np.empty((n_frames, 2, n_px), dtype=np.uint16)
    for k0 in range(0, n_frames, block):
        k1 = min(k0 + block, n_frames)
        # bin every pair of the block keyed by frame * n_px + column
        base = np.repeat(np.arange(k1 - k0) * n_px, n_pairs[k0:k1])
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
        frames[k0:k1] = counts
    return FrameStack(frames=frames, pixel_pitch=pixel_pitch, seed=seed)


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


def _jackknife_covariance(x, y, sx: int):
    """Covariance of two per-frame count series and its jackknife stderr.

    x and y are integer counts and sx is the sum of x.  A frame's
    leave-one-out covariance depends only on its count pair (x_k, y_k), so
    the float sums run over the exact integer histogram of those pairs, in
    the order of (leave-one-out value, count): any frame permutation, and
    swapping x and y, gives bit-identical results.  The histogram is a
    bincount while (max x + 1)(max y + 1) <= n, else np.unique, so its
    memory stays O(n) at any count rate.
    """
    n = x.size
    ny = int(y.max()) + 1
    keys = x * ny + y
    size = (int(x.max()) + 1) * ny
    if size <= n:
        weight = np.bincount(keys, minlength=size)
        keys = np.flatnonzero(weight)
        weight = weight[keys]
    else:
        keys, weight = np.unique(keys, return_counts=True)
    a, b = np.divmod(keys, ny)
    ab = a * b
    sy = int(weight @ b)
    sxy = int(weight @ ab)
    C = sxy / n - (sx / n) * (sy / n)
    ck = (sxy - ab) / (n - 1) - ((sx - a) / (n - 1)) * ((sy - b) / (n - 1))
    order = np.lexsort((weight, ck))
    weight, ck = weight[order], ck[order]
    mean_ck = float(np.sum(weight * ck)) / n
    stderr = float(np.sqrt((n - 1) / n * np.sum(weight * (ck - mean_ck) ** 2)))
    return float(C), stderr


def conditional_map(stack: FrameStack, pixel, row: int) -> Scan1D:
    """C(pixel, (row, j)) for j scanning a frame row, with per-point stderr.

    Returns a Scan1D over the column index; meta carries the stderr array.
    The fixed pixel's own column is included unless it lies on the scanned
    row, where the self-covariance is skipped (set to the neighbor average).
    Each column's C and stderr come from the exact integer histogram of its
    (fixed pixel, column) count pairs, so any frame order gives bit-identical
    results.
    """
    pixel = tuple(int(v) for v in pixel)
    if stack.n_frames < 2:
        raise ValueError("need at least two frames")
    height, width = stack.shape
    if not (0 <= row < height) or not (0 <= pixel[0] < height
                                       and 0 <= pixel[1] < width):
        raise ValueError("row or pixel out of range")
    x = stack.frames[:, pixel[0], pixel[1]].astype(np.intp)
    sx = int(x.sum())
    cols = np.arange(width)
    C = np.empty(width)
    err = np.empty(width)
    for jcol in cols:
        if (row, jcol) == pixel:
            C[jcol] = np.nan
            err[jcol] = np.nan
            continue
        C[jcol], err[jcol] = _jackknife_covariance(
            x, stack.frames[:, row, jcol].astype(np.intp), sx)
    bad = np.isnan(C)
    if np.any(bad):
        good = ~bad
        C[bad] = np.interp(cols[bad], cols[good], C[good])
        err[bad] = np.interp(cols[bad], cols[good], err[good])
    return Scan1D(xs=cols.astype(float), values=C,
                  meta={"stderr": err, "pixel": pixel, "row": row,
                        "n_frames": stack.n_frames})


def save_frames(stack: FrameStack, path):
    """Write the stack in the documented binary layout."""
    h, w = stack.shape
    header = MAGIC + _HEADER.pack(stack.n_frames, h, w, stack.seed,
                                  stack.pixel_pitch, stack.exposure)
    body = np.ascontiguousarray(stack.frames, dtype="<u2")
    with open(path, "wb") as fh:
        fh.write(header)
        body.tofile(fh)


def load_frames(path) -> FrameStack:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a frame-stack file: bad magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated frame-stack header")
        n_frames, h, w, seed, pitch, exposure = _HEADER.unpack(header)
        if h == 0 or w == 0:
            raise ValueError(f"empty {h} x {w} frames")
        count = n_frames * h * w
        # checked before reading, so a corrupt header allocates nothing
        if os.fstat(fh.fileno()).st_size - fh.tell() < 2 * count:
            raise ValueError("truncated frame-stack file")
        data = np.fromfile(fh, dtype="<u2", count=count)
    return FrameStack(frames=data.reshape(n_frames, h, w),
                      pixel_pitch=pitch, exposure=exposure, seed=seed)
