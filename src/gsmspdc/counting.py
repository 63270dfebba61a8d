"""Synthetic photon-counting frame stacks and the pixel-covariance estimator.

A frame stack stands in for an EMCCD in photon-counting mode: integer counts,
no gain or threshold physics beyond independent per-pixel dark counts.  The
coincidence estimator between pixels i and j is the count covariance over
frames,

    C = <n_i n_j> - <n_i> <n_j> ,

with a standard error from a leave-one-frame-out jackknife.  For a Poisson
pair process with joint pixel distribution P, C equals
pairs_per_frame * P(i, j) exactly, so C-scans estimate the generating
conditional distribution shape.

Synthetic frames have shape (2, n_px): row 0 collects the signal photon of
each pair, row 1 the idler photon.  The joint distribution is a 2-D matrix
P[i, j] = P(signal at column i, idler at column j).

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
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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
# 2**15 pairs per frame a block is one frame.
BLOCK_DOUBLES = 2**15

# numpy.random.SeedSequence's constants (pool of 4 uint32 words)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


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
        if np.any(self.frames < 0):
            raise ValueError("counts must be non-negative")
        self.frames = self.frames.astype(np.uint16, copy=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self):
        return self.frames.shape[1:]


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix; returns the hash and the next hash constant.

    value is a Python int or a uint32 array below 2**32, const a Python int.
    """
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ (value >> 16), const_next


def _mix(x, y):
    value = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)
    value &= _MASK32
    return value ^ (value >> 16)


def _spawned_states(seed: int, k0: int, k1: int) -> np.ndarray:
    """Rows SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64).

    One row for each k0 <= k < k1, by NumPy's SeedSequence algorithm: the
    seed's words, zero-padded to the pool size as for any spawned child,
    fill and mix the pool (Python ints, the same for every k); then the
    spawn key k is mixed into every pool word and the eight output words are
    drawn (uint32 arrays).  Needs 0 <= seed < 2**64 and k1 <= 2**32.
    """
    words = [seed >> shift & _MASK32
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A
    pool = []
    for word in words + [0] * (_POOL_SIZE - len(words)):
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    k = np.arange(k0, k1, dtype=np.uint32)
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(k, const)
        pool[dst] = _mix(pool[dst], hashed)
    const = _INIT_B
    state = np.empty((k1 - k0, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i], const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
    # pairs of words are little-endian uint64s, as in generate_state
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Precomputed state words for PCG64, which asks for 4 uint64s."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def synth_frames(joint, pairs_per_frame: float, noise: float, n_frames: int,
                 seed: int, pixel_pitch: float = 16e-6) -> FrameStack:
    """Draw a photon-counting frame stack from a joint pixel distribution.

    Each frame receives a Poisson number of photon pairs (mean
    pairs_per_frame); each pair lands at (row 0, i) and (row 1, j) with
    probability P[i, j].  Dark counts are independent Bernoulli(noise) per
    pixel per frame.  Frame k draws from the k-th child of
    SeedSequence(seed).spawn(n_frames), so the result does not depend on
    evaluation order; the children's PCG64 states are seeded in one
    vectorized pass per block of frames, and each block is binned at once.
    The seed must fit the format's u64.  Raises ValueError if a pixel's
    count would not fit the u16 format.
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
    n_px = P.shape[0]
    n_dark = 2 * n_px if noise > 0 else 0
    block = max(1, int(BLOCK_DOUBLES // (pairs_per_frame + 2 * n_px)))

    frames = np.empty((n_frames, 2, n_px), dtype=np.uint16)
    for k0 in range(0, n_frames, block):
        k1 = min(k0 + block, n_frames)
        n_pairs = np.zeros(k1 - k0, dtype=np.intp)
        pairs = []
        dark = np.empty((k1 - k0, n_dark))
        for f, words in enumerate(_spawned_states(seed, k0, k1)):
            rng = Generator(PCG64(_Words(words)))
            n = rng.poisson(pairs_per_frame) if pairs_per_frame > 0 else 0
            # one draw: the pair positions, then the dark-count uniforms
            draw = rng.random(n + n_dark)
            n_pairs[f] = n
            pairs.append(draw[:n])
            dark[f] = draw[n:]
        # bin every pair of the block keyed by frame * n_px + column
        base = np.repeat(np.arange(k1 - k0) * n_px, n_pairs)
        i, j = np.divmod(cdf.searchsorted(np.concatenate(pairs), side="right"),
                         n_px)
        size = (k1 - k0) * n_px
        counts = np.empty((k1 - k0, 2, n_px), dtype=np.intp)
        counts[:, 0] = np.bincount(base + i, minlength=size).reshape(-1, n_px)
        counts[:, 1] = np.bincount(base + j, minlength=size).reshape(-1, n_px)
        if n_dark:
            counts += (dark < noise).reshape(k1 - k0, 2, n_px)
        if counts.max() > U16_MAX:
            peaks = counts.reshape(k1 - k0, -1).max(axis=1)
            f = int(np.argmax(peaks > U16_MAX))
            raise ValueError(
                f"frame {k0 + f} holds {peaks[f]} counts in one pixel, more "
                f"than the u16 format's {U16_MAX}")
        frames[k0:k1] = counts
    return FrameStack(frames=frames, pixel_pitch=pixel_pitch, seed=seed)


def _jackknife_covariance(x: np.ndarray, y: np.ndarray):
    """Covariance of two per-frame count series and its jackknife stderr.

    Accumulation is order-independent: the moments are exact integer sums and
    the float reductions run in canonical (sorted) order, so any frame
    permutation gives bit-identical results.
    """
    n = x.size
    x64 = x.astype(np.int64)
    y64 = y.astype(np.int64)
    xy = x64 * y64
    sx = int(x64.sum())
    sy = int(y64.sum())
    sxy = int(xy.sum())
    C = sxy / n - (sx / n) * (sy / n)
    mx = (sx - x64) / (n - 1)
    my = (sy - y64) / (n - 1)
    mxy = (sxy - xy) / (n - 1)
    ck = np.sort(mxy - mx * my)
    mean_ck = float(np.sum(ck)) / n
    dev = np.sort((ck - mean_ck) ** 2)
    stderr = float(np.sqrt((n - 1) / n * np.sum(dev)))
    return float(C), stderr


def conditional_map(stack: FrameStack, pixel, row: int) -> Scan1D:
    """C(pixel, (row, j)) for j scanning a frame row, with per-point stderr.

    Returns a Scan1D over the column index; meta carries the stderr array.
    The fixed pixel's own column is included unless it lies on the scanned
    row, where the self-covariance is skipped (set to the neighbor average).
    """
    pixel = tuple(int(v) for v in pixel)
    if stack.n_frames < 2:
        raise ValueError("need at least two frames")
    height, width = stack.shape
    if not (0 <= row < height) or not (0 <= pixel[0] < height
                                       and 0 <= pixel[1] < width):
        raise ValueError("row or pixel out of range")
    x = stack.frames[:, pixel[0], pixel[1]].astype(float)
    cols = np.arange(width)
    C = np.empty(width)
    err = np.empty(width)
    for jcol in cols:
        if (row, jcol) == pixel:
            C[jcol] = np.nan
            err[jcol] = np.nan
            continue
        C[jcol], err[jcol] = _jackknife_covariance(x, stack.frames[:, row, jcol])
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
        count = n_frames * h * w
        # checked before reading, so a corrupt header allocates nothing
        if os.fstat(fh.fileno()).st_size - fh.tell() < 2 * count:
            raise ValueError("truncated frame-stack file")
        data = np.fromfile(fh, dtype="<u2", count=count)
    return FrameStack(frames=data.reshape(n_frames, h, w),
                      pixel_pitch=pitch, exposure=exposure, seed=seed)
