"""In-memory frame sources for the photon-counting tests.

The package reads frames from files only (counting.FrameFile); a frame
source is anything with n_frames, shape and blocks(), so the tests hold
their stacks in memory as SplitStack.
"""

import numpy as np

from gsmspdc.counting import covariance_scan, synth_blocks


class SplitStack:
    """A frame source whose blocks end at the given frame indices; passes
    counts the calls of blocks()."""

    def __init__(self, frames, cuts=()):
        self.frames = frames
        self.n_frames, *self.shape = frames.shape
        self.edges = [0, *cuts, self.n_frames]
        self.passes = 0

    def blocks(self):
        self.passes += 1
        for k0, k1 in zip(self.edges, self.edges[1:]):
            yield self.frames[k0:k1]


def drawn_stack(joint, pairs_per_frame, noise, n_frames, seed):
    """The frames synth_blocks draws, as one (n_frames, 2, n_px) array."""
    return np.concatenate(list(synth_blocks(joint, pairs_per_frame, noise,
                                            n_frames, seed)))


def stack_scan(frames, pixel, row):
    """covariance_scan of an in-memory stack."""
    return covariance_scan(SplitStack(frames), pixel, row)
