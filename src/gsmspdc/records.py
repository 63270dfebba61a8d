"""Lightweight containers for sampled simulation output.

Scan1D is the universal 1-D record (fringe scans, conditional scans,
coincidence scans); Profile2D holds far-field intensity maps.  Both carry a
``meta`` dict with the full parameter set that produced them so output files
can be audited.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Scan1D:
    """Sampled 1-D curve: ``xs`` strictly increasing, ``values`` same length."""

    xs: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.values.shape:
            raise ValueError("xs and values must be 1-D arrays of equal length")
        if self.xs.size >= 2 and not np.all(np.diff(self.xs) > 0):
            raise ValueError("xs must be strictly increasing")


@dataclass
class Profile2D:
    """2-D intensity map with sample pitch along each axis (axis 0 = y, axis 1 = x)."""

    grid: np.ndarray
    pitch_x: float
    pitch_y: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 2:
            raise ValueError("grid must be 2-D")
        if not np.all(np.isfinite(self.grid)) or np.any(self.grid < 0):
            raise ValueError("grid samples must be finite and non-negative")
        if self.pitch_x <= 0 or self.pitch_y <= 0:
            raise ValueError("pitches must be positive")
