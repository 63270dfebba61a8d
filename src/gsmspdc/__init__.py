"""Simulation of partially spatially coherent biphotons from a GSM pump.

Library layout:

    pump          GSM pump coherence parameters and characterization formulas
    spdc          phase matching and the joint momentum detection rate
    interference  double-slit fringe profiles of the signal beam
    profiles      far-field ring profiles and conditional momentum scans
    quadrature    the order-doubling gate both quadrature rules share
    counting      synthetic photon-counting frames and the covariance estimator
    analysis      visibility and Gaussian fits, scan widths
    cli           batch experiment harness (CSV + 16-bit PGM outputs)

Importing the package loads NumPy's BLAS on one thread, unless NumPy is
already loaded or the caller set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS; the environment is left as it was found.
"""

import os
import sys

# OpenBLAS reads its thread count once, when NumPy loads it.  The largest
# product here is 1001 x 32 x 32, too small for a worker pool, whose start-up
# and spin-waits after every call cost more CPU than they save.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (the load that reads the variable)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (GaussianFit, VisibilityFit, fit_gaussian, fit_visibility,
                       scan_fwhm)
from .counting import (FrameStack, conditional_map, load_frames, save_frames,
                       synth_frames)
from .errors import ConfigError, ConvergenceError, FitError
from .interference import (SlitGeometry, fringe_profiles, slit_plane_coherence,
                           slit_transmission, visibility_curve)
from .profiles import (conditional_scan, momentum_to_position, overlap_point,
                       position_to_momentum, ring_radial_profile, ring_radius,
                       singles_profile)
from .pump import (CharacterizationSetup, GaussianCsd, PumpParams,
                   bessel_visibility, correlation_length, csd_coefficients,
                   propagate_to_crystal, pump_visibility)
from .records import Profile2D, Scan1D
from .spdc import (CrystalParams, joint_momentum_rate, noncollinear_mismatch,
                   phase_match_gaussian, phase_match_sinc)

__version__ = "0.1.0"
