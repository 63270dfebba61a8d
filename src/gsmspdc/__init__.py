"""Simulation of partially spatially coherent biphotons from a GSM pump.

Library layout:

    pump          GSM pump coherence parameters and characterization formulas
    spdc          phase matching and the joint momentum detection rate
    interference  double-slit fringe profiles of the signal beam
    profiles      far-field ring profiles and conditional momentum scans
    quadrature    the order-doubling gate both quadrature rules share
    counting      synthetic photon-counting frames and the covariance estimator
    analysis      visibility / Gaussian / Bessel-law fits
    cli           batch experiment harness (CSV + 16-bit PGM outputs)
"""

from .analysis import (GaussianFit, VisibilityFit, fit_bessel_visibility,
                       fit_gaussian, fit_visibility, scan_fwhm)
from .counting import (CoincidenceResult, FrameStack, conditional_map,
                       load_frames, pixel_coincidence, save_frames, synth_frames)
from .errors import ConfigError, ConvergenceError, FitError
from .interference import (SlitGeometry, fringe_profile, fringe_profiles,
                           slit_plane_coherence, slit_transmission, visibility_curve)
from .profiles import (conditional_scan, momentum_to_position, overlap_point,
                       position_to_momentum, ring_radial_profile, ring_radius,
                       singles_profile)
from .pump import (CharacterizationSetup, CoherenceParams, GsmCsdCoefficients,
                   PumpParams, bessel_visibility, coherence_from,
                   correlation_length, csd_coefficients, propagate_to_crystal,
                   pump_visibility)
from .records import Profile2D, Scan1D
from .spdc import (CrystalParams, MomentumPoint, joint_momentum_rate,
                   noncollinear_mismatch, phase_match_gaussian, phase_match_sinc)

__version__ = "0.1.0"
