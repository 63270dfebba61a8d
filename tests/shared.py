"""Helpers shared by the model tests.

The package's entry points always gate their quadrature order
(gsmspdc.quadrature.doubling_gate).  The tests reach one fixed order, and
the Monte-Carlo reference of the inner rule, through the rule functions
themselves, on the axes the entry point would use: singles_at_order and
singles_montecarlo for profiles.singles_profile, fringes_at_order for
interference.fringe_profiles.  Alongside them: the pump the tests build,
the fringe visibility they fit and an independent J1 series.
"""

import numpy as np

from gsmspdc import interference
from gsmspdc.analysis import fit_visibility
from gsmspdc.profiles import (_singles_montecarlo, _singles_quadrature,
                              ring_radius)
from gsmspdc.pump import PumpParams, csd_coefficients

LAMBDA_P = 405e-9
LAMBDA_S = 2 * LAMBDA_P


def pump_for(A, w0=0.5e-3):
    """The 405 nm GSM pump of waist w0 and degree of coherence A."""
    return PumpParams.from_coherence(LAMBDA_P, w0, A)


def fitted_visibility(scan, slits):
    """The visibility fitted to one fringe scan, anchored at the naive
    fringe period and restricted to the central four periods."""
    period = slits.fringe_period(LAMBDA_S)
    return fit_visibility([scan], period_hint=period,
                          window=2 * period)[0].visibility


def j1_series(nu, terms=60):
    """Independent J1 oracle: power series sum_m (-1)^m / (m! (m+1)!) (x/2)^(2m+1)."""
    nu = float(nu)
    half = nu / 2.0
    total = 0.0
    term = half  # m = 0
    for m in range(terms):
        total += term
        term *= -(half * half) / ((m + 1) * (m + 2))
    return total


def _singles_image(pump, crystal, which, samples):
    """singles_profile's axes at its default extent, qx as a row and qy as a
    column, and the (center_shift, idler_ring) of each ring it sums."""
    radius = ring_radius(crystal, pump.k_p)
    extent = (3.2 * radius if radius > 0
              else 12.0 * csd_coefficients(pump).sum_sigma)
    axis = np.linspace(-extent / 2.0, extent / 2.0, samples)
    if crystal.kind == "II":
        rings = {"signal": ((0.0, 0.5 * radius), False),
                 "idler": ((0.0, -0.5 * radius), True)}
    else:
        rings = {"signal": ((0.0, 0.0), False)}
    selected = list(rings.values()) if which == "both" else [rings[which]]
    return axis[None, :], axis[:, None], selected


def singles_at_order(pump, crystal, which, samples, order):
    """singles_profile's image from the Gauss-Hermite rule at one order,
    unchecked and not max-normalized."""
    qx, qy, rings = _singles_image(pump, crystal, which, samples)
    return sum(_singles_quadrature(qx, qy, pump, crystal, order,
                                   center_shift=shift, idler_ring=idler)
               for shift, idler in rings)


def singles_montecarlo(pump, crystal, which, samples, n_samples, seed):
    """(mean, stderr) of the same image by Monte Carlo: n_samples pair sums
    drawn at seed, the same draws for every pixel and ring."""
    qx, qy, rings = _singles_image(pump, crystal, which, samples)
    parts = [_singles_montecarlo(qx, qy, pump, crystal, n_samples, seed,
                                 center_shift=shift, idler_ring=idler)
             for shift, idler in rings]
    return (sum(mean for mean, _ in parts),
            np.sqrt(sum(stderr**2 for _, stderr in parts)))


def fringes_at_order(pumps, crystal, slits, order,
                     samples=interference.DEFAULT_SAMPLES):
    """(xs, rows): fringe_profiles' detector axis and its unit-maximum
    profiles, one row per pump, from the aperture rule at one order,
    unchecked."""
    span = (interference.DEFAULT_SPAN_PERIODS
            * slits.fringe_period(pumps[0].lambda_s))
    xs = np.linspace(-span / 2.0, span / 2.0, samples)
    fields = [interference._signal_csd(pump, crystal, slits.z).position_form()
              for pump in pumps]
    return xs, interference._unit_max_profiles(fields, pumps[0].k_s, slits,
                                               xs, order)
