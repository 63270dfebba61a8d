"""Helpers shared by the model tests, and the test-only reference code.

The package's entry points always gate their quadrature order
(gsmspdc.quadrature.doubling_gate).  The tests reach one fixed order, and
the Monte-Carlo reference of the inner rule, through the rule functions
themselves, on the setup the entry point uses (profiles._image,
interference._detector): singles_at_order and singles_montecarlo for
profiles.singles_profile, fringes_at_order for interference.fringe_profiles.

The measures the tests check the models with, and no experiment calls, live
here too: ring_radial_profile (a ring's radial profile on chosen sides),
scan_fwhm (a scan's interpolated FWHM), slit_plane_coherence (the closed-form
|mu| at the slits), read_pgm16 (the profile images back), and csd_a and
csd_kernel (a GaussianCsd's complex coefficient and its kernel W(q, q')).
Alongside them: the pump the tests build, the fringe visibility they fit and
an independent J1 series.
"""

from pathlib import Path

import numpy as np

from gsmspdc import interference, profiles
from gsmspdc.analysis import fit_visibility
from gsmspdc.errors import FitError
from gsmspdc.profiles import _singles_montecarlo, _singles_quadrature
from gsmspdc.pump import PumpParams
from gsmspdc.quadrature import doubling_gate
from gsmspdc.records import Scan1D

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


def singles_at_order(pump, crystal, samples, order):
    """singles_profile's image from the Gauss-Hermite rule at one order,
    unchecked and not max-normalized."""
    qx, qy, rings, _, _ = profiles._image(pump, crystal, None, samples)
    return sum(_singles_quadrature(qx, qy, pump, crystal, order,
                                   center_shift=shift, idler_ring=idler)
               for shift, idler in rings)


def singles_montecarlo(pump, crystal, samples, n_samples, seed):
    """(mean, stderr) of the same image by Monte Carlo: n_samples pair sums
    drawn at seed, the same draws for every pixel and ring."""
    qx, qy, rings, _, _ = profiles._image(pump, crystal, None, samples)
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
    _, _, xs, fields = interference._detector(pumps, crystal, slits, samples)
    return xs, interference._unit_max_profiles(fields, pumps[0].k_s, slits,
                                               xs, order)


def ring_radial_profile(pump, crystal, angles, radii):
    """Azimuthally averaged radial intensity over the given angles (type-I ring).

    Evaluates the singles rate on a polar grid by the same Gauss-Hermite rule
    and order-doubling gate as singles_profile; used to measure ring width on
    a chosen side (e.g. angles around 0 for +x, around pi for -x).
    """
    angles = np.asarray(angles, dtype=float)
    radii = np.asarray(radii, dtype=float)
    QX = radii[:, None] * np.cos(angles)[None, :]
    QY = radii[:, None] * np.sin(angles)[None, :]
    vals, order, delta = doubling_gate(
        lambda n: _singles_quadrature(QX, QY, pump, crystal, n), "inner")
    meta = {"angles_rad": angles.tolist(), "A": pump.A,
            "order": order, "order_doubling_delta": delta}
    return Scan1D(xs=radii, values=vals.mean(axis=1), meta=meta)


def _half_crossing(xs, ys, i_max, half, step):
    """x where ys first falls below half, walking from i_max by step (+-1),
    linearly interpolated; None if it never does inside the scan."""
    for i in range(i_max + step, xs.size if step > 0 else -1, step):
        if ys[i] < half:
            x0, x1 = xs[i - step], xs[i]
            y0, y1 = ys[i - step], ys[i]
            return x0 + (half - y0) * (x1 - x0) / (y1 - y0)
    return None


def scan_fwhm(scan):
    """Full width at half maximum of a single-peaked scan, linearly interpolated."""
    xs, ys = scan.xs, scan.values
    i_max = int(np.argmax(ys))
    if i_max in (0, xs.size - 1):
        raise FitError("peak sits on the scan boundary")
    half = ys[i_max] / 2.0
    right = _half_crossing(xs, ys, i_max, half, +1)
    left = _half_crossing(xs, ys, i_max, half, -1)
    if right is None or left is None:
        raise FitError("half-maximum level not reached inside the scan")
    return float(right - left)


def slit_plane_coherence(pump, crystal, z, separation):
    """|mu(x, x')| of the signal field at the slit plane for |x - x'| = separation.

    Closed form exp(-c_x dx^2) from the position form; an analytic
    cross-check of the fitted fringe visibility.
    """
    field = interference._signal_csd(pump, crystal, z).position_form()
    return float(np.exp(-field.c * separation**2))


def read_pgm16(path):
    """The pixels of a binary 16-bit PGM (maxval 65535), as uint16 rows."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM file")
    parts = data.split(b"\n", 3)
    width, height = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    if maxval != 65535:
        raise ValueError(f"expected 16-bit PGM, maxval {maxval}")
    pixels = np.frombuffer(parts[3], dtype=">u2", count=width * height)
    return pixels.reshape(height, width).astype(np.uint16)


def csd_a(csd):
    """s + c + i b, the |q|^2 coefficient of the form with 2 c q.q'."""
    return complex(csd.s + csd.c, csd.b)


def csd_kernel(csd, q, qp):
    """W(q, q') of a GaussianCsd for points with components stacked on the
    last axis."""
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    q2 = np.sum(q * q, axis=-1)
    qp2 = np.sum(qp * qp, axis=-1)
    d2 = np.sum((q - qp) ** 2, axis=-1)
    return csd.A_c * np.exp(-csd.s * (q2 + qp2) - csd.c * d2
                            - 1j * csd.b * (q2 - qp2))
