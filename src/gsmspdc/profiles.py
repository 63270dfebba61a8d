"""Far-field transverse profiles of the down-converted light.

singles_profile integrates the joint momentum rate over the undetected
photon, on the pixels and rings that _image sets out.  The pump CSD diagonal
weights the pair-sum momentum u = q_s + q_i by the Gaussian
A_c exp(-|u|^2 / (2 sigma^2)), with sigma from GaussianCsd.sum_sigma, leaving
the bounded factor sinc^2(L dk_z / 2) to integrate against it by a tensor
Gauss-Hermite rule, exact for that weight.  The Hermite order is measured,
not configured, by the order-doubling gate of gsmspdc.quadrature.
_singles_montecarlo draws the same integrand's pair sums from that weight
instead; it is the tests' reference for the rule.

The integrand is evaluated as a completed square in u (spdc.mismatch_square):
at a detected momentum q the mismatch is dk_z = |u - c|^2 / (2 k_p) + D0, with
c and D0 depending on q alone.  The phase therefore splits by coordinate,
L dk_z / 2 = a + b with a = (L / (4 k_p)) (u_x - c_x)^2 + (L / 2) D0 from q_x
alone and b = (L / (4 k_p)) (u_y - c_y)^2 from q_y alone.  The tensor rule
takes sin and cos of a once per node and q_x, and of b once per node and
q_y: an S x S image passed as its two axes costs 4 n S sines, not n^2 S^2.
Each pixel's n^2 node pairs then need only sin(a + b) = sin a cos b +
cos a sin b, one division and a product with the weights, in (n, n, rows)
blocks of about BLOCK elements whose work space is allocated once.

Momenta are in rad/m.  A camera at the focal plane of a collimating lens maps
transverse momentum q to position X = q f / k (momentum_to_position).
"""

import math

import numpy as np

from .errors import ConvergenceError
from .pump import PumpParams, csd_coefficients
from .quadrature import doubling_gate, hermite_rule
from .records import Profile2D, Scan1D
from .spdc import CrystalParams, _sinc, joint_momentum_rate, mismatch_square

__all__ = [
    "ring_radius",
    "overlap_point",
    "momentum_to_position",
    "singles_profile",
    "conditional_scan",
]


def ring_radius(crystal: CrystalParams, k_p: float) -> float:
    """Far-field ring radius k_s theta_nc of the degenerate emission cone."""
    return 0.5 * k_p * crystal.theta_nc


def overlap_point(crystal: CrystalParams, k_p: float):
    """Signal momentum (q_sx, 0) on the pair ring along +x.

    Solves dk_z(q_s, -q_s) = 0 for q_s = (q, 0): the point where the
    anti-correlated pair is exactly phase matched; with walk-off the root
    shifts along +x.  The two such points (+-x) are where the type-II rings
    overlap.
    """
    # 2 q^2 / k_p - rho_i q - k_p theta^2 / 2 = 0
    aa = 2.0 / k_p
    bb = -crystal.rho_i
    cc = -k_p * crystal.theta_nc**2 / 2.0
    q = (-bb + np.sqrt(bb * bb - 4.0 * aa * cc)) / (2.0 * aa)
    return (float(q), 0.0)


def momentum_to_position(q, focal_length: float, wavelength: float):
    """Transverse momentum -> camera-plane position q f / k behind a
    collimating lens."""
    return np.asarray(q, dtype=float) * focal_length / (2.0 * np.pi / wavelength)


# elements of one block, (node, node, pixel) in the tensor rule and
# (pixel, draw) in Monte Carlo: a few hundred kB per temporary
BLOCK = 2**15
# below this |L dk_z / 2| sinc is its Taylor series, not sin(t) / t
SERIES_BELOW = 2.0**-8


def _phase_parts(q, crystal, k_p, ux, uy, idler_ring):
    """(a, b) with L dk_z / 2 = a + b at detected momenta q = (qx, qy) and
    pair sums u = (ux, uy), all broadcasting: a is built from ux and qx
    alone, b from uy and qy alone.  The other photon carries u - q, and
    idler_ring makes the detected photon the idler.

    With c and D0 from spdc.mismatch_square, a = (L / (4 k_p)) (u_x - c_x)^2
    + (L / 2) D0 and b = (L / (4 k_p)) (u_y - c_y)^2.
    """
    (cx, cy), d0 = mismatch_square(q, crystal, k_p, idler_ring)
    scale = crystal.L / (4.0 * k_p)
    a = ux - cx
    a *= a
    a *= scale
    a += (crystal.L / 2.0) * d0
    b = uy - cy
    b *= b
    b *= scale
    return a, b


def _sinc2_block(a, b, t, s, scratch):
    """s = sinc^2(a_i + b_j) over an (n, n, rows, ...) block from the parts
    a = (a, sin a, cos a) and b = (b, cos b, sin b), each (3, n, rows, ...),
    by sin(a_i + b_j) = sin a_i cos b_j + cos a_i sin b_j; t and scratch are
    work space.  Where |t| < SERIES_BELOW the series 1 - t^2 / 6 + t^4 / 120
    gives sinc(t), so t = 0 is never divided by."""
    np.add(a[0][:, None], b[0][None], out=t)
    np.multiply(a[1][:, None], b[1][None], out=s)
    s += np.multiply(a[2][:, None], b[2][None], out=scratch)
    if np.abs(t, out=scratch).min() < SERIES_BELOW:
        near = scratch < SERIES_BELOW
        t2 = np.square(t[near])
        s[near] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        t[near] = 1.0
    s /= t
    s *= s


def _singles_quadrature(qx, qy, pump, crystal, order, center_shift=(0.0, 0.0),
                        idler_ring=False):
    """Tensor Gauss-Hermite rule of order^2 pair-sum nodes at each (qx, qy).

    qx and qy broadcast to the shape of the result.  The sines and cosines
    are taken once per node and element of qx, or of qy, so axes
    (axis[None, :], axis[:, None]) cost 4 n S of them for an S x S image;
    the n^2 node pairs of each pixel are combined by the angle-addition
    formula, a block of rows at a time.
    """
    coeffs = csd_coefficients(pump)
    sigma = coeffs.sum_sigma
    x, w = hermite_rule(order)
    # u = sqrt(2) sigma x turns exp(-|u|^2 / (2 sigma^2)) d^2u into
    # 2 sigma^2 exp(-|x|^2) d^2x, the Hermite weight
    u = np.sqrt(2.0) * sigma * x
    wts = coeffs.A_c * 2.0 * sigma**2 * np.outer(w, w).ravel()
    qx, qy = np.atleast_1d(qx, qy)
    shape = np.broadcast_shapes(qx.shape, qy.shape)
    # node-major: a[i, p] for node u[i] and qx.flat[p], b[j, p] likewise
    a, b = _phase_parts((qx.ravel() - center_shift[0],
                         qy.ravel() - center_shift[1]),
                        crystal, pump.k_p, u[:, None], u[:, None], idler_ring)
    # (a, sin a, cos a) and (b, cos b, sin b), broadcast over the result
    parts_a, parts_b = (
        np.broadcast_to(np.stack(p).reshape((3, order) + q.shape),
                        (3, order) + shape)
        for p, q in (((a, np.sin(a), np.cos(a)), qx),
                     ((b, np.cos(b), np.sin(b)), qy)))
    out = np.empty(shape)
    row = math.prod(shape[1:])
    rows = max(1, BLOCK // (wts.size * row))
    # t, s and scratch of _sinc2_block, reused by every block
    work = np.empty((3, wts.size * rows * row))
    for lo in range(0, shape[0], rows):
        block = (order, order, min(rows, shape[0] - lo)) + shape[1:]
        t, s, scratch = (v[:math.prod(block)].reshape(block) for v in work)
        _sinc2_block(parts_a[:, :, lo:lo + rows], parts_b[:, :, lo:lo + rows],
                     t, s, scratch)
        out[lo:lo + rows] = (wts @ s.reshape(wts.size, -1)).reshape(block[2:])
    return out


def _singles_montecarlo(qx, qy, pump, crystal, n_samples, seed,
                        center_shift=(0.0, 0.0), idler_ring=False):
    """Monte-Carlo estimate of the same integral with per-point standard errors.

    The pair-sum momentum is drawn exactly from the Gaussian CSD diagonal
    (common draws across grid points); qx and qy broadcast.  NumPy loads
    numpy.random at the first call, not when this module is imported.
    """
    coeffs = csd_coefficients(pump)
    sigma = coeffs.sum_sigma
    norm = coeffs.A_c * 2.0 * np.pi * sigma**2
    u = np.random.default_rng(seed).normal(scale=sigma, size=(n_samples, 2))
    qx, qy = np.broadcast_arrays(np.asarray(qx, dtype=float),
                                 np.asarray(qy, dtype=float))
    # a column of detected momenta against a row of draws
    q = (qx.reshape(-1, 1) - center_shift[0],
         qy.reshape(-1, 1) - center_shift[1])
    mean = np.empty(qx.size)
    stderr = np.empty(qx.size)
    pixels = max(1, BLOCK // n_samples)
    for lo in range(0, qx.size, pixels):
        block = slice(lo, lo + pixels)
        a, b = _phase_parts((q[0][block], q[1][block]), crystal, pump.k_p,
                            u[:, 0], u[:, 1], idler_ring)
        f = _sinc(a + b) ** 2
        mean[block] = norm * f.mean(axis=1)
        stderr[block] = norm * f.std(axis=1, ddof=1) / np.sqrt(n_samples)
    return mean.reshape(qx.shape), stderr.reshape(qx.shape)


def _image(pump: PumpParams, crystal: CrystalParams, extent, samples):
    """singles_profile's pixels and rings: (qx, qy, rings, extent, q_offset).

    qx is a row and qy a column of the samples x samples image, spanning
    extent (None: 3.2 ring radii, or 12 pair-sum widths for a collinear
    ring).  rings holds the (center_shift, idler_ring) of each ring: type-I
    has one, the signal's at the origin; type-II adds the idler's, the two
    displaced by +-q_offset = half the ring radius along y, so that they
    overlap at two points on the x axis, with the idler walk-off applied to
    the idler ring alone.
    """
    radius = ring_radius(crystal, pump.k_p)
    if extent is None:
        extent = (3.2 * radius if radius > 0
                  else 12.0 * csd_coefficients(pump).sum_sigma)
    if radius > 0 and extent < 2.0 * radius:
        raise ValueError("grid extent must cover the ring (>= 2 k_s theta_nc)")
    axis = np.linspace(-extent / 2.0, extent / 2.0, samples)
    if crystal.kind == "II":
        q_offset = 0.5 * radius
        rings = [((0.0, +q_offset), False), ((0.0, -q_offset), True)]
    else:
        q_offset = 0.0
        rings = [((0.0, 0.0), False)]
    # rows of the image are qy, columns qx
    return axis[None, :], axis[:, None], rings, extent, q_offset


def singles_profile(pump: PumpParams, crystal: CrystalParams,
                    extent: float | None = None, samples: int = 256) -> Profile2D:
    """Far-field intensity map of every ring the crystal emits, unit maximum:
    the sum over the rings of _image, one for type-I and two for type-II.

    extent : full grid span in rad/m; must cover the ring (>= 2 k_s theta_nc).

    The tensor Gauss-Hermite rule takes order^2 inner nodes.  The
    order-doubling gate doubles its order from INITIAL_ORDER until the next
    doubling moves no sample by more than its tolerance, and returns that
    doubled rule: meta records its "order" and the "order_doubling_delta"
    from half that order.
    """
    qx, qy, rings, extent, q_offset = _image(pump, crystal, extent, samples)

    def evaluate(n):
        return sum(_singles_quadrature(qx, qy, pump, crystal, n,
                                       center_shift=shift, idler_ring=idler)
                   for shift, idler in rings)

    total, order, delta = doubling_gate(evaluate, "inner")
    peak = float(total.max())
    if peak <= 0:
        raise ConvergenceError("profile vanished everywhere")
    grid = total / peak
    pitch = qx[0, 1] - qx[0, 0]
    meta = {
        "lambda_p_m": pump.lambda_p, "w0_m": pump.w0, "l_c_m": pump.l_c,
        "A": pump.A,
        "crystal_L_m": crystal.L, "kind": crystal.kind,
        "theta_nc_rad": crystal.theta_nc,
        "rho_p_rad": crystal.rho_p, "rho_i_rad": crystal.rho_i,
        "which": "both", "q_offset_radpm": q_offset,
        "extent_radpm": extent, "samples": samples,
        "rule": "gauss-hermite", "order": order,
        "order_doubling_delta": delta, "normalization": peak,
    }
    return Profile2D(grid=grid, pitch_x=pitch, pitch_y=pitch, meta=meta)


def conditional_scan(pump: PumpParams, crystal: CrystalParams, q_s,
                     samples: int = 801) -> Scan1D:
    """Conditional rate R(q_ix | q_s) along the idler x axis, unit area.

    q_s is the fixed signal momentum (pick an overlap point for type-II); the
    idler sits at the anti-correlated q_iy = -q_sy, and the scan spans
    +-10 pair-sum widths around q_ix = -q_sx.
    """
    qsx, qsy = float(q_s[0]), float(q_s[1])
    q_iy = -qsy
    sigma = csd_coefficients(pump).sum_sigma
    center = -qsx
    qix = np.linspace(center - 10.0 * sigma, center + 10.0 * sigma, samples)
    rate = joint_momentum_rate((qsx, qsy), (qix, np.full_like(qix, q_iy)),
                               pump, crystal)
    area = np.trapezoid(rate, qix)
    if area <= 0:
        raise ConvergenceError("conditional rate vanished along the scan")
    meta = {
        "q_sx_radpm": qsx, "q_sy_radpm": qsy, "q_iy_radpm": q_iy,
        "A": pump.A, "lambda_p_m": pump.lambda_p,
        "w0_m": pump.w0, "l_c_m": pump.l_c,
        "theta_nc_rad": crystal.theta_nc, "rho_p_rad": crystal.rho_p,
        "rho_i_rad": crystal.rho_i, "crystal_L_m": crystal.L,
    }
    return Scan1D(xs=qix, values=rate / area, meta=meta)
