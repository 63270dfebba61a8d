"""Far-field transverse profiles of the down-converted light.

singles_profile integrates the joint momentum rate over the undetected
photon.  The pump CSD diagonal weights the pair-sum momentum u = q_s + q_i by
the Gaussian A_c exp(-|u|^2 / (2 sigma^2)), with sigma from
GsmCsdCoefficients.sum_sigma, leaving the bounded factor sinc^2(L dk_z / 2) to
integrate against it: by a tensor Gauss-Hermite rule, exact for that weight,
or by Monte Carlo drawn from it.  The two backends share the integrand and
differ only in their nodes.  The Hermite order is measured, not configured, by
the order-doubling gate of gsmspdc.quadrature.

The integrand is evaluated as a completed square in u (spdc.mismatch_square):
at a detected momentum q the mismatch is dk_z = |u - c|^2 / (2 k_p) + D0, with
c and D0 depending on q alone, so each (pixels x nodes) block costs the two
squared differences from c, one scale, one added column and sinc^2 in place.

Momenta are in rad/m.  A camera at the focal plane of a collimating lens maps
position X to transverse momentum q = k X / f (helpers below).
"""

import numpy as np
from numpy.random import default_rng

from .errors import ConvergenceError
from .pump import PumpParams, coherence_from, csd_coefficients
from .quadrature import INITIAL_ORDER, doubling_gate, hermite_rule
from .records import Profile2D, Scan1D
from .spdc import CrystalParams, _sinc, joint_momentum_rate, mismatch_square

__all__ = [
    "ring_radius",
    "overlap_point",
    "position_to_momentum",
    "momentum_to_position",
    "singles_profile",
    "conditional_scan",
    "ring_radial_profile",
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


def position_to_momentum(x, focal_length: float, wavelength: float):
    """Camera-plane position -> transverse momentum behind a collimating lens."""
    return (2.0 * np.pi / wavelength) * np.asarray(x, dtype=float) / focal_length


def momentum_to_position(q, focal_length: float, wavelength: float):
    return np.asarray(q, dtype=float) * focal_length / (2.0 * np.pi / wavelength)


def _integrand_blocks(qx, qy, crystal, k_p, ux, uy, center_shift, idler_ring):
    """Yield (block, sinc^2(L dk_z / 2)) over chunks of the flattened grid:
    rows are detected momenta q, columns pair-sum nodes u (the other photon
    carries u - q).  idler_ring makes the detected photon the idler.

    L dk_z / 2 is (L / (4 k_p)) |u - c|^2 + (L / 2) D0 with c and D0 from
    spdc.mismatch_square, so each block is built in place from the squared
    distances of the nodes to c.
    """
    (cx, cy), d0 = mismatch_square((qx.ravel() - center_shift[0],
                                    qy.ravel() - center_shift[1]),
                                   crystal, k_p, idler_ring)
    scale = crystal.L / (4.0 * k_p)
    offset = (crystal.L / 2.0) * d0
    # keep per-chunk temporaries around a few MB regardless of node count
    chunk = max(64, 2_000_000 // ux.size)
    for lo in range(0, cx.size, chunk):
        block = slice(lo, lo + chunk)
        arg = ux - cx[block, None]
        arg *= arg
        dy = uy - cy[block, None]
        dy *= dy
        arg += dy
        del dy  # free before _sinc allocates its result
        arg *= scale
        arg += offset[block, None]
        f = _sinc(arg)
        f *= f
        yield block, f


def _singles_quadrature(qx, qy, pump, crystal, order, center_shift=(0.0, 0.0),
                        idler_ring=False):
    """Tensor Gauss-Hermite rule of order^2 pair-sum nodes at each (qx, qy)."""
    coeffs = csd_coefficients(pump)
    sigma = coeffs.sum_sigma
    x, w = hermite_rule(order)
    # u = sqrt(2) sigma x turns exp(-|u|^2 / (2 sigma^2)) d^2u into
    # 2 sigma^2 exp(-|x|^2) d^2x, the Hermite weight
    u = np.sqrt(2.0) * sigma * x
    ux, uy = (a.ravel() for a in np.meshgrid(u, u, indexing="ij"))
    wts = coeffs.A_c * 2.0 * sigma**2 * np.outer(w, w).ravel()
    out = np.empty(qx.size)
    for block, f in _integrand_blocks(qx, qy, crystal, pump.k_p, ux, uy,
                                      center_shift, idler_ring):
        out[block] = f @ wts
    return out.reshape(qx.shape)


def _singles_montecarlo(qx, qy, pump, crystal, n_samples, seed,
                        center_shift=(0.0, 0.0), idler_ring=False):
    """Monte-Carlo estimate of the same integral with per-point standard errors.

    The pair-sum momentum is drawn exactly from the Gaussian CSD diagonal
    (common draws across grid points).
    """
    coeffs = csd_coefficients(pump)
    sigma = coeffs.sum_sigma
    norm = coeffs.A_c * 2.0 * np.pi * sigma**2
    u = default_rng(seed).normal(scale=sigma, size=(n_samples, 2))
    mean = np.empty(qx.size)
    stderr = np.empty(qx.size)
    for block, f in _integrand_blocks(qx, qy, crystal, pump.k_p, u[:, 0],
                                      u[:, 1], center_shift, idler_ring):
        mean[block] = norm * f.mean(axis=1)
        stderr[block] = norm * f.std(axis=1, ddof=1) / np.sqrt(n_samples)
    return mean.reshape(qx.shape), stderr.reshape(qx.shape)


def singles_profile(pump: PumpParams, crystal: CrystalParams, which: str = "both",
                    extent: float | None = None, samples: int = 256,
                    order: int = INITIAL_ORDER, method: str = "quadrature",
                    mc_samples: int = 4000, seed: int = 0,
                    check_convergence: bool = True) -> Profile2D:
    """Far-field intensity map of the down-converted photons, unit maximum.

    which : "signal", "idler", or "both".  For type-II crystals the signal
        and idler rings are displaced by +-q_offset = half the ring radius
        along y, which makes them overlap at two points on the x axis, and
        the idler walk-off applies only to the idler ring.  Type-I has a
        single ring at the origin.
    extent : full grid span in rad/m; must cover the ring (>= 2 k_s theta_nc).
    method : "quadrature" (tensor Gauss-Hermite, order^2 inner nodes) or
        "montecarlo" (mc_samples importance draws, deterministic seed).
    order : Gauss-Hermite order to start from; with check_convergence the
        order-doubling gate raises it until the profile has converged, and
        meta records the accepted "order" and its "order_doubling_delta".
    """
    radius = ring_radius(crystal, pump.k_p)
    if extent is None:
        extent = (3.2 * radius if radius > 0
                  else 12.0 * csd_coefficients(pump).sum_sigma)
    if radius > 0 and extent < 2.0 * radius:
        raise ValueError("grid extent must cover the ring (>= 2 k_s theta_nc)")
    axis = np.linspace(-extent / 2.0, extent / 2.0, samples)
    QX, QY = np.meshgrid(axis, axis, indexing="xy")

    if crystal.kind == "II":
        q_offset = 0.5 * radius
        rings = {"signal": ((0.0, +q_offset), False),
                 "idler": ((0.0, -q_offset), True)}
    else:
        q_offset = 0.0
        rings = {"signal": ((0.0, 0.0), False)}
    if which == "both":
        selected = list(rings.values())
    elif which in rings:
        selected = [rings[which]]
    else:
        raise ValueError(f"unknown ring selector {which!r} for type-{crystal.kind}")

    mc_err = None
    if method == "quadrature":
        def evaluate(n):
            return sum(_singles_quadrature(QX, QY, pump, crystal, n,
                                           center_shift=shift, idler_ring=idler)
                       for shift, idler in selected)

        total, order, delta = doubling_gate(evaluate, "inner", order,
                                            check_convergence)
        rule = {"rule": "gauss-hermite", "order": order,
                "order_doubling_delta": delta}
    elif method == "montecarlo":
        parts = [_singles_montecarlo(QX, QY, pump, crystal, mc_samples, seed,
                                     center_shift=shift, idler_ring=idler)
                 for shift, idler in selected]
        total = sum(m for m, _ in parts)
        mc_err = np.sqrt(sum(se**2 for _, se in parts))
        rule = {"mc_samples": mc_samples}
    else:
        raise ValueError(f"unknown method {method!r}")

    peak = float(total.max())
    if peak <= 0:
        raise ConvergenceError("profile vanished everywhere")
    grid = total / peak
    pitch = axis[1] - axis[0]
    meta = {
        "lambda_p_m": pump.lambda_p, "w0_m": pump.w0, "l_c_m": pump.l_c,
        "A": coherence_from(pump).A,
        "crystal_L_m": crystal.L, "kind": crystal.kind,
        "theta_nc_rad": crystal.theta_nc,
        "rho_p_rad": crystal.rho_p, "rho_i_rad": crystal.rho_i,
        "which": which, "q_offset_radpm": q_offset,
        "extent_radpm": extent, "samples": samples,
        "method": method, "seed": seed, **rule,
        "normalization": peak,
    }
    prof = Profile2D(grid=grid, pitch_x=pitch, pitch_y=pitch, meta=meta)
    if mc_err is not None:
        prof.meta["mc_stderr"] = mc_err / peak
    return prof


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
        "A": coherence_from(pump).A, "lambda_p_m": pump.lambda_p,
        "w0_m": pump.w0, "l_c_m": pump.l_c,
        "theta_nc_rad": crystal.theta_nc, "rho_p_rad": crystal.rho_p,
        "rho_i_rad": crystal.rho_i, "crystal_L_m": crystal.L,
    }
    return Scan1D(xs=qix, values=rate / area, meta=meta)


def ring_radial_profile(pump: PumpParams, crystal: CrystalParams,
                        angles, radii) -> Scan1D:
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
    meta = {"angles_rad": angles.tolist(), "A": coherence_from(pump).A,
            "order": order, "order_doubling_delta": delta}
    return Scan1D(xs=radii, values=vals.mean(axis=1), meta=meta)
