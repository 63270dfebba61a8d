"""Biphoton momentum kernel: phase matching and joint detection rate.

Transverse momenta are in rad/m throughout this module, and each momentum
argument is a (qx, qy) pair whose components may be arrays.  Operation is
degenerate: lambda_s = lambda_i = 2 lambda_p, k_s = k_p / 2.

The collinear phase-matching amplitude is sinc(dq L / 2) with
dq = |q_s - q_i|^2 / (2 k_p); its Gaussian approximation is
exp(-alpha L |q_s - q_i|^2 / (4 k_p)) with alpha = 0.455.

For the non-collinear geometry the longitudinal mismatch is modeled as

    dk_z = |q_s - q_i|^2 / (2 k_p) - k_p theta_nc^2 / 2
           + rho_p (q_sx + q_ix) + rho_i q_ix

which reduces to the collinear form when theta_nc = rho_p = rho_i = 0,
produces an emission ring of radius k_s theta_nc, and skews the ring along x
under pump/idler walk-off.  This is a minimal quadratic-paraxial model, not a
dispersion calculation.

With one photon's momentum q held fixed and the pair sum u = q_s + q_i free,
the mismatch is a completed square in u (mismatch_square):

    dk_z = |u - c|^2 / (2 k_p) + D0(q),    c = 2 q - k_p rho x

where rho = rho_p + rho_i and D0 ends in -rho_i q_x when q is the signal, and
rho = rho_p and D0 ends in +rho_i q_x when q is the idler.
"""

from dataclasses import dataclass

import numpy as np

from .pump import PumpParams, csd_coefficients

__all__ = [
    "CrystalParams",
    "noncollinear_mismatch",
    "mismatch_square",
    "joint_momentum_rate",
]

DEFAULT_ALPHA = 0.455


@dataclass(frozen=True)
class CrystalParams:
    """Nonlinear crystal and emission geometry.

    L: crystal length (m); kind: "I" or "II"; alpha: Gaussian phase-matching
    constant; theta_nc: non-collinear opening half-angle (rad); rho_p / rho_i:
    pump / idler walk-off angles (rad).  rho_i must be 0 for type I.
    """

    L: float
    kind: str = "II"
    alpha: float = DEFAULT_ALPHA
    theta_nc: float = 0.0
    rho_p: float = 0.0
    rho_i: float = 0.0

    def __post_init__(self):
        if self.L <= 0 or self.alpha <= 0:
            raise ValueError("L and alpha must be positive")
        if self.kind not in ("I", "II"):
            raise ValueError(f"kind must be 'I' or 'II', got {self.kind!r}")
        if self.theta_nc < 0:
            raise ValueError("theta_nc must be >= 0")
        if self.kind == "I" and self.rho_i != 0.0:
            raise ValueError("rho_i must be 0 for type-I phase matching")


def _sinc(x):
    """sin(x)/x, exactly 1 at x = 0 and never 0/0; a scalar for a scalar."""
    x = np.asarray(x, dtype=float)
    nonzero = x != 0
    out = np.sin(x, out=np.empty_like(x))
    np.divide(out, x, out=out, where=nonzero)
    np.copyto(out, 1.0, where=~nonzero)
    return out[()]


def noncollinear_mismatch(q_s, q_i, crystal: CrystalParams, k_p: float):
    """Longitudinal mismatch dk_z (rad/m) in the non-collinear geometry."""
    if k_p <= 0:
        raise ValueError("k_p must be positive")
    (sx, sy), (ix, iy) = q_s, q_i
    d2 = (sx - ix) ** 2 + (sy - iy) ** 2
    return (d2 / (2.0 * k_p)
            - k_p * crystal.theta_nc**2 / 2.0
            + crystal.rho_p * (sx + ix)
            + crystal.rho_i * ix)


def mismatch_square(q, crystal: CrystalParams, k_p: float, idler_ring=False):
    """((c_x, c_y), D0) with noncollinear_mismatch = |u - c|^2 / (2 k_p) + D0.

    q is the momentum of one photon and u the pair sum, so the other photon
    carries u - q: q is the signal, or the idler with idler_ring.
    """
    if k_p <= 0:
        raise ValueError("k_p must be positive")
    qx, qy = q
    rho = crystal.rho_p if idler_ring else crystal.rho_p + crystal.rho_i
    own = crystal.rho_i if idler_ring else -crystal.rho_i
    center = (2.0 * qx - k_p * rho, 2.0 * qy)
    d0 = ((2.0 * rho + own) * qx
          - k_p * rho**2 / 2.0 - k_p * crystal.theta_nc**2 / 2.0)
    return center, d0


def joint_momentum_rate(q_s, q_i, pump: PumpParams, crystal: CrystalParams):
    """Joint detection rate (arb. units) for a signal/idler momentum pair.

    Product of the pump CSD diagonal at the pair-sum momentum and the squared
    non-collinear phase-matching amplitude sinc^2(L dk_z / 2).
    """
    (sx, sy), (ix, iy) = q_s, q_i
    envelope = csd_coefficients(pump).diagonal((sx + ix) ** 2 + (sy + iy) ** 2)
    dkz = noncollinear_mismatch(q_s, q_i, crystal, pump.k_p)
    return envelope * _sinc(crystal.L * dkz / 2.0) ** 2
