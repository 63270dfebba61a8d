"""Single-photon double-slit fringe profiles for a GSM-pumped SPDC signal beam.

Model
-----
The signal field inherits the pump's momentum-space cross-spectral density,
blurred by the crystal's phase-matching bandwidth: with momenta q in
cycles/m (plane-wave kernel exp(-i 2 pi q x), Fresnel phase pi lambda z q^2),

    W_sig(q, q') = A_c exp(-(b1 + beta)(q^2 + q'^2) + 2 (b2 + beta) q q') ,
    beta = pi^2 alpha L / k_p

where the (b2 + beta) cross coupling carries the coherence transfer: a
coherent pump (b2 -> 0, thin crystal) gives a separable, fully coherent
kernel.  Free propagation over the crystal-to-slit distance z multiplies the
two arguments by conjugate Fresnel phases, and the four momentum integrals of
the detection probability are Gaussian, so the slit-plane mutual coherence
function has the closed form

    W(x, x') = exp(-pi^2 (conj(a) x^2 + a x'^2 - 2 c x x') / Delta)

    a = (b1 + beta) + i pi lambda_s z,   c = b2 + beta,
    Delta = |a|^2 - c^2 .

Only the double integral over the two slit apertures is done numerically
(Gauss-Legendre panels per slit, order set by gsmspdc.quadrature's gate),
with the exact Fresnel propagator from slit to detector:

    p1(x_s) = Re  int dx dx' t(x) t(x') W(x, x')
                  exp(-i k_s [(x_s - x)^2 - (x_s - x')^2] / (2 z1)) .

The y dimension integrates out analytically (the kernel factorizes), so the
computation is the 1-D reduction along the measured horizontal axis.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analysis import fit_visibility
from .errors import ConvergenceError
from .pump import PumpParams, coherence_from, csd_coefficients
from .quadrature import INITIAL_ORDER, doubling_gate
from .records import Scan1D
from .spdc import CrystalParams

__all__ = [
    "SlitGeometry",
    "slit_transmission",
    "slit_plane_coherence",
    "fringe_profiles",
    "visibility_curve",
]

DEFAULT_SAMPLES = 1001
DEFAULT_SPAN_PERIODS = 8.0  # detector span in naive fringe periods lambda_s z1 / d


@dataclass(frozen=True)
class SlitGeometry:
    """Double slit: width a, center separation d, crystal->slit z, slit->detector z1."""

    a: float
    d: float
    z: float = 0.10
    z1: float = 0.20

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("slit width a must be positive")
        if self.d <= self.a:
            raise ValueError("slit separation d must exceed the slit width a")
        if self.z <= 0 or self.z1 <= 0:
            raise ValueError("distances z and z1 must be positive")

    def fringe_period(self, lambda_s: float) -> float:
        return lambda_s * self.z1 / self.d


def slit_transmission(x, slits: SlitGeometry):
    """Binary transfer function of the double slit; boundaries transmit."""
    x = np.asarray(x, dtype=float)
    lo = (slits.d - slits.a) / 2.0
    hi = (slits.d + slits.a) / 2.0
    inside = ((x >= lo) & (x <= hi)) | ((x >= -hi) & (x <= -lo))
    out = inside.astype(int)
    return int(out) if out.ndim == 0 else out


def _kernel_constants(pump: PumpParams, crystal: CrystalParams, z: float):
    coeffs = csd_coefficients(pump)
    lambda_s = 2.0 * pump.lambda_p
    beta = np.pi**2 * crystal.alpha * crystal.L / pump.k_p
    a = (coeffs.b1 + beta) + 1j * np.pi * lambda_s * z
    c = coeffs.b2 + beta
    delta = abs(a) ** 2 - c * c
    return a, c, delta


def slit_plane_coherence(pump: PumpParams, crystal: CrystalParams, z: float,
                         separation: float) -> float:
    """|mu(x, x')| of the signal field at the slit plane for |x - x'| = separation.

    Closed form exp(-pi^2 c dx^2 / Delta); useful as an analytic cross-check
    of the fitted fringe visibility.
    """
    _, c, delta = _kernel_constants(pump, crystal, z)
    return float(np.exp(-np.pi**2 * c * separation**2 / delta))


def _slit_nodes(slits: SlitGeometry, order: int):
    xg, wg = leggauss(order)
    lo = (slits.d - slits.a) / 2.0
    hi = (slits.d + slits.a) / 2.0
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    right = mid + half * xg
    nodes = np.concatenate([right, -right])
    weights = np.concatenate([half * wg, half * wg])
    return nodes, weights


def _unit_max_profiles(pumps, crystal, slits, xs, order):
    """p1 on xs by the order-point aperture rule, one unit-max row per pump;
    the slit nodes and detector phases exp(-i k_s (x_s - x)^2 / 2 z1) serve
    every pump, and each pump's slit-plane kernel is one matrix product.
    """
    nodes, weights = _slit_nodes(slits, order)
    k_s = pumps[0].k_p / 2.0
    phases = np.exp(-1j * k_s * (xs[:, None] - nodes[None, :]) ** 2 / (2.0 * slits.z1))
    X, Xp = np.meshgrid(nodes, nodes, indexing="ij")
    out = np.empty((len(pumps), xs.size))
    for row, pump in zip(out, pumps):
        a, c, delta = _kernel_constants(pump, crystal, slits.z)
        w_slit = np.exp(-(np.pi**2) * (np.conj(a) * X**2 + a * Xp**2 - 2.0 * c * X * Xp)
                        / delta)
        kernel = weights[:, None] * weights[None, :] * w_slit
        p1 = np.maximum(
            np.einsum("sj,sj->s", phases @ kernel, np.conj(phases)).real, 0.0)
        peak = p1.max()
        if peak <= 0:
            raise ConvergenceError("fringe profile vanished everywhere")
        row[:] = p1 / peak
    return out


def fringe_profiles(pumps, crystal: CrystalParams, slits: SlitGeometry,
                    samples: int = DEFAULT_SAMPLES, order: int = INITIAL_ORDER,
                    check_convergence: bool = True) -> list[Scan1D]:
    """Normalized single-photon fringe profiles p1(x_s), one per pump.

    The pumps must share one lambda_p, so that one aperture rule serves all.

    Parameters
    ----------
    samples : detector samples across 8 naive fringe periods lambda_s z1 / d.
    order : Gauss-Legendre points per slit to start from; the order-doubling
        gate raises it until every profile has converged, and meta records
        the accepted "order" and the pump's own "order_doubling_delta" there.
    check_convergence : False evaluates the starting order once, unchecked.
    """
    pumps = list(pumps)
    if len({pump.lambda_p for pump in pumps}) != 1:
        raise ValueError("fringe_profiles needs at least one pump, all of one "
                         "lambda_p")
    lambda_s = 2.0 * pumps[0].lambda_p
    period = slits.fringe_period(lambda_s)
    span = DEFAULT_SPAN_PERIODS * period
    xs = np.linspace(-span / 2.0, span / 2.0, samples)

    rows = {}  # order -> unit-max profiles, for each pump's own delta

    def evaluate(n):
        rows[n] = _unit_max_profiles(pumps, crystal, slits, xs, n)
        return rows[n]
    values, order, delta = doubling_gate(evaluate, "aperture", order, check_convergence)
    # every row peaks at exactly 1, so the gate's delta is the largest of these
    deltas = ([None] * len(pumps) if delta is None
              else np.max(np.abs(values - rows[2 * order]), axis=1).tolist())
    scans = []
    for pump, p1, delta in zip(pumps, values, deltas):
        meta = {
            "lambda_p_m": pump.lambda_p, "w0_m": pump.w0, "l_c_m": pump.l_c,
            "A": coherence_from(pump).A,
            "crystal_L_m": crystal.L, "alpha": crystal.alpha,
            "slit_a_m": slits.a, "slit_d_m": slits.d,
            "z_m": slits.z, "z1_m": slits.z1,
            "rule": "gauss-legendre", "order": order,
            "order_doubling_delta": delta, "samples": samples, "span_m": span,
            "fringe_period_m": period,
        }
        scans.append(Scan1D(xs=xs, values=p1, meta=meta))
    return scans


def visibility_curve(pumps, d_values, a: float, z: float, z1: float,
                     crystal: CrystalParams, samples: int = DEFAULT_SAMPLES):
    """Fitted fringe visibility over a (pump, slit-separation) lattice.

    Returns a list of dicts with keys A, d_m, visibility, fringe_period_m,
    aperture_order, order_doubling_delta, pump-major: every d of the first
    pump, then of the next.  The fit is
    anchored with the known fringe period and restricted to the central four
    periods, where the log-quadratic envelope model holds.
    """
    pumps = list(pumps)
    per_pump = [[] for _ in pumps]
    for d in d_values:
        slits = SlitGeometry(a=a, d=d, z=z, z1=z1)
        scans = fringe_profiles(pumps, crystal, slits, samples=samples)
        for rows, scan in zip(per_pump, scans):
            period = scan.meta["fringe_period_m"]
            fit = fit_visibility(scan, period_hint=period, window=2.0 * period)
            rows.append({
                "A": scan.meta["A"],
                "d_m": d,
                "visibility": fit.visibility,
                "fringe_period_m": fit.fringe_period,
                "aperture_order": scan.meta["order"],
                "order_doubling_delta": scan.meta["order_doubling_delta"],
            })
    return [row for rows in per_pump for row in rows]
