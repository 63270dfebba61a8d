"""Single-photon double-slit fringe profiles for a GSM-pumped SPDC signal beam.

Model
-----
The signal field inherits the pump's momentum-space cross-spectral density
(gsmspdc.pump.GaussianCsd, momenta q in rad/m), blurred by the crystal's
phase-matching bandwidth, which adds gamma = alpha L / (4 k_p) to both of its
coefficients:

    W_sig(q, q') = A_c exp(-(a + gamma)(q^2 + q'^2) + 2 (c + gamma) q q') ,

where the (c + gamma) cross coupling carries the coherence transfer: a
coherent pump (c -> 0, thin crystal) gives a separable, fully coherent
kernel.  Free propagation over the crystal-to-slit distance z takes a + gamma
to a_z = a + gamma - i z / (2 k_s) (GaussianCsd.propagated) and leaves
c_z = c + gamma, and the slit-plane mutual coherence function is the CSD's
position form

    W(x, x') = exp(-(conj(a_z) x^2 + a_z x'^2 - 2 c_z x x') / (4 Delta)) ,
    Delta = |a_z|^2 - c_z^2 .

_signal_csd builds this CSD, except on two lines that keep the package's
fringes as they were and are the model defects of ROADMAP item 1: it scales
the pump's coefficients by (2 pi)^-2, and it propagates over -z.

Only the double integral over the two slit apertures is done numerically
(Gauss-Legendre panels per slit, order set by gsmspdc.quadrature's gate),
with the exact Fresnel propagator from slit to detector:

    p1(x_s) = Re  int dx dx' t(x) t(x') W(x, x')
                  exp(-i k_s [(x_s - x)^2 - (x_s - x')^2] / (2 z1)) .

With kappa = k_s / z1 the propagator factors as

    exp(-i kappa (x_s - x)^2 / 2)
        = exp(-i kappa x_s^2 / 2) exp(i kappa x_s x) exp(-i kappa x^2 / 2) :

the x_s^2 factor cancels between x and x', and the x^2 factor joins the
node kernel

    K(x, x') = w w' W(x, x') exp(-i kappa (x^2 - x'^2) / 2) ,

so that p1(x_s) = Re sum K(x, x') exp(i kappa x_s (x - x')) over the nodes
of both slits.  K depends on x and x' only through x^2, x'^2 and x x', so it
is even: K(-x, -x') = K(x, x').  The left slit's nodes are the right slit's
nodes r mirrored, with equal weights, so each quadrant of the sum pairs with
its mirror image: left-left with right-right, whose phases
exp(+-i kappa x_s (r - r')) add to 2 cos, and left-right with right-left,
whose phases exp(+-i kappa x_s (r + r')) add to 2 cos.  With the row
vectors c = cos(kappa x_s r) and s = sin(kappa x_s r) over the right slit's
n nodes (tables, not the kernel's c), cos(u -+ v) = cos u cos v +- sin u sin v
gives at each x_s

    p1 = 2 [c M+ c^T + s M- s^T] ,   M+- = Re K_RR +- Re K_RL ,

two real n x n matrices per pump, where K_RR holds K(r, r') and K_RL holds
K(r, -r').  Only the real part of K enters, so each is a Gaussian times
cos((r^2 - r'^2)(Im a_z / (4 Delta) - kappa / 2)).  Over S detector samples
that is two real (S x n)(n x n) products per pump, where the unfolded sum
takes one complex (S x 2n)(2n x 2n) product: 8 times fewer multiply-adds.

The y dimension integrates out analytically (the kernel factorizes), so the
computation is the 1-D reduction along the measured horizontal axis.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import fit_visibility
from .pump import GaussianCsd, PumpParams, csd_coefficients
from .quadrature import INITIAL_ORDER, doubling_gate, legendre_rule
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


def _signal_csd(pump: PumpParams, crystal: CrystalParams, z: float) -> GaussianCsd:
    """The signal's CSD at the slit plane, a distance z past the crystal."""
    pump_csd = csd_coefficients(pump)
    gamma = crystal.alpha * crystal.L / (4.0 * pump.k_p)
    scale = (2.0 * np.pi) ** -2  # ROADMAP item 1: rad/m coefficients read as cycles/m
    signal = GaussianCsd(scale * pump_csd.a + gamma, scale * pump_csd.c + gamma,
                         pump_csd.A_c)
    return signal.propagated(-z, pump.k_p / 2.0)  # ROADMAP item 1: Fresnel sign


def slit_plane_coherence(pump: PumpParams, crystal: CrystalParams, z: float,
                         separation: float) -> float:
    """|mu(x, x')| of the signal field at the slit plane for |x - x'| = separation.

    Closed form exp(-c dx^2 / (4 Delta)); useful as an analytic cross-check
    of the fitted fringe visibility.
    """
    signal = _signal_csd(pump, crystal, z)
    return float(np.exp(-signal.c * separation**2 / (4.0 * signal.delta)))


def _slit_nodes(slits: SlitGeometry, order: int):
    xg, wg = legendre_rule(order)
    lo = (slits.d - slits.a) / 2.0
    hi = (slits.d + slits.a) / 2.0
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    right = mid + half * xg
    nodes = np.concatenate([right, -right])
    weights = np.concatenate([half * wg, half * wg])
    return nodes, weights


def _unit_max_profiles(csds, k_s, slits, xs, order):
    """p1 on xs by the order-point aperture rule, one unit-max row per
    slit-plane GaussianCsd.

    The mirror form of the module docstring: the detector table is a cosine
    and a sine per right-slit node, each pump's M+- are built in one
    broadcast over the pumps, and each pump then takes two real
    (S x n)(n x n) products; the factor 2 cancels in the unit maximum.
    """
    nodes, weights = _slit_nodes(slits, order)
    right, w = nodes[:order], weights[:order]
    kappa = k_s / slits.z1
    arg = (kappa * xs)[:, None] * right[None, :]
    cos, sin = np.cos(arg), np.sin(arg)
    a, c, delta = (np.array([getattr(csd, name) for csd in csds])[:, None, None]
                   for name in ("a", "c", "delta"))
    r2 = right * right
    g = 1.0 / (4.0 * delta)
    # Re K(r, +-r') = w w' exp(-g (Re a (r^2 + r'^2) -+ 2 c r r')) cos(phase)
    square = g * (a.real * (r2[:, None] + r2[None, :]))
    cross = g * (2.0 * c * (right[:, None] * right[None, :]))
    phase = (r2[:, None] - r2[None, :]) * (g * a.imag - 0.5 * kappa)
    weighted = (w[:, None] * w[None, :]) * np.cos(phase)
    same, mirrored = np.exp(cross - square), np.exp(-cross - square)
    m_plus, m_minus = weighted * (same + mirrored), weighted * (same - mirrored)
    # (P, S, n) @ (P, n, n): one product per pump, as a batch of one takes it
    p1 = np.vecdot(cos @ m_plus, cos) + np.vecdot(sin @ m_minus, sin)
    np.maximum(p1, 0.0, out=p1)
    peak = p1.max(axis=1, keepdims=True)
    if np.any(peak <= 0):  # the kernel underflows to 0 at every slit node
        raise ValueError("the beam does not reach the slits: its fringe "
                         "profile underflows to 0 everywhere")
    return p1 / peak


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
    csds = [_signal_csd(pump, crystal, slits.z) for pump in pumps]
    rows = {}  # order -> unit-max profiles, for each pump's own delta

    def evaluate(n):
        rows[n] = _unit_max_profiles(csds, pumps[0].k_p / 2.0, slits, xs, n)
        return rows[n]
    values, order, delta = doubling_gate(evaluate, "aperture", order, check_convergence)
    # every row peaks at exactly 1, so the gate's delta is the largest of these
    deltas = ([None] * len(pumps) if delta is None
              else np.max(np.abs(values - rows[2 * order]), axis=1).tolist())
    scans = []
    for pump, p1, delta in zip(pumps, values, deltas):
        meta = {
            "lambda_p_m": pump.lambda_p, "w0_m": pump.w0, "l_c_m": pump.l_c,
            "A": pump.A,
            "crystal_L_m": crystal.L, "alpha": crystal.alpha,
            "slit_a_m": slits.a, "slit_d_m": slits.d,
            "z_m": slits.z, "z1_m": slits.z1,
            "rule": "gauss-legendre", "order": order,
            "order_doubling_delta": delta, "samples": samples, "span_m": span,
            "fringe_period_m": period,
        }
        scans.append(Scan1D(xs=xs, values=p1, meta=meta))
    return scans


def visibility_curve(pumps, slits, crystal: CrystalParams,
                     samples: int = DEFAULT_SAMPLES):
    """Fitted fringe visibility over a (pump, slit geometry) lattice.

    slits is a list of SlitGeometry.  Returns a list of dicts with keys A,
    d_m, visibility, fringe_period_m, residual_rms, aperture_order,
    order_doubling_delta, pump-major: every geometry of the first pump, then
    of the next.  The profiles of one geometry share their detector axis, so
    their fits are one stack; each fit is anchored with the known fringe
    period and restricted to the central four periods, where the
    log-quadratic envelope model holds.
    """
    pumps = list(pumps)
    per_pump = [[] for _ in pumps]
    for geometry in slits:
        scans = fringe_profiles(pumps, crystal, geometry, samples=samples)
        period = scans[0].meta["fringe_period_m"]
        fits = fit_visibility(scans, period_hint=period, window=2.0 * period)
        for rows, scan, fit in zip(per_pump, scans, fits):
            rows.append({
                "A": scan.meta["A"],
                "d_m": geometry.d,
                "visibility": fit.visibility,
                "fringe_period_m": fit.fringe_period,
                "residual_rms": fit.residual_rms,
                "aperture_order": scan.meta["order"],
                "order_doubling_delta": scan.meta["order_doubling_delta"],
            })
    return [row for rows in per_pump for row in rows]
