"""Gaussian Schell-model pump: coherence parameters and characterization.

The pump is described by its wavelength, the 1/e^2 intensity radius w0 at the
crystal, and the transverse correlation length l_c.  Two derived quantities
are used throughout:

    1/delta^2 = 1/l_c^2 + 1/(4 w0^2)        effective coherence width
    A         = delta / (2 w0)               degree of spatial coherence

A runs from 0 (incoherent) to 1 (coherent); PumpParams.A computes it.

Every cross-spectral density (CSD) in the package is a GaussianCsd, with
transverse momenta q in rad/m (plane waves exp(i q x)):

    W(q, q') = A_c exp(-s (|q|^2 + |q'|^2) - c |q - q'|^2 - i b (|q|^2 - |q'|^2)) ,

with s > 0 the pair-sum (diagonal) coefficient, c >= 0 the cross coupling
and b real the phase curvature; in the equivalent form
exp(-a |q|^2 - conj(a) |q'|^2 + 2 c q.q') the coefficient is a = s + c + i b.
Its determinant

    Delta = s (s + 2 c) + b^2    (= |a|^2 - c^2)

is a sum of non-negative terms, and its position form, per transverse
dimension, is the GaussianCsd of the same shape with coefficients

    (s, c, b) -> (s, c, -b) / (4 Delta) ,

which, being its own inverse, also maps the position form back.  Free
propagation over z at wavenumber k under the propagator
exp(-i k (x_s - x)^2 / (2 z)) subtracts z / (2 k) from b.  The pump's CSD at
the crystal (csd_coefficients) has b = 0 and

    s = (l_c^2 + 4 l_c w0 + 2 w0^2) / (4 b0) ,  c = w0^2 / (2 b0) ,
    b0 = 1 + (l_c / 2 w0)^2 .

The Fourier transform of the position-space GSM has the same c but
s = l_c^2 / (4 b0) (tests/test_gsm_oracle.py; ROADMAP item 1).

The double-slit characterization of an incoherent spot of radius a_s imaged
by a lens of focal length f obeys the Bessel visibility law

    V(nu) = |2 J1(nu) / nu|,   nu = k d12 a_s / f

whose first zero at nu = 3.832 sets the transverse correlation length
l_c = 3.832 f / (k a_s).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PumpParams",
    "GaussianCsd",
    "CharacterizationSetup",
    "correlation_length_for",
    "csd_coefficients",
    "bessel_visibility",
    "pump_visibility",
    "correlation_length",
    "propagate_to_crystal",
]

# l_c / w0 ratio standing in for a fully coherent pump (error in A below 1e-6)
COHERENT_LC_RATIO = 1e3

# first zero of the J1 Bessel function
J1_FIRST_ZERO = 3.832

# J1 below _J1_ASYMPTOTIC_FROM: midpoint rule on Bessel's integral over [0, pi]
_J1_NODES = (np.arange(64) + 0.5) * np.pi / 64
_J1_SIN_NODES = np.sin(_J1_NODES)
_J1_ASYMPTOTIC_FROM = 25.0
# Hankel's coefficients a_k(1) = prod_{j=1..k} (4 - (2j - 1)^2) / (8 j)
_HANKEL = np.cumprod([1.0] + [(4.0 - (2 * j - 1) ** 2) / (8.0 * j) for j in range(1, 16)])
_HANKEL_P = (_HANKEL[0::2] * (-1.0) ** np.arange(8))[::-1]  # in 1/x^2, highest first
_HANKEL_Q = (_HANKEL[1::2] * (-1.0) ** np.arange(8))[::-1]


def _bessel_j1(x):
    """Bessel function J1 for x >= 0, to about 1e-15 absolute.

    Below x = 25 the midpoint rule with 64 nodes on
    J1(x) = (1/pi) int_0^pi cos(t - x sin t) dt, which is exact up to
    J_127(x)-sized aliasing because the integrand extends to an even, periodic
    function; above, Hankel's asymptotic series with 8 terms in P and in Q.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x < _J1_ASYMPTOTIC_FROM
    out[near] = np.cos(_J1_NODES - x[near][:, None] * _J1_SIN_NODES).mean(axis=1)
    far = x[~near]
    w = 1.0 / far
    p = np.polyval(_HANKEL_P, w * w)
    q = w * np.polyval(_HANKEL_Q, w * w)
    # x - 3 pi / 4 rounded as SciPy's (Cephes') j1 rounds it; the phase error
    # this leaves, up to 3.4e-14 in J1 at x = 3e5, is below 1e-15 for x < 300
    chi = far - 0.75 * np.pi
    out[~near] = np.sqrt(2.0 / (np.pi * far)) * (p * np.cos(chi) - q * np.sin(chi))
    return out


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PumpParams:
    """Pump beam at the crystal plane.  All lengths in meters."""

    lambda_p: float     # wavelength
    w0: float           # 1/e^2 intensity beam radius
    l_c: float          # transverse correlation length

    def __post_init__(self):
        _require_positive(lambda_p=self.lambda_p, w0=self.w0, l_c=self.l_c)

    @property
    def k_p(self) -> float:
        return 2.0 * np.pi / self.lambda_p

    @property
    def k_s(self) -> float:
        """Wavenumber of the degenerate signal (and idler), k_p / 2."""
        return self.k_p / 2.0

    @property
    def lambda_s(self) -> float:
        """Wavelength of the degenerate signal (and idler), 2 lambda_p."""
        return 2.0 * self.lambda_p

    @property
    def A(self) -> float:
        """Degree of spatial coherence delta / (2 w0), in (0, 1]."""
        delta = 1.0 / np.sqrt(1.0 / self.l_c**2 + 1.0 / (4.0 * self.w0**2))
        return delta / (2.0 * self.w0)

    @classmethod
    def from_coherence(cls, lambda_p: float, w0: float, A: float) -> "PumpParams":
        """Build pump parameters from a target degree of coherence A in (0, 1]."""
        _require_positive(lambda_p=lambda_p, w0=w0, A=A)
        if A > 1.0:
            raise ValueError(f"A must be <= 1, got {A}")
        return cls(lambda_p, w0, correlation_length_for(A, w0))


def correlation_length_for(A: float, w0: float) -> float:
    """Invert A = delta/(2 w0) for l_c; A = 1 maps to the coherent stand-in."""
    if A >= 1.0:
        return COHERENT_LC_RATIO * w0
    return 2.0 * w0 * A / np.sqrt(1.0 - A * A)


@dataclass(frozen=True)
class GaussianCsd:
    """W(q, q') = A_c exp(-s (|q|^2 + |q'|^2) - c |q - q'|^2 - i b (|q|^2 - |q'|^2)).

    q in rad/m.  Delta, the position form and the propagation rule are in
    the module docstring; every quantity here is computed from (s, c, b)
    without subtracting one of them from another.
    """

    s: float
    c: float
    b: float
    A_c: float

    @property
    def sum_sigma(self) -> float:
        """Std. deviation (rad/m) of the pair-sum Gaussian on the diagonal,
        W(u, u) = A_c exp(-2 s |u|^2) = A_c exp(-|u|^2 / (2 sigma^2))."""
        return 1.0 / (2.0 * np.sqrt(self.s))

    @property
    def delta(self) -> float:
        """s (s + 2 c) + b^2, the determinant behind the position form."""
        return self.s * (self.s + 2.0 * self.c) + self.b * self.b

    def diagonal(self, u2):
        """W(u, u) at |u|^2 = u2."""
        return self.A_c * np.exp(-2.0 * self.s * u2)

    def propagated(self, z: float, k: float) -> "GaussianCsd":
        """The CSD after free propagation over z (m) at wavenumber k (rad/m)."""
        return GaussianCsd(self.s, self.c, self.b - z / (2.0 * k), self.A_c)

    def position_form(self) -> "GaussianCsd":
        """The position form (s, c, -b) / (4 Delta), x in m; A_c carries over."""
        four_delta = 4.0 * self.delta
        return GaussianCsd(self.s / four_delta, self.c / four_delta,
                           -self.b / four_delta, self.A_c)


def csd_coefficients(pump: PumpParams) -> GaussianCsd:
    """The pump's momentum-basis CSD at the crystal.

    The amplitude normalization uses a unit proportionality constant; all
    intensities downstream are reported in arbitrary units and re-normalized
    per scan.
    """
    l_c, w0 = pump.l_c, pump.w0
    ratio = l_c / (2.0 * w0)
    b0 = 1.0 + ratio * ratio
    s = (l_c * l_c + 4.0 * l_c * w0 + 2.0 * w0 * w0) / (4.0 * b0)  # ROADMAP item 1: b1
    c = w0 * w0 / (2.0 * b0)
    return GaussianCsd(s=s, c=c, b=0.0, A_c=(w0 / (2.0 * np.pi)) ** 2)


def bessel_visibility(nu):
    """Fringe visibility |2 J1(nu) / nu| for nu >= 0; equals 1 at nu = 0.

    Below nu = 1e-4 the 0/0 form is replaced by the 4-term Taylor series
    1 - nu^2/8 + nu^4/192 - nu^6/9216.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise ValueError("nu must be >= 0")
    small = nu < 1e-4
    safe = np.where(small, 1.0, nu)
    vis = np.abs(2.0 * _bessel_j1(safe) / safe)
    nu2 = nu * nu
    taylor = 1.0 - nu2 / 8.0 + nu2 * nu2 / 192.0 - nu2 * nu2 * nu2 / 9216.0
    out = np.where(small, taylor, vis)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CharacterizationSetup:
    """Geometry of the pump-coherence measurement.

    a_s: beam radius at the diffuser surface (m); f: collimating lens focal
    length (m); d12: separation of the two probed points (m), or an array of
    separations.
    """

    a_s: float
    f: float
    d12: float | np.ndarray

    def __post_init__(self):
        _require_positive(a_s=self.a_s, f=self.f)
        if np.any(np.asarray(self.d12) < 0):
            raise ValueError("d12 must be >= 0")


def pump_visibility(setup: CharacterizationSetup, lambda_p: float):
    """Double-slit visibility of the characterized pump at separation d12.

    A float for a scalar d12; an array of the same shape for an array d12,
    equal element for element to the scalar calls.
    """
    _require_positive(lambda_p=lambda_p)
    k_p = 2.0 * np.pi / lambda_p
    d12 = np.asarray(setup.d12, dtype=float)
    nu = k_p * d12 * setup.a_s / setup.f
    return bessel_visibility(nu)


def correlation_length(a_s: float, f: float, lambda_p: float) -> float:
    """Transverse correlation length l_c = 3.832 f / (k a_s) of the output beam."""
    _require_positive(a_s=a_s, f=f, lambda_p=lambda_p)
    k_p = 2.0 * np.pi / lambda_p
    return J1_FIRST_ZERO * f / (k_p * a_s)


def propagate_to_crystal(l_c_at_lens: float, w_at_lens: float, demag: float,
                         lambda_p: float) -> PumpParams:
    """Scale beam size and correlation length through the demagnifying telescope.

    Both transverse scales shrink by the same factor, so the degree of
    coherence A is invariant.
    """
    # demag first: a caller's w_at_lens may be derived from it
    _require_positive(demag=demag, l_c_at_lens=l_c_at_lens, w_at_lens=w_at_lens,
                      lambda_p=lambda_p)
    return PumpParams(lambda_p=lambda_p, w0=w_at_lens / demag, l_c=l_c_at_lens / demag)
