"""The pump CSD and GaussianCsd against independent numeric transforms.

Nothing here reuses the package's closed forms: the position-space GSM
definition is Fourier transformed by a plain matrix product, and the
detector's Fresnel propagator exp(-i k (x_s - x)^2 / (2 z)) is applied to a
sampled position kernel.  All momenta are in rad/m, plane waves exp(i q x).
"""

import numpy as np
import pytest

from gsmspdc.pump import GaussianCsd, PumpParams, csd_coefficients

W0 = 0.5e-3
X = np.linspace(-12.0 * W0, 12.0 * W0, 801)
DX = X[1] - X[0]
PROBE_Q = 1.0 / W0


def transform_coefficients(A):
    """(a, c) of W(q, q') = exp(-a q^2 - a q'^2 + 2 c q q') from a matrix
    transform of the position-space GSM
    exp(-(x^2 + x'^2) / (4 w0^2) - (x - x')^2 / (2 l_c^2))."""
    l_c = PumpParams.from_coherence(405e-9, W0, A).l_c
    x, xp = X[:, None], X[None, :]
    w_pos = np.exp(-(x * x + xp * xp) / (4.0 * W0**2) - (x - xp) ** 2 / (2.0 * l_c**2))
    qs = np.array([0.0, PROBE_Q])
    left = np.exp(-1j * np.outer(qs, X)) * DX
    w_q = (left @ w_pos @ left.conj().T).real  # W(q, q') at q, q' in qs
    a = -np.log(w_q[1, 0] / w_q[0, 0]) / PROBE_Q**2
    c = a + np.log(w_q[1, 1] / w_q[0, 0]) / (2.0 * PROBE_Q**2)
    return a, c


COHERENCES = (0.9, 0.6, 0.3, 0.1)


@pytest.mark.parametrize("A", COHERENCES)
def test_cross_coefficient_matches_gsm_transform(A):
    _, c = transform_coefficients(A)
    pump_csd = csd_coefficients(PumpParams.from_coherence(405e-9, W0, A))
    assert pump_csd.c == pytest.approx(c, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: b1")
@pytest.mark.parametrize("A", COHERENCES)
def test_diagonal_coefficient_matches_gsm_transform(A):
    a, _ = transform_coefficients(A)
    pump_csd = csd_coefficients(PumpParams.from_coherence(405e-9, W0, A))
    assert pump_csd.a == pytest.approx(a, rel=1e-9)


# a Gaussian of rms intensity width 80 um at 810 nm, over 0.1 m: there
# z / (2 k) is about sigma^2, so the propagated a is far from real
SIGMA = 80e-6
K = 2.0 * np.pi / 810e-9
Z = 0.1
XS = np.linspace(-12.0 * SIGMA, 12.0 * SIGMA, 801)
DXS = XS[1] - XS[0]
DETECTOR = np.linspace(-4.0 * SIGMA, 4.0 * SIGMA, 17)  # includes 0


def position_form(csd, x, xp):
    """The documented position form, normalized to 1 at x = x' = 0."""
    x, xp = np.asarray(x)[:, None], np.asarray(xp)[None, :]
    return np.exp(-(np.conj(csd.a) * x * x + csd.a * xp * xp - 2.0 * csd.c * x * xp)
                  / (4.0 * csd.delta))


def at_origin(w):
    return w / w[w.shape[0] // 2, w.shape[1] // 2]


SOURCES = {"coherent": GaussianCsd(a=SIGMA**2, c=0.0, A_c=1.0),
           "partial": GaussianCsd(a=SIGMA**2, c=0.5 * SIGMA**2, A_c=1.0)}


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("z", [0.0, Z])
def test_position_form_is_transform_of_kernel(name, z):
    # W(x, x') = int W(q, q') exp(i q x - i q' x') dq dq' on a rad/m grid
    csd = SOURCES[name].propagated(z, K)
    q = np.linspace(-12.0, 12.0, 801) / SIGMA
    w_q = csd.kernel(q[:, None, None], q[None, :, None])
    phase = np.exp(1j * np.outer(DETECTOR, q))
    w_x = phase @ w_q @ phase.conj().T
    ref = position_form(csd, DETECTOR, DETECTOR)
    assert np.max(np.abs(at_origin(w_x) - ref)) < 1e-9


@pytest.mark.parametrize("name", SOURCES)
def test_propagated_matches_fresnel_propagation(name):
    # W_z(x_s, x_s') = int h(x_s - x) W(x, x') conj(h(x_s' - x')) dx dx',
    # h(u) = exp(-i k u^2 / (2 z)), the propagator of the fringe model
    source = SOURCES[name]
    w0 = position_form(source, XS, XS)
    h = np.exp(-1j * K * (DETECTOR[:, None] - XS[None, :]) ** 2 / (2.0 * Z)) * DXS
    numeric = at_origin(h @ w0 @ h.conj().T)
    forward = position_form(source.propagated(Z, K), DETECTOR, DETECTOR)
    assert np.max(np.abs(numeric - forward)) < 1e-9
    # the opposite sign, a + i z / (2 k), is far off at this distance
    backward = position_form(source.propagated(-Z, K), DETECTOR, DETECTOR)
    assert np.max(np.abs(numeric - backward)) > 0.1
