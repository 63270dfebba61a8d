"""Independent references and output checks for the benchmark workloads.

The references are written from the model equations in the package's module
docstrings (``pump``, ``spdc``, ``interference``), with their own quadrature
and fits; nothing here imports ``gsmspdc``.  So a change to the package's
numerical rules cannot move the reference with it.  No check pins output
bytes: each compares values within a stated tolerance.

``reference(workload, sections)`` is computed once per benchmark run, outside
the timed region; ``check(workload, out_dir, sections, ref, manifests)``
returns a list of problems, empty when the outputs are correct.
"""

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

RING_TOL = 1e-4         # the package's QUADRATURE_TOL, unit-max scale
RING_REF_ORDER = 40     # Gauss-Legendre nodes per axis of the reference
RING_REF_BOX = 8.0      # reference box half-width in sum-momentum sigmas
APERTURE_REF_ORDER = 48
VISIBILITY_TOL = 1e-4   # absolute, fitted visibility against the reference
# Acceptance 5b asks |fit - direct| < 3 jackknife SE of one stack.  Applied
# to every seed a benchmark draws, 3 SE fails a correct program about once in
# a few hundred seeds (seed 13 gave z = -3.1), so the benchmark uses 5 SE from
# 100 blocks.  One SE is about 5% of the FWHM, so this rule alone only catches
# a width error of about 25% or more; width_scale below catches a wrong stack
# and the exact refit a misreported fit.
FWHM_SE = 5.0
JACKKNIFE_BLOCKS = 100
WIDTH_SE = 5.0          # stack correlation-width scale: |k - 1| < 5 SE
STDERR_REL_TOL = 1e-3   # CLI jackknife stderr against our delta-method SE
FIT_REL_TOL = 1e-6      # CLI fit against our fit of the same covariances
FRAME_MAGIC = b"GSMFRAM1"
FRAME_HEADER = struct.Struct("<IIIQdd")
FWHM_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


class Pump:
    """GSM pump constants b1, b2, A_c of the momentum-basis CSD."""

    def __init__(self, lambda_p, w0, A):
        self.lambda_p = lambda_p
        self.k_p = 2.0 * np.pi / lambda_p
        l_c = 2.0 * w0 * A / np.sqrt(1.0 - A * A)
        b0 = 1.0 + (l_c / (2.0 * w0)) ** 2
        self.b1 = (l_c + 2.0 * w0) ** 2 / (4.0 * b0)
        self.b2 = w0 * w0 / (2.0 * b0)
        self.A_c = (w0 / (2.0 * np.pi)) ** 2
        # 1/e half-width scale of the pair-sum Gaussian exp(-2(b1-b2)|u|^2)
        self.sigma = 1.0 / (2.0 * np.sqrt(self.b1 - self.b2))


def _pumps(sections):
    p = sections["pump"]
    return [Pump(p["lambda_p"], p["w0"], A) for A in p["a_values"]]


def _crystal(sections):
    c = sections["crystal"]
    return c["L"], c["alpha"], np.radians(c["theta_nc_deg"]), c["rho_p"], c["rho_i"]


def joint_rate(sx, sy, ix, iy, pump, crystal):
    """Pump CSD diagonal at the pair sum times the squared sinc phase matching."""
    L, _, theta, rho_p, rho_i = crystal
    envelope = pump.A_c * np.exp(-2.0 * (pump.b1 - pump.b2)
                                 * ((sx + ix) ** 2 + (sy + iy) ** 2))
    dkz = (((sx - ix) ** 2 + (sy - iy) ** 2) / (2.0 * pump.k_p)
           - pump.k_p * theta * theta / 2.0 + rho_p * (sx + ix) + rho_i * ix)
    return envelope * np.sinc(L * dkz / (2.0 * np.pi)) ** 2


# ---------------------------------------------------------------- ring-profile

def singles_reference(sections, pump):
    """Both type-II rings on the workload grid, unit maximum.

    Integrates the joint rate over the pair-sum momentum with a tensor
    Gauss-Legendre rule of RING_REF_ORDER nodes on a +-RING_REF_BOX sigma box.
    """
    crystal = _crystal(sections)
    n = sections["grid"]["samples"]
    radius = 0.5 * pump.k_p * crystal[2]
    axis = np.linspace(-1.6 * radius, 1.6 * radius, n)
    qx, qy = (a.ravel() for a in np.meshgrid(axis, axis))  # rows follow y
    x, w = np.polynomial.legendre.leggauss(RING_REF_ORDER)
    half = RING_REF_BOX * pump.sigma
    ux, uy = (a.ravel() for a in np.meshgrid(half * x, half * x))
    weights = np.outer(half * w, half * w).ravel()
    total = np.zeros(qx.size)
    for shift, idler in ((0.5 * radius, False), (-0.5 * radius, True)):
        dx, dy = qx, qy - shift
        for lo in range(0, dx.size, 256):
            b = slice(lo, lo + 256)
            det = (dx[b, None], dy[b, None])
            other = (ux - det[0], uy - det[1])
            if idler:
                rate = joint_rate(*other, *det, pump, crystal)
            else:
                rate = joint_rate(*det, *other, pump, crystal)
            total[b] += rate @ weights
    return (total / total.max()).reshape(n, n)


def read_pgm16(path):
    data = Path(path).read_bytes()
    magic, size, maxval, body = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"65535":
        raise ValueError(f"{path.name}: not a 16-bit binary PGM")
    width, height = (int(v) for v in size.split())
    return np.frombuffer(body, dtype=">u2", count=width * height).reshape(
        height, width) / 65535.0


def _check_ring_profile(out, sections, ref):
    problems = []
    sidecars = {}
    for path in out.glob("profile_*.json"):
        sidecars[json.loads(path.read_text())["A"]] = path.with_suffix(".pgm")
    for A, expected in ref.items():
        match = [p for a, p in sidecars.items() if abs(a - A) < 1e-9]
        if not match:
            problems.append(f"no profile for A={A}")
            continue
        grid = read_pgm16(match[0])
        if grid.shape != expected.shape:
            problems.append(f"A={A}: grid {grid.shape} != {expected.shape}")
            continue
        worst = float(np.max(np.abs(grid - expected)))
        if worst > RING_TOL:
            problems.append(f"A={A}: profile off the reference by {worst:.2e}"
                            f" (> {RING_TOL:g})")
    return problems


# --------------------------------------------------- fringe-counting: fringes

def fringe_reference(pump, crystal, slits, samples):
    """Normalized double-slit profile on the CLI's default detector span.

    Closed-form slit-plane coherence W(x, x') (interference docstring), a
    Gauss-Legendre rule of APERTURE_REF_ORDER nodes per slit, and the exact
    Fresnel propagator from slit to detector.
    """
    L, alpha, _, _, _ = crystal
    a_slit, d, z, z1 = slits
    lambda_s = 2.0 * pump.lambda_p
    beta = np.pi ** 2 * alpha * L / pump.k_p
    a = (pump.b1 + beta) + 1j * np.pi * lambda_s * z
    c = pump.b2 + beta
    delta = abs(a) ** 2 - c * c
    x, w = np.polynomial.legendre.leggauss(APERTURE_REF_ORDER)
    right = d / 2.0 + a_slit / 2.0 * x
    nodes = np.concatenate([right, -right])
    weights = np.concatenate([w, w]) * a_slit / 2.0
    X, Xp = np.meshgrid(nodes, nodes, indexing="ij")
    W = np.exp(-np.pi ** 2 * (np.conj(a) * X ** 2 + a * Xp ** 2
                              - 2.0 * c * X * Xp) / delta)
    period = lambda_s * z1 / d
    xs = np.linspace(-4.0 * period, 4.0 * period, samples)
    phase = np.exp(-1j * (pump.k_p / 2.0) * (xs[:, None] - nodes) ** 2
                   / (2.0 * z1))
    p1 = np.real(np.sum((phase @ (weights[:, None] * weights * W))
                        * np.conj(phase), axis=1))
    return xs, p1 / p1.max(), period


def fit_fringe_visibility(xs, ys, period):
    """V of exp(e0 + e1 u + e2 u^2) (1 + V cos(2 pi u / P + phi)).

    Fitted on the central +-2 periods with the period started at the known
    value, as the CLI's visibility curve defines the observable.
    """
    keep = np.abs(xs - 0.5 * (xs[0] + xs[-1])) <= 2.0 * period
    xs, ys = xs[keep], ys[keep] / ys[keep].max()
    mid, half = 0.5 * (xs[0] + xs[-1]), 0.5 * (xs[-1] - xs[0])
    u = (xs - mid) / half

    def residual(th):
        e0, e1, e2, v, p, phi = th
        return (np.exp(e0 + e1 * u + e2 * u * u)
                * (1.0 + v * np.cos(2.0 * np.pi * u / p + phi)) - ys)

    fit = least_squares(residual, [np.log(ys.mean()), 0, 0, 0.5, period / half, 0],
                        method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12,
                        max_nfev=20000)
    return min(abs(float(fit.x[3])), 1.0)


def _visibility_lattice(sections):
    crystal = _crystal(sections)
    s = sections["slits"]
    samples = sections["grid"]["detector_samples"]
    lattice = {}
    for A, pump in zip(sections["pump"]["a_values"], _pumps(sections)):
        for d in s["d_values"]:
            xs, p1, period = fringe_reference(pump, crystal,
                                              (s["a"], d, s["z"], s["z1"]),
                                              samples)
            lattice[A, d] = fit_fringe_visibility(xs, p1, period)
    return lattice


def _check_fringe_lattice(out, sections, ref):
    problems = []
    with open(out / "visibility_curve.csv", newline="") as fh:
        rows = [(float(r["A"]), float(r["d_m"]), float(r["visibility"]))
                for r in csv.DictReader(fh)]
    measured = {}
    for (A, d), expected in ref.items():
        match = [v for a, dd, v in rows
                 if abs(a - A) < 1e-9 and abs(dd - d) < 1e-12]
        if len(match) != 1:
            problems.append(f"A={A} d={d}: {len(match)} visibility rows")
            continue
        measured[A, d] = match[0]
        if abs(match[0] - expected) > VISIBILITY_TOL:
            problems.append(f"A={A} d={d}: visibility {match[0]:.6f} vs "
                            f"reference {expected:.6f}")
    if problems:
        return problems
    a_values = sorted(sections["pump"]["a_values"])
    d_values = sorted(sections["slits"]["d_values"])
    for d in d_values:
        series = [measured[A, d] for A in a_values]
        if not all(lo < hi for lo, hi in zip(series, series[1:])):
            problems.append(f"d={d}: visibility does not fall as A falls")
    for A in a_values:
        series = [measured[A, d] for d in d_values]
        if not all(lo > hi for lo, hi in zip(series, series[1:])):
            problems.append(f"A={A}: visibility does not fall as d grows")
    return problems


# -------------------------------------------------- fringe-counting: counting

def half_max_width(xs, ys):
    """FWHM of a single-peaked curve by linear interpolation at half maximum."""
    i = int(np.argmax(ys))
    half = ys[i] / 2.0
    below_right = i + int(np.argmax(ys[i:] < half))
    below_left = i - int(np.argmax(ys[i::-1] < half))
    if below_right == i or below_left == i:
        raise ValueError("half maximum not reached inside the scan")
    right = np.interp(half, ys[below_right - 1:below_right + 1][::-1],
                      xs[below_right - 1:below_right + 1][::-1])
    left = np.interp(half, ys[below_left:below_left + 2],
                     xs[below_left:below_left + 2])
    return float(right - left)


def _counting_reference(sections):
    """Pixel momenta, pixel pitch and the direct conditional FWHM per pixel."""
    pump = _pumps(sections)[0]
    crystal = _crystal(sections)
    n_px = sections["counting"]["n_px"]
    _, _, theta, _, rho_i = crystal
    aa, bb, cc = 2.0 / pump.k_p, -rho_i, -pump.k_p * theta ** 2 / 2.0
    q0 = (-bb + np.sqrt(bb * bb - 4.0 * aa * cc)) / (2.0 * aa)  # overlap point
    span = 5.0 * pump.sigma
    qs = np.linspace(q0 - span, q0 + span, n_px)
    qi = np.linspace(-q0 - span, -q0 + span, n_px)
    dq = qi[1] - qi[0]
    direct = []
    for q in qs:
        qix = np.linspace(-q - 10 * pump.sigma, -q + 10 * pump.sigma, 8001)
        rate = joint_rate(q, 0.0, qix, 0.0, pump, crystal)
        direct.append(half_max_width(qix, rate) / dq)
    lambda_s = 2.0 * pump.lambda_p
    pitch = dq * sections["counting"]["f_collim"] * lambda_s / (2.0 * np.pi)
    mu, h = sections["counting"]["pairs_per_frame"], 1e-3
    return {"qs": qs, "qi": qi, "pitch": pitch, "direct_px": direct,
            "expected": mu * stretched_joint(sections, qs, qi, 1.0),
            "dwidth": mu * (stretched_joint(sections, qs, qi, 1.0 + h)
                            - stretched_joint(sections, qs, qi, 1.0 - h)) / (2 * h),
            "by_stack": {}}


def stretched_joint(sections, qs, qi, k):
    """Joint pixel distribution P[i, j], summing to 1, at pixel momenta qs, qi.

    Each signal row's idler distribution is stretched by k about its mean,
    keeping the row's sum; k = 1 is the model's joint rate.
    """
    pump, crystal = _pumps(sections)[0], _crystal(sections)
    P = joint_rate(qs[:, None], 0.0, qi[None, :], 0.0, pump, crystal)
    centre = (P @ qi / P.sum(axis=1))[:, None]
    R = joint_rate(qs[:, None], 0.0, centre + (qi[None, :] - centre) / k, 0.0,
                   pump, crystal)
    return P.sum(axis=1, keepdims=True) * R / R.sum(axis=1, keepdims=True) / P.sum()


def width_scale(frames, ref):
    """Correlation-width scale k of a stack against the model, and its SE.

    For a Poisson pair process the covariance of signal column i and idler
    column j is pairs_per_frame * P[i, j] (counting module docstring).  The
    stack's covariances M over all 48 x 48 column pairs are compared with that
    expectation E along dE/dk, the way a stretch of the idler width by k moves
    them: k = 1 + <a, M - E> / <a, dE/dk>, with a = (dE/dk) / var.  The SE is
    the delta-method SE of that statistic over frames, so the correlations
    between the column pairs are counted.
    """
    n = frames.shape[0]
    dx = frames[:, 0, :] - frames[:, 0, :].mean(axis=0)
    dy = frames[:, 1, :] - frames[:, 1, :].mean(axis=0)
    g = ref["dwidth"]
    a = g / np.maximum(np.outer(dx.var(axis=0), dy.var(axis=0)), 1.0 / n ** 2)
    norm = np.sum(a * g)
    k = 1.0 + np.sum(a * (dx.T @ dy / n - ref["expected"])) / norm
    per_frame = np.sum((dx @ a) * dy, axis=1) / norm
    return float(k), float(per_frame.std() / np.sqrt(n))


def read_frames(path):
    data = Path(path).read_bytes()
    if data[:8] != FRAME_MAGIC:
        raise ValueError("frames.bin: bad magic")
    header = FRAME_HEADER.unpack_from(data, 8)
    n, h, w = header[:3]
    body = data[8 + FRAME_HEADER.size:]
    if len(body) != 2 * n * h * w:
        raise ValueError(f"frames.bin: {len(body)} data bytes for {n}x{h}x{w}")
    return header, np.frombuffer(body, dtype="<u2").reshape(n, h, w)


def _covariance(sums):
    sxy, sx, sy, n = sums
    return sxy / n - (sx / n) * (sy / n)


def fit_gaussian_fwhm(c):
    """FWHM (px) of an unweighted Gaussian-plus-offset fit over pixel index."""
    j = np.arange(c.size, dtype=float)

    def residual(th):
        a, mu, s, off = th
        return a * np.exp(-((j - mu) ** 2) / (2.0 * s * s)) + off - c

    start = [c.max() - c.min(), float(np.argmax(c)), 3.0, c.min()]
    fit = least_squares(residual, start, method="lm", xtol=1e-12, ftol=1e-12,
                        gtol=1e-12, max_nfev=2000)
    return FWHM_SIGMA * abs(float(fit.x[2]))


def jackknife_fwhm_se(x, y):
    """Delete-one-block jackknife SE of the fitted FWHM, JACKKNIFE_BLOCKS blocks."""
    xy = x[:, None] * y
    full = (xy.sum(0), x.sum(), y.sum(0), x.size)
    estimates = []
    for block in np.array_split(np.arange(x.size), JACKKNIFE_BLOCKS):
        part = (full[0] - xy[block].sum(0), full[1] - x[block].sum(),
                full[2] - y[block].sum(0), x.size - block.size)
        estimates.append(fit_gaussian_fwhm(_covariance(part)))
    estimates = np.array(estimates)
    k = JACKKNIFE_BLOCKS
    return float(np.sqrt((k - 1) / k * np.sum((estimates - estimates.mean()) ** 2)))


def _check_photon_counting(out, sections, ref):
    problems = []
    cfg = sections["counting"]
    (n, h, w, seed, pitch, _), frames = read_frames(out / "frames.bin")
    if (n, h, w, seed) != (cfg["n_frames"], 2, cfg["n_px"], cfg["seed"]):
        problems.append(f"frames.bin header {(n, h, w, seed)} does not match "
                        f"the config")
    if abs(pitch - ref["pitch"]) > 1e-9 * ref["pitch"]:
        problems.append(f"frames.bin pixel pitch {pitch} != {ref['pitch']}")
    with open(out / "frames_grid.csv", newline="") as fh:
        grid = np.array([[float(r["q_sx_radpm"]), float(r["q_ix_radpm"])]
                         for r in csv.DictReader(fh)])
    if grid.shape != (cfg["n_px"], 2) or not np.allclose(
            grid, np.column_stack([ref["qs"], ref["qi"]]), rtol=1e-9, atol=0):
        problems.append("frames_grid.csv momenta do not match the config")
    if problems:
        return problems

    signal_px = int(np.argmax(frames[:, 0, :].sum(axis=0, dtype=np.int64)))
    x = frames[:, 0, signal_px].astype(float)
    y = frames[:, 1, :].astype(float)
    digest = hashlib.sha256(frames.tobytes()).hexdigest()
    if digest not in ref["by_stack"]:
        ref["by_stack"][digest] = (width_scale(frames.astype(float), ref),
                                   jackknife_fwhm_se(x, y))
    (k, k_se), se = ref["by_stack"][digest]
    if not abs(k - 1.0) < WIDTH_SE * k_se:
        problems.append(f"frames.bin correlation width is {k:.4f} x the "
                        f"model's: more than {WIDTH_SE:g} SE ({k_se:.4f})")

    fit = json.loads((out / "coincidence_fit.json").read_text())
    if fit["signal_px"] != signal_px:
        return problems + [f"signal pixel {fit['signal_px']} != brightest "
                           f"{signal_px}"]
    cov = _covariance(((x[:, None] * y).sum(0), x.sum(), y.sum(0), n))
    dev = (x - x.mean())[:, None] * (y - y.mean(axis=0))
    stderr = dev.std(axis=0) / np.sqrt(n)
    with open(out / "coincidence.csv", newline="") as fh:
        scan = np.array([(float(r["C_counts2"]), float(r["stderr_counts2"]))
                         for r in csv.DictReader(fh)])
    if scan.shape != (cov.size, 2) or not np.allclose(
            scan[:, 0], cov, rtol=1e-9, atol=1e-12 * np.abs(cov).max()):
        return problems + ["coincidence.csv does not match the frames' "
                           "covariances"]
    if not np.allclose(scan[:, 1], stderr, rtol=STDERR_REL_TOL, atol=0):
        problems.append("coincidence.csv stderr does not match the frames")
    own = fit_gaussian_fwhm(cov)
    if abs(fit["fwhm_px"] - own) > FIT_REL_TOL * own:
        problems.append(f"fitted FWHM {fit['fwhm_px']:.6f} px != refit "
                        f"{own:.6f} px")
    direct = ref["direct_px"][signal_px]
    if not abs(fit["fwhm_px"] - direct) < FWHM_SE * se:
        problems.append(f"fitted FWHM {fit['fwhm_px']:.3f} px vs direct "
                        f"{direct:.3f} px: more than {FWHM_SE:g} jackknife SE "
                        f"({se:.3f} px)")
    return problems


# --------------------------------------------------------------------- common

def check_manifests(out, manifests):
    """Each experiment's manifest names its outputs with matching SHA-256."""
    problems = []
    for experiment, path in manifests.items():
        manifest = json.loads(Path(path).read_text())
        if manifest.get("experiment") != experiment:
            problems.append(f"{path}: experiment {manifest.get('experiment')!r}")
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            if actual != digest:
                problems.append(f"{experiment}: {name} hash does not match")
    return problems


def _check_fringe_counting(out, sections, ref):
    return (_check_fringe_lattice(out, sections, ref["fringe"])
            + _check_photon_counting(out, sections, ref["counting"]))


def reference(workload, sections):
    if workload == "ring-profile":
        return {A: singles_reference(sections, pump) for A, pump in
                zip(sections["pump"]["a_values"], _pumps(sections))}
    return {"fringe": _visibility_lattice(sections),
            "counting": _counting_reference(sections)}


CHECKS = {
    "ring-profile": _check_ring_profile,
    "fringe-counting": _check_fringe_counting,
}


def check(workload, out, sections, ref, manifests):
    """Problems with one repetition's outputs; manifests maps experiment -> path."""
    try:
        return (check_manifests(Path(out), manifests)
                + CHECKS[workload](Path(out), sections, ref))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
