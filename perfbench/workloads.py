"""Seeded workload generation.

A workload is an INI config written from the seed plus the list of CLI
experiments run on it.  The program sees only the config; the same seed gives
the same config byte for byte.

Why each workload exists:

ring-profile     the ``profile`` experiment (type II, both rings, inner order
                 24 with the order-doubling check) on a 32x32 grid.  Almost all
                 of its time is the ``profiles`` inner quadrature and
                 ``spdc.joint_momentum_rate``; it never calls ``interference``,
                 ``analysis`` or ``counting``.  A change to the inner rule
                 should show here.
fringe-counting  pump-visibility, pump-invariance, fringes, visibility-curve and
                 conditional on a 6 A x 5 d lattice, then frames-synth and
                 coincidence at the full-scale 20000 frames.  The first five
                 exercise ``interference``, ``analysis.fit_visibility``,
                 ``pump`` and ``profiles.conditional_scan``; the last two have
                 ``counting`` write a stack (synthesis, ``save_frames``, the
                 manifest's SHA-256) and read it back (``load_frames``, the
                 jackknife ``conditional_map``, ``fit_gaussian``).  It never
                 calls the singles quadrature, so a ``profiles`` optimisation
                 should not move it.  The two groups share one workload
                 because fewer, longer runs give steadier medians on a noisy
                 host.
"""

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

LAMBDA_P = 405e-9
W0 = 0.5e-3
CRYSTAL = {"L": 2e-3, "kind": "II", "alpha": 0.455, "theta_nc_deg": 3.0,
           "rho_p": 0.07, "rho_i": 0.07}
A_RANGE = (0.3, 0.95)


def _stratified(rng, lo, hi, n, digits):
    """n increasing values, one from the middle 80% of each of n equal bins.

    The bins keep the values apart, so the trends the fringe check requires
    are resolved on every seed.
    """
    edges = np.linspace(lo, hi, n + 1)
    width = edges[1] - edges[0]
    return [round(float(e + width * (0.1 + 0.8 * rng.random())), digits)
            for e in edges[:-1]]


def ring_profile(rng):
    return {
        "pump": {"lambda_p": LAMBDA_P, "w0": W0,
                 "a_values": _stratified(rng, *A_RANGE, 3, 4)},
        "crystal": dict(CRYSTAL),
        "grid": {"samples": 32, "extent": 0, "order": 24},
    }


def fringe_counting(rng):
    a_values = _stratified(rng, *A_RANGE, 6, 4)
    # frames-synth uses the first A; which of the six comes first is drawn
    a_values.insert(0, a_values.pop(int(rng.integers(len(a_values)))))
    return {
        "pump": {"lambda_p": LAMBDA_P, "w0": W0, "a_values": a_values,
                 "demag": 8, "f_char": 0.150,
                 "a_s_values": [0.25e-3, 0.5e-3, 1.0e-3],
                 "d12_max": 2e-3, "d12_samples": 64},
        "crystal": dict(CRYSTAL),
        "slits": {"a": 0.15e-3,
                  "d_values": _stratified(rng, 0.25e-3, 0.85e-3, 5, 6),
                  "z": 0.10, "z1": 0.20},
        "grid": {"detector_samples": 1001, "order": 24},
        "counting": {"n_frames": 20000, "pairs_per_frame": 20, "noise": 1e-3,
                     "seed": int(rng.integers(0, 2**31)), "n_px": 48,
                     "f_collim": 0.200},
    }


WORKLOADS = {
    "ring-profile": (ring_profile, ("profile",)),
    "fringe-counting": (fringe_counting, ("pump-visibility", "pump-invariance",
                                          "fringes", "visibility-curve",
                                          "conditional", "frames-synth",
                                          "coincidence")),
}


def make(workload, seed):
    """(config sections, experiments) of a workload at a seed."""
    build, experiments = WORKLOADS[workload]
    return build(np.random.default_rng(seed)), experiments


def render_ini(sections):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, list):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
