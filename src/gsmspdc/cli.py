"""Batch experiment harness.

    gsmspdc run <experiment> --config <path> [--out <dir>] [--seed <u64>]

Experiments: pump-visibility, pump-invariance, fringes, visibility-curve,
profile, conditional, frames-synth, coincidence.  Each run writes CSV data
and/or 16-bit PGM images plus run_manifest.json with the resolved parameters,
seed, and SHA-256 hashes of every output.  Reruns with the same config and
seed are byte-identical.  Quadrature orders are measured, not configured:
profile sidecars, fringes.json and visibility_curve.csv record the order of
the rule their values come from, which the order-doubling gate returned, and
the change from half that order.

Exit codes: 0 success, 2 configuration error, 3 convergence failure,
4 I/O failure (a malformed frames file included).
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, counting, interference, profiles
from .config import Resolver, crystal_from, load_config, pumps_from
from .errors import ConfigError, ConvergenceError, FitError, section_errors
from .iofmt import write_csv, write_json, write_manifest, write_pgm16
from .pump import (CharacterizationSetup, correlation_length, csd_coefficients,
                   propagate_to_crystal, pump_visibility)
from .spdc import joint_momentum_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "GSMSPDC_OUT"


def _slits(res: Resolver):
    """One validated SlitGeometry per [slits] d_values entry."""
    a, d_values, z, z1 = res.section("slits", "a", "d_values", "z", "z1")
    with section_errors("slits"):
        return [interference.SlitGeometry(a=a, d=d, z=z, z1=z1) for d in d_values]


def run_pump_visibility(res: Resolver, out: Path):
    lambda_p, f_char, a_s_values, d12_max, n_d12 = res.section(
        "pump", "lambda_p", "f_char", "a_s_values", "d12_max", "d12_samples")
    d12 = np.linspace(0.0, d12_max, n_d12)
    visibility = [pump_visibility(CharacterizationSetup(a_s=a_s, f=f_char,
                                                        d12=d12), lambda_p)
                  for a_s in a_s_values]
    path = out / "pump_visibility.csv"
    write_csv(path, ["a_s_m", "d12_m", "visibility"],
              [np.repeat(a_s_values, n_d12), np.tile(d12, len(a_s_values)),
               np.concatenate(visibility)])
    return [path]


def run_pump_invariance(res: Resolver, out: Path):
    lambda_p, w0, f_char, demag, a_s_values = res.section(
        "pump", "lambda_p", "w0", "f_char", "demag", "a_s_values")
    w_at_lens = w0 * demag
    rows = []
    for a_s in a_s_values:
        l_c_lens = correlation_length(a_s, f_char, lambda_p)
        pump = propagate_to_crystal(l_c_lens, w_at_lens, demag, lambda_p)
        rows.append((a_s, l_c_lens, pump.w0, pump.l_c, pump.A))
    path = out / "pump_invariance.csv"
    write_csv(path, ["a_s_m", "l_c_lens_m", "w0_crystal_m", "l_c_crystal_m", "A"],
              zip(*rows))
    return [path]


def run_fringes(res: Resolver, out: Path):
    pumps = pumps_from(res)
    crystal = crystal_from(res)
    slits = _slits(res)[0]
    samples = res.get("grid", "detector_samples")
    with section_errors("slits"):  # a beam that does not reach the slits
        scans = interference.fringe_profiles(pumps, crystal, slits,
                                             samples=samples)
    path = out / "fringes.csv"
    write_csv(path, ["A", "d_m", "x_m", "intensity_norm"],
              [np.repeat([scan.meta["A"] for scan in scans], samples),
               np.full(len(scans) * samples, slits.d),
               np.concatenate([scan.xs for scan in scans]),
               np.concatenate([scan.values for scan in scans])])
    sidecar = out / "fringes.json"
    write_json(sidecar, [scan.meta for scan in scans])
    return [path, sidecar]


def run_visibility_curve(res: Resolver, out: Path):
    pumps = pumps_from(res)
    crystal = crystal_from(res)
    slits = _slits(res)
    samples = res.get("grid", "detector_samples")
    with section_errors("slits"):  # a beam that does not reach the slits
        rows = interference.visibility_curve(pumps, slits, crystal, samples)
    columns = ["A", "d_m", "visibility", "fringe_period_m", "aperture_order",
               "order_doubling_delta", "residual_rms"]
    path = out / "visibility_curve.csv"
    write_csv(path, columns, [[r[c] for r in rows] for c in columns])
    return [path]


def run_profile(res: Resolver, out: Path):
    pumps = pumps_from(res)
    crystal = crystal_from(res)
    samples, extent = res.section("grid", "samples", "extent")
    with section_errors("grid"):  # an extent that does not cover the ring
        computed = [profiles.singles_profile(
            pump, crystal, which="both",
            extent=None if extent == 0 else extent,
            samples=samples) for pump in pumps]
    paths = []
    for prof in computed:
        stem = f"profile_A{prof.meta['A']:.4g}"
        img = out / f"{stem}.pgm"
        write_pgm16(img, prof.grid)
        sidecar = out / f"{stem}.json"
        write_json(sidecar, prof.meta)
        paths.extend([img, sidecar])
    return paths


def run_conditional(res: Resolver, out: Path):
    pumps = pumps_from(res)
    crystal = crystal_from(res)
    samples = res.get("grid", "detector_samples")
    scans = [profiles.conditional_scan(
        pump, crystal, profiles.overlap_point(crystal, pump.k_p),
        samples=samples) for pump in pumps]
    path = out / "conditional.csv"
    write_csv(path, ["A", "q_ix_radpm", "density_per_radpm"],
              [np.repeat([scan.meta["A"] for scan in scans], samples),
               np.concatenate([scan.xs for scan in scans]),
               np.concatenate([scan.values for scan in scans])])
    return [path]


def _counting_params(res: Resolver):
    keys = ("pairs_per_frame", "n_frames", "noise", "seed", "n_px", "f_collim")
    return dict(zip(keys, res.section("counting", *keys)))


def _synthesis_joint(pump, crystal, n_px):
    """Joint pixel distribution over (signal x, idler x) at the overlap point."""
    q_s0, _ = profiles.overlap_point(crystal, pump.k_p)
    sigma = csd_coefficients(pump).sum_sigma
    qs = np.linspace(q_s0 - 5 * sigma, q_s0 + 5 * sigma, n_px)
    qi = np.linspace(-q_s0 - 5 * sigma, -q_s0 + 5 * sigma, n_px)
    joint = joint_momentum_rate((qs[:, None], 0.0), (qi[None, :], 0.0),
                                pump, crystal)
    return joint, qs, qi


def run_frames_synth(res: Resolver, out: Path):
    pumps = pumps_from(res)
    crystal = crystal_from(res)
    params = _counting_params(res)
    pump = pumps[0]
    joint, qs, qi = _synthesis_joint(pump, crystal, params["n_px"])
    pitch = float(profiles.momentum_to_position(qi[1] - qi[0],
                                                params["f_collim"],
                                                pump.lambda_s))
    path = out / "frames.bin"
    with section_errors("counting"):  # every argument comes from [counting]
        blocks = counting.synth_blocks(joint, params["pairs_per_frame"],
                                       params["noise"], params["n_frames"],
                                       params["seed"])
        counting.write_frames(path, blocks, params["n_frames"],
                              (2, params["n_px"]), params["seed"], pitch)
    grid = out / "frames_grid.csv"
    write_csv(grid, ["j_px", "q_sx_radpm", "q_ix_radpm"],
              [np.arange(params["n_px"]), qs, qi])
    return [path, grid]


def run_coincidence(res: Resolver, out: Path):
    frames_file = res.get("counting", "frames_file", str(out / "frames.bin"))
    signal_px = res.get("counting", "signal_px")
    try:
        frames = counting.FrameFile(frames_file)
    except ValueError as exc:
        raise OSError(f"malformed frames file {frames_file}: {exc}") from exc
    with frames:  # every pass reads the file opened here
        if frames.shape[0] < 2:
            raise OSError(f"unusable frames file {frames_file}: it has one "
                          f"row, and the scan needs the idler row 1")
        if signal_px >= frames.shape[1]:
            raise ConfigError(f"[counting] signal_px must be below the "
                              f"{frames.shape[1]} columns of {frames_file}, "
                              f"got {signal_px}")
        try:
            if signal_px < 0:  # the brightest column, from one more pass
                signal_px = int(np.argmax(counting.pixel_stats(frames)[0]))
            scan = counting.covariance_scan(frames, (0, signal_px), 1)
        except ValueError as exc:  # fewer than two frames
            raise OSError(f"unusable frames file {frames_file}: "
                          f"{exc}") from exc
    path = out / "coincidence.csv"
    write_csv(path, ["j_px", "C_counts2", "stderr_counts2"],
              [scan.xs.astype(int), scan.values, scan.meta["stderr"]])
    try:
        if not np.any(scan.values > 0):  # no coincidence excess to fit
            raise FitError("no covariance in the scan is positive")
        fit = analysis.fit_gaussian(scan)
        record = {"signal_px": signal_px, "amplitude": fit.amplitude,
                  "mean_px": fit.mean, "sigma_px": fit.sigma,
                  "fwhm_px": fit.fwhm, "offset": fit.offset,
                  "residual_rms": fit.residual_rms}
    except FitError as exc:  # a noise-only stack, or a featureless scan
        record = {"signal_px": signal_px, "skipped": str(exc)}
    summary = out / "coincidence_fit.json"
    write_json(summary, record)
    return [path, summary]


EXPERIMENTS = {
    "pump-visibility": run_pump_visibility,
    "pump-invariance": run_pump_invariance,
    "fringes": run_fringes,
    "visibility-curve": run_visibility_curve,
    "profile": run_profile,
    "conditional": run_conditional,
    "frames-synth": run_frames_synth,
    "coincidence": run_coincidence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsmspdc", description="Partially coherent SPDC experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--config", required=True, help="INI config file")
    run.add_argument("--out", default=None,
                     help=f"output directory (default: config, then "
                          f"${OUTPUT_DIR_ENV}, then ./out)")
    run.add_argument("--seed", type=int, default=None,
                     help="override [counting] seed")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        raw = load_config(args.config)
        if args.seed is not None:
            raw.setdefault("counting", {})["seed"] = str(args.seed)
        res = Resolver(raw)
        out_dir = (args.out
                   or raw.get("output", {}).get("directory")
                   or os.environ.get(OUTPUT_DIR_ENV)
                   or "out")
        res.resolved["output.directory"] = str(out_dir)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # finite config values can still overflow the models' arithmetic
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            written = EXPERIMENTS[args.experiment](res, out)
        write_manifest(out, args.experiment, res.resolved, written,
                       sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # overflow, or a division by zero
        print(f"config error: a config value is out of numerical range ({exc})",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FitError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
