import contextlib
import importlib.util
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gsmspdc
from gsmspdc import quadrature
from gsmspdc.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_IO, EXIT_OK,
                         EXPERIMENTS, OUTPUT_DIR_ENV, main)
from gsmspdc.config import (KEYS, MAX_D12_SAMPLES, MAX_DETECTOR_SAMPLES,
                            MAX_FRAMES, MAX_GRID_SAMPLES, MAX_N_PX,
                            MAX_PAIRS_PER_FRAME, _finite, _finite_list,
                            _integer, load_config)
from gsmspdc.counting import (FrameStack, load_frames, save_frames,
                              synth_frames)
from gsmspdc.iofmt import read_pgm16

BASE_CONFIG = """
[pump]
lambda_p = 405e-9
w0 = 0.5e-3
a_values = 0.9, 0.3

[crystal]
L = 2e-3
kind = II
theta_nc_deg = 3.0
rho_p = 0.07
rho_i = 0.07

[slits]
a = 0.15e-3
d_values = 0.25e-3, 0.5e-3
z = 0.10
z1 = 0.20

[grid]
samples = 48
detector_samples = 601

[counting]
n_frames = 300
pairs_per_frame = 10
noise = 1e-3
seed = 777
n_px = 24
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


def run(experiment, config, out):
    return main(["run", experiment, "--config", str(config), "--out", str(out)])


class TestRunFringes:
    def test_writes_normalized_scan(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("fringes", config_file, out) == EXIT_OK
        lines = (out / "fringes.csv").read_text().splitlines()
        assert lines[0] == "A,d_m,x_m,intensity_norm"
        values = np.array([float(l.split(",")[3]) for l in lines[1:]])
        assert values.max() == pytest.approx(1.0)
        assert np.all(values >= 0)

    def test_manifest_lists_defaults_and_hashes(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("fringes", config_file, out) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["experiment"] == "fringes"
        # implicit defaults must be recorded
        assert manifest["parameters"]["crystal.alpha"] == 0.455
        assert "fringes.csv" in manifest["outputs"]
        assert len(manifest["outputs"]["fringes.csv"]) == 64  # sha256 hex

    def test_detector_samples_default_is_shared(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text(BASE_CONFIG.replace("detector_samples = 601\n", ""))
        for experiment in ("fringes", "conditional"):
            out = tmp_path / experiment
            assert run(experiment, path, out) == EXIT_OK
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["parameters"]["grid.detector_samples"] == 1001

    def test_sidecar_records_aperture_rule(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("fringes", config_file, out) == EXIT_OK
        metas = json.loads((out / "fringes.json").read_text())
        assert [round(m["A"], 2) for m in metas] == [0.9, 0.3]
        for meta in metas:
            assert meta["rule"] == "gauss-legendre"
            assert meta["order"] >= 4
            assert 0.0 <= meta["order_doubling_delta"] <= 1e-4


class TestRunVisibilityCurve:
    def test_monotone_table(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("visibility-curve", config_file, out) == EXIT_OK
        lines = (out / "visibility_curve.csv").read_text().splitlines()[1:]
        rows = [tuple(float(c) for c in l.split(",")) for l in lines]
        table = {(round(r[0], 2), r[1]): r[2] for r in rows}
        for A in (0.9, 0.3):
            assert table[(A, 0.25e-3)] > table[(A, 0.5e-3)]
        for d in (0.25e-3, 0.5e-3):
            assert table[(0.9, d)] > table[(0.3, d)]

    def test_columns_record_aperture_order(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("visibility-curve", config_file, out) == EXIT_OK
        lines = (out / "visibility_curve.csv").read_text().splitlines()
        assert lines[0] == ("A,d_m,visibility,fringe_period_m,aperture_order,"
                            "order_doubling_delta,residual_rms")
        for line in lines[1:]:
            order, delta, rms = line.split(",")[4:]
            assert int(order) >= 4
            assert 0.0 <= float(delta) <= 1e-4
            assert 0.0 <= float(rms) <= 0.20


class TestRunProfile:
    def test_writes_16bit_pgm_with_sidecar(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("profile", config_file, out) == EXIT_OK
        img = read_pgm16(out / "profile_A0.9.pgm")
        assert img.shape == (48, 48)
        assert img.max() == 65535
        sidecar = json.loads((out / "profile_A0.9.json").read_text())
        assert sidecar["kind"] == "II"
        assert sidecar["samples"] == 48
        assert sidecar["rule"] == "gauss-hermite"
        assert sidecar["order"] >= 4
        assert 0.0 <= sidecar["order_doubling_delta"] <= 1e-4


class TestCountingPipeline:
    def test_frames_then_coincidence(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("frames-synth", config_file, out) == EXIT_OK
        stack = load_frames(out / "frames.bin")
        assert stack.n_frames == 300
        assert stack.shape == (2, 24)
        assert stack.seed == 777
        assert run("coincidence", config_file, out) == EXIT_OK
        lines = (out / "coincidence.csv").read_text().splitlines()
        assert lines[0] == "j_px,C_counts2,stderr_counts2"
        assert len(lines) == 25

    def test_noise_only_stack_records_skipped_fit(self, tmp_path):
        path = tmp_path / "noise.ini"
        path.write_text(BASE_CONFIG.replace("pairs_per_frame = 10",
                                            "pairs_per_frame = 0"))
        out = tmp_path / "out"
        assert run("frames-synth", path, out) == EXIT_OK
        assert run("coincidence", path, out) == EXIT_OK
        record = json.loads((out / "coincidence_fit.json").read_text())
        assert set(record) == {"signal_px", "skipped"}
        assert record["skipped"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "coincidence_fit.json" in manifest["outputs"]

    def test_scan_without_positive_covariance_records_skipped_fit(self,
                                                                   tmp_path):
        # the signal pixel fires on odd frames; idler column j on 20 even
        # frames and on m_j odd ones, so C_j = (m_j - 20) / (2 n) <= 0, with
        # a Gaussian bump where m_j is largest
        n, n_px = 400, 12
        frames = np.zeros((n, 2, n_px), dtype=np.uint16)
        frames[1::2, 0, 0] = 1
        for j in range(n_px):
            m = 18 - round(16 * (1 - np.exp(-(j - 6) ** 2 / 8)))
            frames[0:40:2, 1, j] = 1
            frames[1:2 * m:2, 1, j] = 1
        path = tmp_path / "frames.bin"
        save_frames(FrameStack(frames=frames), path)
        config = tmp_path / "anti.ini"
        config.write_text(f"{BASE_CONFIG}frames_file = {path}\nsignal_px = 0\n")
        out = tmp_path / "out"
        assert run("coincidence", config, out) == EXIT_OK
        record = json.loads((out / "coincidence_fit.json").read_text())
        assert record == {"signal_px": 0,
                          "skipped": "no covariance in the scan is positive"}

    def test_coincidence_ignores_synthesis_keys(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert run("frames-synth", config_file, out) == EXIT_OK
        path = tmp_path / "one.ini"
        path.write_text(BASE_CONFIG.replace("n_frames = 300", "n_frames = 1"))
        assert run("coincidence", path, out) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert {name for name in manifest["parameters"]
                if name.startswith("counting.")} == {"counting.frames_file",
                                                     "counting.signal_px"}

    def test_seed_flag_overrides_config(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "frames-synth", "--config", str(config_file),
                     "--out", str(out), "--seed", "1234"])
        assert code == EXIT_OK
        assert load_frames(out / "frames.bin").seed == 1234


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "fringes", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_block_no_partial_outputs(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[pump]\nlambda_p = 405e-9\n")  # no [crystal], [slits]
        out = tmp_path / "out"
        assert run("fringes", path, out) == EXIT_CONFIG
        assert not any(out.glob("*.csv"))
        assert not (out / "run_manifest.json").exists()

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("w0 = 0.5e-3", "w0 = banana"))
        assert run("fringes", path, tmp_path / "o") == EXIT_CONFIG

    def test_unknown_experiment_is_usage_error(self, config_file, tmp_path):
        assert main(["run", "no-such-thing", "--config", str(config_file),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_convergence_failure_status(self, config_file, tmp_path,
                                        monkeypatch):
        # the fringes need aperture order 8, the profiles inner order 4
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        assert run("fringes", config_file, tmp_path / "o") == EXIT_CONVERGENCE
        assert run("profile", config_file, tmp_path / "p") == EXIT_OK

    # the sections each experiment requires; coincidence reads its stack
    # from frames-synth's output directory
    REQUIRED_SECTIONS = {
        "pump-visibility": ["pump"], "pump-invariance": ["pump"],
        "fringes": ["pump", "crystal", "slits"],
        "visibility-curve": ["pump", "crystal", "slits"],
        "profile": ["pump", "crystal", "grid"],
        "conditional": ["pump", "crystal"],
        "frames-synth": ["pump", "crystal", "counting"], "coincidence": [],
    }

    @pytest.mark.parametrize("experiment", sorted(REQUIRED_SECTIONS))
    def test_manifest_records_table_defaults(self, experiment, tmp_path):
        out = tmp_path / "out"
        runs = (["frames-synth"] if experiment == "coincidence" else []) + [
            experiment]
        for name in runs:
            path = tmp_path / f"{name}.ini"
            path.write_text("".join(f"[{section}]\n" for section
                                    in self.REQUIRED_SECTIONS[name]))
            assert run(name, path, out) == EXIT_OK
        parameters = json.loads((out / "run_manifest.json").read_text())[
            "parameters"]
        assert parameters.pop("output.directory") == str(out)
        if experiment == "coincidence":  # its default depends on --out
            assert parameters.pop("counting.frames_file") == str(
                out / "frames.bin")
        assert parameters
        for name, value in parameters.items():
            section, key = name.split(".")
            default = KEYS[section][key].default
            assert value == (list(default) if isinstance(default, tuple)
                             else default), name

    def test_grid_order_key_ignored(self, config_file, tmp_path):
        # the aperture order is measured; a config that still sets it runs
        # as if it did not
        legacy = tmp_path / "legacy.ini"
        legacy.write_text(BASE_CONFIG.replace(
            "detector_samples = 601", "detector_samples = 601\norder = 2"))
        for experiment in ("fringes", "visibility-curve"):
            outs = []
            for name, path in (("plain", config_file), ("legacy", legacy)):
                out = tmp_path / name / experiment
                assert run(experiment, path, out) == EXIT_OK
                outs.append(out)
            manifests = [json.loads((out / "run_manifest.json").read_text())
                         for out in outs]
            assert manifests[0]["outputs"] == manifests[1]["outputs"]
            for manifest in manifests:
                manifest["parameters"].pop("output.directory")
                assert "grid.order" not in manifest["parameters"]
            assert manifests[0]["parameters"] == manifests[1]["parameters"]

    def test_resolved_keys_are_accepted(self, config_file, tmp_path):
        # a key some experiment reads but KEYS lacks could not be set, and
        # one the domain fuzz does not draw would go unfuzzed
        out = tmp_path / "out"
        for experiment in sorted(EXPERIMENTS):
            if experiment == "coincidence":
                assert run("frames-synth", config_file, out) == EXIT_OK
            assert run(experiment, config_file, out) == EXIT_OK
            manifest = json.loads((out / "run_manifest.json").read_text())
            for name in manifest["parameters"]:
                section, key = name.split(".")
                assert key in KEYS[section], name
                if KEYS[section][key].read in (_finite, _finite_list):
                    assert (section, key) in DOMAIN_KEYS[experiment], name

    def test_shipped_and_benchmark_configs_load(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        shipped = root / "configs" / "default.ini"
        load_config(shipped)
        # default.ini names every key, set or commented out
        named, section = set(), None
        for line in shipped.read_text().splitlines():
            header = re.match(r"\[(\w+)\]", line)
            key = re.match(r"#?\s*(\w+)\s*=", line)
            if header:
                section = header.group(1)
            elif key and section:
                named.add((section, key.group(1).lower()))
        assert {(s, k) for s in KEYS for k in KEYS[s]} <= named
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            sections, _ = workloads.make(name, workloads.DEFAULT_SEED)
            path = tmp_path / f"{name}.ini"
            path.write_text(workloads.render_ini(sections))
            assert set(load_config(path)) == set(sections)

    def test_io_failure_status(self, config_file, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        assert run("pump-visibility", config_file, blocker) == EXIT_IO


def _edited(old, new):
    assert old in BASE_CONFIG
    return lambda tmp_path: BASE_CONFIG.replace(old, new)


def _config_with(edits):
    """BASE_CONFIG at 8 x 8 profile samples, 41 detector samples and 20
    frames, with edits {(section, key): text}."""
    lines = (BASE_CONFIG.replace("samples = 48", "samples = 8")
             .replace("detector_samples = 601", "detector_samples = 41")
             .replace("n_frames = 300", "n_frames = 20").splitlines())
    for (section, key), text in edits.items():
        line = f"{key} = {text}"
        found = [i for i, l in enumerate(lines)
                 if l.split("=")[0].strip().lower() == key]
        if found:
            lines[found[0]] = line
        else:
            lines.insert(lines.index(f"[{section}]") + 1, line)
    return "\n".join(lines) + "\n"


def _frames_file(body):
    def config(tmp_path):
        path = tmp_path / "frames.bin"
        path.write_bytes(body)
        return f"{BASE_CONFIG}frames_file = {path}\n"
    return config


def _stack_bytes(tmp_path, n_frames):
    """A saved 2 x 4 stack of n_frames frames."""
    full = tmp_path / "full.bin"
    save_frames(synth_frames(np.ones((4, 4)), 2.0, 0.0, n_frames, seed=1), full)
    return full.read_bytes()


def _truncated_stack(tmp_path):
    return _frames_file(_stack_bytes(tmp_path, 5)[:-3])(tmp_path)


def _one_frame_stack(tmp_path):
    return _frames_file(_stack_bytes(tmp_path, 1))(tmp_path)


def _signal_px_beyond_stack(tmp_path):
    return _frames_file(_stack_bytes(tmp_path, 5))(tmp_path) + "signal_px = 4\n"


def _signal_px_negative(tmp_path):
    return _frames_file(_stack_bytes(tmp_path, 5))(tmp_path) + "signal_px = -7\n"


# the experiments that read [pump] lambda_p
LAMBDA_P_EXPERIMENTS = ("pump-visibility", "pump-invariance", "fringes",
                        "visibility-curve", "profile", "conditional",
                        "frames-synth")

# case: (experiment, config text from tmp_path, extra argv, exit code)
MALFORMED = {
    "w0-negative": ("fringes", _edited("w0 = 0.5e-3", "w0 = -0.5e-3"),
                    [], EXIT_CONFIG),
    "w0-negative-invariance": ("pump-invariance",
                               _edited("w0 = 0.5e-3", "w0 = -0.5e-3"),
                               [], EXIT_CONFIG),
    "slit-a-exceeds-d-fringes": ("fringes", _edited("a = 0.15e-3", "a = 0.3e-3"),
                                 [], EXIT_CONFIG),
    "slit-a-exceeds-d-curve": ("visibility-curve",
                               _edited("a = 0.15e-3", "a = 0.3e-3"),
                               [], EXIT_CONFIG),
    "n-px-one": ("frames-synth", _edited("n_px = 24", "n_px = 1"),
                 [], EXIT_CONFIG),
    "negative-pair-rate": ("frames-synth", _edited("pairs_per_frame = 10",
                                                   "pairs_per_frame = -1"),
                           [], EXIT_CONFIG),
    "u16-overflow": ("frames-synth",
                     _edited("n_frames = 300\npairs_per_frame = 10\n"
                             "noise = 1e-3\nseed = 777\nn_px = 24",
                             "n_frames = 2\npairs_per_frame = 1e6\n"
                             "noise = 1e-3\nseed = 777\nn_px = 2"),
                     [], EXIT_CONFIG),
    "grid-samples-one": ("profile", _edited("samples = 48", "samples = 1"),
                         [], EXIT_CONFIG),
    "detector-samples-one-fringes": ("fringes",
                                     _edited("detector_samples = 601",
                                             "detector_samples = 1"),
                                     [], EXIT_CONFIG),
    "detector-samples-one-curve": ("visibility-curve",
                                   _edited("detector_samples = 601",
                                           "detector_samples = 1"),
                                   [], EXIT_CONFIG),
    "detector-samples-one-conditional": ("conditional",
                                         _edited("detector_samples = 601",
                                                 "detector_samples = 1"),
                                         [], EXIT_CONFIG),
    "n-frames-one": ("frames-synth", _edited("n_frames = 300", "n_frames = 1"),
                     [], EXIT_CONFIG),
    "n-frames-fractional": ("frames-synth",
                            _edited("n_frames = 300", "n_frames = 300.7"),
                            [], EXIT_CONFIG),
    "f-char-nan": ("pump-visibility",
                   _edited("w0 = 0.5e-3", "w0 = 0.5e-3\nf_char = nan"),
                   [], EXIT_CONFIG),
    "f-char-negative-visibility": ("pump-visibility",
                                   _edited("w0 = 0.5e-3",
                                           "w0 = 0.5e-3\nf_char = -0.1"),
                                   [], EXIT_CONFIG),
    "f-char-negative-invariance": ("pump-invariance",
                                   _edited("w0 = 0.5e-3",
                                           "w0 = 0.5e-3\nf_char = -0.1"),
                                   [], EXIT_CONFIG),
    "a-s-zero-visibility": ("pump-visibility",
                            _edited("w0 = 0.5e-3", "w0 = 0.5e-3\na_s_values = 0"),
                            [], EXIT_CONFIG),
    "a-s-zero-invariance": ("pump-invariance",
                            _edited("w0 = 0.5e-3", "w0 = 0.5e-3\na_s_values = 0"),
                            [], EXIT_CONFIG),
    "demag-zero": ("pump-invariance",
                   _edited("w0 = 0.5e-3", "w0 = 0.5e-3\ndemag = 0"),
                   [], EXIT_CONFIG),
    "d12-max-inf": ("pump-visibility",
                    _edited("w0 = 0.5e-3", "w0 = 0.5e-3\nd12_max = inf"),
                    [], EXIT_CONFIG),
    "a-s-values-inf": ("pump-invariance",
                       _edited("w0 = 0.5e-3",
                               "w0 = 0.5e-3\na_s_values = 0.25e-3, inf"),
                       [], EXIT_CONFIG),
    "slits-z-nan": ("fringes", _edited("z = 0.10", "z = nan"), [], EXIT_CONFIG),
    "noise-nan": ("frames-synth", _edited("noise = 1e-3", "noise = nan"),
                  [], EXIT_CONFIG),
    "pair-rate-nan": ("frames-synth", _edited("pairs_per_frame = 10",
                                              "pairs_per_frame = nan"),
                      [], EXIT_CONFIG),
    "crystal-length-negative": ("fringes", _edited("L = 2e-3", "L = -2e-3"),
                                [], EXIT_CONFIG),
    "crystal-kind-unknown": ("profile", _edited("kind = II", "kind = III"),
                             [], EXIT_CONFIG),
    "crystal-theta-negative": ("profile", _edited("theta_nc_deg = 3.0",
                                                  "theta_nc_deg = -3"),
                               [], EXIT_CONFIG),
    "grid-extent-short": ("profile", _edited("samples = 48",
                                             "samples = 48\nextent = 1"),
                          [], EXIT_CONFIG),
    "d12-samples-huge": ("pump-visibility",
                         _edited("w0 = 0.5e-3", "w0 = 0.5e-3\nd12_samples = 1e12"),
                         [], EXIT_CONFIG),
    "d12-samples-negative": ("pump-visibility",
                             _edited("w0 = 0.5e-3", "w0 = 0.5e-3\nd12_samples = -3"),
                             [], EXIT_CONFIG),
    "signal-px-beyond-stack": ("coincidence", _signal_px_beyond_stack, [],
                               EXIT_CONFIG),
    "signal-px-negative": ("coincidence", _signal_px_negative, [], EXIT_CONFIG),
    "threads-flag-removed": ("profile", lambda tmp_path: BASE_CONFIG,
                             ["--threads", "2"], EXIT_CONFIG),
    "frames-short-header": ("coincidence",
                            _frames_file(b"GSMFRAM1" + b"\x00" * 5), [], EXIT_IO),
    "frames-bad-magic": ("coincidence",
                         _frames_file(b"NOTAFRAME" + b"\x00" * 64), [], EXIT_IO),
    "frames-truncated-body": ("coincidence", _truncated_stack, [], EXIT_IO),
    "frames-one-frame": ("coincidence", _one_frame_stack, [], EXIT_IO),
    # a header of 5 frames with no rows, or no columns, and so no body
    "frames-zero-height": ("coincidence", _frames_file(b"GSMFRAM1" + struct.pack(
        "<III Q d d", 5, 0, 4, 1, 1e-5, 0.02)), [], EXIT_IO),
    "frames-zero-width": ("coincidence", _frames_file(b"GSMFRAM1" + struct.pack(
        "<III Q d d", 5, 2, 0, 1, 1e-5, 0.02)), [], EXIT_IO),
    "seed-beyond-u64": ("frames-synth",
                        _edited("seed = 777", "seed = 18446744073709551616"),
                        [], EXIT_CONFIG),
    "seed-negative": ("frames-synth", _edited("seed = 777", "seed = -1"),
                      [], EXIT_CONFIG),
    "value-lone-percent": ("pump-invariance",
                           _edited("w0 = 0.5e-3", "w0 = 50%"), [], EXIT_CONFIG),
    "grid-key-misspelt": ("fringes", _edited("detector_samples = 601",
                                             "detector_sample = 601"),
                          [], EXIT_CONFIG),
    "section-misspelt": ("frames-synth", _edited("[counting]", "[countng]"),
                         [], EXIT_CONFIG),
    "frames-huge-header": ("coincidence",
                           _frames_file(b"GSMFRAM1" + struct.pack(
                               "<III Q d d", 2**32 - 1, 2**32 - 1, 2**32 - 1,
                               1, 1e-5, 0.02) + b"\x00" * 64), [], EXIT_IO),
    # each sample count one above its bound
    "d12-samples-above-bound": ("pump-visibility",
                                _edited("w0 = 0.5e-3", "w0 = 0.5e-3\nd12_samples = "
                                        f"{MAX_D12_SAMPLES + 1}"),
                                [], EXIT_CONFIG),
    "grid-samples-above-bound": ("profile",
                                 _edited("samples = 48",
                                         f"samples = {MAX_GRID_SAMPLES + 1}"),
                                 [], EXIT_CONFIG),
    **{f"detector-samples-above-bound-{experiment}": (
        experiment, _edited("detector_samples = 601",
                            f"detector_samples = {MAX_DETECTOR_SAMPLES + 1}"),
        [], EXIT_CONFIG)
       for experiment in ("fringes", "visibility-curve", "conditional")},
    "n-frames-above-bound": ("frames-synth",
                             _edited("n_frames = 300",
                                     f"n_frames = {MAX_FRAMES + 1}"),
                             [], EXIT_CONFIG),
    "n-px-above-bound": ("frames-synth",
                         _edited("n_px = 24", f"n_px = {MAX_N_PX + 1}"),
                         [], EXIT_CONFIG),
    "pair-rate-above-bound": ("frames-synth",
                              _edited("pairs_per_frame = 10", "pairs_per_frame = "
                                      f"{MAX_PAIRS_PER_FRAME + 1}"),
                              [], EXIT_CONFIG),
    "pair-rate-huge": ("frames-synth", _edited("pairs_per_frame = 10",
                                               "pairs_per_frame = 1e13"),
                       [], EXIT_CONFIG),
    # one key outside its bounds in KEYS, each a value once run silently
    "extent-negative": ("profile", _edited("samples = 48",
                                           "samples = 48\nextent = -1"),
                        [], EXIT_CONFIG),
    "noise-above-one": ("frames-synth", _edited("noise = 1e-3", "noise = 2"),
                        [], EXIT_CONFIG),
    "theta-nc-above-bound": ("conditional", _edited("theta_nc_deg = 3.0",
                                                    "theta_nc_deg = 400"),
                             [], EXIT_CONFIG),
    "rho-p-below-bound": ("conditional", _edited("rho_p = 0.07", "rho_p = -50"),
                          [], EXIT_CONFIG),
    # keys outside their bounds whose products overflow the models
    "lambda-p-z1-huge-fringes": ("fringes", lambda tmp_path: _config_with(
        {("pump", "lambda_p"): "1e60", ("slits", "z1"): "1e100"}), [],
                                 EXIT_CONFIG),
    "a-s-values-tiny-invariance": ("pump-invariance", lambda tmp_path: _config_with(
        {("pump", "a_s_values"): "5e-324", ("pump", "lambda_p"): "13.0"}), [],
                                   EXIT_CONFIG),
    # a single key beyond its bounds and the range of the model it enters
    "w0-too-wide-conditional": ("conditional", _edited("w0 = 0.5e-3", "w0 = 1e10"),
                                [], EXIT_CONFIG),
    **{f"lambda-p-huge-{experiment}": (
        experiment, _edited("lambda_p = 405e-9", "lambda_p = 1e300"),
        [], EXIT_CONFIG)
       for experiment in ("fringes", "visibility-curve")},
    "slits-z1-huge": ("fringes", _edited("z1 = 0.20", "z1 = 1e300"), [],
                      EXIT_CONFIG),
    # (l_c + 2 w0)^2 overflows in the pump CSD of every experiment with pumps
    **{f"w0-huge-{experiment}": (
        experiment, _edited("w0 = 0.5e-3", "w0 = 1.3407807929942597e+154"),
        [], EXIT_CONFIG)
       for experiment in ("fringes", "visibility-curve", "profile",
                          "conditional", "frames-synth")},
    "d12-max-huge": ("pump-visibility",
                     _edited("w0 = 0.5e-3", "w0 = 0.5e-3\nd12_max = 1e308"),
                     [], EXIT_CONFIG),
    # a crystal-plane l_c whose 1 / l_c^2 overflows in the coherence width
    "a-s-values-huge-invariance": ("pump-invariance",
                                   _edited("w0 = 0.5e-3", "w0 = 0.5e-3\n"
                                           "a_s_values = 0.25e-3, 1e150"),
                                   [], EXIT_CONFIG),
    "w0-tiny-invariance": ("pump-invariance", _edited("w0 = 0.5e-3", "w0 = 1e-300"),
                           [], EXIT_CONFIG),
    # |q_s - q_i|^2 / (2 k_p) of the phase mismatch on the profile grid
    **{f"lambda-p-{size}-grid-profile": (
        "profile", _edited("lambda_p = 405e-9", f"lambda_p = {value}"),
        [], EXIT_CONFIG)
       for size, value in (("tiny", "1e-300"), ("huge", "1e308"))},
    # rho_i^2 of the overlap point
    **{f"rho-i-huge-{experiment}": (
        experiment, _edited("rho_i = 0.07", "rho_i = 1e200"), [], EXIT_CONFIG)
       for experiment in ("conditional", "frames-synth")},
    "lambda-p-tiny-scan-conditional": ("conditional",
                                       _edited("lambda_p = 405e-9",
                                               "lambda_p = 1e-300"),
                                       [], EXIT_CONFIG),
    # the phase-matching blur pi^2 alpha L / k_p of the fringe kernel squares
    **{f"alpha-huge-{experiment}": (
        experiment, _edited("theta_nc_deg = 3.0",
                            "theta_nc_deg = 3.0\nalpha = 1e308"),
        [], EXIT_CONFIG)
       for experiment in ("fringes", "visibility-curve")},
    # 1 / l_c^2 + 1 / (4 w0^2) of the coherence width, in every pump
    # experiment; a_values enters as the l_c it implies
    **{f"{key}-tiny-{experiment}": (experiment, _edited(old, new), [],
                                    EXIT_CONFIG)
       for key, old, new in (
           ("w0", "w0 = 0.5e-3", "w0 = 1e-300"),
           ("l-c", "a_values = 0.9, 0.3", "l_c = 1e-300"),
           ("a-values", "a_values = 0.9, 0.3", "a_values = 0.9, 1e-300"))
       for experiment in ("profile", "visibility-curve")},
    # 2 pi / lambda_p overflows to inf
    **{f"lambda-p-tiny-{experiment}": (
        experiment, _edited("lambda_p = 405e-9", "lambda_p = 5e-324"),
        [], EXIT_CONFIG)
       for experiment in LAMBDA_P_EXPERIMENTS},
}


# case: text its one-line message must contain
MESSAGES = {
    "demag-zero": "[pump] demag ",
    "w0-negative-invariance": "[pump] w0 ",
    "signal-px-negative": "[counting] signal_px",
    "seed-beyond-u64": "[counting] seed ",
    "seed-negative": "[counting] seed ",
    "grid-key-misspelt": "[grid] detector_sample ",
    "section-misspelt": "[countng]",
    "value-lone-percent": "[pump] w0",
    "d12-samples-huge": "[pump] d12_samples ",
    "d12-samples-above-bound": f"[pump] d12_samples must be <= {MAX_D12_SAMPLES}",
    "grid-samples-above-bound": f"[grid] samples must be <= {MAX_GRID_SAMPLES}",
    **{f"detector-samples-above-bound-{experiment}":
       f"[grid] detector_samples must be <= {MAX_DETECTOR_SAMPLES}"
       for experiment in ("fringes", "visibility-curve", "conditional")},
    "n-frames-above-bound": f"[counting] n_frames must be <= {MAX_FRAMES}",
    "n-px-above-bound": f"[counting] n_px must be <= {MAX_N_PX}",
    "pair-rate-above-bound": "[counting] pairs_per_frame must be <= "
                             f"{MAX_PAIRS_PER_FRAME}",
    "pair-rate-huge": "[counting] pairs_per_frame",
    **{f"lambda-p-tiny-{experiment}": "[pump] lambda_p must be >= 1e-08, "
       "got 5e-324" for experiment in LAMBDA_P_EXPERIMENTS},
    "extent-negative": "[grid] extent must be >= 0.0, got -1.0",
    "noise-above-one": "[counting] noise must be <= 1.0, got 2.0",
    "theta-nc-above-bound": "[crystal] theta_nc_deg must be <= 89.0, got 400.0",
    "rho-p-below-bound": "[crystal] rho_p must be >= -1.0, got -50.0",
    "lambda-p-z1-huge-fringes": "[pump] lambda_p must be <= 0.0001, got 1e+60",
    "a-s-values-tiny-invariance": "[pump] lambda_p must be <= 0.0001, got 13.0",
    "w0-too-wide-conditional": "[pump] w0 must be <= 1000.0, got 10000000000.0",
    **{f"lambda-p-huge-{experiment}": "[pump] lambda_p must be <= 0.0001, "
       "got 1e+300" for experiment in ("fringes", "visibility-curve")},
    "slits-z1-huge": "[slits] z1 must be <= 1000.0, got 1e+300",
    **{f"w0-huge-{experiment}": "[pump] w0 must be <= 1000.0, "
       "got 1.3407807929942597e+154"
       for experiment in ("fringes", "visibility-curve", "profile",
                          "conditional", "frames-synth")},
    "d12-max-huge": "[pump] d12_max must be <= 1000.0, got 1e+308",
    "lambda-p-tiny-scan-conditional": "[pump] lambda_p must be >= 1e-08, "
                                      "got 1e-300",
    "a-s-values-huge-invariance": "[pump] a_s_values entry 2 must be <= "
                                  "1000.0, got 1e+150",
    "w0-tiny-invariance": "[pump] w0 must be >= 1e-07, got 1e-300",
    **{f"lambda-p-{size}-grid-profile": f"[pump] lambda_p must be {bound}"
       for size, bound in (("tiny", ">= 1e-08, got 1e-300"),
                           ("huge", "<= 0.0001, got 1e+308"))},
    **{f"rho-i-huge-{experiment}": "[crystal] rho_i must be <= 1.0, got 1e+200"
       for experiment in ("conditional", "frames-synth")},
    **{f"alpha-huge-{experiment}": "[crystal] alpha must be <= 1000.0, "
       "got 1e+308" for experiment in ("fringes", "visibility-curve")},
    **{f"w0-tiny-{experiment}": "[pump] w0 must be >= 1e-07, got 1e-300"
       for experiment in ("profile", "visibility-curve")},
    **{f"l-c-tiny-{experiment}": "[pump] l_c must be >= 1e-07, got 1e-300"
       for experiment in ("profile", "visibility-curve")},
    **{f"a-values-tiny-{experiment}": "[pump] a_values entry 2 must be >= "
       "1e-06, got 1e-300" for experiment in ("profile", "visibility-curve")},
    "frames-zero-height": "empty 0 x 4 frames",
    "frames-zero-width": "empty 2 x 0 frames",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_codes(case, tmp_path, capsys):
    experiment, config_text, extra, expected = MALFORMED[case]
    path = tmp_path / "bad.ini"
    path.write_text(config_text(tmp_path))
    out = tmp_path / "out"
    code = main(["run", experiment, "--config", str(path), "--out", str(out),
                 *extra])
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    if not extra:
        assert len(err.strip().splitlines()) == 1
    if expected == EXIT_CONFIG and not extra:
        assert re.search(r"\[\w+\]", err), "message names no config section"
    assert MESSAGES.get(case, "") in err
    assert not (out / "run_manifest.json").exists()


# the float, integer and list keys each cheap experiment reads
FUZZ_KEYS = {
    "pump-visibility": [("pump", k) for k in
                        ("lambda_p", "f_char", "a_s_values", "d12_max",
                         "d12_samples")],
    "pump-invariance": [("pump", k) for k in
                        ("lambda_p", "w0", "f_char", "demag", "a_s_values")],
    "fringes": [("pump", k) for k in ("lambda_p", "w0", "a_values", "l_c")]
               + [("crystal", k) for k in
                  ("l", "alpha", "theta_nc_deg", "rho_p", "rho_i")]
               + [("slits", k) for k in ("a", "d_values", "z", "z1")],
    "visibility-curve": [("pump", k) for k in ("lambda_p", "w0", "a_values",
                                               "l_c")]
                        + [("crystal", k) for k in
                           ("l", "alpha", "theta_nc_deg", "rho_p", "rho_i")]
                        + [("slits", k) for k in ("a", "d_values", "z", "z1")],
    "conditional": [("pump", k) for k in ("lambda_p", "w0", "a_values", "l_c")]
                   + [("crystal", k) for k in
                      ("l", "alpha", "theta_nc_deg", "rho_p", "rho_i")]
                   + [("grid", "detector_samples")],
    # samples has bound rows, and its upper bound costs minutes a run
    "profile": [("pump", k) for k in ("lambda_p", "w0", "a_values", "l_c")]
               + [("crystal", k) for k in
                  ("l", "alpha", "theta_nc_deg", "rho_p", "rho_i")]
               + [("grid", "extent")],
    # then coincidence on the stack it wrote; n_frames and n_px have bound rows
    "frames-synth": [("pump", k) for k in ("lambda_p", "w0", "a_values", "l_c")]
                    + [("counting", k) for k in
                       ("pairs_per_frame", "noise", "seed", "f_collim")],
}
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0", "0", "",
                     "banana", "0x10", "1_000", "%", "5e-324"]),
)
_TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")))
_VALUE = st.one_of(_NUMBER, st.lists(_NUMBER).map(", ".join), _TEXT)
_FUZZ_CASE = st.sampled_from(sorted(FUZZ_KEYS)).flatmap(
    lambda experiment: st.tuples(
        st.just(experiment),
        st.dictionaries(st.sampled_from(FUZZ_KEYS[experiment]), _VALUE,
                        min_size=1, max_size=3)))


def _fuzz_runs(experiment, edits):
    """(exit code, stderr) of experiment at _config_with(edits), then of
    coincidence on the stack frames-synth wrote, until one fails."""
    runs = [experiment] + (["coincidence"] if experiment == "frames-synth"
                           else [])
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(_config_with(edits), encoding="utf-8")
        for name in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", name, "--config", str(path),
                             "--out", str(Path(tmp) / "out")])
            results.append((code, err.getvalue()))
            if code != EXIT_OK:
                break
    return results


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_FUZZ_CASE)
def test_config_fuzz_exit_contract(case):
    """Any value of a float, integer or list key exits 0, 2 or 3 cleanly,
    and so does coincidence on a stack frames-synth wrote."""
    for code, err in _fuzz_runs(*case):
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONVERGENCE), err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == (0 if code == EXIT_OK
                                                 else 1), err


def test_float_keys_have_finite_bounds():
    """Every float key, and every entry of a list key, has a domain."""
    for section, rows in KEYS.items():
        for key, row in rows.items():
            if row.read in (_finite, _finite_list):
                assert row.low is not None and row.high is not None, key
                assert -math.inf < row.low < row.high < math.inf, key


# the float and list keys each experiment reads: the any-text fuzz's, and
# the [crystal] of frames-synth; the sample counts stay at _config_with's
DOMAIN_KEYS = {experiment: [(section, key) for section, key in keys
                            if KEYS[section][key].read in (_finite,
                                                           _finite_list)]
               for experiment, keys in FUZZ_KEYS.items()}
DOMAIN_KEYS["frames-synth"] += [key for key in DOMAIN_KEYS["profile"]
                                if key[0] == "crystal"]
# the exit-2 messages of the rules that join keys or depend on drawn data
JOINT_RULES = ("slit separation d must exceed the slit width a",
               "grid extent must cover the ring",
               "more than the u16 format's")


def _log_uniform(low, high):
    """Floats spread evenly in log10 over [low, high], 0 < low < high."""
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda e: min(max(10.0 ** e, low), high))


def _in_domain(row):
    """An entry of [row.low, row.high]: an edge (or 0 inside), half the
    time, else log-uniform, in magnitude over twelve decades where 0 is in."""
    edges = [row.low, row.high] + ([0.0] if row.low < 0 < row.high else [])
    if row.low > 0:
        spread = _log_uniform(row.low, row.high)
    else:
        top = max(-row.low, row.high)
        spread = _log_uniform(1e-12 * top, top)
        if row.low < 0:
            spread = st.tuples(st.sampled_from([-1.0, 1.0]), spread).map(
                lambda pair: pair[0] * pair[1])
    return st.one_of(st.sampled_from(edges), spread)


@st.composite
def _domain_edits(draw, experiment):
    """A value within its domain for each key of DOMAIN_KEYS[experiment]."""
    values = {}
    for section, key in DOMAIN_KEYS[experiment]:
        row = KEYS[section][key]
        entry = _in_domain(row)
        values[section, key] = draw(st.lists(entry, min_size=1, max_size=3)
                                    if row.read is _finite_list else entry)
    if ("slits", "d_values") in values:  # past a, so that the models run
        a, high = values["slits", "a"], KEYS["slits"]["d_values"].high
        factors = draw(st.lists(_log_uniform(1e-6, 1e3), min_size=1,
                                max_size=3))
        values["slits", "d_values"] = [min(a * (1.0 + f), high)
                                       for f in factors]
    if draw(st.booleans()):  # a_values sets the pumps, else l_c does
        values.pop(("pump", "l_c"), None)
    return {name: ", ".join(map(repr, value)) if isinstance(value, list)
            else repr(value) for name, value in values.items()}


def _check_domain(experiment, data):
    """Within the domain only a rule that joins keys or depends on the drawn
    data exits 2, and no model's arithmetic overflows."""
    for code, err in _fuzz_runs(experiment,
                                data.draw(_domain_edits(experiment))):
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONVERGENCE), err
        assert code != EXIT_CONFIG or any(rule in err for rule in JOINT_RULES), err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == (0 if code == EXIT_OK
                                                 else 1), err


@pytest.mark.parametrize("experiment", sorted(DOMAIN_KEYS))
@settings(max_examples=6, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_config_domain_fuzz(experiment, data):
    _check_domain(experiment, data)


# 3010 examples in all, about four minutes on two vCPUs
@pytest.mark.slow
@pytest.mark.parametrize("experiment", sorted(DOMAIN_KEYS))
@settings(max_examples=430, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_config_domain_fuzz_long(experiment, data):
    _check_domain(experiment, data)


def test_arithmetic_error_is_config_error(config_file, tmp_path, capsys,
                                          monkeypatch):
    """An overflow that no bound in KEYS caught exits 2 in one line."""
    monkeypatch.setitem(EXPERIMENTS, "fringes",
                        lambda res, out: np.multiply(1e308, 10.0))
    out = tmp_path / "out"
    assert run("fringes", config_file, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: a config value is out of numerical "
                          "range (overflow encountered in multiply)")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("text, value", [("2000", 2000), ("2e3", 2000),
                                         ("-1", -1), (" 7 ", 7)])
def test_integer_reads(text, value):
    assert _integer(text) == value


@pytest.mark.parametrize("text", ["2000.7", "1e-3", "inf", "nan", "seven"])
def test_integer_reads_reject(text):
    with pytest.raises(ValueError):
        _integer(text)


def test_cli_import_loads_no_scipy():
    """The CLI starts on NumPy alone, with the NumPy submodules it uses loaded."""
    src = str(Path(gsmspdc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import json, sys, gsmspdc.cli; print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    modules = json.loads(done.stdout)
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    assert "numpy.polynomial" in modules and "numpy.random" in modules


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _tasks_and_env(code, **env):
    """Run code in a child with no BLAS thread variable but those in env;
    returns its thread count after the code, and its environment."""
    src = str(Path(gsmspdc.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    probe = (f"{code}\nimport json, os\nprint(json.dumps("
             "[len(os.listdir('/proc/self/task')), dict(os.environ)]))")
    done = subprocess.run([sys.executable, "-c", probe], env={**base, **env},
                          check=True, capture_output=True, text=True, timeout=60)
    return json.loads(done.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_blas_loads_on_one_thread():
    """Importing the package starts no BLAS worker, and leaves the
    environment, a caller's thread setting and an earlier NumPy load alone."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # OpenBLAS starts its pool at load, one thread per usable CPU
    pool = len(os.sched_getaffinity(0)) >= 2 and "openblas" in blas["name"]
    tasks, env = _tasks_and_env("import gsmspdc.cli")
    assert tasks == 1
    assert not set(BLAS_THREAD_VARS) & set(env)

    tasks, env = _tasks_and_env("import gsmspdc.cli", OPENBLAS_NUM_THREADS="2")
    assert env["OPENBLAS_NUM_THREADS"] == "2"
    if pool:
        assert tasks == 2

    tasks, env = _tasks_and_env(
        "import json, os, numpy\n"
        "before = [len(os.listdir('/proc/self/task')), dict(os.environ)]\n"
        "import gsmspdc.cli\n"
        "assert [len(os.listdir('/proc/self/task')), dict(os.environ)] == before")
    assert not set(BLAS_THREAD_VARS) & set(env)
    if pool:
        assert tasks == 2  # NumPy loaded first keeps its worker pool


class TestReproducibility:
    def test_reruns_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for experiment in ("fringes", "frames-synth", "profile"):
            assert run(experiment, config_file, out1) == EXIT_OK
            assert run(experiment, config_file, out2) == EXIT_OK
        for path1 in sorted(out1.iterdir()):
            path2 = out2 / path1.name
            if path1.name == "run_manifest.json":
                continue  # manifest embeds the output directory path
            assert path1.read_bytes() == path2.read_bytes(), path1.name

    def test_manifest_records_versions_and_argv(self, config_file, tmp_path,
                                                monkeypatch):
        # acceptance 8d: a rerun with the same arguments rewrites every file,
        # the manifest included, byte for byte
        out = tmp_path / "out"
        argv = ["run", "fringes", "--config", str(config_file), "--out", str(out)]
        snapshots = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            snapshots.append({p.name: p.read_bytes()
                              for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1]
        manifest = json.loads(snapshots[0]["run_manifest.json"])
        assert manifest["argv"] == argv
        assert manifest["versions"] == {"gsmspdc": gsmspdc.__version__,
                                        "numpy": np.__version__}
        # without an argv, main reads the command line
        monkeypatch.setattr(sys, "argv", ["gsmspdc", *argv])
        assert main() == EXIT_OK
        assert (out / "run_manifest.json").read_bytes() == snapshots[0][
            "run_manifest.json"]

    def test_env_var_default_output(self, config_file, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        assert main(["run", "pump-visibility", "--config",
                     str(config_file)]) == EXIT_OK
        assert (target / "pump_visibility.csv").exists()
