"""The benchmark harness still runs against the package.

perfbench imports ``gsmspdc.cli``, the config helpers and every public
binding that ``spans.install`` wraps, so an API change that breaks it fails
here rather than in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# the fringe-counting layer metrics that read nonzero on a traced run, and
# those that read 0 there (ROADMAP item 16)
LIVE_METRICS = (
    "spdc.rate_calls", "spdc.rate_evals", "pump.csd_calls",
    "interference.self_s", "analysis.fit_visibility_s",
    "analysis.fit_visibility_calls", "analysis.fit_gaussian_s",
    "iofmt.write_s", "iofmt.manifest_s", "iofmt.bytes_written",
    "config.resolve_s", "cli.self_s")
DARK_METRICS = (
    "counting.us_per_frame", "counting.save_s", "counting.load_s",
    "counting.us_per_column", "counting.bytes_moved",
    "interference.fringe_calls", "interference.ns_per_sample")


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced fringe-counting repetition at 2000 frames: the experiments
    it ran and its report."""
    tmp_path = tmp_path_factory.mktemp("traced")
    workloads = _perfbench_module("workloads")
    sections, experiments = workloads.make("fringe-counting",
                                           workloads.DEFAULT_SEED)
    sections["counting"]["n_frames"] = 2000
    config = tmp_path / "fringe-counting.ini"
    config.write_text(workloads.render_ini(sections))
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), repr(time.time()),
         str(ROOT), str(config), str(tmp_path / "out"), str(report), "1",
         *experiments],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    return experiments, json.loads(report.read_text())


def test_traced_repetition_runs(traced):
    # a traced repetition calls each span counter on the arguments and
    # result of the function it wraps; a counter that no longer fits the
    # package's API raises inside the wrapper and fails the repetition
    experiments, result = traced
    assert set(result["exits"]) == set(experiments)
    spans = result["spans"]
    assert {s["trace"] for s in spans} == set(experiments)
    assert {s["layer"] for s in spans} >= {"cli", "counting", "iofmt"}
    layers = _perfbench_module("spans")
    assert set(layers.layer_metrics(spans)) == {
        name for name, _, _ in layers.LAYER_METRICS} - {"trace.overhead_s"}


def _zero_metrics(traced, names):
    metrics = _perfbench_module("spans").layer_metrics(traced[1]["spans"])
    return [name for name in names if metrics[name] == 0]


def test_fringe_counting_metrics_are_live(traced):
    # spans key on function names, so a rename in the package would leave
    # one of these reading 0 without failing the benchmark
    assert _zero_metrics(traced, LIVE_METRICS) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: these metrics key "
                   "on functions the package no longer has")
def test_dark_metrics_are_live(traced):
    assert _zero_metrics(traced, DARK_METRICS) == []
