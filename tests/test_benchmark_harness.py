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

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]


def test_traced_repetition_runs(tmp_path):
    # a traced repetition calls each span counter on the arguments and
    # result of the function it wraps; a counter that no longer fits the
    # package's API raises inside the wrapper and fails the repetition
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
    result = json.loads(report.read_text())
    assert set(result["exits"]) == set(experiments)
    spans = result["spans"]
    assert {s["trace"] for s in spans} == set(experiments)
    assert {s["layer"] for s in spans} >= {"cli", "counting", "iofmt"}
    layers = _perfbench_module("spans")
    assert set(layers.layer_metrics(spans)) == {
        name for name, _, _ in layers.LAYER_METRICS} - {"trace.overhead_s"}
