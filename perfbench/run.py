"""Benchmark of the gsmspdc batch CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): ring-profile, fringe-counting.
Each repetition runs the workload's experiments through
``gsmspdc.cli.main`` in a fresh process with the inherited environment, so
BLAS thread settings are recorded, not set.  Repetitions run one after
another until --seconds have passed, and each one's outputs are checked
against an independent reference computed before timing starts (oracle.py).

--trace 0 reports the end-to-end metrics, each the median over the
repetitions:
  setup_s      process start until gsmspdc.cli is imported and the config
               resolved, also measured by set-up-only processes
  wall_s       wall time of the experiment calls after set-up
  cpu_s        user + sys CPU of the process, BLAS helper threads included
  peak_rss_mb  peak resident set size of the process (VmHWM)
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of spans.py, medians over the traced ones, plus
trace.overhead_s, the traced minus the untraced wall_s (median of each).

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  attempted counts the processes started and
failed those that exited non-zero or whose outputs failed the check, so
error_rate = failed / attempted.  The full result, with the environment
block and sample counts, is written to .perfbench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0
SETUP_PROBES = 3

# name, unit; setup_s also counts the set-up-only processes
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    """Where the numbers come from; thread settings as inherited, unset = None."""
    rev = dirty = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        rev = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else status != ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev, "git_dirty": dirty, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _spawn(config, rep_dir, traced, experiments, deadline):
    """Run child.py once; returns its report merged with its rusage."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    report = rep_dir / "report.json"
    with open(rep_dir / "stderr.log", "wb") as log:
        spawned = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawned), str(ROOT),
             str(config), str(out), str(report), "1" if traced else "0",
             *experiments],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=log)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"exit": proc.returncode, "traced": traced,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if report.is_file():
        rep.update(json.loads(report.read_text()))
    if proc.returncode != 0:
        tail = (rep_dir / "stderr.log").read_text(errors="replace")[-400:]
        rep["problems"] = [f"exit {proc.returncode}: {tail.strip()}"]
    return rep


def manifest_paths(rep_dir, experiments):
    """Where child.py keeps each experiment's run_manifest.json."""
    return {e: rep_dir / "manifests" / f"{e}.json" for e in experiments}


def _stats(reps, key):
    values = [r[key] for r in reps]
    return {"value": median(values), "n": len(values), "min": min(values), "max": max(values),
            "values": values}


def run_workload(workload, seed, seconds, trace):
    """Run one benchmark measurement; returns the full result dict."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    sections, experiments = workloads.make(workload, seed)
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(workloads.render_ini(sections), encoding="ascii")
    t0 = time.perf_counter()
    ref = oracle.reference(workload, sections)
    reference_s = time.perf_counter() - t0

    probes, reps = [], []
    if not trace:
        for k in range(SETUP_PROBES):
            rep_dir = work / f"probe{k}"
            probes.append(_spawn(config, rep_dir, False, (), deadline))
            shutil.rmtree(rep_dir)
    measure_start = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        enough = now - measure_start >= seconds and len(reps) >= 1 + trace
        if enough or (reps and now + 1.5 * longest > deadline):
            break
        traced = bool(trace) and len(reps) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        rep = _spawn(config, rep_dir, traced, experiments, deadline)
        if rep["exit"] == 0:
            rep["problems"] = oracle.check(
                workload, rep_dir / "out", sections, ref,
                manifest_paths(rep_dir, experiments))
        shutil.rmtree(rep_dir)
        reps.append(rep)
        longest = max(longest, time.monotonic() - now)

    everything = probes + reps
    failed = [r for r in everything if r.get("problems")]
    good = [r for r in reps if not r.get("problems")]
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "config": sections, "reference_s": reference_s,
              "attempted": len(everything), "failed": len(failed),
              "problems": [p for r in failed for p in r["problems"]],
              "metrics": {}}
    if trace:
        untraced = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        if untraced and traced:
            per_run = [spans.layer_metrics(r["spans"]) for r in traced]
            layer = spans.median_metrics(per_run)
            layer["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                         - median(r["wall_s"] for r in untraced))
            units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
            result["metrics"] = {
                name: {"value": value, "unit": units[name], "n": len(traced)}
                for name, value in layer.items()}
            (work / "spans.json").write_text(json.dumps(traced[-1]["spans"]))
    elif good:
        setups = [r for r in probes if not r.get("problems")] + good
        for name, unit in END_TO_END:
            sample = setups if name == "setup_s" else good
            result["metrics"][name] = dict(_stats(sample, name), unit=unit)
        result["experiment_wall_s"] = {
            e: median(r["walls"][e] for r in good) for e in experiments}
    result["error_rate"] = result["failed"] / result["attempted"]
    (work / "result.json").write_text(json.dumps(result, indent=1, default=str))
    return result


def summary_lines(result):
    lines = [f"{result['workload']} seed={result['seed']} "
             f"trace={result['trace']} reference {result['reference_s']:.2f} s"]
    for name, m in result["metrics"].items():
        spread = (f" (median of n={m['n']}; min {m['min']:.6g}, max {m['max']:.6g})"
                  if "min" in m else f" (median of n={m['n']})")
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}{spread}")
    lines.append(f"  {'error_rate':32s} {result['error_rate']:.6g} share "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    lines.extend(f"  problem: {p}" for p in result["problems"])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gsmspdc" / "__init__.py").is_file():
        print(f"no gsmspdc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(result["environment"], sort_keys=True))
    print("\n".join(summary_lines(result)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
