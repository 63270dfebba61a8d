"""One benchmark repetition in a fresh process.

    python3 child.py SPAWN_TIME ROOT CONFIG OUT REPORT TRACE [EXPERIMENT ...]

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import gsmspdc.cli`` from
ROOT/src and resolving CONFIG, which every CLI invocation pays.  Then each
EXPERIMENT runs through ``gsmspdc.cli.main`` into OUT, timed one by one; after
each, its ``run_manifest.json`` is moved to OUT/../manifests so later
experiments do not overwrite it.  With TRACE 1 the package's public functions
are wrapped after set-up and the spans go into the report.  With no
experiments only set-up is measured.  The report is written to REPORT as
JSON; the exit code is 0 only if every experiment exited 0.
"""

import json
import os
import sys
import time


def peak_rss_mb():
    """High-water RSS of this process image.

    Read from VmHWM rather than rusage: ru_maxrss keeps the high-water mark
    of the image replaced by exec, which after a vfork-style spawn is the
    parent's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    spawn, root, config, out, report, trace = argv[:6]
    experiments = argv[6:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gsmspdc.cli as cli
    from gsmspdc.config import crystal_from, load_config, pumps_from, Resolver

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gsmspdc imported from {cli.__file__}, not {src}")
    res = Resolver(load_config(config))
    pumps_from(res)
    crystal_from(res)
    result = {"setup_s": time.time() - float(spawn), "walls": {}, "exits": {}}

    recorder = None
    if trace == "1":
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    manifests = os.path.join(os.path.dirname(os.path.abspath(out)), "manifests")
    os.makedirs(manifests, exist_ok=True)
    for experiment in experiments:
        argv = ["run", experiment, "--config", config, "--out", out]
        if recorder is not None:
            recorder.trace = experiment
        t0 = time.perf_counter()
        code = cli.main(argv)
        result["walls"][experiment] = time.perf_counter() - t0
        result["exits"][experiment] = code
        if code != 0:
            break
        os.replace(os.path.join(out, "run_manifest.json"),
                   os.path.join(manifests, f"{experiment}.json"))
    result["wall_s"] = sum(result["walls"].values())
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        result["spans"] = recorder.spans
    with open(report, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in result["exits"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
