"""Record a baseline: every workload, untraced and traced, plus the held-out seed.

    python3 perfbench/baseline.py [--seconds S]

Prints every metric with its unit and sample count, and error_rate, for each
workload, then writes them with the environment block to
perfbench/baseline.json.  The default seed gives the end-to-end and per-layer
numbers; the held-out seed is run untraced to show that its outputs pass the
checks too.
"""

import argparse
import json
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    baseline = {"seconds": args.seconds, "default_seed": workloads.DEFAULT_SEED,
                "held_out_seed": workloads.HELD_OUT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        entry = {}
        for label, seed, trace in (("end_to_end", workloads.DEFAULT_SEED, 0),
                                   ("per_layer", workloads.DEFAULT_SEED, 1),
                                   ("held_out", workloads.HELD_OUT_SEED, 0)):
            result = run.run_workload(workload, seed, args.seconds, trace)
            print("\n".join(run.summary_lines(result)), flush=True)
            baseline["environment"] = result["environment"]
            entry[label] = {key: result[key] for key in (
                "seed", "metrics", "attempted", "failed", "error_rate",
                "problems", "reference_s")}
            if not trace:
                entry[label]["experiment_wall_s"] = result.get("experiment_wall_s")
        baseline["workloads"][workload] = entry
    with open(run.HERE / "baseline.json", "w", encoding="ascii") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = sum(e[k]["failed"] for e in baseline["workloads"].values() for k in e)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
