"""Self-tests of the benchmark: output checks and per-layer arithmetic.

    python3 perfbench/selftest.py

Runs each workload once at the default seed as a benchmark repetition
(run._spawn), shows that the output check accepts those outputs and rejects
perturbed copies, checks the per-layer arithmetic on a synthetic span list,
and checks that BENCHMARK.json names the metrics the benchmark prints.
Scratch files go to .perfbench_work/selftest in the checkout.
"""

import json
import shutil
import subprocess
import sys
import time
import unittest

import numpy as np

import oracle
import run
import spans
import workloads

WORK = run.WORK / "selftest"


def spawn(name, sections, experiments):
    """Run experiments on a config as one repetition; (out dir, manifests)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(workloads.render_ini(sections), encoding="ascii")
    rep_dir = work / "rep"
    rep = run._spawn(config, rep_dir, False, experiments,
                     time.monotonic() + run.HARD_LIMIT_S)
    if rep["exit"] != 0:
        raise RuntimeError(f"{name}: {rep['problems']}")
    return rep_dir / "out", run.manifest_paths(rep_dir, experiments)


def produce(workload):
    """Outputs of one workload at the default seed: out dir, sections, manifests."""
    sections, experiments = workloads.make(workload, workloads.DEFAULT_SEED)
    out, manifests = spawn(workload, sections, experiments)
    return out, sections, manifests


def synth(joint, cfg, rng):
    """A frame stack drawn from joint P[i, j] as counting.synth_frames documents."""
    n, n_px = cfg["n_frames"], cfg["n_px"]
    pairs = rng.poisson(cfg["pairs_per_frame"], n)
    cell = rng.choice(joint.size, size=pairs.sum(), p=joint.ravel() / joint.sum())
    frame = np.repeat(np.arange(n), pairs)
    frames = (rng.random((n, 2, n_px)) < cfg["noise"]).astype(np.int64)
    np.add.at(frames, (frame, 0, cell // n_px), 1)
    np.add.at(frames, (frame, 1, cell % n_px), 1)
    return frames


def perturbed_copy(out, name):
    copy = out.parent / f"{out.name}-{name}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    return copy


class RingProfileChecks(unittest.TestCase):
    def test_ring_profile(self):
        out, sections, manifests = produce("ring-profile")
        ref = oracle.reference("ring-profile", sections)
        self.assertEqual(
            oracle.check("ring-profile", out, sections, ref, manifests), [])

        bad = perturbed_copy(out, "row")
        pgm = sorted(bad.glob("profile_*.pgm"))[0]
        n = sections["grid"]["samples"]
        data = pgm.read_bytes()
        head = data[:len(data) - 2 * n * n]
        grid = np.frombuffer(data[len(head):], dtype=">u2").reshape(n, n)
        grid = grid.astype(float)
        row = next(r for r in range(n) if 0.5 < grid[r].max() / 65535 < 0.9)
        grid[row] *= 1.001
        pgm.write_bytes(head + np.round(grid).astype(">u2").tobytes())
        problems = oracle.check("ring-profile", bad, sections, ref,
                                manifests)
        self.assertTrue(any("off the reference" in p for p in problems), problems)


class FringeCountingChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out, cls.sections, cls.manifests = produce("fringe-counting")
        cls.ref = oracle.reference("fringe-counting", cls.sections)

    def check(self, out, manifests=None):
        return oracle.check("fringe-counting", out, self.sections, self.ref,
                            manifests or self.manifests)

    def test_outputs_pass(self):
        self.assertEqual(self.check(self.out), [])

    def test_visibility_moved(self):
        bad = perturbed_copy(self.out, "vis")
        path = bad / "visibility_curve.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = repr(float(cells[2]) + 0.01)
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        problems = self.check(bad)
        self.assertTrue(any("vs reference" in p for p in problems), problems)

    def test_fwhm_misreported(self):
        for scale in (1.2, 0.8):
            bad = perturbed_copy(self.out, f"fwhm{scale}")
            fit = json.loads((bad / "coincidence_fit.json").read_text())
            fit["fwhm_px"] *= scale
            (bad / "coincidence_fit.json").write_text(json.dumps(fit))
            problems = self.check(bad)
            self.assertTrue(any("fitted FWHM" in p for p in problems), problems)

    def test_frame_header(self):
        bad = perturbed_copy(self.out, "header")
        data = bytearray((bad / "frames.bin").read_bytes())
        data[8:12] = (self.sections["counting"]["n_frames"] - 1).to_bytes(4, "little")
        (bad / "frames.bin").write_bytes(bytes(data))
        self.assertTrue(self.check(bad))

    def test_stack_width(self):
        """A stack drawn with the idler width stretched fails; unstretched passes.

        The coincidence experiment runs on each stack, so the covariances and
        the fit match it, and only the checks against the model can object.
        """
        ref = self.ref["counting"]
        header = (self.out / "frames.bin").read_bytes()[:8 + oracle.FRAME_HEADER.size]
        cfg = self.sections["counting"]
        rng = np.random.default_rng(workloads.DEFAULT_SEED)
        for scale in (1.0, 1.2, 0.8):
            bad = perturbed_copy(self.out, f"width{scale}")
            stack = bad / "frames.bin"
            joint = oracle.stretched_joint(self.sections, ref["qs"], ref["qi"], scale)
            stack.write_bytes(header + synth(joint, cfg, rng).astype("<u2").tobytes())
            changed = dict(self.sections, counting=dict(cfg, frames_file=str(stack)))
            fitted, manifests = spawn(f"coincidence-width{scale}", changed,
                                      ("coincidence",))
            for name in ("coincidence.csv", "coincidence_fit.json"):
                shutil.copy(fitted / name, bad)
            problems = self.check(bad, manifests)
            if scale == 1.0:
                self.assertEqual(problems, [])
                continue
            self.assertTrue(any("correlation width" in p for p in problems),
                            problems)
            self.assertTrue(all("correlation width" in p or "direct" in p
                                for p in problems), problems)


def span(sid, parent, layer, name, t0, t1, **counts):
    s = {"id": sid, "parent": parent, "trace": "x", "layer": layer,
         "name": name, "t0": t0, "t1": t1}
    if counts:
        s["counts"] = counts
    return s


class LayerArithmetic(unittest.TestCase):
    SPANS = [
        span(1, 0, "cli", "main", 0, 10_000),
        span(2, 1, "profiles", "singles_profile", 1_000, 9_000,
             pixels=4, rings=2),
        span(3, 2, "spdc", "joint_momentum_rate", 2_000, 4_000, evals=16),
        span(4, 3, "pump", "csd_coefficients", 2_500, 2_600),
        span(5, 2, "spdc", "joint_momentum_rate", 5_000, 7_000, evals=8),
        span(6, 1, "spdc", "joint_momentum_rate", 9_100, 9_200, evals=100),
        span(7, 1, "iofmt", "write_manifest", 9_300, 9_900, bytes=50),
        span(8, 7, "iofmt", "write_json", 9_400, 9_500, bytes=50),
        span(9, 1, "iofmt", "write_csv", 9_900, 9_950, bytes=7),
        span(10, 1, "counting", "synth_frames", 9_950, 9_990,
             frames=4, bytes=64),
    ]

    def test_metrics(self):
        m = spans.layer_metrics(self.SPANS)
        self.assertEqual(m["profiles.ns_per_pixel"], 8_000 / 8)
        self.assertAlmostEqual(m["profiles.self_s"], (8_000 - 4_000) / 1e9)
        self.assertEqual(m["profiles.evals_per_pixel"], 24 / 8)
        self.assertEqual(m["spdc.rate_calls"], 3)
        self.assertEqual(m["spdc.rate_evals"], 124)
        self.assertAlmostEqual(m["spdc.ns_per_eval"], (1_900 + 2_000 + 100) / 124)
        self.assertEqual(m["spdc.max_evals_per_call"], 100)
        self.assertEqual(m["pump.csd_calls"], 1)
        self.assertAlmostEqual(m["cli.self_s"],
                               (10_000 - 8_000 - 100 - 600 - 50 - 40) / 1e9)
        self.assertAlmostEqual(m["iofmt.manifest_s"], 600 / 1e9)
        self.assertAlmostEqual(m["iofmt.write_s"], 50 / 1e9)
        self.assertEqual(m["iofmt.bytes_written"], 57)
        self.assertEqual(m["counting.us_per_frame"], 40 / 1e3 / 4)
        self.assertEqual(m["counting.bytes_moved"], 64)
        self.assertEqual(m["interference.ns_per_sample"], 0.0)
        self.assertEqual(set(m) | {"trace.overhead_s"},
                         {name for name, _, _ in spans.LAYER_METRICS})

    def test_median_over_runs(self):
        runs = [{"a": 3.0}, {"a": 1.0}, {"a": 2.0}]
        self.assertEqual(spans.median_metrics(runs), {"a": 2.0})


class Declared(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            list(spans.LAYER_METRICS))
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]),
                         sorted(workloads.WORKLOADS))

    def test_install_wraps_bindings_outside_the_defining_module(self):
        script = (
            "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import gsmspdc.cli as cli, gsmspdc.profiles as p, spans\n"
            "r = spans.Recorder(); spans.install(r)\n"
            "import gsmspdc.spdc as s, gsmspdc.interference as i\n"
            "ok = [p.joint_momentum_rate is s.joint_momentum_rate,\n"
            "      'traced' in i.fit_visibility.__code__.co_name,\n"
            "      'traced' in cli.write_manifest.__code__.co_name,\n"
            "      'traced' in cli.EXPERIMENTS['profile'].__code__.co_name]\n"
            "print(all(ok))\n")
        done = subprocess.run(
            [sys.executable, "-c", script, str(run.ROOT / "src"), str(run.HERE)],
            capture_output=True, text=True, check=True)
        self.assertEqual(done.stdout.strip(), "True", done.stderr)


if __name__ == "__main__":
    unittest.main()
