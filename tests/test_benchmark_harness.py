"""The benchmark harness still runs against the package.

perfbench imports ``gsmspdc.cli``, the config helpers and every public
binding that ``spans.install`` wraps, so an API change that breaks it fails
here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
