"""The benchmark's own test: its smoke mode, a few seconds at tiny sizes.

The smoke mode asserts that every metric named in BENCHMARK.json is emitted
by every workload and that qj_dense_states gives byte-identical mean_c with
1 and 2 workers.  Check outcomes are printed, not asserted: the smoke sizes
are far below those the statistical bounds in checks.py are set for.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_emits_every_metric():
    run = Path(__file__).resolve().parent / "run.py"
    out = subprocess.run([sys.executable, str(run), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke OK"
