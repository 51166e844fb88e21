"""The demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["demos/temperature_sweep.py", "--nt", "2", "--sweeps", "5"],
    ["demos/evidence_comparison.py"],
    ["demos/minimizer_baseline.py", "--restarts", "2"],
    ["demos/peak_memory.py", "--train", "300", "--test", "100", "--size", "50"],
    ["demos/kernel_timing.py", "--calls", "3"],
    ["demos/kernel_timing.py", "--calls", "3", "--against", "src"],
], ids=["temperature_sweep", "evidence_comparison", "minimizer_baseline",
        "peak_memory", "kernel_timing", "kernel_timing_against"])
def test_demo_runs(argv, tmp_path):
    # the demos write their stand-in corpus under TMPDIR, and remove it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("temperhmc_demo_*")) == []
