"""The benchmark's output check, run as a test.

``bench/run.py --check`` runs every operation of a workload once, untimed,
and compares each output with the reference recorded under
``bench/reference/``; it writes no file.  On ``ladder`` this pins the
surgery output at framings -1, 0 and +1 on Wh^1-Wh^3(K9).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ladder", "verify", "cli_corpus"])
def test_bench_check_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
