"""The benchmark's output check, run as a test.

``bench/run.py --check`` runs every operation of a workload once, untimed,
and compares each output with the reference recorded under
``bench/reference/``; it writes no file.  On ``ladder`` this pins the
surgery output at framings -1, 0 and +1 on Wh^1-Wh^3(K9).  It never
traces, so a separate test binds the tracer's layers.
"""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import floerforge
from floerforge.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ladder", "verify", "cli_corpus"])
def test_bench_check_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def load_tracing():
    """``bench/tracing.py`` as a module, with every floerforge module imported."""
    for info in pkgutil.iter_modules(floerforge.__path__):
        importlib.import_module(f"floerforge.{info.name}")
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_binds_every_layer():
    # Every function named in ``bench/tracing.py``'s LAYERS must exist, or
    # entering the tracer raises; without this only ``--trace 1`` runs
    # would notice a renamed or deleted layer.
    tracing = load_tracing()
    before = {name: vars(module).copy() for name, module in sys.modules.items() if name.startswith("floerforge")}
    with tracing.Tracer():
        pass
    after = {name: vars(sys.modules[name]).copy() for name in before}
    assert before == after


@pytest.mark.parametrize("argv, layers", [
    (["cfk", "--complex", "wh_k3"], {"cfk.hfk_hat": 1, "cfk.knot_numerics": 1}),
    (["endfloer", "--knot", "wh_k3", "--handle", "ch*"], {"whitehead.box_parameters": 1}),
])
def test_tracer_sees_the_cli_hat_layer(argv, layers, capsys):
    # The CLI reaches the hat invariants through their public functions,
    # so the per-layer trace of a CLI run counts them.
    with load_tracing().Tracer() as tracer:
        assert main(argv) == 0
    assert {name: len(tracer.find(name)) for name in layers} == layers
