"""Self-tests of the benchmark, on cut-down forms of its workloads.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Ladder up to Wh^1 on K3, verify section 1, three corpus entries; the
# probe runs on Wh^1(K9) in each.
CUT = {
    "ladder": {"levels": 1, "knots": (3,)},
    "verify": {"levels": 1, "verify_filter": "1"},
    "cli_corpus": {"levels": 1, "corpus_names": ("unknot", "k3", "t2_3")},
}

TAMPERED_KEY = {"ladder": "double.1", "verify": "1.unknot", "cli_corpus": "cfk --complex k3"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_appears_with_its_unit(name):
    m = harness.measure(name, 1, seconds=0, trace=False, setup_runs=1, min_passes=1, min_probes=1,
                        **CUT[name])
    assert m.attempted > 0 and m.failed == 0, m.errors
    assert set(m.metrics) == {spec["name"] for spec in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        value, unit = m.metrics[spec["name"]]
        assert unit == spec["unit"]
        assert value > 0


def test_every_per_layer_metric_appears_with_its_unit():
    m = harness.measure("ladder", 1, seconds=0, trace=True, **CUT["ladder"])
    assert m.failed == 0, m.errors
    assert list(m.metrics) == harness.per_layer_names()
    assert {name: unit for name, (_, unit) in m.metrics.items()} == {
        spec["name"]: spec["unit"] for spec in SPEC["per_layer"]
    }
    assert m.metrics["surgery.surgery_hf.calls"][0] == 6
    assert m.metrics["wh3_zero_surgery.cfk.validate_knot.self_s"][0] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_passes_give_identical_outputs(name):
    wl = workloads.Workload(name, 2, workloads.load_reference(name), **CUT[name])
    plain = harness.run_pass(wl.ops, wl.reference)
    with tracing.Tracer() as tracer:
        traced = harness.run_pass(wl.ops, wl.reference, tracer)
    assert plain.failed == traced.failed == 0
    assert traced.outputs == plain.outputs
    assert any(span[0] != f"op:{wl.ops[0].name}" for span in tracer.spans)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_tampered_reference_gives_failures(name, monkeypatch):
    real = workloads.load_reference

    def tampered(workload):
        reference = copy.deepcopy(real(workload))
        if workload == name:
            reference["outputs"][TAMPERED_KEY[name]] += "tampered"
        return reference

    monkeypatch.setattr(workloads, "load_reference", tampered)
    m = harness.measure(name, 3, seconds=0, trace=False, setup_runs=0, min_passes=1, min_probes=1,
                        **CUT[name])
    assert m.failed == 1
    assert m.attempted > m.failed


def test_the_tracer_puts_the_original_functions_back():
    from floerforge import cfk, surgery

    before = (cfk.validate_knot, surgery.validate_knot, surgery.MappingCone.total_complex)
    with tracing.Tracer():
        assert surgery.validate_knot is not before[1]
        assert cfk.validate_knot is not before[0]
    assert (cfk.validate_knot, surgery.validate_knot, surgery.MappingCone.total_complex) == before


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.self_times(root=1) == {"b": 2.0, "c": 1.0}


def test_the_reference_clock_reads_kernel_work_in_kernel_runs_and_leaves_its_own_out():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock(period=0.005) as clock:
        raw0, ref0 = clock.read()
        runs, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            refclock.kernel()
            runs += 1
        raw1, ref1 = clock.read()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ticks = len(clock.kernel_runs) - 2
    assert ticks > 10
    # The ticks' kernel runs are not counted as work.
    assert raw1 - raw0 < time.perf_counter() - t0 - 0.5 * sum(clock.kernel_runs[1:-1])
    # Work that is itself the kernel reads about one reference run per run.
    assert 0.7 < (ref1 - ref0) / (runs * refclock.REFERENCE_KERNEL_S) < 1.3


def test_set_up_timing_pins_to_one_cpu_and_unpins():
    allowed = os.sched_getaffinity(0)
    with harness.on_this_cpu():
        assert len(os.sched_getaffinity(0)) == 1
        assert os.sched_getaffinity(0) <= allowed
    assert os.sched_getaffinity(0) == allowed


def test_without_the_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
