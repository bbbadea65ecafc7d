"""Timing, checking and reporting for the floerforge benchmark.

``measure`` runs one workload and returns its metrics.  With tracing off
it times fresh set-up processes, then repeats whole passes, then probe
calls, for the given number of seconds, and reports end-to-end metrics in
reference seconds (see ``refclock``); with tracing on it runs plain and
traced passes and reports per-layer metrics in raw seconds.  Every pass is
checked against the reference outputs; a wrong output, an exception or a
wrong exit code counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import refclock
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_RUNS = 9  # fresh processes timed per run for setup_s
PASS_SHARE = 0.6  # of --seconds for passes; the rest times probes
MIN_PASSES = 2
MIN_PROBES = 4
TIMINGS = ("wall_s", "wh3_zero_surgery_s", "setup_s")
# How much each kind of timed work slows down with the CPU, as a power of
# the calibration kernel's slowdown (see refclock.scale).  Each is the
# round value that gave the steadiest readings in ten runs per workload on
# a machine that switched speeds (see README).
PASS_EXPONENT = {"ladder": 1.1, "verify": 1.0, "cli_corpus": 0.9}
PROBE_EXPONENT = 1.1  # surgery_hf(Wh^3(K9), 0); the ladder's passes hold one too
SETUP_EXPONENT = 0.7  # a fresh process: start, imports, JSON
SECTIONS = "12345678"

# The 0-surgery on the tower top, split by layer in a traced run.
PROBE_LAYERS = (
    "cfk.validate_knot",
    "fualgebra.validate_complex",
    "fualgebra.homology_decomposition",
    "surgery.build_cone",
    "surgery.MappingCone.total_complex",
)


def plain_clock() -> tuple[float, float]:
    """A ``(raw, ref)`` reading in plain seconds, for untimed and traced passes."""
    t = time.perf_counter()
    return t, t


@dataclass
class PassResult:
    wall: float  # seconds of the pass, as its clock reads them
    durations: dict = field(default_factory=dict)  # op name -> (raw, clock) seconds
    wall_raw: float = 0.0  # plain seconds of the pass
    outputs: dict = field(default_factory=dict)
    stderr_first_line: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # every failure, one line each
    raised: int = 0  # operations that raised instead of returning


def run_pass(ops, reference: dict, tracer=None, clock=plain_clock) -> PassResult:
    """Run ``ops`` once, in order, then check what they returned.
    ``clock()`` gives ``(raw, ref)`` readings; times are kept in ``ref``."""
    gc.collect()
    values, durations = [], {}
    start_raw, start = clock()
    before_raw, before = start_raw, start
    for op in ops:
        try:
            if tracer is None:
                value = op.call()
            else:
                with tracer.span(f"op:{op.name}"):
                    value = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            value = exc
        after_raw, after = clock()
        durations[op.name] = (after_raw - before_raw, after - before)
        before_raw, before = after_raw, after
        values.append(value)
    result = PassResult(after - start, durations, after_raw - start_raw)
    expected = reference.get("outputs", {})
    for op, value in zip(ops, values):
        result.attempted += len(op.keys)
        try:
            if isinstance(value, Exception):
                raise value
            rendered = op.render(value)
            if tracer is not None and op.counters is not None:
                for name, n in op.counters(value).items():
                    tracer.add(name, n)
            if op.stderr_first_line is not None:
                result.stderr_first_line.update(op.stderr_first_line(value))
        except Exception as exc:
            result.raised += 1
            result.failed += len(op.keys)
            result.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        result.outputs.update(rendered)
        for key in op.keys:
            if rendered.get(key) != expected.get(key):
                result.failed += 1
                result.errors.append(f"{key}: output differs from the reference")
    return result


def quartiles(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"min": min(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Raw and reference seconds of a fresh process that imports
    floerforge, reads the reference and makes the workload's inputs, then
    exits.  The speed is taken from kernel runs just before and after."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    before = refclock.speed_factor(SETUP_EXPONENT)
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    after = refclock.speed_factor(SETUP_EXPONENT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return elapsed, elapsed * (before + after) / 2


@contextlib.contextmanager
def on_this_cpu():
    """Pin this process, and the processes it starts, to the CPU it runs
    on, so that kernel runs here time the CPU a set-up process runs on."""
    allowed = os.sched_getaffinity(0)
    try:  # field 39 of /proc/self/stat, the 37th after the command name
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu} if cpu in allowed else {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def probe_reference(wl) -> dict:
    """The probe's expected output, kept with the ladder's."""
    return {"outputs": {wl.probe_key: workloads.load_reference("ladder")["outputs"][wl.probe_key]}}


@dataclass
class Measurement:
    metrics: dict  # name -> (value, unit)
    samples: dict  # name -> raw samples in seconds
    scaled: dict = field(default_factory=dict)  # name -> samples in reference seconds
    kernel_runs: list = field(default_factory=list)  # calibration kernel times of the passes and probes
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def count(self, result: PassResult):
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors.extend(result.errors)


def measure(name: str, seed: int, seconds: float, trace: bool,
            setup_runs: int = SETUP_RUNS, min_passes: int = MIN_PASSES,
            min_probes: int = MIN_PROBES, **cut) -> Measurement:
    """Run one workload; ``cut`` passes cut-down inputs to ``Workload``."""
    if trace:
        wl = workloads.Workload(name, seed, workloads.load_reference(name), **cut)
        return _measure_traced(wl, seed)
    m = Measurement({}, {metric: [] for metric in TIMINGS}, {metric: [] for metric in TIMINGS})

    def add(metric, raw, ref):
        m.samples[metric].append(raw)
        m.scaled[metric].append(ref)

    with on_this_cpu():
        refclock.kernel_seconds()  # the first run after other work is slow: it grows the heap
        for _ in range(setup_runs):
            add("setup_s", *time_setup(name, seed))
    wl = workloads.Workload(name, seed, workloads.load_reference(name), **cut)
    start = time.perf_counter()

    def time_left(lengths, share):
        # Stop before a sample of median length would overrun the share.
        return time.perf_counter() - start + statistics.median(lengths) <= share * seconds

    with refclock.RefClock(PASS_EXPONENT[name]) as clock:
        lengths = []  # plain seconds per pass, kernel runs included
        while len(lengths) < min_passes or time_left(lengths, PASS_SHARE):
            t0 = time.perf_counter()
            result = run_pass(wl.ops, wl.reference, clock=clock.read)
            lengths.append(time.perf_counter() - t0)
            m.count(result)
            add("wall_s", result.wall_raw, result.wall)
            if wl.probe_key in result.durations:
                add("wh3_zero_surgery_s", *result.durations[wl.probe_key])
        # Read before the probe, which on verify and cli_corpus is extra work.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        top = wl.build_tower()[-1]
        clock.exponent = PROBE_EXPONENT
        lengths = []
        while len(lengths) < min_probes or time_left(lengths, 1.0):
            t0 = time.perf_counter()
            result = run_pass([wl.probe_op(top)], probe_reference(wl), clock=clock.read)
            lengths.append(time.perf_counter() - t0)
            m.count(result)
            add("wh3_zero_surgery_s", result.wall_raw, result.wall)
    for metric in TIMINGS:
        if m.scaled[metric]:
            m.metrics[metric] = (statistics.median(m.scaled[metric]), "s")
    m.metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    m.kernel_runs = clock.kernel_runs
    return m


def _measure_traced(wl, seed) -> Measurement:
    m = Measurement({}, {})
    # The first pass in a process pays one-time costs, so the overhead is
    # taken against a second plain pass made after the traced one.
    first = run_pass(wl.ops, wl.reference)
    with tracing.Tracer() as tracer:
        traced = run_pass(wl.ops, wl.reference, tracer)
    plain = run_pass(wl.ops, wl.reference)
    for result in (first, traced, plain):
        m.count(result)
    if traced.outputs != plain.outputs:
        m.failed += 1
        m.errors.append("traced and untraced passes gave different outputs")
    m.metrics.update(tracer.layer_metrics())
    m.metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    m.spans = tracer.spans

    top = wl.build_tower()[-1]
    with tracing.Tracer() as probe_tracer:
        probe = run_pass([wl.probe_op(top)], probe_reference(wl), probe_tracer)
    m.count(probe)
    root = probe_tracer.find(f"op:{wl.probe_key}")[0]
    split = probe_tracer.self_times(root)
    m.metrics["wh3_zero_surgery.total_s"] = (probe.wall, "s")
    for layer in PROBE_LAYERS:
        m.metrics[f"wh3_zero_surgery.{layer}.self_s"] = (split.get(layer, 0.0), "s")

    # Each section cold, as `floerforge verify --filter <n>` runs it; the
    # sum over sections minus wall_s is what the shared cache saves.
    for n in SECTIONS:
        seconds = 0.0
        if wl.name == "verify":
            section = workloads.Workload("verify", seed, wl.reference, verify_filter=n)
            result = run_pass(section.ops, wl.reference)
            m.count(result)
            seconds = result.wall
        m.metrics[f"verify.section.{n}_s"] = (seconds, "s")
    return m


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{layer}.{what}" for layer in tracing.LAYER_NAMES for what in ("self_s", "calls")]
    names += list(tracing.COUNTERS)
    names += ["trace.overhead_s", "wh3_zero_surgery.total_s"]
    names += [f"wh3_zero_surgery.{layer}.self_s" for layer in PROBE_LAYERS]
    names += [f"verify.section.{n}_s" for n in SECTIONS]
    return names


def record(name: str) -> dict:
    """Reference outputs of one full pass, refused if anything fails."""
    wl = workloads.Workload(name, 0, {})
    result = run_pass(wl.ops, {})
    if name == "verify":
        failing = [k for k, v in result.outputs.items() if not v.startswith("pass")]
        if failing:
            raise RuntimeError(f"verify rows fail: {failing}")
    if result.raised or not result.outputs:
        raise RuntimeError(f"operations failed while recording: {result.errors}")
    reference = {"commit": stamp(0)["git_commit"], "outputs": result.outputs}
    if result.stderr_first_line:
        reference["stderr_first_line"] = result.stderr_first_line
    workloads.reference_path(name).write_text(workloads.canonical(reference), encoding="utf-8")
    return reference


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def report(name: str, seed: int, seconds: float, trace: bool, m: Measurement) -> dict:
    """Print the human-readable lines and write the result file; returns
    the final JSON object."""
    info = stamp(seed)
    print(f"workload {name}  trace {int(trace)}  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for metric, (value, unit) in m.metrics.items():
        line = f"{metric:<52} {value:.6g} {unit}"
        if metric in TIMINGS:
            q = quartiles(m.samples[metric])
            line += (f" at reference speed  (raw seconds, n {q['n']}: min {q['min']:.6g}, "
                     f"q1 {q['q1']:.6g}, median {q['median']:.6g}, q3 {q['q3']:.6g})")
        print(line)
    if m.kernel_runs:
        q = quartiles(m.kernel_runs)
        print(f"{'calibration kernel':<52} median {q['median']:.6g} s, q1 {q['q1']:.6g}, q3 {q['q3']:.6g} "
              f"over {q['n']} runs (reference {refclock.REFERENCE_KERNEL_S} s)")
    print(f"{'fail_ratio':<52} {m.failed / max(m.attempted, 1):.6g}  ({m.failed} of {m.attempted})")
    for error in m.errors[:20]:
        print(f"failure: {error}", file=sys.stderr)
    out = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.metrics.items()},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    detail = {"stamp": info, "workload": name, "seconds": seconds, "trace": int(trace),
              **out, "samples": m.samples, "scaled": m.scaled,
              "kernel_runs": m.kernel_runs, "spans": m.spans}
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail) + "\n", encoding="utf-8")
    return out
