"""Span tracing of floerforge from outside the package.

While a ``Tracer`` is entered, each public function named in ``LAYERS`` is
rebound, in every ``floerforge`` module that imported it, to a wrapper
that records one span per call: name, start, end and parent.  Leaving the
``with`` block puts the original functions back.  Nothing under ``src/``
is edited.  A call through a reference kept elsewhere, such as in a dict
or a default argument, would go unrecorded; floerforge has none today.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so the children of a span are
disjoint intervals inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _count_gens_in(tracer, name, args, result, parent):
    tracer.add(f"{name}.gens_in", len(args[0].generators))


def _count_repeats(tracer, name, args, result, parent):
    # Identity is only meaningful while the object is alive, so the
    # tracer holds a reference to everything it has seen this pass.
    seen = tracer.seen.setdefault(name, {})
    obj = args[0]
    if id(obj) in seen:
        tracer.add(f"{name}.repeat_calls")
    else:
        seen[id(obj)] = obj


def _count_validate_knot(tracer, name, args, result, parent):
    _count_gens_in(tracer, name, args, result, parent)
    _count_repeats(tracer, name, args, result, parent)


def _count_cone_gens(tracer, name, args, result, parent):
    tracer.add("surgery.cone_gens", len(result.generators))


_DOUBLES = ("whitehead.whitehead_double_cfk", "whitehead.negative_double_cfk")


def _count_double_out(tracer, name, args, result, parent):
    # negative_double_cfk builds through whitehead_double_cfk; count the
    # outermost double only.
    if parent < 0 or tracer.spans[parent][0] not in _DOUBLES:
        tracer.add("whitehead.out_gens", len(result.generators))


# (module, attribute path, hook run after each call).  Every layer reports
# ``<module>.<path>.self_s`` and ``.calls``; hooks add the counters below.
LAYERS = (
    ("cfk", "validate_knot", _count_validate_knot),
    ("fualgebra", "validate_complex", _count_repeats),
    ("fualgebra", "homology_decomposition", _count_gens_in),
    ("fualgebra", "tensor_complexes", None),
    ("surgery", "surgery_hf", None),
    ("surgery", "build_cone", None),
    ("surgery", "MappingCone.total_complex", _count_cone_gens),
    ("surgery", "connected_sum_floer", None),
    ("cfk", "reduced_basis_form", None),
    ("cfk", "knot_numerics", None),
    ("cfk", "hfk_hat", None),
    ("cfk", "reduce_canonical", None),
    ("cfk", "mirror_knot", None),
    ("cfk", "connected_sum_knots", None),
    ("whitehead", "whitehead_double_cfk", _count_double_out),
    ("whitehead", "negative_double_cfk", _count_double_out),
    ("whitehead", "box_parameters", None),
    ("endfloer", "he_slice_r4", None),
    ("endfloer", "he_product_end", None),
    ("endfloer", "he_end_sum", None),
    ("endfloer", "colimit", None),
    ("endfloer", "distinguish", None),
    ("truncation", "truncated_graded_dimensions", None),
    ("corpus", "load_complex", None),
    ("corpus", "canonical_json", None),
    ("cli", "main", None),
)

LAYER_NAMES = tuple(f"{mod}.{path}" for mod, path, _ in LAYERS)

COUNTERS = (
    "cfk.validate_knot.gens_in",
    "cfk.validate_knot.repeat_calls",
    "fualgebra.validate_complex.repeat_calls",
    "fualgebra.homology_decomposition.gens_in",
    "surgery.cone_gens",
    "whitehead.out_gens",
    "cli.stdout_bytes",
)


class Tracer:
    """Records spans and counters for the calls made while it is entered."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.seen: dict[str, dict] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def add(self, counter: str, n: int = 1):
        self.counts[counter] = self.counts.get(counter, 0) + n

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; the harness marks each operation with one."""
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            self.add(f"{name}.calls")
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, name, args, result, parent)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "floerforge" or key.startswith("floerforge."))]
        try:
            for mod, path, hook in LAYERS:
                owner = sys.modules[f"floerforge.{mod}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{mod}.{path}", original, hook)
                holders = [owner] if outer else [m for m in modules if vars(m).get(attr) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)
        return False

    def self_times(self, root: int = -1) -> dict[str, float]:
        """Total self time per span name, over all spans or the subtree of ``root``."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        inside = [root < 0] * len(self.spans)
        if root >= 0:
            inside[root] = True
            for i in range(root + 1, len(self.spans)):
                parent = self.spans[i][3]
                inside[i] = parent >= 0 and inside[parent]
        totals: dict[str, float] = {}
        for i, (name, *_rest) in enumerate(self.spans):
            if inside[i]:
                totals[name] = totals.get(name, 0.0) + own[i]
        return totals

    def find(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer, plus the counters."""
        own = self.self_times()
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
            out[f"{name}.calls"] = (self.counts.get(f"{name}.calls", 0), "count")
        for name in COUNTERS:
            out[name] = (self.counts.get(name, 0), "count")
        return out
