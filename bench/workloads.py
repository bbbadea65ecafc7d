"""The benchmark's workloads: fixed lists of operations on floerforge.

Each workload is one pass, a list of ``Op``s run one after another in a
single thread (a closed loop with one caller).  The seed only permutes
the order of operations and renames and reorders the generators of the
ladder's input knots, so every expected output is independent of it and
is looked up in ``reference/<workload>.json``.

- ``ladder``: K3, K5, K7, K9 from the corpus; the Whitehead tower
  Wh^1..Wh^3 of K9 (321, 1,281, 5,121 generators) built inside the pass;
  surgery at framings -1, 0, +1 on all seven knots.  A few large flat
  complexes: validation, cone assembly and homology dominate.
- ``verify``: ``run_verification()`` for all 42 rows with a fresh context.
  The only workload that reaches the end invariants, truncation, the
  triangle forcing and the cross-row cache.
- ``cli_corpus``: ``cli.main`` in-process on every corpus entry (``cfk``,
  ``surgery --n -1/0/1``, ``double --iterations 1``).  Many small calls,
  where argparse, JSON ingress, full validation and JSON output weigh.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Calls go through the modules, never through names imported here, so
# that the tracer's rebinding of a module attribute reaches them.
from floerforge import cfk, cli, surgery, verify, whitehead
from floerforge.cfk import KnotComplex
from floerforge.corpus import load_complex
from floerforge.fualgebra import FreeComplex, format_grading

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("ladder", "verify", "cli_corpus")
FRAMINGS = (-1, 0, 1)
TOWER_LEVELS = 3
CORPUS_NAMES = (
    "figure8", "j_in_y", "jprime_in_yprime", "k3", "k5", "k7", "k9",
    "t2_3", "t2_5", "t2_7", "t2_9", "trefoil", "unknot",
    "wh_k3", "wh_k5", "wh_k7", "wh_k9",
)


@dataclass
class Op:
    """One timed call.  ``render`` turns its result into the outputs
    checked against the reference, one string per key in ``keys``
    (by default the op's own name)."""

    name: str
    call: Callable[[], object]
    render: Callable[[object], dict[str, str]]
    counters: Optional[Callable[[object], dict[str, int]]] = None  # added to a trace
    stderr_first_line: Optional[Callable[[object], dict[str, str]]] = None  # recorded, not compared
    keys: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.keys is None:
            self.keys = (self.name,)


def canonical(data) -> str:
    # The same format as floerforge.corpus.canonical_json, written out here
    # so that checking outputs never enters a traced layer.
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))


def surgery_key(label: str, n: int) -> str:
    return f"surgery.{label}.{n}"


def tower_label(level: int) -> str:
    return f"Wh^{level}(K9)"


def renamed(kc: KnotComplex, rng: random.Random) -> KnotComplex:
    """The same knot complex with generators renamed and reordered."""
    order = list(kc.generators)
    rng.shuffle(order)
    perm = list(range(len(order)))
    rng.shuffle(perm)
    name = {g: f"v{perm[i]}" for i, g in enumerate(order)}
    base = FreeComplex(
        [(name[g], kc.maslov(g)) for g in order],
        {name[s]: {name[t]: p for t, p in row.items()} for s, row in kc.base.differential.items()},
    )
    flip = None if kc.flip is None else {name[a]: name[b] for a, b in kc.flip.items()}
    return KnotComplex(base, {name[g]: a for g, a in kc.alexander.items()}, flip, kc.ambient, kc.name)


def double_step(kc: KnotComplex, level: int):
    rb = cfk.reduced_basis_form(kc)
    return rb, whitehead.whitehead_double_cfk(rb, name=tower_label(level))


def render_double(key, value):
    rb, double = value
    return {key: canonical({
        "input_reduced_basis_form": [[format_grading(m), a, d] for m, a, d in rb.pairs],
        "generators": len(double.generators),
        "sha256": sha256(canonical(double.to_json())),
    })}


def render_surgery(key, result):
    return {key: canonical(result.to_json())}


class Workload:
    """Inputs made at set-up, and the operations of one pass."""

    def __init__(self, name: str, seed: int, reference: dict, levels: int = TOWER_LEVELS,
                 knots=(3, 5, 7, 9), corpus_names=CORPUS_NAMES, verify_filter=None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; use one of {WORKLOADS}")
        self.name = name
        self.levels = levels
        self.reference = reference
        self.ladder_knots = tuple(knots) if name == "ladder" else ()
        rng = random.Random(seed)
        # K9 is also the base of the tower the probe runs on.
        self.knots = {n: renamed(load_complex(f"k{n}"), rng) for n in sorted({*self.ladder_knots, 9})}
        self.corpus_names = tuple(corpus_names)
        self.verify_filter = verify_filter
        self.ops = self._ops()
        rng.shuffle(self.ops)
        if name == "ladder":
            # Tower steps depend on each other; only the surgeries are permuted.
            steps = [op for op in self.ops if op.name.startswith("double.")]
            steps.sort(key=lambda op: op.name)
            self.ops = steps + [op for op in self.ops if op not in steps]

    @property
    def probe_key(self) -> str:
        """The 0-surgery on the top of the tower (Wh^3(K9) in full runs)."""
        return surgery_key(tower_label(self.levels), 0)

    def build_tower(self) -> list[KnotComplex]:
        tower = [self.knots[9]]
        for level in range(1, self.levels + 1):
            tower.append(double_step(tower[-1], level)[1])
        return tower[1:]

    def probe_op(self, top: KnotComplex) -> Op:
        key = self.probe_key
        return Op(key, lambda: surgery.surgery_hf(top, 0), lambda r: render_surgery(key, r))

    def _ops(self) -> list[Op]:
        return getattr(self, f"_{self.name}_ops")()

    def _ladder_ops(self) -> list[Op]:
        tower: dict[int, KnotComplex] = {0: self.knots[9]}
        ops = []

        def step(level):
            if level == 1:  # drop the previous pass's tower before rebuilding
                for old in range(1, self.levels + 1):
                    tower.pop(old, None)
            rb, double = double_step(tower[level - 1], level)
            tower[level] = double
            return rb, double

        for level in range(1, self.levels + 1):
            key = f"double.{level}"
            ops.append(Op(key, lambda level=level: step(level),
                          lambda v, key=key: render_double(key, v)))
        targets = [(f"K{n}", lambda n=n: self.knots[n]) for n in self.ladder_knots]
        targets += [(tower_label(level), lambda level=level: tower[level])
                    for level in range(1, self.levels + 1)]
        for label, knot in targets:
            for n in FRAMINGS:
                key = surgery_key(label, n)
                ops.append(Op(key, lambda knot=knot, n=n: surgery.surgery_hf(knot(), n),
                              lambda r, key=key: render_surgery(key, r)))
        return ops

    def _verify_ops(self) -> list[Op]:
        wanted = self.verify_filter
        keys = tuple(k for k in self.reference.get("outputs", {})
                     if wanted is None or k.split(".")[0] == wanted)

        def render(rows):
            return {r.ident: f"{'pass' if r.passed else 'FAIL'}: {r.actual}" for r in rows}

        return [Op(f"verify {wanted or 'all'}", lambda: verify.run_verification(wanted), render, keys=keys)]

    def _cli_corpus_ops(self) -> list[Op]:
        ops = []
        for name in self.corpus_names:
            for argv in (
                ["cfk", "--complex", name],
                *(["surgery", "--complex", name, "--n", str(n)] for n in FRAMINGS),
                ["double", "--complex", name, "--iterations", "1"],
            ):
                key = " ".join(argv)
                ops.append(Op(key, lambda argv=argv: run_cli(argv),
                              lambda v, key=key: {key: f"exit={v[0]} stdout_sha256={sha256(v[1])}"},
                              lambda v: {"cli.stdout_bytes": len(v[1].encode("utf-8"))},
                              lambda v, key=key: {key: (v[2].splitlines() or [""])[0]}))
        return ops


def run_cli(argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()
