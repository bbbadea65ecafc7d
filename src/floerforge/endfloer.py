"""Directed systems of graded F2-vector spaces and end invariants.

An exhaustion is a list of levels (graded rank tables with their b1
bookkeeping) joined by step descriptors.  A step's cobordism shifts
gradings by half the change in b1, so no step records a shift: levels
are normalised by shifting each table down by b1/2, after which every
step has shift zero and the colimit carries an absolute grading.

Rank bookkeeping is conservative by construction: positively clasped
steps are known only to be injective on the top graded summand, so the
colimit reports an exact infinite rank in the top grading and tags
everything below as a lower bound.  Zero systems vanish.  Explicit
matrix systems are computed exactly, with stabilisation of composite
ranks required before a value is reported as exact.

A slice piece (a knot in S3 with a handle) is resolved once, in
``_resolve_piece``, the one place a doubling tower is built (as box sums),
into its report and, for a positive chain, the tower's 0-framed outputs.
An end sum sums those outputs level by level under the same positively
clasped colimit; a product end sums them with the manifold's data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from fractions import Fraction
from itertools import chain
from operator import xor
from typing import Optional, Sequence, Union

from .cfk import KnotComplex, _canonical_shapes, _reduced_basis_form, validate_knot
from .fualgebra import (FUDecomposition, _bits, _denominator, _exact, _public, _times, format_grading, gf2_rank,
                        grading, json_field)
from .surgery import (
    FORCED_INJECTIVE_TOP,
    HFPlusResult,
    _triangle_force,
    connected_sum_floer,
    one_handle_stabilize,
    surgery_hf,
)
from .whitehead import box_parameters, box_tower

F = Fraction


class InfiniteRank:
    """Marker for an infinite rank.  Its one instance is ``INFINITE``;
    callers test ``rank is INFINITE`` and never do arithmetic with it."""

    def __repr__(self):
        return "inf"


INFINITE = InfiniteRank()

EXACT = "exact"
LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class RankEntry:
    rank: object  # int or INFINITE
    tag: str = EXACT

    def to_json(self):
        return {"rank": "inf" if self.rank is INFINITE else int(self.rank), "tag": self.tag}


@dataclass(frozen=True)
class EndFloerReport:
    """Per-grading ranks with provenance, maximal grading, vanishing flag.

    ``vanishes`` is True/False when decided, None when the method gives
    no verdict.  A vanishing report carries no table and no maximum.
    """

    per_grading: tuple = ()
    max_nontrivial_grading: Optional[Fraction] = None
    vanishes: Optional[bool] = None
    narrative: tuple = ()

    def __post_init__(self):
        if self.vanishes is True and (self.per_grading or self.max_nontrivial_grading is not None):
            raise ValueError("a vanishing report must be empty")

    def entry(self, g) -> Optional[RankEntry]:
        g = grading(g)
        return next((e for h, e in self.per_grading if h == g), None)

    def signature(self):
        """Comparable exact content; None when the verdict is undecided."""
        if self.vanishes is None:
            return None
        exact_part = frozenset(
            (g, e.rank is INFINITE, e.rank if e.rank is not INFINITE else -1)
            for g, e in self.per_grading
            if e.tag == EXACT
        )
        return (self.vanishes, self.max_nontrivial_grading, exact_part)

    def to_json(self) -> dict:
        return {
            "per_grading": {
                format_grading(g): e.to_json() for g, e in self.per_grading
            },
            "max_nontrivial_grading": (
                None
                if self.max_nontrivial_grading is None
                else format_grading(self.max_nontrivial_grading)
            ),
            "vanishes": self.vanishes,
            "narrative": list(self.narrative),
        }


def _report(per_grading: dict, vanishes, narrative, q: int = 1) -> EndFloerReport:
    """The report of the ranks ``per_grading``, keyed by gradings times q, descending."""
    items = tuple((_public(x, q), per_grading[x]) for x in sorted(per_grading, reverse=True))
    max_g = None
    if vanishes is False:
        max_g = next((g for g, e in items if e.rank is INFINITE or e.rank > 0), None)
    return EndFloerReport(
        per_grading=items,
        max_nontrivial_grading=max_g,
        vanishes=vanishes,
        narrative=tuple(narrative),
    )


# ---------------------------------------------------------------------------
# exhaustion specifications


@dataclass(frozen=True)
class Level:
    b1: int
    module: dict  # grading -> rank, un-normalised
    label: str = ""


@dataclass(frozen=True)
class StepDescriptor:
    """One cobordism step of a directed system of graded vector spaces."""

    kind: str  # positive_clasp | zero | explicit
    matrix: Optional[dict] = None  # explicit: grading -> list of column bitmasks

    def __post_init__(self):
        if self.kind not in {"positive_clasp", "zero", "explicit"}:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if (self.kind == "explicit") != (self.matrix is not None):
            raise ValueError("explicit steps carry a matrix; others must not")


@dataclass(frozen=True)
class ExhaustionSpec:
    levels: tuple
    steps: tuple

    def __post_init__(self):
        if len(self.steps) != len(self.levels) - 1:
            raise ValueError("need exactly one step between consecutive levels")


def _normalized(spec: ExhaustionSpec) -> tuple[int, list[dict]]:
    """The tables of ``spec`` shifted down by b1/2, nonzero ranks only, keyed by gradings times the
    common denominator q of theirs, of each b1/2 and of the keys of the explicit matrices; and q."""
    rows = [[(_exact(g), r) for g, r in level.module.items() if r] for level in spec.levels]
    keys = [_exact(g) for step in spec.steps if step.matrix for g in step.matrix]
    q = _denominator(keys + [_public(level.b1, 2) for level in spec.levels] + [g for row in rows for g, _r in row])
    return q, [{_times(g, q) - level.b1 * q // 2: r for g, r in row} for row, level in zip(rows, spec.levels)]


# ---------------------------------------------------------------------------
# exact F2 block matrices for explicit systems


def _compose_blocks(first, then):
    """Apply ``first`` then ``then`` (both grading -> column bitmasks)."""
    out = {}
    for g, cols in first.items():
        mid = then.get(g, [])
        out[g] = [reduce(xor, (mid[i] for i in _bits(col) if i < len(mid)), 0) for col in cols]
    return out


def _materialize_step(step: StepDescriptor, src_b1: int, src_table, dst_table, q: int):
    """Blocks keyed by normalised grading times q.  Explicit matrices are stored
    against raw source gradings and are converted here."""
    if step.kind == "zero":
        return {g: [0] * r for g, r in src_table.items()}
    if step.kind == "explicit":
        blocks = {_times(_exact(g), q) - src_b1 * q // 2: list(cols) for g, cols in step.matrix.items()}
        for g, r in src_table.items():
            cols = blocks.get(g, [])
            if len(cols) != r:
                raise ValueError(f"explicit block at {format_grading(_public(g, q))} has wrong width")
            height = dst_table.get(g, 0)
            if any(c >> height for c in cols):
                raise ValueError(f"explicit block at {format_grading(_public(g, q))} has wrong height")
        for g in blocks:
            if blocks[g] and g not in src_table:
                raise ValueError(f"explicit block at unused grading {format_grading(_public(g, q))}")
        return blocks
    raise ValueError(f"step kind {step.kind!r} has no matrix form")


def _composer(spec: ExhaustionSpec, tables, q: int):
    """Materialise (and so check) every step, then return ``composite(i,
    j)``: the blocks of the map from level i to level j."""
    blocks = [_materialize_step(step, spec.levels[i].b1, tables[i], tables[i + 1], q)
              for i, step in enumerate(spec.steps)]
    identities = [{g: [1 << k for k in range(r)] for g, r in table.items()} for table in tables]
    return lambda i, j: reduce(_compose_blocks, blocks[i:j], identities[i])


def colimit(spec: ExhaustionSpec) -> EndFloerReport:
    """Colimit of the normalised directed system.

    - all steps zero: vanishes;
    - positively clasped towers: exact infinite rank in the (common) top
      grading, lower bounds below;
    - explicit-matrix systems: stabilised image ranks of composites, exact,
      requiring rank agreement over the tail of the last three levels;
      otherwise the system is reported as undetermined, never guessed;
    - any other mix of kinds: undetermined.
    """
    q, tables = _normalized(spec)
    kinds = {s.kind for s in spec.steps}
    narrative = _system([l.label for l in spec.levels])

    if not spec.steps:
        raise ValueError("a directed system needs at least two levels")

    if kinds == {"zero"}:
        narrative.append("all step maps vanish, so the direct limit is zero")
        return _report({}, True, narrative)

    if kinds == {"positive_clasp"}:
        return _clasped(tables, q, narrative)

    if kinds <= {"explicit", "zero"}:
        if len(tables) < 3:
            narrative.append("too few levels to certify stabilisation")
            return _report({}, None, narrative)
        composite = _composer(spec, tables, q)
        a, b, c = len(tables) - 3, len(tables) - 2, len(tables) - 1
        maps = composite(a, b), composite(a, c), composite(b, c)
        per = {}
        for g in sorted(set().union(*tables)):
            r_ab, r_ac, r_bc = (gf2_rank(m.get(g, [])) for m in maps)
            if not (r_ab == r_ac == r_bc):
                narrative.append(
                    f"composite ranks at grading {format_grading(_public(g, q))} do not stabilise"
                )
                return _report({}, None, narrative)
            if r_ac:
                per[g] = RankEntry(r_ac, EXACT)
        narrative.append("composite ranks stabilised over the final three levels")
        return _report(per, not per, narrative, q)

    narrative.append("mixed step kinds; no colimit rule applies")
    return _report({}, None, narrative)


def _system(labels) -> list:
    """The narrative of a directed system with levels ``labels``, so far."""
    return [f"{len(labels)} levels: " + ", ".join(label or "?" for label in labels)]


def _clasped(tables: list, q: int, narrative: list) -> EndFloerReport:
    """:func:`colimit` of a positively clasped system of normalised ``tables`` on gradings times q."""
    tops = [max(t) if t else None for t in tables]
    if any(t is None for t in tops) or len(set(tops)) != 1:
        raise ValueError("positively clasped system needs a common top grading")
    top = tops[0]
    top_ranks = [t[top] for t in tables]
    if any(b < a for a, b in zip(top_ranks, top_ranks[1:])):
        raise ValueError("top ranks must be nondecreasing under injective steps")
    if top_ranks[-1] > top_ranks[0]:
        top_entry = RankEntry(INFINITE, EXACT)
        narrative.append(
            "top-summand injectivity compounds: ranks "
            + ", ".join(str(r) for r in top_ranks)
            + " at grading "
            + format_grading(_public(top, q))
        )
    else:
        top_entry = RankEntry(top_ranks[-1], EXACT)
        narrative.append("top ranks stable under injective steps")
    per = {top: top_entry}
    for g in tables[-1]:
        if g < top:
            per[g] = RankEntry(0, LOWER_BOUND)
    narrative.append("ranks below the top band are lower bounds only")
    return _report(per, False, narrative, q)


def _reduced_tables(results, b1: int, *extra) -> tuple[int, list[dict]]:
    """q and the torsion rank tables of ``results`` less b1/2, on gradings times q: theirs, b1/2 and ``extra``."""
    decs = [r.decomposition for r in results]
    q = _denominator(chain([_public(b1, 2), *extra], *(d._gradings() for d in decs)))
    return q, [{x - b1 * q // 2: c for x, c in d._torsion_ranks(q).items()} for d in decs]


def restrict_spec(spec: ExhaustionSpec, indices: Sequence[int]) -> ExhaustionSpec:
    """Subsequence of levels with composed explicit steps."""
    idx = list(indices)
    if sorted(idx) != idx or len(idx) < 2:
        raise ValueError("indices must be increasing and at least two")
    q, tables = _normalized(spec)
    composite = _composer(spec, tables, q)  # each matrix is stored against un-normalised source gradings
    steps = [StepDescriptor("explicit", {_public(g + spec.levels[a].b1 * q // 2, q): cols
                                         for g, cols in composite(a, b).items()}) for a, b in zip(idx, idx[1:])]
    return ExhaustionSpec(tuple(spec.levels[i] for i in idx), tuple(steps))


# ---------------------------------------------------------------------------
# slice-disk-plus-handle ends


@dataclass(frozen=True)
class CassonHandle:
    """Closed taxonomy of handle descriptors as signed chain summaries."""

    kind: str
    signs: tuple = ()  # finite mixed prefix, entries "+"/"-"
    tail: str = ""     # tail sign for the finite_mixed kind

    KINDS = (
        "all_positive_chain",
        "all_negative_chain",
        "finite_mixed_then_one_sign",
        "has_infinite_positive_chain",
        "has_infinite_pos_and_neg_chain",
        "undetermined",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown handle kind {self.kind!r}")
        if self.kind == "finite_mixed_then_one_sign":
            if self.tail not in ("+", "-") or not self.signs or any(s not in ("+", "-") for s in self.signs):
                raise ValueError("finite mixed handles need a sign prefix and a tail sign")

    def mirror(self) -> "CassonHandle":
        flip = {"+": "-", "-": "+"}
        if self.kind == "all_positive_chain":
            return CassonHandle("all_negative_chain")
        if self.kind == "all_negative_chain":
            return CassonHandle("all_positive_chain")
        if self.kind == "finite_mixed_then_one_sign":
            return CassonHandle(
                self.kind,
                tuple(flip[s] for s in self.signs),
                flip[self.tail],
            )
        if self.kind == "has_infinite_pos_and_neg_chain":
            return self
        # Mirroring an infinite positive chain gives an infinite negative
        # chain, which is outside the taxonomy: no verdict either way.
        return CassonHandle("undetermined")

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise TypeError(f"handle is not a string or a JSON object: {data!r}")
        if not isinstance(signs := data.get("signs", []), list):
            raise TypeError(f"signs is not a JSON list: {signs!r}")
        return cls(json_field(data, "kind", "the handle"), tuple(signs), data.get("tail", ""))


CH_PLUS = CassonHandle("all_positive_chain")
CH_MINUS = CassonHandle("all_negative_chain")
CH_STAR = CassonHandle("has_infinite_pos_and_neg_chain")


@dataclass(frozen=True)
class SliceR4Spec:
    """A slice-disk complement capped by a handle descriptor."""

    knot: KnotComplex
    handle: CassonHandle
    orientation: str = "+"
    disk_label: str = "standard"

    def __post_init__(self):
        if self.orientation not in {"+", "-"}:
            raise ValueError("orientation must be '+' or '-'")

    def reversed(self) -> "SliceR4Spec":
        return replace(self, orientation="-" if self.orientation == "+" else "+")


def _resolve_piece(spec: SliceR4Spec, levels: int):
    """The report of ``he_slice_r4`` and, for a positive chain, its checked
    0-framed level results as a tuple (None for every other verdict): the
    knot is validated at every call, and :func:`_resolved` kept on it
    (``_pieces``) per handle, orientation and ``levels`` once it succeeds."""
    if levels < 2:
        raise ValueError("need at least two levels")
    if not spec.knot.ambient.is_sphere:
        raise ValueError(f"a slice piece needs a knot in S3, not in {spec.knot.ambient.name}")
    validate_knot(spec.knot).require("knot complex")
    if (pieces := spec.knot._pieces) is None:
        pieces = spec.knot._pieces = {}
    if (key := (spec.handle, spec.orientation, levels)) not in pieces:
        pieces[key] = _resolved(spec, levels)
    return pieces[key]


def _resolved(spec: SliceR4Spec, levels: int):
    """:func:`_resolve_piece` of a valid knot over S3, canonically reduced once per summand shape;
    its triviality, box corners and reduced pairing (mirrored in orientation "-") are read from that
    reduction.  The one doubling tower runs through a finite mixed prefix, which is absorbed into the
    knot, and on along a positive tail for ``levels`` more doubles."""
    shapes = _canonical_shapes(spec.knot)
    handle = spec.handle if spec.orientation == "+" else spec.handle.mirror()

    if sum(len(reduced.generators) * count for reduced, copies in shapes for _offset, count in copies) == 1:
        return _report({}, True, ["trivial knot: the end is standard and the invariant vanishes"]), None

    if handle.kind == "undetermined":
        return _report({}, None, ["handle descriptor outside the computable taxonomy"]), None

    if handle.kind in {"has_infinite_positive_chain", "has_infinite_pos_and_neg_chain"}:
        try:  # a mirror negates the corners and keeps x at (0, 0): the test is orientation-blind
            box_parameters(spec.knot)
        except ValueError:
            note = "infinite-chain verdicts need a doubled knot (one split generator plus boxes)"
            return _report({}, None, [note]), None
        note = ["nonvanishing: top-summand classes persist through the plugged"
                " positive chain; no full table is computed"]
        if handle.kind == "has_infinite_pos_and_neg_chain":
            note.append("both orientations are nonvanishing")
        return _report({}, False, note), None

    prefix, lead = "", ()
    if handle.kind == "finite_mixed_then_one_sign":
        prefix, handle = "".join(handle.signs), CH_PLUS if handle.tail == "+" else CH_MINUS
        lead = ("finite mixed prefix absorbed into the knot by doubling",)
    positive = handle.kind == "all_positive_chain"
    rb = _reduced_basis_form(shapes, spec.orientation == "-") if prefix or positive else None  # doubling needs tau = 0

    if not positive:
        exhaustion = ExhaustionSpec(tuple(Level(1, {0: 0}, f"level {i + 1}") for i in range(levels)),
                                    tuple(StepDescriptor("zero") for _ in range(levels - 1)))
        report = colimit(exhaustion)
        narrative = lead + ("negatively clasped doubling cobordisms are zero maps",) + report.narrative
        return replace(report, narrative=narrative), None

    # The top reduced hat grading of the knot is that of its highest paired y (the first);
    # a "-" double raises it by one, a "+" double keeps it: a level's top less 1/2, normalised.
    results = tuple(surgery_hf(level, 0) for level in box_tower(rb, prefix + "+" * levels)[len(prefix):])
    q, tables = _reduced_tables(results, 1, rb.pairs[0][0])
    for i, (r, table) in enumerate(zip(results, tables)):
        if not table or max(table) != _times(rb.pairs[0][0], q) + (prefix.count("-") - 2) * q:
            raise ValueError("doubling tower produced an unexpected top grading; "
                             f"level {i + 1} reduced table {r.hf_red()}")
    report = _clasped(tables, q, _system([f"S0(Wh^{i + 1})" for i in range(levels)]))
    narrative = lead + ("positive doubling tower; levels are reduced 0-framed outputs",) + report.narrative
    return replace(report, narrative=narrative), results


def he_slice_r4(spec: SliceR4Spec, levels: int = 3) -> EndFloerReport:
    """End invariant of a slice-disk complement capped by the handle.

    The level system starts at the first double; each level is the reduced
    0-framed output of the next iterated double normalised by b1 = 1.
    Positively clasped chains compound top-summand injectivity; negative
    chains give zero maps; mixed finite prefixes are absorbed into the
    knot by doubling before delegating to the all-one-sign cases.
    """
    return _resolve_piece(spec, levels)[0]


EndSummand = Union[SliceR4Spec, Sequence[SliceR4Spec]]


def _as_spec_list(operand: EndSummand):
    if isinstance(operand, SliceR4Spec):
        return [operand]
    return list(operand)


def he_end_sum(specs: EndSummand, levels: int = 2) -> EndFloerReport:
    """End invariant of an end-sum of slice pieces, by level-wise sums.

    Each piece is resolved as in ``he_slice_r4`` (one piece gives its
    report).  An undetermined piece, then a vanishing one, decides the
    sum; a nonvanishing piece without levels (an infinite chain) leaves it
    undetermined.  Otherwise the level outputs are summed by the ring
    Kunneth rule, normalised by b1 = number of pieces, and joined by
    positively clasped steps in ``colimit``.
    """
    specs = _as_spec_list(specs)
    if not specs:
        raise ValueError("empty end-sum")
    resolved = [_resolve_piece(s, levels) for s in specs]
    if len(specs) == 1:
        return resolved[0][0]
    if any(r.vanishes is None for r, _ in resolved):
        return _report({}, None, ["an operand is undetermined"])
    if any(r.vanishes for r, _ in resolved):
        return _report({}, True, ["a vanishing factor makes every summed level map zero"])
    if any(results is None for _, results in resolved):
        return _report({}, None, ["a nonvanishing operand has no level table to sum"])
    sums = [reduce(connected_sum_floer, row) for row in zip(*(results for _, results in resolved))]
    q, tables = _reduced_tables(sums, len(specs))
    report = _clasped(tables, q, _system([f"sum {i + 1}" for i in range(len(sums))]))
    lead = f"{len(specs)}-fold end-sum; level reduced parts summed by the ring rule"
    return replace(report, narrative=(lead,) + report.narrative)


# ---------------------------------------------------------------------------
# product ends


@dataclass(frozen=True)
class ClosedManifoldData:
    """Torsion-summed plus-flavoured data of a closed 3-manifold."""

    hf_plus: HFPlusResult
    b1: int
    name: str = ""


def s3_data() -> ClosedManifoldData:
    return ClosedManifoldData(
        HFPlusResult(FUDecomposition.make([F(0)], [])), b1=0, name="S3"
    )


def s1xs2_data() -> ClosedManifoldData:
    return ClosedManifoldData(
        HFPlusResult(FUDecomposition.make([F(1, 2), F(-1, 2)], [])), b1=1, name="S1xS2"
    )


class InconsistentProductEnd(ValueError):
    """The summed level tops of a product end miss n + f - 1 - b1/2."""


def he_product_end(m: ClosedManifoldData, r: SliceR4Spec, n: int, levels: int = 2) -> EndFloerReport:
    """End invariant of the product end summed with a positive slice piece.

    The ``levels + 1`` surgered doubles of ``_resolve_piece`` are summed
    with the manifold data; the dominance conditions (the summand from the doubling tower must own
    the top grading, certified through the forced triangle) are checked
    numerically level by level.  The constant f with level-one top equal
    to n + f is computed, never looked up.
    """
    handle = r.handle if r.orientation == "+" else r.handle.mirror()
    if handle.kind != "all_positive_chain":
        raise ValueError("product ends are computed for positive-chain pieces")
    results = _resolve_piece(r, levels + 1)[1]
    if results is None:
        return _report({}, True, ["trivial knot: the summed end is standard"])
    m_towers = HFPlusResult(FUDecomposition.make(m.hf_plus.decomposition.towers, []))
    m_red_only = HFPlusResult(FUDecomposition(torsion=m.hf_plus.decomposition.torsion))
    # Every grading below is times q (fualgebra._times), with 1/2: a sum's gradings add its factors'.
    gradings = chain([_public(1, 2)], *(r.decomposition._gradings() for r in (m.hf_plus, *results)))
    q, tables = _reduced_tables([connected_sum_floer(m_towers, r) for r in results[:levels]], m.b1 + 1, *gradings)

    def highest(result: HFPlusResult):
        """The top of the reduced table of ``result``, times q; None for no torsion."""
        return max((_times(top, q) for top, _k, _c in result.decomposition.torsion), default=None)

    def dominated_top(target: HFPlusResult, label: str, level_index: int):
        """Top grading of the summed reduced part, provided the term from
        the doubling tower strictly dominates every term involving the
        manifold's own reduced part; None reports the failed condition."""
        t_pure = highest(connected_sum_floer(m_towers, target))
        if t_pure is None:
            return None, f"condition {label} fails at level {level_index}: no tower term"
        if m.hf_plus.decomposition.torsion:
            t_other = highest(connected_sum_floer(m_red_only, target))
            if t_other is not None and t_other >= t_pure:
                return None, (
                    f"condition {label} fails at level {level_index}: the manifold's "
                    f"reduced part reaches grading {format_grading(_public(t_other, q))} >= "
                    f"{format_grading(_public(t_pure, q))} (n too small)"
                )
        return t_pure, ""

    f_value = None
    for i in range(levels):
        level = results[i]
        stabilized = one_handle_stabilize(level)
        next_level = results[i + 1]
        mod1 = connected_sum_floer(m.hf_plus, stabilized)
        mod2 = connected_sum_floer(m.hf_plus, next_level)
        # The remaining triangle corner carries the same graded content as
        # mod2; the chain-level check of that identity lives in the
        # verification suite.
        mod3 = mod2
        top1, why1 = dominated_top(stabilized, "(1)", i + 1)
        if top1 is None:
            return _report({}, None, ["dominance check: " + why1])
        top3, why3 = dominated_top(next_level, "(2)", i + 1)
        if top3 is None:
            return _report({}, None, ["dominance check: " + why3])
        force = _triangle_force([mod.decomposition._torsion_ranks(q) for mod in (mod1, mod2, mod3)], q)
        if force.verdict(0) != FORCED_INJECTIVE_TOP:
            return _report({}, None, [f"dominance fails at level {i + 1}: the triangle does not force "
                                      "top-summand injectivity (n too small for this manifold)"])
        if f_value is None:
            f_value = top1 - n * q
        elif top1 - n * q != f_value:
            return _report({}, None, [f"level tops moved: f would be {_public(top1 - n * q, q)} at level {i + 1}"])
        if top3 != n * q + f_value - q // 2:
            return _report({}, None, [f"dominance fails at level {i + 1}: third-corner top "
                                      f"{format_grading(_public(top3, q))} != n + f - 1/2"])
    tops = [max(table) for table in tables]
    if len(set(tops)) != 1:
        return _report({}, None, [f"summed level tops did not stabilise: {[_public(t, q) for t in tops]}"])
    top = tops[0]
    if top != n * q + f_value - q - m.b1 * q // 2:
        raise InconsistentProductEnd(f"normalised top {format_grading(_public(top, q))} disagrees with "
                                     "n + f - 1 - b1/2")
    return _report({top: RankEntry(INFINITE, EXACT)}, False, [
        f"f({m.name or 'M'}) = {format_grading(_public(f_value, q))} computed from the level sums",
        "maximal grading n + f - 1 - b1/2 with infinite rank"], q)


# ---------------------------------------------------------------------------
# distinguishing verdicts


@dataclass(frozen=True)
class DistinguishVerdict:
    distinct: bool
    witness: str

    def to_json(self):
        return {"distinct": self.distinct, "witness": self.witness}


def _describe(sig) -> str:
    if sig is None:
        return "undetermined"
    vanishes, max_g, _exact = sig
    if vanishes:
        return "vanishes"
    if max_g is None:
        return "nonvanishing (no table)"
    return f"max grading {format_grading(max_g)}"


def _decisively_different(sig1, sig2) -> bool:
    """True when two report signatures cannot describe the same invariant.

    Undetermined signatures witness nothing.  A nonvanishing report with
    no table is compatible with every nonvanishing report.
    """
    if sig1 is None or sig2 is None:
        return False
    vanishes1, max1, exact1 = sig1
    vanishes2, max2, exact2 = sig2
    if vanishes1 != vanishes2:
        return True
    if vanishes1:
        return False
    if max1 is not None and max2 is not None and max1 != max2:
        return True
    if exact1 and exact2 and exact1 != exact2:
        return True
    return False


def distinguish(a: EndSummand, b: EndSummand, levels: int = 3) -> DistinguishVerdict:
    """Compare end invariants of two pieces under both orientations.

    Distinct means no orientation pairing can match: both the preserved
    pairing (a+, b+), (a-, b-) and the reversed pairing (a+, b-), (a-, b+)
    contain a decisively different pair.  Undetermined operands never
    witness distinctness.
    """
    a, b = _as_spec_list(a), _as_spec_list(b)
    sig_a = he_end_sum(a, levels).signature()
    sig_b = he_end_sum(b, levels).signature()
    sig_a_rev = he_end_sum([s.reversed() for s in a], levels).signature()
    sig_b_rev = he_end_sum([s.reversed() for s in b], levels).signature()
    preserved_ok = not _decisively_different(sig_a, sig_b) and not _decisively_different(
        sig_a_rev, sig_b_rev
    )
    reversed_ok = not _decisively_different(sig_a, sig_b_rev) and not _decisively_different(
        sig_a_rev, sig_b
    )
    if preserved_ok or reversed_ok:
        if None in (sig_a, sig_b, sig_a_rev, sig_b_rev):
            return DistinguishVerdict(
                False, "indistinguishable_by_this_invariant: an operand is undetermined"
            )
        return DistinguishVerdict(
            False, "indistinguishable_by_this_invariant: end invariants agree"
        )
    return DistinguishVerdict(
        True,
        "distinct: "
        f"one end has {_describe(sig_a)} / reversed {_describe(sig_a_rev)}, "
        f"the other {_describe(sig_b)} / reversed {_describe(sig_b_rev)}",
    )
