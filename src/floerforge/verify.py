"""The reproduction suite: every headline computation as a pass/fail row.

Each row recomputes one pinned output (exact equality, no tolerances)
through the public pipeline, comparing against the closed-form pattern
where one exists.  ``run_verification`` returns the rows; the command
line renders them and exits nonzero on any failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cfk import (
    KnotComplex,
    _shapes,
    builtin,
    connected_sum_knots,
    figure8,
    filtration_homology,
    hfk_hat,
    k_n,
    knot_numerics,
    reduced_basis_form,
    staircase_torus,
    unknot,
    validate_knot,
)
from .corpus import corpus_builders, corpus_dir
from .endfloer import (
    CH_MINUS,
    CH_PLUS,
    ExhaustionSpec,
    Level,
    SliceR4Spec,
    StepDescriptor,
    colimit,
    distinguish,
    he_end_sum,
    he_product_end,
    he_slice_r4,
    restrict_spec,
    s3_data,
)
from .fualgebra import FUDecomposition, _tensor, format_grading, homology_decomposition, validate_complex
from .surgery import (
    FORCED_INJECTIVE_TOP,
    FORCED_ZERO,
    exact_triangle_force,
    one_handle_stabilize,
    surgery_hf,
)
from .truncation import expected_truncated_dimensions, truncated_graded_dimensions
from .whitehead import (
    box_parameters,
    box_tower,
    hedden_hfk_double,
    negative_double_cfk,
    whitehead_double_cfk,
)

F = Fraction


@dataclass(frozen=True)
class Row:
    ident: str
    category: str
    description: str
    expected: str
    actual: str
    passed: bool


def _dec(towers, torsion=()):
    return FUDecomposition.make(towers, torsion)


def _fmt_dec(dec: FUDecomposition) -> str:
    towers = " + ".join(f"T({format_grading(t)})" for t in dec.towers) or "0"
    torsion = " + ".join(
        f"F({format_grading(g)})" + (f"^len{k}" if k > 1 else "") for g, k, c in dec.torsion for _ in range(c)
    )
    return towers + (" + " + torsion if torsion else "")


class _Context:
    """Caches the shared heavy intermediates across rows."""

    def __init__(self):
        self._cache = {}

    def get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def k_n(self, n):
        return self.get(("k", n), lambda: k_n(n))

    def wh_tower(self, n):
        """Wh(K_n) and Wh^2(K_n), positively clasped, as counted complexes."""
        return self.get(("wh", n), lambda: box_tower(reduced_basis_form(self.k_n(n)), "++", f"K{n}"))

    def closed_patterns(self, n):
        """Closed patterns of the three surgered manifolds from the box
        corner gradings of K = Wh(K_n)."""

        def build():
            ks = box_parameters(self.wh_tower(n)[0])
            item1 = _dec(
                [F(1), F(0), F(0), F(-1)],
                [(k, 1) for k in ks] + [(k - 1, 1) for k in ks],
            )
            wh_pattern = [(k - F(1, 2), 1) for k in ks for _ in range(2)] + [
                (k - F(3, 2), 1) for k in ks for _ in range(2)
            ]
            item23 = _dec([F(1, 2), F(-1, 2)], wh_pattern)
            return item1, item23

        return self.get(("formulas", n), build)

    def chain_outputs(self, n):
        """The same three outputs through the chain-level cone."""

        def build():
            k, k2 = self.wh_tower(n)
            stabilized = one_handle_stabilize(surgery_hf(k, 0))
            item2 = surgery_hf(k2, 0)
            item3 = surgery_hf(connected_sum_knots(builtin("J_in_Y"), k), -1)
            return stabilized.decomposition, item2.decomposition, item3.decomposition

        return self.get(("chain", n), build)

    def r_spec(self, n, **kw):
        return SliceR4Spec(self.k_n(n), CH_PLUS, **kw)


def _rows_zero_surgery(ctx):
    cases = [
        ("1.unknot", unknot(), _dec([F(1, 2), F(-1, 2)])),
        ("1.trefoil", staircase_torus(3, "+"), _dec([F(-3, 2), F(-1, 2)])),
        ("1.figure8", figure8(), _dec([F(1, 2), F(-1, 2)], [(F(-1, 2), 1)])),
    ]
    for ident, kc, expected in cases:
        actual = surgery_hf(kc, 0).decomposition
        yield (
            ident,
            f"0-framed output for {kc.name}",
            _fmt_dec(expected),
            _fmt_dec(actual),
        )


def _rows_companion(ctx):
    r = surgery_hf(builtin("J_in_Y"), -1)
    yield (
        "2.surgered",
        "-1-framed companion output equals the split 0-framed unknot output",
        _fmt_dec(_dec([F(1, 2), F(-1, 2)])),
        _fmt_dec(r.decomposition),
    )
    y = surgery_hf(staircase_torus(3, "+"), 0)

    def d_by_class(result, cls):
        matches = [t for t in result.d_invariants if (t - cls) % 2 == 0]
        return matches[0] if len(matches) == 1 else None

    actual = (d_by_class(y, F(-1, 2)), d_by_class(r, F(-1, 2)))
    yield (
        "2.d-invariants",
        "d at the -1/2 class is -1/2 for the ambient and the surgered manifold",
        "(-1/2, -1/2)",
        f"({format_grading(actual[0])}, {format_grading(actual[1])})",
    )


def _rows_three_manifolds(ctx):
    for n in (3, 5):
        formula1, formula23 = ctx.closed_patterns(n)
        chain1, chain2, chain3 = ctx.chain_outputs(n)
        yield (
            f"3.item1.n{n}",
            f"stabilised 0-framed output of Wh(K{n}): formula vs chain",
            _fmt_dec(formula1),
            _fmt_dec(chain1),
        )
        yield (
            f"3.item2.n{n}",
            f"0-framed output of Wh^2(K{n}): formula vs chain",
            _fmt_dec(formula23),
            _fmt_dec(chain2),
        )
        yield (
            f"3.item3.n{n}",
            f"-1-framed companion-sum output for Wh(K{n}): formula vs chain",
            _fmt_dec(formula23),
            _fmt_dec(chain3),
        )


def _rows_triangle(ctx):
    for n in (3, 5):
        chain1, chain2, chain3 = ctx.chain_outputs(n)
        force = exact_triangle_force([c.torsion_rank_table() for c in (chain1, chain2, chain3)])
        yield (
            f"4.positive.n{n}",
            f"positive-clasp triangle for Wh(K{n}) forces top injectivity",
            FORCED_INJECTIVE_TOP,
            force.verdict(0),
        )
        k = ctx.wh_tower(n)[0]
        boxes = len(box_parameters(k))
        stabilized = one_handle_stabilize(surgery_hf(k, 0))
        neg = surgery_hf(negative_double_cfk(reduced_basis_form(k)), 0)
        third = surgery_hf(
            connected_sum_knots(builtin("Jprime_in_Yprime"), k), -1
        )
        tables = [
            stabilized.hf_red(),
            neg.hf_red(),
            third.hf_red(),
        ]
        dims = tuple(sum(t.values()) for t in tables)
        yield (
            f"4.negative.ranks.n{n}",
            f"negative-clasp triangle ranks for Wh(K{n}) follow 2N, 4N, 6N",
            (2 * boxes, 4 * boxes, 6 * boxes),
            dims,
        )
        force_neg = exact_triangle_force(tables)
        yield (
            f"4.negative.n{n}",
            f"negative-clasp triangle for Wh(K{n}) forces the zero map",
            FORCED_ZERO,
            force_neg.verdict(0),
        )


def _rows_doubling(ctx):
    cases = [("figure8", figure8(), None), ("K3", ctx.k_n(3), 3), ("K5", ctx.k_n(5), 5)]
    for label, kc, n in cases:
        rb = reduced_basis_form(kc)
        doubled = whitehead_double_cfk(rb)
        g = knot_numerics(kc)["genus"]
        filtration = {i: filtration_homology(kc, i) for i in range(-g, g + 1)}
        formula = hedden_hfk_double(filtration, g)
        table = hfk_hat(doubled).total
        yield (
            f"5.hat.{label}",
            f"hat ranks of the double of {label}: box sum vs rank formula",
            sorted((format_grading(m), s, d) for (m, s), d in formula.items()),
            sorted((format_grading(m), s, d) for (m, s), d in table.items()),
        )
        max_param = max(box_parameters(doubled))
        max_reduced = hfk_hat(kc).max_reduced_maslov()
        yield (
            f"5.boxparam.{label}",
            f"maximal box corner for {label} is the maximal reduced hat grading minus one",
            format_grading(max_reduced - 1),
            format_grading(max_param),
        )
        if n is not None:
            yield (
                f"5.maxgrading.K{n}",
                f"maximal reduced hat grading of K{n}",
                n - 1,
                max_reduced,
            )


def _rows_end(ctx):
    maxima = {}
    for n in (3, 5, 7, 9):
        report = he_slice_r4(ctx.r_spec(n))
        top = report.max_nontrivial_grading
        maxima[n] = top
        entry = report.entry(top) if top is not None else None
        yield (
            f"6.max.n{n}",
            f"end invariant of the positive piece on K{n}: maximal grading n - 3",
            f"max {n - 3}, rank inf (exact)",
            (
                f"max {format_grading(top)}, rank {entry.rank} ({entry.tag})"
                if entry is not None
                else "vanishes"
            ),
        )
    yield (
        "6.distinct",
        "the four maxima are pairwise distinct",
        True,
        len(set(maxima.values())) == 4,
    )
    yield (
        "6.negative",
        "the all-negative piece vanishes",
        True,
        he_slice_r4(SliceR4Spec(ctx.k_n(3), CH_MINUS)).vanishes,
    )
    pair = [ctx.r_spec(3), ctx.r_spec(3, orientation="-")]
    yield (
        "6.sum-vanishes",
        "the piece summed with its reverse vanishes, both orientations",
        (True, True),
        (
            he_end_sum(pair).vanishes,
            he_end_sum([s.reversed() for s in pair]).vanishes,
        ),
    )
    yield (
        "6.distinguish",
        "pieces on K3 and K5 are distinct; same-knot pieces are not",
        (True, False),
        (
            distinguish(ctx.r_spec(3), ctx.r_spec(5)).distinct,
            distinguish(ctx.r_spec(3), ctx.r_spec(3, disk_label="other")).distinct,
        ),
    )


def _rows_properties(ctx):
    builders = {
        "unknot": unknot(),
        "figure8": figure8(),
        "t2_3": staircase_torus(3, "+"),
        "t2_5": staircase_torus(5, "+"),
        "j_in_y": builtin("J_in_Y"),
        "jprime": builtin("Jprime_in_Yprime"),
        "k3": ctx.k_n(3),
        "wh_k3": ctx.wh_tower(3)[0],
    }
    bad = []
    for name, kc in builders.items():
        if not validate_knot(kc).ok:
            bad.append(name)
    names, bases = sorted(builders), {name: kc.base for name, kc in builders.items()}
    for base in bases.values():  # each factor checked once, as tensor_complexes would per product
        validate_complex(base).require("tensor factor")
    for a in names:
        for b in names:
            if not validate_complex(_tensor(bases[a], bases[b])).ok:
                bad.append(f"{a}*{b}")
    yield (
        "7.valid",
        "d^2 = 0 and homogeneity on every builder and every pairwise tensor",
        "[]",
        bad,
    )
    asym = []
    for name, build in sorted(corpus_builders().items()):
        kc = build()
        if _shapes(kc)[0][0].flip is None:  # read off the split: a double is not written out
            continue
        table = hfk_hat(kc).total
        for (m, s), d in table.items():
            if table.get((m - 2 * s, -s), 0) != d:
                asym.append(name)
                break
    yield (
        "7.symmetry",
        "hat dimensions satisfy dim(m, s) = dim(m - 2s, -s) across the full corpus",
        "[]",
        asym,
    )
    euler_bad = []
    for n in (3, 5, 7, 9):
        table = hfk_hat(staircase_torus(n, "+")).total
        m = (n - 1) // 2
        coeffs = {}
        for (mas, s), d in table.items():
            coeffs[s] = coeffs.get(s, 0) + (-1) ** int(mas) * d
        if coeffs != {m - i: (-1) ** i for i in range(n)}:
            euler_bad.append(n)
    yield (
        "7.euler",
        "staircase hat Euler characteristics match the alternating coefficients",
        "[]",
        euler_bad,
    )
    trunc_bad = []
    for name, kc in builders.items():
        c = kc.base
        h = homology_decomposition(c)
        cutoff = len(c.generators) + max([p for _, _, p in c.entries()], default=0) + 1
        for cut in (cutoff, cutoff + 1):
            if truncated_graded_dimensions(c, cut) != expected_truncated_dimensions(h, cut):
                trunc_bad.append((name, cut))
    yield (
        "7.truncation",
        "decompositions reproduce truncated dims at consecutive cutoffs",
        "[]",
        trunc_bad,
    )
    corpus_bad = []
    for name in sorted(corpus_builders()):
        path = corpus_dir() / f"{name}.json"
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            kc = KnotComplex.from_json(data)
            if kc.to_json() != data:
                corpus_bad.append(name)
            elif not validate_knot(kc).ok:
                corpus_bad.append(name)
        except Exception:
            corpus_bad.append(name)
    yield (
        "7.corpus",
        "every corpus file parses, validates, and round-trips identically",
        "[]",
        corpus_bad,
    )
    rng = random.Random(2026)
    sub_bad = []
    for trial in range(3):
        gradings = [F(0), F(3, 2)]
        dims = {g: rng.randint(1, 3) for g in gradings}
        table = dict(dims)
        prefix = [
            StepDescriptor(
                kind="explicit",
                matrix={
                    g: [rng.getrandbits(dims[g]) for _ in range(dims[g])] for g in gradings
                },
            )
            for _ in range(2)
        ]
        proj = StepDescriptor(
            kind="explicit",
            matrix={
                g: [(1 << i) if rng.random() < 0.7 else 0 for i in range(dims[g])]
                for g in gradings
            },
        )
        spec = ExhaustionSpec(
            levels=tuple(Level(b1=0, module=table, label=f"L{i}") for i in range(6)),
            steps=tuple(prefix + [proj] * 3),
        )
        full = colimit(spec)
        for indices in ([0, 2, 4, 5], [1, 3, 4, 5]):
            sub = colimit(restrict_spec(spec, indices))
            if sub.table() != full.table() or sub.vanishes != full.vanishes:
                sub_bad.append((trial, tuple(indices)))
    yield (
        "7.subsequence",
        "colimits are unchanged by passing to subsequences (3 random systems)",
        "[]",
        sub_bad,
    )


def _rows_product(ctx):
    values = {}
    for n in (5, 7):
        report = he_product_end(s3_data(), ctx.r_spec(n), n)
        slice_max = he_slice_r4(ctx.r_spec(n)).max_nontrivial_grading
        values[n] = report.max_nontrivial_grading
        f_line = next((line for line in report.narrative if line.startswith("f(")), "")
        yield (
            f"8.consistency.n{n}",
            f"product end over the sphere matches the slice piece for n = {n}",
            f"max {format_grading(slice_max)}; f(S3) = -2",
            f"max {format_grading(report.max_nontrivial_grading)}; {f_line.split(' computed')[0]}",
        )
    yield (
        "8.distinct",
        "distinct n give distinct product-end maxima",
        True,
        values[5] != values[7],
    )


_SECTIONS = [
    ("1", "surgery", _rows_zero_surgery),
    ("2", "surgery", _rows_companion),
    ("3", "formulas", _rows_three_manifolds),
    ("4", "triangle", _rows_triangle),
    ("5", "double", _rows_doubling),
    ("6", "end", _rows_end),
    ("7", "property", _rows_properties),
    ("8", "product", _rows_product),
]


def run_verification(category_filter: Optional[str] = None) -> list[Row]:
    ctx = _Context()
    rows = []
    for number, category, section in _SECTIONS:
        if category_filter is not None:
            if category_filter != category and category_filter.split(".")[0] != number:
                continue
        for ident, description, expected, actual in section(ctx):  # each section's rows share its category
            row = Row(ident, category, description, str(expected), str(actual), str(expected) == str(actual))
            if category_filter and category_filter not in {row.category, row.ident}:
                if not row.ident.startswith(category_filter):
                    continue
            rows.append(row)
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = []
    width = max((len(r.ident) for r in rows), default=10)
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.ident:<{width}}  {status}  {r.description}")
        if not r.passed:
            lines.append(f"{'':<{width}}        expected: {r.expected}")
            lines.append(f"{'':<{width}}        actual:   {r.actual}")
    passed = sum(r.passed for r in rows)
    lines.append(f"{passed}/{len(rows)} checks passed")
    return "\n".join(lines)
