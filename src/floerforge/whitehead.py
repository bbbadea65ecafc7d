"""Whitehead doubling at the level of complexes.

Doubling a knot with tau = 0 and reduced pairing (m_j, A_j, d_j) gives
the genus-one complex x + sum_j B[m_j - 1]^(2 d_j); the negative-clasp
double is the mirror of the double of the mirror.  The hat-level rank
formula for doubles is evaluated independently, term by term with its
formal negative corrections, and the two must agree (tested).
A :class:`BoxSum` keeps a double as box corners with multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cfk import (
    KnotComplex,
    ReducedBasisForm,
    box,
    direct_sum,
    mirror_knot,
    reduce_canonical,
    reduced_basis_form,
    unknot,
)
from .fualgebra import grading
from .surgery import HFPlusResult, _summed_cones


class FormalRankError(ValueError):
    """A final hat-rank table came out negative: invalid input data."""


def hedden_hfk_double(filtration, g: int) -> dict:
    """Hat ranks of the untwisted positive double from filtration data.

    ``filtration`` maps each level i in [-g, g] to a graded dimension
    table of the sub-level homology.  The three-case formula contributes,
    at clasp gradings s = 1, 0, -1, twice the level homologies shifted up,
    four times unshifted, and twice shifted down, against formal
    corrections -(2g+2), -(4g+3), -(2g+2) at gradings 1, 0, -1.
    Intermediate values may be negative; the final table must not be.
    """
    g = int(g)
    table: dict[tuple[Fraction, int], int] = {}

    def add(m, s, n):
        key = (grading(m), s)
        table[key] = table.get(key, 0) + n

    add(1, 1, -(2 * g + 2))
    add(0, 0, -(4 * g + 3))
    add(-1, -1, -(2 * g + 2))
    for i in range(-g, g + 1):
        dims = filtration.get(i, {})
        for m, n in dims.items():
            add(grading(m) + 1, 1, 2 * n)
            add(grading(m), 0, 4 * n)
            add(grading(m) - 1, -1, 2 * n)
    negatives = {k: v for k, v in table.items() if v < 0}
    if negatives:
        raise FormalRankError(f"negative final ranks at {sorted(negatives)}")
    return {k: v for k, v in table.items() if v}


def whitehead_double_cfk(rb: ReducedBasisForm, name: str = "") -> KnotComplex:
    """x + sum of 2 d_j boxes B[m_j - 1] per reduced pair.

    The trivial knot (empty pair list) has no box content and is
    rejected; doubling it does not produce a genus-one complex.
    """
    if not rb.pairs:
        raise ValueError("doubling needs a nontrivial knot (no reduced pairs)")
    parts = [unknot()]
    for m, _a, d in rb.pairs:
        parts.extend(box(m - 1) for _ in range(2 * d))
    return direct_sum(parts, name=name or "Wh")


def negative_double_cfk(rb: ReducedBasisForm, name: str = "") -> KnotComplex:
    """Mirror of the positive double of the mirrored pairing."""
    if not rb.pairs:
        raise ValueError("doubling needs a nontrivial knot (no reduced pairs)")
    doubled = whitehead_double_cfk(rb.mirror())
    out = mirror_knot(doubled)
    out.name = name or "Wh-"
    return out


def double_tower(kc: KnotComplex, signs) -> list[KnotComplex]:
    """Iterated doubles, one level per sign in ``signs`` ("+" or "-").

    Level i is named ``Wh^i(<name>)``, or ``Wh^i`` when ``kc`` has no name.
    """
    tower = []
    current = kc
    for i, sign in enumerate(signs, start=1):
        build = whitehead_double_cfk if sign == "+" else negative_double_cfk
        current = build(reduced_basis_form(current),
                        name=f"Wh^{i}({kc.name})" if kc.name else f"Wh^{i}")
        tower.append(current)
    return tower


@dataclass(frozen=True)
class BoxSum:
    """Normal form of a double: x at (0, 0) plus the boxes ``box(k)``, kept
    as ``(corner k, multiplicity)`` pairs, k descending (Hedden).

    A box B[k] has reduced pairs (k + 1, 1, 1) and (k, 0, 1), so a positive
    double takes B[k]^c to B[k]^2c + B[k - 1]^2c, a negative one (through
    the mirror, k -> -k) to B[k]^2c + B[k + 1]^2c.
    """

    corners: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def doubling(pairs, sign: str = "+") -> "BoxSum":
        """The double of a knot from its reduced pairs (m, A, d), given as
        ``(m, d, count)``: 2 d boxes B[m - 1] per pair, or the mirror of the
        double of the mirrored pairs (1 - m, d - A, d)."""
        counts: dict = {}
        for m, d, c in pairs:
            corner = -m if sign == "-" else m - 1
            counts[corner] = counts.get(corner, 0) + 2 * d * c
        if not counts:
            raise ValueError("doubling needs a nontrivial knot (no reduced pairs)")
        out = BoxSum(tuple(sorted(counts.items(), reverse=True)))
        return out.mirror() if sign == "-" else out

    def mirror(self) -> "BoxSum":
        return BoxSum(tuple((-k, c) for k, c in reversed(self.corners)))

    def max_reduced_maslov(self) -> Fraction:
        return self.corners[0][0] + 1

    def surgery_hf(self, n: int) -> HFPlusResult:
        """``surgery_hf`` of the expanded complex through the same per-shape
        cones (window 1, the genus): the unknot at offset 0 and ``box(0)``
        at every corner."""
        return _summed_cones([(unknot(), [(Fraction(0), 1)]), (box(0), list(self.corners))], n, 1)


def box_tower(kc: KnotComplex, signs) -> list[BoxSum]:
    """The levels of ``double_tower(kc, signs)`` as box sums; no complex is
    built beyond the reduced pairing of ``kc``."""
    tower: list[BoxSum] = []
    for sign in signs:
        pairs = ([(m, d, 1) for m, _a, d in reduced_basis_form(kc).pairs] if not tower else
                 [p for k, c in tower[-1].corners for p in ((k + 1, 1, c), (k, 1, c))])
        tower.append(BoxSum.doubling(pairs, sign))
    return tower


def box_parameters(kc: KnotComplex) -> list[Fraction]:
    """Corner gradings of the box summands of a reduced x + boxes complex.

    Raises when the complex is not, after canonical reduction, a direct
    sum of one generator at (0, 0) and 1x1 boxes.
    """
    reduced = reduce_canonical(kc)
    remaining = set(reduced.generators)
    diff = reduced.base.differential
    params: list[Fraction] = []
    x_seen = False
    # Box corners are the generators with two outgoing arrows.
    for a in sorted(remaining):
        row = diff.get(a, {})
        if len(row) != 2:
            continue
        powered = [t for t, p in row.items() if p == 1]
        plain = [t for t, p in row.items() if p == 0]
        if len(powered) != 1 or len(plain) != 1:
            raise ValueError(f"generator {a} is not a box corner")
        b, c = powered[0], plain[0]
        d_row = diff.get(b, {})
        if len(d_row) != 1 or list(d_row.values()) != [0]:
            raise ValueError(f"box at {a} has a malformed vertical edge")
        d = next(iter(d_row))
        if diff.get(c, {}) != {d: 1}:
            raise ValueError(f"box at {a} has a malformed horizontal edge")
        if reduced.alexander[a] != 0 or reduced.alexander[d] != 0:
            raise ValueError(f"box at {a} is Alexander-offset")
        params.append(reduced.maslov(a))
        remaining -= {a, b, c, d}
    for g in sorted(remaining):
        if diff.get(g):
            raise ValueError(f"leftover generator {g} has a differential")
        if reduced.maslov(g) != 0 or reduced.alexander[g] != 0:
            raise ValueError(f"leftover generator {g} is not at (0, 0)")
        if x_seen:
            raise ValueError("more than one split generator")
        x_seen = True
    if not x_seen:
        raise ValueError("no split generator at (0, 0)")
    return sorted(params, reverse=True)


def is_box_sum(kc: KnotComplex) -> bool:
    try:
        box_parameters(kc)
    except ValueError:
        return False
    return True

