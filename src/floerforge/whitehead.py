"""Whitehead doubling at the level of complexes.

Doubling a knot with tau = 0 and reduced pairing (m_j, A_j, d_j) gives
the genus-one complex x + sum_j B[m_j - 1]^(2 d_j); the negative-clasp
double is the mirror of the double of the mirror.  A double is a complex
kept as its box corners with multiplicities (:func:`box_tower`), and written
out flat only when read.  The hat-level rank formula for doubles is evaluated
independently, term by term with its formal negative corrections, and the
two must agree (tested).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .cfk import Ambient, KnotComplex, ReducedBasisForm, _canonical_shapes, _CountedComplex, _normal_forms
from .fualgebra import _denominator, _exact, _public, _times


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
    levels = [[(_exact(m), n) for m, n in filtration.get(i, {}).items()] for i in range(-g, g + 1)]
    q = _denominator(m for dims in levels for m, _n in dims)
    table = Counter({(q, 1): -(2 * g + 2), (0, 0): -(4 * g + 3), (-q, -1): -(2 * g + 2)})  # on gradings times q
    for dims in levels:
        for m, n in dims:
            x = _times(m, q)
            table.update({(x + q, 1): 2 * n, (x, 0): 4 * n, (x - q, -1): 2 * n})
    negatives = {(_public(x, q), s): v for (x, s), v in table.items() if v < 0}
    if negatives:
        raise FormalRankError(f"negative final ranks at {sorted(negatives)}")
    return {(_public(x, q), s): v for (x, s), v in table.items() if v}


def whitehead_double_cfk(rb: ReducedBasisForm, name: str = "") -> KnotComplex:
    """The positive double, counted as each level of :func:`box_tower` is.  The trivial
    knot (empty pair list) has no box content and is rejected: its double is no genus-one complex."""
    return _counted(_corners([(m, d, 1) for m, _a, d in rb.pairs], "+"), "+", name or "Wh")


def negative_double_cfk(rb: ReducedBasisForm, name: str = "") -> KnotComplex:
    """The negative-clasp double (the mirror of the positive double of the
    mirrored pairing), kept counted as :func:`whitehead_double_cfk` is."""
    return _counted(_corners([(m, d, 1) for m, _a, d in rb.pairs], "-"), "-", name or "Wh-")


def _corners(pairs, sign: str) -> dict:
    """Box corners of the double with clasp ``sign`` of a knot with reduced pairs
    (m, A, d), given as ``(m, d, count)``, as ``{corner: multiplicity}``: 2 d boxes
    B[m - 1] per pair for "+"; for "-" the mirror of that double of the mirrored
    pairs (1 - m, d - A, d), 2 d boxes B[m]."""
    if sign not in ("+", "-"):
        raise ValueError(f"clasp sign must be '+' or '-', not {sign!r}")
    counts: dict = {}  # on _exact corners
    for m, d, c in pairs:
        if d < 1:
            raise ValueError(f"reduced pair at maslov {m} has drop {d}; doubling needs drops of at least 1")
        corner = _exact(m) - 1 if sign == "+" else _exact(m)
        counts[corner] = counts.get(corner, 0) + 2 * d * c
    if not counts:
        raise ValueError("doubling needs a nontrivial knot (no reduced pairs)")
    return counts


def _counted(corners: dict, sign: str, name: str = "") -> KnotComplex:
    """The double with clasp ``sign`` and box ``corners``, kept as its split whatever the
    depth: x at 0 and the clasp's box (``cfk._normal_forms``, made once per process) at
    each corner with its multiplicity.  Written out, it is ``0.x`` and a box ``i.a`` ..
    ``i.d`` (i = 1, 2, ...) per copy of each corner: ``box(k)`` for "+", corners
    descending; for "-" the layout of ``mirror_knot`` of the positive double of the
    mirror, corners ascending."""
    x, plus, minus = _normal_forms().values()
    copies = sorted(corners.items(), reverse=sign == "+")
    return _CountedComplex([(x, [(0, 1)]), (plus if sign == "+" else minus, copies)], Ambient(), name)


def box_tower(rb: ReducedBasisForm, signs, knot: str = "") -> list[KnotComplex]:
    """Iterated doubles of the knot with reduced pairing ``rb``, one counted level
    per clasp sign in ``signs`` ("+" or "-"), named ``Wh^i(knot)`` (``Wh^i`` for
    no ``knot``).  Every level is x plus boxes (Hedden), and a box B[k] has reduced
    pairs (k + 1, 1, 1) and (k, 0, 1): a positive double takes B[k]^c to
    B[k]^2c + B[k - 1]^2c, a negative one to B[k]^2c + B[k + 1]^2c."""
    tower, pairs = [], [(m, d, 1) for m, _a, d in rb.pairs]
    for i, sign in enumerate(signs, start=1):
        corners = _corners(pairs, sign)
        tower.append(_counted(corners, sign, f"Wh^{i}({knot})" if knot else f"Wh^{i}"))
        pairs = [p for k, c in corners.items() for p in ((k + 1, 1, c), (k, 1, c))]
    return tower


def box_parameters(kc: KnotComplex) -> list[Fraction]:
    """Corner gradings of the box summands of a reduced x + boxes complex.

    Raises when the complex is not, after canonical reduction, a direct
    sum of one generator at (0, 0) and 1x1 boxes.  The corner walk runs
    once per reduced shape of ``cfk._canonical_shapes(kc)``, which may
    itself be a sum (x joined to a box by a cancelled pair); each corner is
    shifted by its copy's offset and counted per copy, and x must appear
    once over all copies.
    """
    params: list[int | Fraction] = []
    split = 0  # generators left over as x, over all copies
    for reduced, copies in _canonical_shapes(kc):
        remaining = set(reduced.generators)
        diff, M, A = reduced.base.differential, reduced.base.maslov, reduced.alexander
        corners = []
        # Box corners are the generators with two outgoing arrows.
        for a in sorted(remaining):
            row = diff.get(a, {})
            if len(row) != 2:
                continue
            (b, p), (c, q) = sorted(row.items(), key=lambda entry: -entry[1])
            if (p, q) != (1, 0):
                raise ValueError(f"generator {a} is not a box corner")
            if len(d_row := diff.get(b, {})) != 1 or 0 not in d_row.values():
                raise ValueError(f"box at {a} has a malformed vertical edge")
            (d,) = d_row
            if diff.get(c, {}) != {d: 1}:
                raise ValueError(f"box at {a} has a malformed horizontal edge")
            if A[a] != 0 or A[d] != 0:
                raise ValueError(f"box at {a} is Alexander-offset")
            corners.append(M[a])
            remaining -= {a, b, c, d}
        for g in sorted(remaining):
            if diff.get(g):
                raise ValueError(f"leftover generator {g} has a differential")
            if A[g] != 0 or any(M[g] + offset != 0 for offset, _count in copies):
                raise ValueError(f"leftover generator {g} is not at (0, 0)")
        params += [m + offset for offset, count in copies for _ in range(count) for m in corners]
        split += len(remaining) * sum(count for _offset, count in copies)
    if split > 1:
        raise ValueError("more than one split generator")
    if not split:
        raise ValueError("no split generator at (0, 0)")
    q = _denominator(params)
    return [_public(x, q) for x in sorted((_times(m, q) for m in params), reverse=True)]
