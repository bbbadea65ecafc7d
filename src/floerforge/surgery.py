"""The integer-surgery mapping cone over F2[U] and its graded output.

For a flip-equipped knot complex C the cone assembles quotient-region
summands A_s (region max(i, j-s) >= 0, realised internally by their free
subcomplex models) and B_s (region i >= 0) over a finite window of s,
joined by the vertical projections v_s and the flip-translated maps h_s.
The maps v_s + h_s lower the cone grading by one.  Absolute gradings are
anchored on B_0:

- framing -1 keeps the grading B_0 inherits,
- framing 0 shifts B_0 down by 1/2 (only the s = 0 summand is formed:
  that is the torsion structure output),
- framing +1 is calibrated so that +1-framed surgery on the trivial
  knot returns a single tower at grading 0.

The window uses s in [-g+1, g-1] for the A-summands (v_s is an
isomorphism above genus and h_s below minus genus), with B-summands
[-g, g-1] for framing -1 and [-g+2, g-1] for framing +1.

The cone of C is the direct sum of the cones of its flip-stable summands,
built once per shape of ``cfk._shapes``, and x and the box of Hedden's
normal form once per process (:func:`_summed_cones`).  Every A_s has B's
matrix over F2, so a shape's cone is B's window-bitset rows, the ones
``validate_knot`` checked in the same call, a grading vector per A_s
and v_s, h_s as position maps (``_ShapeCone``).  B and the A_s of s >= 0
are reduced to U^0-minimal models by one shared reduction on a halving
tree (:func:`_minimal_blocks`); the flip carries A_s to A_{-s}.  The
minimal cone is joined and reduced on generator positions, unchecked:
each part of the flat cone's check follows from the caller's validation
(:func:`_minimal_cone`).  ``build_cone(kc, n)`` is the tests' flat oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import sub

from .cfk import KnotComplex, _layout, _normal_forms, _shape_key, _shapes, validate_knot
from .fualgebra import (
    FreeComplex,
    FUDecomposition,
    _denominator,
    _exact,
    _homology,
    _id_rows,
    _odd_overlap,
    _plus,
    _positions,
    _public,
    _Reducer,
    _sum,
    _times,
    format_grading,
    xor_entry,
)

F = Fraction

TORSION_SPINC = "torsion-summed [s0]"


class MissingFlip(ValueError):
    """Surgery needs the flip involution; the complex has none."""


@dataclass(frozen=True)
class HFPlusResult:
    """Plus-flavoured homology: towers plus torsion, with d-invariants."""

    decomposition: FUDecomposition
    spinc = TORSION_SPINC  # every result sums the torsion spin^c structures

    @property
    def d_invariants(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.decomposition.towers))

    def hf_red(self) -> dict[Fraction, int]:
        return self.decomposition.torsion_rank_table()

    def to_json(self) -> dict:
        return {
            "decomposition": self.decomposition.to_json(),
            "spinc": self.spinc,
            "d_invariants": [format_grading(d) for d in self.d_invariants],
        }


@dataclass
class MappingCone:
    """Summands and edge maps of a truncated surgery cone.

    Edge maps are stored on generator names of the underlying knot
    complex; ``total_complex`` assembles the cone with its absolute
    gradings baked in.
    """

    n: int
    a_window: tuple[int, ...]
    b_window: tuple[int, ...]
    a_complexes: dict
    b_complexes: dict
    a_shifts: dict
    b_shifts: dict
    edges: dict  # (s, "v"|"h") -> {src: {tgt: power}} between summand bases

    def total_complex(self) -> FreeComplex:
        maslov, diff = {}, {}
        summands = [(f"A{s}", self.a_complexes[s], self.a_shifts[s]) for s in self.a_window]
        summands += [(f"B{t}", self.b_complexes[t], self.b_shifts[t]) for t in self.b_window]
        for tag, c, shift in summands:
            for g in c.generators:
                maslov[f"{tag}|{g}"] = _exact(c.maslov[g] + shift)
            for src, row in c.differential.items():
                for tgt, p in row.items():
                    xor_entry(diff.setdefault(f"{tag}|{src}", {}), f"{tag}|{tgt}", p)
        for (s, kind), entries in self.edges.items():
            t = s if kind == "v" else s + self.n
            for src, row in entries.items():
                for tgt, p in row.items():
                    xor_entry(diff.setdefault(f"A{s}|{src}", {}), f"B{t}|{tgt}", p)
        return FreeComplex._built(maslov, {src: row for src, row in diff.items() if row})


def _b_shift(n: int, t: int, c0: Fraction) -> Fraction:
    """Anchor propagation c_{s+n} = c_s + 2s starting from c_0, in closed form."""
    return c0 + n * t * (t - n)


_ANCHORS = {0: F(-1, 2), -1: F(0), 1: F(-1)}
_NORMAL_FORM_CONES: dict = {}  # (shape key, n, g_hat) -> _cone_homology of its _normal_forms representative


def _window(kc: KnotComplex, n: int) -> int:
    """g_hat of a surgery input, once it has a flip and a supported framing: its genus
    bound.  Both are read off its split, so a counted complex is not written out."""
    shapes = _shapes(kc)
    if (shapes[0][0].flip if shapes else kc.flip) is None:
        raise MissingFlip(f"complex {kc.name or ''} has no flip involution")
    if n not in (-1, 0, 1):
        raise ValueError("absolute gradings are supported for framings -1, 0, +1 only")
    return max([1] + [rep.genus_bound() for rep, _copies in shapes])


def _windows(n: int, g_hat: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The s of the A-summands and the t of the B-summands at framing n."""
    if n == 0:
        return (0,), (0,)
    return tuple(range(-g_hat + 1, g_hat)), tuple(range(-g_hat if n == -1 else -g_hat + 2, g_hat))


def build_cone(kc: KnotComplex, n: int) -> MappingCone:
    """The truncated cone for framing n in {-1, 0, +1} on names: the tests' flat oracle."""
    g_hat = _window(kc, n)
    validate_knot(kc).require("surgery input")
    a_window, b_window = _windows(n, g_hat)
    c0, A, flip, base = _ANCHORS[n], kc.alexander, kc.flip, kc.base
    a_complexes, edges = {}, {}
    for s in a_window:
        offset = {x: max(0, A[x] - s) for x in base.generators}
        a_complexes[s] = FreeComplex([(x, base.maslov[x] - 2 * offset[x]) for x in base.generators],
                                     {src: {tgt: offset[src] + p - offset[tgt] for tgt, p in row.items()}
                                      for src, row in base.differential.items()})
        if s in b_window:
            edges[(s, "v")] = {x: {x: offset[x]} for x in base.generators}
        if s + n in b_window:
            edges[(s, "h")] = {x: {flip[x]: max(0, s - A[x])} for x in base.generators}
    return MappingCone(n, a_window, b_window, a_complexes, {t: base for t in b_window},
                       {s: _b_shift(n, s, c0) + 1 for s in a_window}, {t: _b_shift(n, t, c0) for t in b_window}, edges)


@dataclass
class _ShapeCone:
    """The cone of one shape as :func:`surgery_hf` reduces it: every B_t is ``base``,
    A_s base's matrix over F2 under the grading vector m_s(x) = m(x) - 2 max(0, A(x) - s)
    (built for s >= 0: A_{-s} is read off A_s through the flip), B_0 at grading 0,
    and each power read off the gradings and shifts."""

    n: int
    base: FreeComplex
    rows: tuple  # base's (ids, (rows, row_bases)) of fualgebra._id_rows
    gradings: dict  # s >= 0 -> m_s, one grading per position of base
    flip: list  # the position of each generator's flip image
    edges: dict  # (s, "v"|"h") -> position map from A_s to its B_t: v_s the identity, h_s ``flip``
    a_shifts: dict  # one per s of the window
    b_shifts: dict


def _shape_cone(kc: KnotComplex, n: int, g_hat: int, rows=None) -> _ShapeCone:
    """The cone of ``kc`` at framing n and window g_hat, as vectors, on the
    ``(ids, sets)`` of ``fualgebra._id_rows`` of its base (``rows``, else built)."""
    a_window, b_window = _windows(n, g_hat)
    if rows is None:
        rows = (ids := {g: i for i, g in enumerate(kc.generators)}), _id_rows(kc.base, ids)[0]
    at, m, A = rows[0], list(kc.base.maslov.values()), list(kc.alexander.values())  # both in generator order
    identity, flip, edges = list(range(len(m))), [at[kc.flip[g]] for g in kc.generators], {}
    for s in a_window:
        if s in b_window:
            edges[s, "v"] = identity
        if s + n in b_window:
            edges[s, "h"] = flip
    gradings = {s: [x - 2 * max(0, a - s) for x, a in zip(m, A)] for s in a_window if s >= 0}
    return _ShapeCone(n, kc.base, rows, gradings, flip, edges,
                      {s: _b_shift(n, s, 0) + 1 for s in a_window}, {t: _b_shift(n, t, 0) for t in b_window})


def _minimal_blocks(sc: _ShapeCone) -> dict:
    """``{s: (gradings, rows, maps)}``, the minimal model of each A_s and of B
    (s = None): its generators, numbered from 0, with their gradings, each one's
    row as a mask over them and its inclusion into A_s (its projection column
    from B) as a window bitset.

    One reduction of B's rows serves A_0 .. A_{g-1} and B (s = +inf), the
    leaves of a halving tree.  B's entry x -> U^p y has the power
    p + max(0, A(x) - s) - max(0, A(y) - s) in A_s, monotone in s, so one that
    is U^0 at both ends of a range (under the first's gradings, at one level
    first - last) is U^0 throughout and cancelled once.  The right half of the
    range goes on in this reduction, the left in a fork; a leaf is reduced
    alone.  The flip, an isomorphism A_s -> A_{-s} keeping every power and
    lowering every grading by 2s, moves A_s's model and inclusion to A_{-s}."""
    out, ones = {}, [1] * len(sc.flip)
    r = _Reducer(sc.base, track=("iota", "pi"), rows=sc.rows)
    leaves = list(sc.gradings.items()) + [(None, r.m)] * bool(sc.b_shifts)
    stack = [(0, len(leaves) - 1, r)]
    while stack:
        lo, hi, r = stack.pop()
        s, r.m = leaves[lo]
        if lo < hi:
            mid = (lo + hi + 1) // 2
            r.cancel_u0(list(map(sub, r.m, leaves[hi][1])))
            stack += [(mid, hi, r), (lo, mid - 1, r.fork(r.m, ("iota",)))]
            continue
        kept = [i for i, alive in enumerate(r.cancel_u0().alive) if alive]  # B, last, is never forked off
        maps, bases = (r.pi_cols, r.pi_bases) if s is None else (r.iota_rows, r.iota_bases)
        at, rows = dict(zip(kept, range(len(kept)))), r.rows
        out[s] = ([r.m[i] for i in kept], [sum(1 << at[j] for j in _positions(rows[i], r.row_bases[i])) for i in kept],
                  [_plus(maps[i], bases[i], 1, i) for i in kept])
    for s in sc.a_shifts:
        if s < 0:
            m, rows, inclusion = out[-s]
            out[s] = [x + 2 * s for x in m], rows, [_sum(ones, sc.flip, v, o) for v, o in inclusion]
    return out


def _minimal_cone(sc: _ShapeCone) -> tuple[list, list, list]:
    """The gradings and window bitset rows of ``sc`` with each block replaced by
    its :func:`_minimal_blocks` model, v_s and h_s carried across by the
    inclusion of A_s and the projection of B: the blocks A_s, then B_t, at
    their shifts.  A minimal block has rank dim H(block/U): K9 at -1 hands
    over 71 generators, the flat cone 2,511.

    Neither ``sc`` nor this cone is checked (the tests' ``cone_check`` and the
    suite's d^2 and homogeneity check of the result): given a correct
    :func:`_shape_cone`, the caller's :func:`validate_knot` implies both.  The
    Alexander filtration makes every A_s power non-negative, the flip's Maslov
    and Alexander axioms give the h_s degrees and the flip read, B is the
    checked base, v_s is the identity and the flip chain map makes h_s one.
    An entry x -> U^p y that is U^0 in an A_s but not in B has p + A(x) - A(y)
    = 0, the power of flip x -> flip y in B, so only B is read."""
    models, ones = _minimal_blocks(sc), [1] * len(sc.flip)  # each row a mask from 0
    b_m, b_rows, projections = models.pop(None, ([], [], []))
    images = {(s, kind): [sum(1 << k for k, (w, wo) in enumerate(projections) if _odd_overlap(x, xo, w, wo))
                          for x, xo in (_sum(ones, e, v, o) for v, o in models[s][2])]  # pi(e(iota(g)))
              for (s, kind), e in sc.edges.items()}  # each edge image a mask over B's survivors
    m, rows, bases, start = [], [], [], {}
    for key, ms, r, shift in ([(s, *models[s][:2], sc.a_shifts[s]) for s in sc.a_shifts]
                              + [(("B", t), b_m, b_rows, sc.b_shifts[t]) for t in sc.b_shifts]):
        start[key] = at = len(m)  # a block's rows are masks from 0: its base is its start
        m += [x + shift for x in ms]
        rows += r
        bases += [at] * len(ms)
    for (s, kind), image in images.items():  # added to A_s's rows, over B_t's positions
        b = start["B", s if kind == "v" else s + sc.n]
        for i, v in enumerate(image, start[s]):
            rows[i], bases[i] = _plus(rows[i], bases[i], v, b)
    return m, rows, bases


def surgery_hf(kc: KnotComplex, n: int) -> HFPlusResult:
    """Graded homology of n-framed surgery, in the torsion structure class.

    The cone homology is summed over the flip-stable summands of ``kc``,
    once per shape of ``cfk._shapes`` (:func:`_summed_cones`), on the split and
    the rows ``validate_knot`` checks; copies of a shape differ by a Maslov shift.

    >>> from .cfk import figure8, reduced_basis_form
    >>> from .whitehead import whitehead_double_cfk
    >>> surgery_hf(whitehead_double_cfk(reduced_basis_form(figure8())), 0).decomposition
    FUDecomposition(towers=(Fraction(1, 2), Fraction(-1, 2)), torsion=((Fraction(-1, 2), 1, 2), (Fraction(-3, 2), 1, 2)))
    """
    g_hat = _window(kc, n)
    (report := validate_knot(kc)).require("surgery input")
    return _summed_cones(_shapes(kc), n, g_hat, report.checked)


def _summed_cones(shapes, n: int, g_hat: int, rows=()) -> HFPlusResult:
    """:func:`surgery_hf` on a split that has passed :func:`validate_knot` (on the
    ``rows`` per shape it checked, as ``surgery_hf`` and the CLI hand them over),
    each shape's cone homology moved by each copy's offset in its gradings, all times
    their common denominator; the anchor and ``fualgebra.plus_presentation``'s torsion
    shift are added once per distinct grading, made public by ``fualgebra._public``.
    A shape of Hedden's normal form (``cfk._normal_forms``) is reduced once per
    process, framing and window, on its representative at first grading 0, and
    moved by ``rep``'s.  The shape is the key ``rep`` carries from its split, and
    is taken again only for a 1- or 4-generator representative that carries none."""
    cones, forms = [], _normal_forms()
    for (rep, copies), found in zip(shapes, rows or repeat(None)):
        if (key := rep._key) is None and len(rep.generators) in (1, 4):
            key = _shape_key(_layout(rep), range(len(rep.generators)))
        if key in forms:
            if (cone := _NORMAL_FORM_CONES.get((key, n, g_hat))) is None:
                cone = _NORMAL_FORM_CONES[key, n, g_hat] = _cone_homology(forms[key], n, g_hat)
            cones.append((cone, rep.base.maslov[rep.generators[0]], copies))
        else:
            cones.append((_cone_homology(rep, n, g_hat, found), 0, copies))
    # A shape's own gradings are ints: its summand is connected by entries and flip pairs.
    q, towers, torsion = _denominator([o for _cone, _first, copies in cones for o, _c in copies]), {}, {}
    for (free, tops), first, copies in cones:  # on gradings times q
        for offset, count in copies if q == 1 else [(_times(o, q), c) for o, c in copies]:
            offset += first * q
            for g, c in free.items():
                towers[x] = towers.get(x := g * q + offset, 0) + c * count
            for (g, k), c in tops.items():
                torsion[x] = torsion.get(x := (g * q + offset, k), 0) + c * count
    d = _ANCHORS[n].denominator  # the anchor and the torsion shift of 1 are added on gradings times d q
    a = _times(_ANCHORS[n], q * d)
    return HFPlusResult(FUDecomposition._counted(towers, torsion, lambda x: _public(x * d + a, q * d),
                                                 lambda x: _public(x * d + a - q * d, q * d)))


def _cone_homology(rep: KnotComplex, n: int, g_hat: int, rows=None) -> tuple[Counter, Counter]:
    """:func:`fualgebra._homology` of the :func:`_minimal_cone` of ``rep``, on its base's rows if handed over."""
    return _homology(*_minimal_cone(_shape_cone(rep, n, g_hat, rows)))


def one_handle_stabilize(result: HFPlusResult) -> HFPlusResult:
    """Connected sum with S1 x S2 (towers at 1/2 and -1/2): every summand doubles."""
    return connected_sum_floer(result, HFPlusResult(FUDecomposition.make([_public(1, 2), _public(-1, 2)], ())))


def connected_sum_floer(r1: HFPlusResult, r2: HFPlusResult) -> HFPlusResult:
    """Tensor the plus decompositions over the ground ring.

    Tensor and homology both distribute over the summand decomposition,
    so the product is assembled from pairs of distinct summands, weighted
    by the product of their counts, by the Kunneth formula.  Tower x
    tower and tower x torsion blocks are immediate.
    Torsion summands with model tops G1, G2 and lengths k1, k2 give the
    tensor term F2[U]/U^k topped at G1 + G2 and the Tor term F2[U]/U^k
    topped at G1 + G2 + 1 - 2 max(k1, k2), with k = min(k1, k2).
    Normalised so that summing with the single-tower unit at grading 0 is
    the identity.

    >>> one = HFPlusResult(FUDecomposition.make([], [(F(0), 1)]))
    >>> two = HFPlusResult(FUDecomposition.make([], [(F(0), 2)]))
    >>> connected_sum_floer(one, two).decomposition
    FUDecomposition(towers=(), torsion=((Fraction(1, 1), 1, 1), (Fraction(-2, 1), 1, 1)))
    """
    decs = r1.decomposition, r2.decomposition
    q = _denominator(chain(*(d._gradings() for d in decs)))
    (t1, s1), (t2, s2) = (([_times(g, q) for g in d.towers], [(_times(g, q), k, c) for g, k, c in d.torsion])
                          for d in decs)
    towers, torsion = Counter(d1 + d2 for d1 in t1 for d2 in t2), Counter()
    # A torsion summand with plus-top g has its model top at g + 1; each
    # product's model top is written less the 1 of the plus presentation.
    for towers_a, torsion_b in ((t1, s2), (t2, s1)):
        for d in towers_a:
            for g, k, c in torsion_b:
                torsion[g + d, k] += c
    for g1, k1, c1 in s1:
        for g2, k2, c2 in s2:
            k, c = min(k1, k2), c1 * c2
            torsion[g1 + g2 + q, k] += c
            torsion[g1 + g2 + 2 * q * (1 - max(k1, k2)), k] += c
    return HFPlusResult(FUDecomposition._counted(towers, torsion, public := lambda x: _public(x, q), public))


# ---------------------------------------------------------------------------
# exact-triangle rank and grading forcing


FORCED_ZERO = "forced-zero"
FORCED_INJECTIVE_TOP = "forced-injective-on-top-summand"
UNDETERMINED = "undetermined"


class InconsistentTriangle(ValueError):
    """No exact triangle exists with the given graded ranks."""


@dataclass(frozen=True)
class TriangleForce:
    """Per-map verdicts around an exact triangle M1 -> M2 -> M3 -> M1."""

    ranks: tuple[int, int, int]
    verdicts: tuple[str, str, str]

    def verdict(self, index: int) -> str:
        return self.verdicts[index]


# Grading shifts of the surgery triangle's maps M1 -> M2, M2 -> M3, M3 -> M1.
_TRIANGLE_SHIFTS = (F(-1, 2), F(0), F(-1, 2))


def exact_triangle_force(modules) -> TriangleForce:
    """Force map behaviour from exactness of a rank/grading triangle.

    ``modules`` are three graded rank tables joined by maps that shift
    gradings by ``_TRIANGLE_SHIFTS``, the shifts of every triangle the
    package builds.  The total ranks of the maps are pinned by exactness;
    a map is forced zero when its rank is zero, and forced injective on
    the top summand of its domain when nothing can map onto that summand:
    the incoming module has no rank in the one grading that would hit the
    top.
    """
    tables = [[(_exact(g), int(r)) for g, r in m.items() if r] for m in modules]
    q = _denominator(chain(_TRIANGLE_SHIFTS, (g for t in tables for g, _r in t)))
    return _triangle_force([{_times(g, q): r for g, r in t} for t in tables], q)


def _triangle_force(tables: list, q: int) -> TriangleForce:
    """:func:`exact_triangle_force` of tables keyed by gradings times q, a multiple of every shift's denominator."""
    dims = [sum(t.values()) for t in tables]
    doubled = [
        dims[0] + dims[1] - dims[2],
        dims[1] + dims[2] - dims[0],
        dims[2] + dims[0] - dims[1],
    ]
    if any(d < 0 or d % 2 for d in doubled):
        raise InconsistentTriangle(
            f"graded ranks {dims} admit no exact triangle"
        )
    ranks = tuple(d // 2 for d in doubled)
    verdicts = []
    for i in range(3):
        if ranks[i] == 0:
            verdicts.append(FORCED_ZERO)
            continue
        source = tables[i]
        incoming = tables[(i - 1) % 3]
        shift_in = _TRIANGLE_SHIFTS[(i - 1) % 3]
        if source:
            top = max(source)
            if incoming.get(top - _times(shift_in, q), 0) == 0:
                verdicts.append(FORCED_INJECTIVE_TOP)
                continue
        verdicts.append(UNDETERMINED)
    return TriangleForce(ranks=ranks, verdicts=tuple(verdicts))
