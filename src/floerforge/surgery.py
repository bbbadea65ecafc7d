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

``surgery_hf`` never builds the cone of the whole complex.  Every map of
the cone stays inside a flip-stable summand of C (a connected component
of the differential entries and the flip pairs), so the cone of C is the
direct sum of the cones of its summands.  Whitehead doubles are x plus
many boxes that agree up to a Maslov shift, so ``surgery_hf`` builds one
cone per shape of ``cfk._shapes`` (int gradings relative to the shape's
first generator and the framing anchor, window g of the whole complex).
``_check_cone`` validates it block by block and ``_reduce_cone_summands``
takes each A_s and the shared B to its U^0-minimal model before the
blocks are joined; the flat cone ``build_cone(kc, n).total_complex()``
is the tests' oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .cfk import KnotComplex, _shapes, validate_knot
from .fualgebra import (
    FreeComplex,
    U_DEGREE,
    FUDecomposition,
    ValidationReport,
    _id_rows,
    _odd_overlap,
    _plus,
    _Reducer,
    _square_violations,
    _sum,
    format_grading,
    grading,
    homology_decomposition,
    plus_presentation,
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
        gens = []
        diff: dict[str, dict[str, int]] = {}
        summands = [(f"A{s}", self.a_complexes[s], self.a_shifts[s]) for s in self.a_window]
        summands += [(f"B{t}", self.b_complexes[t], self.b_shifts[t]) for t in self.b_window]
        for tag, c, shift in summands:
            for g in c.generators:
                gens.append((f"{tag}|{g}", c.maslov[g] + shift))
            for src, row in c.differential.items():
                for tgt, p in row.items():
                    xor_entry(diff.setdefault(f"{tag}|{src}", {}), f"{tag}|{tgt}", p)
        for (s, kind), entries in self.edges.items():
            t = s if kind == "v" else s + self.n
            for src, row in entries.items():
                for tgt, p in row.items():
                    xor_entry(diff.setdefault(f"A{s}|{src}", {}), f"B{t}|{tgt}", p)
        return FreeComplex(gens, diff)


def _b_shift(n: int, t: int, c0: Fraction) -> Fraction:
    """Anchor propagation c_{s+n} = c_s + 2s starting from c_0, in closed form."""
    return c0 + n * t * (t - n)


_ANCHORS = {0: F(-1, 2), -1: F(0), 1: F(-1)}


def _window(kc: KnotComplex, n: int) -> int:
    """g_hat of a surgery input, once it has a flip and a supported framing:
    its genus bound, read off the representatives of its summand shapes."""
    if kc.flip is None:
        raise MissingFlip(f"complex {kc.name or ''} has no flip involution")
    if n not in (-1, 0, 1):
        raise ValueError("absolute gradings are supported for framings -1, 0, +1 only")
    return max([1] + [rep.genus_bound() for rep, _copies in _shapes(kc)])


def build_cone(kc: KnotComplex, n: int) -> MappingCone:
    """Assemble the truncated cone for framing n in {-1, 0, +1}."""
    g_hat = _window(kc, n)
    validate_knot(kc).require("surgery input")
    return _cone(kc, n, g_hat, _ANCHORS[n])


def _cone(kc: KnotComplex, n: int, g_hat: int, c0) -> MappingCone:
    """The cone of ``kc`` with B_0 anchored at grading c0."""
    if n == 0:
        a_window = (0,)
        b_window = (0,)
    elif n == -1:
        a_window = tuple(range(-g_hat + 1, g_hat))
        b_window = tuple(range(-g_hat, g_hat))
    else:
        a_window = tuple(range(-g_hat + 1, g_hat))
        b_window = tuple(range(-g_hat + 2, g_hat))

    b_shifts = {t: _b_shift(n, t, c0) for t in b_window}
    a_shifts = {s: _b_shift(n, s, c0) + 1 for s in a_window}

    A = kc.alexander
    flip = kc.flip
    base = kc.base

    a_complexes = {}
    edges = {}
    for s in a_window:
        offset = {x: max(0, A[x] - s) for x in base.generators}
        gens = [(x, base.maslov[x] - 2 * offset[x]) for x in base.generators]
        diff = {}
        for src, row in base.differential.items():
            diff[src] = {
                tgt: offset[src] + p - offset[tgt] for tgt, p in row.items()
            }
        a_complexes[s] = FreeComplex(gens, diff)
        if s in b_window:
            edges[(s, "v")] = {x: {x: offset[x]} for x in base.generators}
        if s + n in b_window:
            edges[(s, "h")] = {
                x: {flip[x]: max(0, s - A[x])} for x in base.generators
            }
    b_complexes = {t: base for t in b_window}

    return MappingCone(
        n=n,
        a_window=a_window,
        b_window=b_window,
        a_complexes=a_complexes,
        b_complexes=dict(b_complexes),
        a_shifts=a_shifts,
        b_shifts=b_shifts,
        edges=edges,
    )


def _check_cone(mc: MappingCone) -> ValidationReport:
    """:func:`validate_complex` of ``mc.total_complex()``, block by block."""
    return _cone_rows(mc)[0]


def _same_pattern(c: FreeComplex, other: FreeComplex) -> bool:
    """Whether ``c`` and ``other`` have the same generators and the same
    (source, target) pairs in their differentials."""
    d, e = c.differential, other.differential
    return c.generators == other.generators and d.keys() == e.keys() and all(
        row.keys() == e[src].keys() for src, row in d.items())


def _cone_rows(mc: MappingCone):
    """:func:`_check_cone`: every block and edge entry a non-negative U-power
    of degree -1 under the block shifts, then over F2 (exact once each power
    is the gradings') d^2 = 0 per distinct block matrix and each map from A_s
    to B_t (v_0 + h_0 at framing 0) a chain map.  Also the window bitsets
    the check built: ``(ids, sets)`` per block (by ``id``) and each edge map
    as ``(bits, bases)`` lists over A_s's positions.  A block with the
    pattern of one already built (each A_s has B's) only has its powers
    checked and shares that block's bitsets."""
    blocks, built, violations = {}, [], []
    for c in (*mc.b_complexes.values(), *mc.a_complexes.values()):
        if id(c) in blocks:
            continue
        twin = next((b for b in built if _same_pattern(c, b)), None)
        if twin is None:
            sets, bad = _id_rows(c, ids := {g: i for i, g in enumerate(c.generators)})
            built.append(c)
            blocks[id(c)] = ids, sets
        else:
            bad = _id_rows(c, blocks[id(twin)][0], build=False)[1]
            blocks[id(c)] = blocks[id(twin)]
        violations += bad
    edges, landing = {}, {}
    for (s, kind), entries in mc.edges.items():
        a, b = mc.a_complexes[s], mc.b_complexes[t := s if kind == "v" else s + mc.n]
        ia, ib, drop = blocks[id(a)][0], blocks[id(b)][0], mc.a_shifts[s] - 1 - mc.b_shifts[t]
        bits, bases = [0] * len(ia), [0] * len(ia)
        for src, row in entries.items():
            for tgt, p in row.items():
                if src in ia and tgt in ib and p >= 0 and b.maslov[tgt] + U_DEGREE * p == a.maslov[src] + drop:
                    i, j = ia[src], ib[tgt]
                    bits[i], bases[i] = _plus(bits[i], bases[i], 1, j) if bits[i] else (1, j)
                else:
                    violations.append(f"edge A{s}|{src}->U^{p}.B{t}|{tgt} is not a non-negative entry of degree -1")
        edges[s, kind] = bits, bases
        landing.setdefault((s, t), []).append((bits, bases))  # at framing 0, v_0 + h_0 lands in B_0
    if violations:
        return ValidationReport(ok=False, violations=tuple(violations)), blocks, edges
    for c in built:
        violations += _square_violations(c.generators, c.maslov, *blocks[id(c)][1])
    checked = set()  # each distinct (A matrix, map, B matrix) once
    for (s, t), parts in landing.items():
        da, db = blocks[id(mc.a_complexes[s])][1], blocks[id(mc.b_complexes[t])][1]
        if not (any(da[0]) or any(db[0])):
            continue  # no differential on either side: any map is a chain map
        if (key := (id(da), id(db), *(tuple(x) for part in parts for x in part))) not in checked:
            checked.add(key)
            if not _chain_map(da, db, parts):
                violations.append(f"the edge map from A{s} to B{t} is not a chain map")
    return ValidationReport(ok=not violations, violations=tuple(violations)), blocks, edges


def _chain_map(da, db, parts) -> bool:
    """Whether the sum e of the maps ``parts``, each ``(bits, bases)`` lists
    of window bitsets over A's positions, is a chain map from the rows
    ``da`` of A to the rows ``db`` of B: d_B e + e d_A is zero on every
    generator.  Each generator's terms are summed and dropped, never kept
    as a map: v_0 + h_0 spans the whole block."""
    (rows_a, bases_a), (rows_b, bases_b) = da, db
    for i, v in enumerate(rows_a):
        acc = at = 0
        for bits, bases in parts:
            acc, at = _sum(rows_b, bases_b, bits[i], bases[i], acc, at)
            acc, at = _sum(bits, bases, v, bases_a[i], acc, at)
        if acc:
            return False
    return True


def _reduce_cone_summands(mc: MappingCone) -> MappingCone:
    """The cone whose homology :func:`surgery_hf` takes: ``mc``, once it
    passes :func:`_check_cone`, with each A_s and each distinct B complex
    (every B_t is the same object) reduced once, on the check's bitsets,
    to its minimal model (all U^0 entries cancelled), and v_s and h_s
    carried across by the inclusion of A_s and the projection of B.  A
    minimal block has rank dim H(block/U): K9 at -1 hands over 71
    generators, where the flat cone ``build_cone(kc, n).total_complex()``,
    the tests' oracle, has 2,511."""
    report, blocks, edge_maps = _cone_rows(mc)
    report.require("surgery cone")
    if not any(p == 0 for c in (*mc.a_complexes.values(), *mc.b_complexes.values()) for _, _, p in c.entries()):
        return mc  # no U^0 entry: every block is its own minimal model
    a = {s: _Reducer(c, track=("iota",), rows=blocks[id(c)]).cancel_u0() for s, c in mc.a_complexes.items()}
    b = {key: _Reducer(c, track=("pi",), rows=blocks[key]).cancel_u0()
         for key, c in {id(c): c for c in mc.b_complexes.values()}.items()}
    projections = {key: [(h, _plus(r.pi_cols[i], r.pi_bases[i], 1, i)) for h, i in r.survivors().items()]
                   for key, r in b.items()}
    edges = {}
    for (s, kind), (bits, bases) in edge_maps.items():
        t = s if kind == "v" else s + mc.n
        ra, rb, drop = a[s], b[id(mc.b_complexes[t])], mc.a_shifts[s] - 1 - mc.b_shifts[t]
        edges[s, kind] = out = {}
        for g, j in ra.survivors().items():  # pi(e(iota(g))), by parity against B's projection columns
            x, xo = _sum(bits, bases, *_plus(ra.iota_rows[j], ra.iota_bases[j], 1, j))
            image = [h for h, (v, o) in projections[id(mc.b_complexes[t])] if _odd_overlap(x, xo, v, o)]
            if image:
                out[g] = {h: (rb.maslov[h] - ra.maslov[g] - drop) // 2 for h in image}
    minimal = {key: r.current_complex() for key, r in b.items()}
    return replace(mc, a_complexes={s: r.current_complex() for s, r in a.items()},
                   b_complexes={t: minimal[id(c)] for t, c in mc.b_complexes.items()}, edges=edges)


def surgery_hf(kc: KnotComplex, n: int) -> HFPlusResult:
    """Graded homology of n-framed surgery, in the torsion structure class.

    The cone of a direct sum is the direct sum of the cones, so the cone
    homology is summed over the flip-stable summands of ``kc``, computed
    once per shape of ``cfk._shapes``; ``validate_knot`` checks the input
    on the same split.  Summands of one shape differ by a Maslov shift,
    which shifts their cone homology.

    >>> from .cfk import box, direct_sum, unknot
    >>> surgery_hf(direct_sum([unknot(), box(2), box(0)]), 0).decomposition
    FUDecomposition(towers=(Fraction(1, 2), Fraction(-1, 2)), torsion=((Fraction(3, 2), 1, 1), (Fraction(-1, 2), 1, 1)))
    """
    g_hat = _window(kc, n)
    validate_knot(kc).require("surgery input")
    return _summed_cones(_shapes(kc), n, g_hat)


def _summed_cones(shapes, n: int, g_hat: int) -> HFPlusResult:
    """:func:`surgery_hf` on a split that has passed :func:`validate_knot`."""
    towers, torsion = [], Counter()
    for rep, copies in shapes:
        h = homology_decomposition(_reduce_cone_summands(_cone(rep, n, g_hat, 0)).total_complex())
        for offset, count in copies:
            shift = offset + _ANCHORS[n]
            towers.extend(t + shift for t in h.towers for _ in range(count))
            for g, k, c in h.torsion:
                torsion[g + shift, k] += c * count
    return HFPlusResult(plus_presentation(FUDecomposition.make(towers, torsion)))


def one_handle_stabilize(result: HFPlusResult) -> HFPlusResult:
    """Connected sum with S1 x S2 (towers at 1/2 and -1/2): every summand doubles."""
    return connected_sum_floer(result, HFPlusResult(FUDecomposition.make([F(1, 2), F(-1, 2)], ())))


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
    dec1, dec2 = r1.decomposition, r2.decomposition
    towers = [d1 + d2 for d1 in dec1.towers for d2 in dec2.towers]
    torsion = Counter()
    # Working in the subcomplex-model reading throughout: a torsion
    # summand with plus-top g has its model top at g + 1; the final
    # presentation step shifts every torsion top back down by one.
    for towers_a, torsion_b in ((dec1.towers, dec2.torsion), (dec2.towers, dec1.torsion)):
        for d in towers_a:
            for g, k, c in torsion_b:
                torsion[g + 1 + d, k] += c
    for g1, k1, c1 in dec1.torsion:
        for g2, k2, c2 in dec2.torsion:
            k, c = min(k1, k2), c1 * c2
            torsion[g1 + g2 + 2, k] += c
            torsion[g1 + g2 + 3 - 2 * max(k1, k2), k] += c
    return HFPlusResult(plus_presentation(FUDecomposition.make(towers, torsion)))


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
    tables = [
        {grading(g): int(r) for g, r in m.items() if r} for m in modules
    ]
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
            if incoming.get(top - shift_in, 0) == 0:
                verdicts.append(FORCED_INJECTIVE_TOP)
                continue
        verdicts.append(UNDETERMINED)
    return TriangleForce(ranks=ranks, verdicts=tuple(verdicts))
