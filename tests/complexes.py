"""Shared test inputs: known-answer complexes and renamed, shuffled sums of them.

``ORACLE_CASES`` maps a name to a builder of a valid surgery input;
``scrambled_sums`` draws direct sums of such builders with fresh generator
names in a random order.  The summand-route property of surgery and the
split-validation property of ``validate_knot`` both draw from it.
``flat_tower`` iterates the doubles through the reduced pairing of each
level written out flat, the chain-level oracle for ``box_tower`` and the
counted doubles.  ``unsplit``
copies a complex without the summand split stored on it, and
``split_contents`` lists what a split holds, for comparing two, and
``named_split`` is the reference split, taken on generator names.
``mix`` is one change of basis on a ``fualgebra._Reducer``, and
``filtered_mixes`` lists the filtered ones; ``survivors`` lists what a
reduction keeps.
``cone_check`` is the flat cone's validation, on the vectors of a
``surgery._ShapeCone``, and ``spelled_cone`` the flat cone they stand for;
``positional_complex`` names the generators of a complex kept on positions,
as ``surgery._minimal_cone`` makes it; ``unchecked`` takes off the re-checks
``conftest.py`` adds, for one test.
"""

import inspect
import sys
from fractions import Fraction
from itertools import repeat
from operator import mod, sub

from hypothesis import strategies as st

from floerforge import cfk
from floerforge.cfk import (
    KnotComplex,
    box,
    connected_sum_knots,
    figure8,
    j_in_y,
    k_n,
    mirror_knot,
    reduced_basis_form,
    staircase_torus,
)
from floerforge import surgery
from floerforge.corpus import corpus_builders, load_complex
from floerforge.fualgebra import (
    FreeComplex,
    ValidationReport,
    _exact,
    _id_rows,
    U_DEGREE,
    _plus,
    _positions,
    _spread,
    _square_violations,
    _sum,
)
from floerforge.whitehead import negative_double_cfk, whitehead_double_cfk

F = Fraction


def flat_tower(kc, signs):
    """Iterated doubles, one level per sign in ``signs``, each written out
    flat without its split (:func:`unsplit`) and doubled from the reduced
    pairing of that flat level."""
    tower = [kc]
    for sign in signs:
        build = whitehead_double_cfk if sign == "+" else negative_double_cfk
        tower.append(unsplit(build(reduced_basis_form(tower[-1]))))
    return tower[1:]


def mix(r, g, h, s):
    """The basis change g := g + U^s h (h kept) on the reducer ``r``: it adjusts
    the differential out of g and reroutes arrows that hit g into arrows hitting
    h, and both together are an exact change of basis, so d^2 = 0 is kept; the
    tracked maps follow."""
    i, j, A = r.generators.index(g), r.generators.index(h), r.alexander
    if r.m[i] != r.m[j] + U_DEGREE * s or s < 0:
        raise AssertionError(f"inhomogeneous or negative mix {g} += U^{s}.{h}")
    if A is not None and A[j] - s > A[i]:
        raise AssertionError(f"filtration-breaking mix {g} += U^{s}.{h}")
    rows, row_bases, (cols, col_bases) = r.rows, r.row_bases, r._columns()
    rows[i], row_bases[i] = _plus(rows[i], row_bases[i], rows[j], row_bases[j])
    _spread(cols, col_bases, rows[j], row_bases[j], 1, i)
    _spread(rows, row_bases, cols[i], col_bases[i], 1, j)
    cols[j], col_bases[j] = _plus(cols[j], col_bases[j], cols[i], col_bases[i])
    if r.iota_rows is not None:
        _spread(r.iota_rows, r.iota_bases, 1, i, *_plus(r.iota_rows[j], r.iota_bases[j], 1, j))
    if r.pi_cols is not None:
        _spread(r.pi_cols, r.pi_bases, 1, j, *_plus(r.pi_cols[i], r.pi_bases[i], 1, i))


def survivors(r):
    """The generators the reducer ``r`` has not cancelled, in the input's order, with their positions."""
    return {g: i for i, g in enumerate(r.generators) if r.alive[i]}


def filtered_mixes(kc):
    """Every homogeneous, filtered change of basis g := g + U^s h of a knot
    over S3, as ``(g, h, s)``."""
    M, A = kc.base.maslov, kc.alexander  # integral over S3
    return [(g, h, s) for g in kc.generators for h in kc.generators if g != h
            for s, odd in [divmod(M[h] - M[g], 2)] if not odd and s >= 0 and A[h] - s <= A[g]]


def unsplit(kc):
    """A fresh copy of ``kc`` with no summand split stored on it."""
    return KnotComplex(kc.base, kc.alexander, kc.flip, kc.ambient, kc.name)


def split_contents(split):
    """Per shape: the representative's generators, their gradings and the
    gradings' types, rows, Alexander grades, flip, ambient and name; and the
    ``(offset, count)`` copies, with each offset's type."""
    return [((rep.generators, [(rep.maslov(g), type(rep.maslov(g))) for g in rep.generators],
              rep.base.differential, rep.alexander, rep.flip, rep.ambient, rep.name),
             [(offset, type(offset), count) for offset, count in copies])
            for rep, copies in split]


def named_split(kc):
    """The reference for ``cfk._summands``, on generator names: a union-find on
    a name-keyed dict over the differential entries and flip pairs, then one
    representative per shape (gradings relative to the first member, Alexander
    grades, flip and rows by positions in the summand), with its copies."""
    gens, M, A, flip, diff = kc.generators, kc.base.maslov, kc.alexander, kc.flip, kc.base.differential
    whole = [(KnotComplex(kc.base, kc.alexander, kc.flip, kc.ambient), [(0, 1)])]
    if not M.keys() >= diff.keys() or not all(M.keys() >= row.keys() for row in diff.values()):
        return whole
    edges = [(s, t) for s, row in diff.items() for t in row]
    if flip is not None:
        if not M.keys() >= {flip.get(g) for g in gens} or any(flip[flip[g]] != g for g in gens):
            return whole
        edges += flip.items()
    parent = {g: g for g in gens}

    def root(g):
        while parent[g] != g:
            g = parent[g]
        return g

    for a, b in edges:
        parent[root(a)] = root(b)
    parts = {}
    for g in gens:
        parts.setdefault(root(g), []).append(g)
    if len(parts) == 1 and type(M[gens[0]]) is int:
        return whole
    shapes = {}
    for members in parts.values():
        pos = {g: i for i, g in enumerate(members)}
        relative = tuple(_exact(M[g] - M[members[0]]) for g in members)
        key = (relative, tuple(A[g] for g in members), flip and tuple(pos[flip[g]] for g in members),
               tuple(diff.get(g) and tuple((pos[t], p) for t, p in diff[g].items()) for g in members))
        if key not in shapes:
            rep = FreeComplex(zip(members, relative), {g: diff[g] for g in members if g in diff})
            shapes[key] = (KnotComplex(rep, {g: A[g] for g in members},
                                       flip and {g: flip[g] for g in members}, kc.ambient), {})
        copies = shapes[key][1]
        copies[M[members[0]]] = copies.get(M[members[0]], 0) + 1
    return [(rep, list(copies.items())) for rep, copies in shapes.values()]


def scrambled(kc, rng):
    """The same knot complex with fresh generator names in a random order.

    Names that are not generators (a differential endpoint or flip image
    that does not exist) are kept, so malformed complexes stay malformed.
    """
    fresh = {g: f"v{i}" for g, i in zip(kc.generators, rng.sample(range(len(kc.generators)), len(kc.generators)))}
    name = lambda g: fresh.get(g, g)
    order = list(kc.generators)
    rng.shuffle(order)
    base = FreeComplex(
        [(fresh[g], kc.maslov(g)) for g in order],
        {name(src): {name(t): p for t, p in row.items()} for src, row in kc.base.differential.items()},
    )
    flip = None if kc.flip is None else {name(a): name(b) for a, b in kc.flip.items()}
    return KnotComplex(base, {fresh[g]: kc.alexander[g] for g in order}, flip, kc.ambient, kc.name)


def disjoint_sum(parts):
    """Direct sum of knot complexes, in the ambient of the first.

    It takes malformed parts as they are: a partial flip stays partial, and
    the sum has no flip if a part has none.
    """
    gens, diff, alexander, flip = [], {}, {}, {}
    for i, part in enumerate(parts):
        tag = lambda g, i=i: f"{i}.{g}"
        gens += [(tag(g), part.maslov(g)) for g in part.generators]
        diff.update({tag(src): {tag(t): p for t, p in row.items()} for src, row in part.base.differential.items()})
        alexander.update({tag(g): a for g, a in part.alexander.items()})
        flip.update({tag(a): tag(b) for a, b in (part.flip or {}).items()})
    if any(part.flip is None for part in parts):
        flip = None
    return KnotComplex(FreeComplex(gens, diff), alexander, flip, parts[0].ambient)


def flip_swapped_boxes(j, k=F(0)):
    """x plus B[k, j] and B[k - 2j, -j], with the flip exchanging the two
    boxes (a <-> a', b <-> c', c <-> b', d <-> d'): no differential entry
    joins them, only the flip."""
    left, right = box(k, j, "l"), box(k - 2 * j, -j, "r")
    gens = [("x", F(0))] + [(g, part.maslov(g)) for part in (left, right) for g in part.generators]
    base = FreeComplex(gens, {**left.base.differential, **right.base.differential})
    alexander = {"x": 0, **left.alexander, **right.alexander}
    flip = {"x": "x"}
    for a, b in (("a", "a"), ("b", "c"), ("c", "b"), ("d", "d")):
        flip["l" + a] = "r" + b
        flip["r" + b] = "l" + a
    return KnotComplex(base, alexander, flip)


def scrambled_sums(pieces, max_size=1):
    """Strategy: a direct sum of 1 to ``max_size`` complexes built by
    ``pieces`` (name -> builder), renamed and shuffled.  A single piece is
    only renamed and shuffled."""

    @st.composite
    def sums(draw):
        names = draw(st.lists(st.sampled_from(sorted(pieces)), min_size=1, max_size=max_size))
        rng = draw(st.randoms(use_true_random=False))
        parts = [pieces[name]() for name in names]
        return scrambled(parts[0] if len(parts) == 1 else disjoint_sum(parts), rng)

    return sums()


ORACLE_CASES = {
    **{name: (lambda name=name: load_complex(name)) for name in sorted(corpus_builders())},
    **{f"K{n}": (lambda n=n: k_n(n)) for n in (3, 5, 7, 9)},
    "Wh+-(K3)": lambda: flat_tower(k_n(3), "+-")[-1],
    "Wh-+(K3)": lambda: flat_tower(k_n(3), "-+")[-1],
    "Wh--(figure8)": lambda: flat_tower(figure8(), "--")[-1],
    "J#Wh(K3)": lambda: connected_sum_knots(j_in_y(), flat_tower(k_n(3), "+")[0]),
    "T(2,3)#Wh(K3)": lambda: connected_sum_knots(staircase_torus(3, "+"), flat_tower(k_n(3), "+")[0]),
    "T(2,5)+boxes": lambda: disjoint_sum([staircase_torus(5, "+"), box(2), box(0), box(2)]),
    "figure8+T(2,-3)+T(2,7)": lambda: disjoint_sum(
        [figure8(), staircase_torus(3, "-"), staircase_torus(7, "+")]),
    "T(2,5)#T(2,5)#T(2,5)": lambda: connected_sum_knots(
        connected_sum_knots(staircase_torus(5, "+"), staircase_torus(5, "+")), staircase_torus(5, "+")),
    # Built with a summand split handed over (test_handover.py).
    "T(2,-7)": lambda: staircase_torus(7, "-"),
    "figure8#figure8": lambda: connected_sum_knots(figure8(), figure8()),
    "swapped#swapped": lambda: connected_sum_knots(flip_swapped_boxes(0), flip_swapped_boxes(1)),
    "m(Wh(K3))": lambda: mirror_knot(flat_tower(k_n(3), "+")[0]),
    "m(m(K5))": lambda: mirror_knot(mirror_knot(k_n(5))),
}


def tracked_maps(r):
    """The inclusion and the projection a ``_Reducer`` tracks, with powers:
    each survivor as original generators, each original generator as survivors."""
    kept = survivors(r).items()
    iota = {g: r.powers(*_plus(r.iota_rows[i], r.iota_bases[i], 1, i), r.m[i]) for g, i in kept}
    cols = {g: r.powers(*_plus(r.pi_cols[i], r.pi_bases[i], 1, i), r.m[i]) for g, i in kept}
    return iota, {e: {g: -col[e] for g, col in cols.items() if e in col} for e in r.generators}


def a_gradings(sc):
    """The grading vector of each A_s of ``sc``: one of s < 0, which it does
    not build (its model is A_{-s}'s, moved by the flip), is read off A_{-s}
    through the flip, m_s(x) = m_{-s}(flip x) + 2s."""
    return {s: sc.gradings[s] if s in sc.gradings else [sc.gradings[-s][j] + 2 * s for j in sc.flip]
            for s in sc.a_shifts}


def spelled_cone(sc):
    """The cone of ``sc`` on generator names, a power rounded down where the
    gradings give none, over the vectors of :func:`a_gradings`."""
    gens, m, gradings, a_complexes, edges = sc.base.generators, sc.base.maslov, a_gradings(sc), {}, {}
    for s, ms in gradings.items():
        at = dict(zip(gens, ms))
        a_complexes[s] = FreeComplex(zip(gens, ms), {x: {y: (at[y] - at[x] + 1) // 2 for y in row}
                                                    for x, row in sc.base.differential.items()})
    for (s, kind), e in sc.edges.items():
        drop = sc.a_shifts[s] - 1 - sc.b_shifts[s if kind == "v" else s + sc.n]
        edges[s, kind] = {x: {gens[j]: (m[gens[j]] - y - drop) // 2} for x, j, y in zip(gens, e, gradings[s])}
    return surgery.MappingCone(sc.n, tuple(gradings), tuple(sc.b_shifts), a_complexes,
                               {t: sc.base for t in sc.b_shifts}, sc.a_shifts, sc.b_shifts, edges)


def positional_complex(m, rows, bases):
    """The complex on the positions of the gradings ``m``, each named by its
    number, with the window bitset rows ``(rows, bases)``; each power is read
    off the gradings, rounded down where they give none."""
    names = [str(i) for i in range(len(m))]
    return FreeComplex(zip(names, m), {names[i]: {names[j]: (m[j] - m[i] + 1) // 2 for j in _positions(v, bases[i])}
                                       for i, v in enumerate(rows) if v})


def cone_check(sc):
    """``validate_complex`` of ``spelled_cone(sc).total_complex()`` on the
    vectors (each entry of B, of B's matrix under each m_s and each edge image
    a non-negative power of degree -1, then over F2 d^2 = 0 on B's rows and
    each distinct sum of maps into one B_t a chain map), and the flip an F2
    chain map and involution with m_{-s}(flip x) = m_s(x) - 2s where ``sc``
    builds both, for reading A_{-s} off A_s; over :func:`a_gradings`."""
    base, n, gens, gradings = sc.base, sc.n, sc.base.generators, a_gradings(sc)
    (rows, bases), bad = _id_rows(base, {g: i for i, g in enumerate(gens)})
    pairs = [(i, j) for i, v in enumerate(rows) for j in _positions(v, bases[i])]
    src, tgt = [i for i, _j in pairs], [j for _i, j in pairs]
    m = list(map(base.maslov.__getitem__, gens))
    for s, ms in gradings.items():  # an entry U^p raises the grading by 2p - 1
        rises = list(map(sub, map(ms.__getitem__, tgt), map(ms.__getitem__, src)))
        if rises and (min(rises) < -1 or set(map(mod, rises, repeat(2))) != {1}):
            bad += [f"entry A{s}|{gens[i]}->A{s}|{gens[j]} is not a non-negative power of degree -1"
                    for i, j, d in zip(src, tgt, rises) if d < -1 or d % 2 != 1]
    landing = {}
    for (s, kind), e in sc.edges.items():  # an edge entry U^p rises by 2p plus the shifts' drop
        t = s if kind == "v" else s + n
        gaps = [y - x - sc.a_shifts[s] + 1 + sc.b_shifts[t] for x, y in zip(gradings[s], map(m.__getitem__, e))]
        if min(gaps) < 0 or set(map(mod, gaps, repeat(2))) != {0}:
            bad += [f"edge A{s}|{gens[i]}->B{t}|{gens[j]} is not a non-negative entry of degree -1"
                    for i, (j, d) in enumerate(zip(e, gaps)) if d < 0 or d % 2]
        landing.setdefault((s, t), []).append(e)  # at framing 0, v_0 + h_0 lands in B_0
    if not bad:
        bad += _square_violations(gens, base.maslov, rows, bases)
        maps = {}  # each distinct sum of maps once: every v_s is one list, every h_s another
        for (s, t), parts in landing.items():
            maps.setdefault(tuple(map(id, parts)), (f"the edge map from A{s} to B{t}", parts))
        if any(s > 0 for s in sc.gradings):
            maps.setdefault((id(sc.flip),), ("the flip", [sc.flip]))
            if any(sc.flip[j] != i for i, j in enumerate(sc.flip)):
                bad.append("the flip is not an involution")
            bad += [f"A{-s} is not A{s} through the flip" for s, ms in sc.gradings.items()
                    if s > 0 and -s in sc.gradings and [sc.gradings[-s][j] for j in sc.flip] != [x - 2 * s for x in ms]]
        ones = [1] * len(gens)
        for what, parts in maps.values():  # d e + e d over F2, summed and dropped per position
            for i, v in enumerate(rows):
                acc = at = 0
                for e in parts:
                    acc, at = _sum(rows, bases, 1, e[i], acc, at)
                    acc, at = _sum(ones, e, v, bases[i], acc, at)
                if acc:
                    bad.append(f"{what} is not a chain map")
                    break
    return ValidationReport(ok=not bad, violations=tuple(bad))


def holders(modules, name, fn):
    """The modules among ``modules`` that hold ``fn`` as ``name``."""
    return [module for module in list(modules) if getattr(module, "__dict__", {}).get(name) is fn]


def unchecked(monkeypatch):
    """Run the rest of a test as users run the program, without the re-checks
    of package-built cones, complexes, splits, counted complexes, handed-over
    rows and certified shapes that ``conftest.py`` adds."""
    monkeypatch.setattr(surgery, "_minimal_cone", inspect.unwrap(surgery._minimal_cone))
    for cls in (FreeComplex, KnotComplex):
        monkeypatch.setattr(cls, "_built", classmethod(inspect.unwrap(cls._built.__func__)))
    monkeypatch.setattr(cfk._CountedComplex, "__init__", inspect.unwrap(cfk._CountedComplex.__init__))
    for module in holders(sys.modules.values(), "validate_knot", cfk.validate_knot):
        monkeypatch.setattr(module, "validate_knot", inspect.unwrap(cfk.validate_knot))
