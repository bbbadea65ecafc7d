"""Knot complexes over F2[U]: builders, sums, mirrors, and hat invariants.

A :class:`KnotComplex` is a free graded complex together with an integer
Alexander grading on generators (U drops it by one), an optional flip
involution realising the (i, j)-symmetry on a symmetric basis, and a
little ambient-manifold metadata.  The built-in zoo covers the trivial
knot, the figure-eight, (2, n) torus staircases, and the two surgered
ambient complexes used by the surgery pipeline.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat
from typing import Mapping, Optional

from .fualgebra import (
    FreeComplex,
    InvalidComplex,
    ValidationReport,
    _exact,
    _pivots,
    _Reducer,
    _tensor,
    components,
    format_grading,
    graded_f2_dims,
    grading,
    homology_decomposition,
    integer,
    json_checked,
    json_field,
    validate_complex,
)

F = Fraction


@dataclass(frozen=True)
class Ambient:
    name: str = "S3"
    b1: int = 0
    reduced_trivial: bool = True

    @property
    def is_sphere(self) -> bool:
        return self.b1 == 0

    def to_json(self) -> dict:
        return {"name": self.name, "b1": self.b1, "reduced_trivial": self.reduced_trivial}

    @classmethod
    def from_json(cls, data) -> "Ambient":
        data = json_checked(data, dict, '"ambient"')
        name, b1, trivial = (json_field(data, key, '"ambient"') for key in ("name", "b1", "reduced_trivial"))
        if not isinstance(trivial, bool):
            raise TypeError(f"reduced_trivial is not a boolean: {trivial!r}")
        if (b1 := integer(b1)) < 0:
            raise ValueError(f"b1 is negative: {b1}")
        if not isinstance(name, str):
            raise TypeError(f"ambient name is not a string: {name!r}")
        return cls(name, b1, trivial)


class KnotComplex:
    """A bifiltered free complex: Maslov grading plus Alexander filtration.

    An immutable value, so its summand split is taken at most once and kept
    (:func:`_shapes`).  The builders that know the split hand it over through
    :meth:`_built`; a double (``whitehead.box_tower``) and a sum with a
    counted factor hand over only the split (:class:`_CountedComplex`).  The
    canonical reduction of each shape is kept the same way
    (:func:`_canonical_shapes`), and so is each slice piece resolved on it
    (``endfloer._resolve_piece``, in ``_pieces``); callers must not mutate
    them.  A representative of a split carries the shape key the split took of it
    (``_key``, else None), and :func:`validate_knot` certifies one whose key
    is Hedden's x or box by that key; any other shape is checked at every call.
    :meth:`maslov` is the ``Fraction`` of the internal ``base.maslov``.
    """

    __slots__ = ("base", "alexander", "flip", "ambient", "name", "_split", "_canonical", "_key", "_pieces")

    def __init__(self, base: FreeComplex, alexander: Mapping[str, int],
                 flip: Optional[Mapping[str, str]] = None,
                 ambient: Ambient = Ambient(), name: str = ""):
        self.base = base
        self.alexander = {g: a if type(a := alexander[g]) is int else int(a) for g in base.generators}
        self.flip = dict(flip) if flip is not None else None
        self.ambient = ambient
        self.name = name
        self._split = self._canonical = self._key = self._pieces = None

    @classmethod
    def _built(cls, base: FreeComplex, alexander: dict, flip: Optional[dict], ambient: Ambient,
               name: str = "", split=None) -> "KnotComplex":
        """A knot complex the package built, kept as given: ``alexander`` an ``int`` per
        generator in generator order, ``split`` what :func:`_summands` takes of it or None."""
        kc = object.__new__(cls)
        kc.base, kc.alexander, kc.flip, kc.ambient, kc.name, kc._split, kc._canonical, kc._key, kc._pieces = (
            base, alexander, flip, ambient, name, split, None, None, None)
        return kc

    @property
    def generators(self):
        return self.base.generators

    def maslov(self, g: str) -> Fraction:
        return grading(self.base.maslov[g])

    def genus_bound(self) -> int:
        """Largest |Alexander| over generators (the working genus)."""
        return max((abs(a) for a in self.alexander.values()), default=0)

    def __eq__(self, other):
        if not isinstance(other, KnotComplex):
            return NotImplemented
        return (
            self.base == other.base
            and self.alexander == other.alexander
            and self.flip == other.flip
            and self.ambient == other.ambient
        )

    def __repr__(self):
        size = sum(len(rep.generators) * count for rep, copies in _shapes(self) for _offset, count in copies)
        return f"KnotComplex({self.name or 'unnamed'}, {size} generators)"

    def to_json(self) -> dict:
        data = self.base.to_json()
        data["alexander"] = {g: self.alexander[g] for g in self.generators}
        if self.flip is not None:
            data["flip"] = sorted([a, b] for a, b in self.flip.items() if a <= b)
        data["ambient"] = self.ambient.to_json()
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_json(cls, data) -> "KnotComplex":
        """The knot complex of ``data``, built from the dicts its checks make, not copied again."""
        base = FreeComplex.from_json(data)
        flip = None
        if "flip" in data:
            flip = {}
            for i, pair in enumerate(json_checked(data["flip"], list, '"flip"')):
                a, b = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
                if not (isinstance(a, str) and isinstance(b, str)):
                    raise TypeError(f"flip pair {i} is not a list of two generator names")
                flip[a] = b
                flip[b] = a
        alexander = json_checked(json_field(data, "alexander", "the complex"), dict, '"alexander"')
        alexander = {g: integer(v) for g, v in alexander.items()}
        if not isinstance(name := data.get("name", ""), str):
            raise TypeError(f"name is not a string: {name!r}")
        for what, names in (("alexander grades", alexander), ("flip pairs", flip or {})):
            if not names.keys() <= base.maslov.keys():
                extra = sorted(map(repr, names.keys() - base.maslov.keys()))
                raise ValueError(f"{what} {', '.join(extra)}, which are not generators")
        if len(alexander) < len(base.generators):
            missing = next(g for g in base.generators if g not in alexander)
            raise ValueError(f"generator {missing!r} has no alexander grade")
        if tuple(alexander) != base.generators:
            alexander = {g: alexander[g] for g in base.generators}
        ambient = Ambient.from_json(data["ambient"]) if "ambient" in data else Ambient()
        return cls._built(base, alexander, flip, ambient, name)


def validate_knot(kc: KnotComplex) -> ValidationReport:
    """Base-complex validity, Alexander filtration and flip axioms, once per
    shape of :func:`_shapes`: each check is local to a summand and blind to
    names and a Maslov shift.  A flip passing them is an isomorphism of hat
    complexes (m, s) -> (m - 2s, -s), so the hat table is symmetric.

    A representative whose carried key is a key of :func:`_normal_forms` is
    not checked: the key holds every datum the checks read (relative Maslov
    and Alexander gradings, flip positions, each row's target positions and
    powers), so it gets the verdict of that normal form, which is valid.
    The report carries, per shape, the rows its checks ran on (None for a
    certified shape), for the caller to reduce within the same call."""
    violations, chain_map, checked, handed, certified = [], True, [], [], _normal_forms()
    for rep, copies in _shapes(kc):
        if rep._key in certified:
            handed.append(None)
            continue
        found, ready, rows = _summand_violations(rep)
        if found:  # report at absolute gradings
            found, ready, rows = _summand_violations(KnotComplex(rep.base.shift(copies[0][0]), rep.alexander, rep.flip))
        checked.append(rep)
        handed.append(rows)
        violations += found
        chain_map = chain_map and ready
    if chain_map:
        violations += [v for rep in checked for v in _flip_chain_map_violations(rep)]
    return ValidationReport(ok=not violations, violations=tuple(violations), checked=handed)


def _shapes(kc: KnotComplex) -> list[tuple[KnotComplex, list[tuple]]]:
    """``_summands(kc)``, taken once per object and kept on it."""
    if kc._split is None:
        kc._split = _summands(kc)
    return kc._split


class _CountedComplex(KnotComplex):
    """A knot complex kept as its split alone; ``base``, ``alexander`` and ``flip`` are written (:func:`_expanded`)
    when first read.  Only this class has the hook: a ``__getattr__`` slows every attribute read."""

    __slots__ = ()

    def __init__(self, split, ambient: Ambient = Ambient(), name: str = ""):
        self.ambient, self.name, self._split, self._canonical, self._key, self._pieces = (
            ambient, name, split, None, None, None)

    def __getattr__(self, attr):  # only an unset slot gets here
        if attr not in ("base", "alexander", "flip"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        self.base, self.alexander, self.flip = (flat := _expanded(self)).base, flat.alexander, flat.flip
        return getattr(flat, attr)


def _expanded(kc: _CountedComplex) -> KnotComplex:
    """The flat form of a counted ``kc``, with its split: copy i (from 0, over the shapes and their copies) writes
    each generator ``j.g`` of its shape as ``i.g``, at its grading plus the copy's offset, with its row and flip."""
    names, maslov, alexander, images, diff, n = [], [], [], [], {}, 0
    for rep, copies in kc._split:
        gens, size, first, total = rep.generators, len(rep.generators), len(names), sum(c for _o, c in copies)
        at, local = {g: j for j, g in enumerate(gens)}, [g[g.index("."):] for g in gens]
        names, n = names + [i + g for i in map(str, range(n, n + total)) for g in local], n + total
        flip = [at[rep.flip[g]] for g in gens]
        for offset, count in copies:  # one grading per generator and offset, shared by its copies
            maslov += [rep.base.maslov[g] + offset for g in gens] * count
        alexander += list(rep.alexander.values()) * total
        images += [start + j for start in range(first, len(names), size) for j in flip]
        rows = [(at[src], [(at[t], p) for t, p in row.items()]) for src, row in rep.base.differential.items()]
        for copy in (names[start:start + size] for start in range(first, len(names), size)):
            for j, entries in rows:
                row = diff[copy[j]] = {}
                for t, p in entries:  # faster than a row from zip
                    row[copy[t]] = p
    return KnotComplex._built(FreeComplex._built(dict(zip(names, maslov)), diff), dict(zip(names, alexander)),
                              dict(zip(names, map(names.__getitem__, images))), kc.ambient, kc.name, kc._split)


def _summands(kc: KnotComplex) -> list[tuple[KnotComplex, list[tuple]]]:
    """The flip-stable summands of ``kc`` (components of the differential
    entries and flip pairs) as ``(representative, [(offset, count)])`` per
    shape (:func:`_shape_key`), or the whole complex if an endpoint is missing
    or a flip is partial or not involutive.  A complex that is one summand
    with an ``int`` first grading is its own shape at offset 0."""
    layout = _layout(kc)
    parts = None if layout is None else _parts(layout)
    return _split_of(kc, parts, (_shape_key(layout, part) for part in parts or ()))


def _layout(kc: KnotComplex) -> Optional[tuple[list, list, Optional[list[int]], list]]:
    """``kc`` by generator position: the Maslov and the Alexander gradings,
    each flip image's position (None without a flip) and each row as
    ``(target positions, powers)`` or None; None if an endpoint is missing
    or the flip is partial or not involutive."""
    gens, diff, flip = kc.generators, kc.base.differential, kc.flip
    at, rows = {g: i for i, g in enumerate(gens)}, [None] * len(gens)
    try:
        for src, row in diff.items():
            rows[at[src]] = (tuple(map(at.__getitem__, row)), tuple(row.values()))
    except KeyError:
        return None
    images = None
    if flip is not None:
        images = [at.get(flip.get(g)) for g in gens]
        if None in images or list(map(images.__getitem__, images)) != list(range(len(gens))):
            return None
    return list(kc.base.maslov.values()), list(kc.alexander.values()), images, rows  # both in generator order


def _parts(layout, flips: bool = True) -> list[list[int]]:
    """The components of the differential entries of a complex of
    :func:`_layout` ``layout`` and, with ``flips``, of its flip pairs, as
    lists of generator positions."""
    _m, _a, images, rows = layout
    edges = [(i, j) for i, row in enumerate(rows) if row for j in row[0]]
    if flips and images is not None:
        edges += [(i, j) for i, j in enumerate(images) if i < j]
    return components(len(rows), edges)


def _split_of(kc: KnotComplex, parts, keys=None) -> list[tuple[KnotComplex, list[tuple]]]:
    """:func:`_summands` of ``kc`` from its summands ``parts`` (None if broken) and their
    shapes ``keys``, an iterable read only if needed (by default from :func:`_layout`)."""
    if parts is None or len(parts) == 1 and type(kc.base.maslov[kc.generators[0]]) is int:
        return [(KnotComplex._built(kc.base, kc.alexander, kc.flip, kc.ambient), [(0, 1)])]  # not kc: no cycle
    if keys is None:
        layout = _layout(kc)
        keys = (_shape_key(layout, part) for part in parts)
    return [(rep, [tuple(copy) for copy in copies.values()]) for rep, copies in _grouped(kc, parts, keys)[0]]


def _shape_key(layout, members) -> tuple:
    """The shape of the summand at the rising positions ``members`` of a
    complex of :func:`_layout` ``layout``: per member, its Maslov grading
    less the first member's (an ``int`` if integral), its Alexander grading,
    its flip's position and its row, by positions within the summand."""
    m, a, images, rows = layout
    m0 = m[members[0]]
    if type(m0) is int:
        relative = tuple([m[i] - m0 for i in members])
    else:
        q, n0 = m0.denominator, m0.numerator  # integer division beats Fraction subtraction
        relative = tuple(k if x.denominator == q and not r else x - m0 for x in map(m.__getitem__, members)
                         for k, r in [divmod(x.numerator - n0, q)])
    pos = dict(zip(members, range(len(members)))).__getitem__
    return (relative, tuple(map(a.__getitem__, members)),
            None if images is None else tuple(map(pos, map(images.__getitem__, members))),
            tuple(row and (tuple(map(pos, row[0])), row[1]) for row in map(rows.__getitem__, members)))


def _grouped(kc: KnotComplex, parts, keys) -> tuple[list, list[int]]:
    """The shapes ``keys`` of the summands ``parts`` of ``kc`` in order, each as
    ``(representative carrying its key, {offset key: [offset, count]})``, and
    each part's shape."""
    gens, M = kc.generators, kc.base.maslov
    index, shapes, labels = {}, [], []
    for part, key in zip(parts, keys):
        if (i := index.get(key)) is None:
            i = index[key] = len(shapes)
            shapes.append((_from_key(key, list(map(gens.__getitem__, part)), kc.ambient), {}))
        m0 = M[gens[part[0]]]
        shapes[i][1].setdefault((m0.numerator, m0.denominator), [m0, 0])[1] += 1  # int keys hash faster
        labels.append(i)
    return shapes, labels


def _from_key(key, names: list, ambient: Ambient) -> KnotComplex:
    """The summand of shape ``key`` (:func:`_shape_key`) on the generators ``names``, carrying its key."""
    relative, alexander, images, rows = key
    diff = {names[i]: dict(zip(map(names.__getitem__, row[0]), row[1])) for i, row in enumerate(rows) if row}
    rep = KnotComplex._built(FreeComplex._built(dict(zip(names, relative)), diff), dict(zip(names, alexander)),
                             None if images is None else dict(zip(names, map(names.__getitem__, images))), ambient)
    rep._key = key
    return rep


def _summand_violations(kc: KnotComplex) -> tuple[list[str], bool, tuple]:
    """Every check of :func:`validate_knot` but the flip chain map, whether that check can run
    (a flip defined everywhere, a valid base), and the rows the base's checks ran on."""
    base_report = validate_complex(kc.base)
    violations = list(base_report.violations)
    A, M = kc.alexander, kc.base.maslov
    for src, tgt, p in kc.base.entries():
        if src not in A or tgt not in A:
            continue  # reported by validate_complex
        if A[tgt] - p > A[src]:
            violations.append(
                f"entry {src}->U^{p}.{tgt} raises the Alexander filtration"
            )
    if kc.flip is None:
        return violations, False, base_report.checked
    flip_ok = True
    for g in kc.generators:
        img = kc.flip.get(g)
        if img is None or img not in A:
            violations.append(f"flip undefined on {g}")
            flip_ok = False
            continue
        if kc.flip.get(img) != g:
            violations.append(f"flip not involutive at {g}")
        if A[img] != -A[g]:
            violations.append(f"flip image of {g} has Alexander {A[img]} != {-A[g]}")
        if M[img] != M[g] - 2 * A[g]:
            violations.append(f"flip image of {g} has wrong Maslov grading")
    return violations, flip_ok and base_report.ok, base_report.checked


def _flip_chain_map_violations(kc: KnotComplex) -> list[str]:
    """Check that x -> U^(-A(x)) flip(x) intertwines the differentials."""
    A, flip = kc.alexander, kc.flip
    out = []
    for x in kc.generators:
        lhs: dict[str, int] = {}
        for y, p in kc.base.differential.get(x, {}).items():
            lhs[flip[y]] = p - A[y] + A[x]
        rhs = dict(kc.base.differential.get(flip[x], {}))
        if lhs != rhs:
            out.append(f"flip fails to be a chain map at {x}")
    return out


# ---------------------------------------------------------------------------
# builders


def box(k, j: int = 0, prefix: str = "") -> KnotComplex:
    """The four-generator square summand B[k, j].

    Corner ``a`` sits at Maslov k, Alexander j, with da = Ub + c,
    db = d, dc = Ud.  For j = 0 the square is symmetric and carries the
    flip (a, d fixed, b <-> c); for j != 0 no flip is attached.
    """
    k = _exact(k)
    a, b, c, d = (prefix + n for n in "abcd")
    base = FreeComplex(
        [(a, k), (b, k + 1), (c, k - 1), (d, k)],
        {a: {b: 1, c: 0}, b: {d: 0}, c: {d: 1}},
    )
    alexander = {a: j, b: j + 1, c: j - 1, d: j}
    flip = {a: a, d: d, b: c, c: b} if j == 0 else None
    return KnotComplex(base, alexander, flip, Ambient(), name=f"B[{format_grading(k)},{j}]")


def staircase_torus(n: int, sign: str = "+") -> KnotComplex:
    """The (2, n) torus-knot staircase for odd n >= 3.

    2m+1 generators (n = 2m+1) with Maslov 0, -1, ..., -2m and Alexander
    m, m-1, ..., -m; each odd generator maps onto its neighbours by
    d g(2i+1) = U g(2i) + g(2i+2).  The flip is the index reversal.
    Sign "-" gives the mirror.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"staircase needs odd n >= 3, got {n}")
    if sign not in {"+", "-"}:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    m = (n - 1) // 2
    names = [f"s{i}" for i in range(2 * m + 1)]
    base = FreeComplex(
        [(names[i], -i) for i in range(2 * m + 1)],
        {
            names[2 * i + 1]: {names[2 * i]: 1, names[2 * i + 2]: 0}
            for i in range(m)
        },
    )
    alexander = {names[i]: m - i for i in range(2 * m + 1)}
    flip = {names[i]: names[2 * m - i] for i in range(2 * m + 1)}
    kc = KnotComplex(base, alexander, flip, Ambient(), name=f"T(2,{n})")
    return _mirror(kc, f"T(2,-{n})") if sign == "-" else kc


def unknot() -> KnotComplex:
    base = FreeComplex([("x", 0)])
    return KnotComplex(base, {"x": 0}, {"x": "x"}, Ambient(), name="unknot")


def figure8() -> KnotComplex:
    """The five-generator thin complex: a free summand x plus one square."""
    b = box(0, 0)
    gens = [("x", 0)] + [(g, b.base.maslov[g]) for g in b.generators]
    base = FreeComplex(gens, b.base.differential)
    alexander = {"x": 0, **b.alexander}
    flip = {"x": "x", **b.flip}
    return KnotComplex(base, alexander, flip, Ambient(), name="figure8")


def j_in_y() -> KnotComplex:
    """The four-generator complex of the companion knot inside 0-surgery
    on the (2,3) torus knot: da = b, dc = Ub, with d a split generator.

    The ambient has b1 = 1 and trivial reduced homology.
    """
    base = FreeComplex(
        [("a", F(1, 2)), ("b", F(-1, 2)), ("c", F(-3, 2)), ("d", F(-1, 2))],
        {"a": {"b": 0}, "c": {"b": 1}},
    )
    alexander = {"a": 1, "b": 0, "c": -1, "d": 0}
    flip = {"a": "c", "c": "a", "b": "b", "d": "d"}
    return KnotComplex(base, alexander, flip, Ambient("Y", 1, True), name="J")


def jprime_in_yprime() -> KnotComplex:
    """The six-generator companion complex inside 0-surgery on the
    figure-eight knot: two split generators u, v plus a vertical pair
    p -> q and a horizontal pair r -> Us.

    The picture fixes only the arrow pattern and Alexander gradings; the
    Maslov gradings below are forced by two constraints and frozen here:
    the ambient homology must be towers at +1/2 and -1/2 with one length-1
    torsion class (u, v free; the pair r -> Us contributes the torsion),
    and -1-surgery on the companion must give two towers at +1/2 and -1/2
    with the same d-invariants as the ambient.  Both are asserted in the
    regression tests.
    """
    base = FreeComplex(
        [
            ("u", F(1, 2)),
            ("v", F(-1, 2)),
            ("p", F(3, 2)),
            ("q", F(1, 2)),
            ("r", F(-1, 2)),
            ("s", F(1, 2)),
        ],
        {"p": {"q": 0}, "r": {"s": 1}},
    )
    alexander = {"u": 0, "v": 0, "p": 1, "q": 0, "r": -1, "s": 0}
    flip = {"u": "u", "v": "v", "p": "r", "r": "p", "q": "s", "s": "q"}
    return KnotComplex(base, alexander, flip, Ambient("Y'", 1, False), name="J'")


_BUILTINS = {
    "unknot": unknot,
    "figure8": figure8,
    "J_in_Y": j_in_y,
    "Jprime_in_Yprime": jprime_in_yprime,
}


def builtin(name: str) -> KnotComplex:
    """Return a built-in table complex by name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; have {sorted(_BUILTINS)}") from None


# ---------------------------------------------------------------------------
# constructions


def mirror_knot(kc: KnotComplex) -> KnotComplex:
    """Dual complex: Maslov and Alexander negate, the differential is
    transposed, and the gradings are renormalised so that the surviving
    free homology class sits in grading 0 (the sphere convention).
    """
    if not kc.ambient.is_sphere:
        raise ValueError("mirror is only defined for complexes with trivial ambient")
    validate_knot(kc).require("knot complex")
    return _mirror(kc, f"m({kc.name})" if kc.name else "")


def _dual(c: FreeComplex, top=0) -> FreeComplex:
    """The transposed complex with gradings top - m, each row listing its
    sources in generator order."""
    M, transposed = c.maslov, {}
    for src, row in zip(c.generators, map(c.differential.get, c.generators)):
        for tgt, p in row.items() if row else ():
            transposed.setdefault(tgt, {})[src] = p
    return FreeComplex._built({g: m if type(m := top - M[g]) is int else _exact(m) for g in c.generators}, transposed)


def _keyed(kc: KnotComplex) -> KnotComplex:
    """``kc``, carrying its own :func:`_shape_key` as a split representative."""
    kc._key = _shape_key(_layout(kc), range(len(kc.generators)))
    return kc


@cache
def _normal_forms() -> dict:
    """Hedden's x and box by :func:`_shape_key`, the box in each clasp's layout:
    ``box(0)`` and its dual, named as a counted double names their first copies."""
    b, x = box(0, prefix="1."), KnotComplex(FreeComplex([("0.x", 0)]), {"0.x": 0}, {"0.x": "0.x"})
    dual = KnotComplex(_dual(b.base), {g: -a for g, a in b.alexander.items()}, b.flip)
    return {_keyed(k)._key: k for k in (x, KnotComplex(b.base, b.alexander, b.flip), dual)}


def _mirror(kc: KnotComplex, name: str) -> KnotComplex:
    """:func:`mirror_knot` of a valid complex over S3, unchecked, with its
    split: each shape is dualised once, and a copy at offset o of the shape
    becomes a copy of its dual at top - o."""
    shapes = _shapes(kc)
    duals = [_dual(rep.base) for rep, _copies in shapes]
    towers = [t - offset for d, (_rep, copies) in zip(duals, shapes) for t in homology_decomposition(d).towers
              for offset, count in copies for _ in range(count)]
    if len(towers) != 1:
        raise InvalidComplex("mirror normalisation expects free rank 1")
    top = _exact(-towers[0])
    base, alexander = _dual(kc.base, top), {g: -a for g, a in kc.alexander.items()}
    if len(shapes) == 1 and [count for _offset, count in shapes[0][1]] == [1]:  # one summand
        split = _split_of(KnotComplex._built(base, alexander, kc.flip, kc.ambient), [range(len(base.generators))])
    else:
        split = [(KnotComplex(d, {g: -a for g, a in rep.alexander.items()}, rep.flip, kc.ambient),
                  [(_exact(top - offset), count) for offset, count in copies])
                 for d, (rep, copies) in zip(duals, shapes)]
        if len({_keyed(rep)._key for rep, _copies in split}) < len(split):
            split = None  # shapes alike but for the order of their rows merge in an order only the whole shows
    return KnotComplex._built(base, alexander, kc.flip, kc.ambient, name, split)


def connected_sum_knots(k1: KnotComplex, k2: KnotComplex) -> KnotComplex:
    """Tensor product of knot complexes; Alexander gradings add.

    At most one factor may live in a nontrivial ambient manifold.  Each
    factor is checked in ``tensor_complexes``'s words: a flat one whole, a
    counted one once per shape (it is a union of shifted copies of them).
    A sum with a counted factor stays counted (:func:`_counted_sum`) unless
    the other factor has no flip or no split; then, as a sum of two flat
    factors, it is written out.
    """
    if not k1.ambient.is_sphere and not k2.ambient.is_sphere:
        raise ValueError("at most one connected-sum factor may have b1 > 0")
    label = f"{k1.name}#{k2.name}" if k1.name and k2.name else ""
    for k, side in ((k1, "left"), (k2, "right")):  # worded as in tensor_complexes
        for rep, copies in _shapes(k) if isinstance(k, _CountedComplex) else [(k, [(0, 1)])]:
            if not validate_complex(rep.base).ok:
                validate_complex(rep.base.shift(copies[0][0])).require(f"{side} tensor factor")
    flat = [k for k in (k1, k2) if not isinstance(k, _CountedComplex)]
    if len(flat) == 2 or any(k.flip is None or _layout(k) is None for k in flat):
        return _connected_sum(k1, k2, label)
    return _counted_sum(k1, k2, label)


def _counted_sum(k1: KnotComplex, k2: KnotComplex, name: str) -> _CountedComplex:
    """:func:`connected_sum_knots` of checked factors with flips and splits, kept counted: the
    tensor of each pair of shapes (:func:`_shapes`) is split once, and each of its summands
    placed at each pair of copies (o1, c1), (o2, c2), at o1 + o2 plus its first grading, c1 c2
    times.  A shape is named as :func:`_expanded` names its first copy i: ``i.(a|b)``."""
    found, ambient = {}, k1.ambient if not k1.ambient.is_sphere else k2.ambient  # key -> (names, copies)
    for r1, copies1 in _shapes(k1):
        for r2, copies2 in _shapes(k2):
            t = _knot_tensor(r1, r2, _tensor(r1.base, r2.base))
            for part in _parts(lt := _layout(t)):
                copies = found.setdefault(_shape_key(lt, part), ([t.generators[i] for i in part], Counter()))[1]
                for o1, c1 in copies1:
                    for o2, c2 in copies2:
                        copies[_exact(o1 + o2 + lt[0][part[0]])] += c1 * c2
    split, first = [], 0
    for key, (names, copies) in found.items():
        split.append((_from_key(key, [f"{first}.{g}" for g in names], ambient), list(copies.items())))
        first += sum(copies.values())
    return _CountedComplex(split, ambient, name)


def _knot_tensor(k1: KnotComplex, k2: KnotComplex, base: FreeComplex) -> KnotComplex:
    """``k1 # k2`` on ``base``, the tensor of their bases, without a split."""
    right = list(map(k2.alexander.__getitem__, k2.generators))
    alexander = dict(zip(base.generators, [a + b for a in map(k1.alexander.__getitem__, k1.generators) for b in right]))
    flip = None
    if k1.flip is not None and k2.flip is not None:
        try:
            left, right = [f"({k1.flip[a]}|" for a in k1.generators], [f"{k2.flip[b]})" for b in k2.generators]
        except KeyError as exc:  # worded as in validate_knot
            raise InvalidComplex(f"flip undefined on {exc.args[0]}") from None
        flip = dict(zip(base.generators, [a + b for a in left for b in right]))
    ambient = k1.ambient if not k1.ambient.is_sphere else k2.ambient
    return KnotComplex._built(base, alexander, flip, ambient)


def _connected_sum(k1: KnotComplex, k2: KnotComplex, name: str) -> KnotComplex:
    """:func:`connected_sum_knots` of valid factors written out, unchecked,
    with its split (:func:`_sum_split`)."""
    kc = _knot_tensor(k1, k2, _tensor(k1.base, k2.base))
    return KnotComplex._built(kc.base, kc.alexander, kc.flip, kc.ambient, name, _sum_split(k1, k2, kc))


def _sum_split(k1: KnotComplex, k2: KnotComplex, kc: KnotComplex):
    """:func:`_summands` of ``kc = k1 # k2`` without a union-find on kc, or None
    if a factor is structurally broken.  A summand of kc is a summand of the
    tensor of one summand of each factor: the tensor of each pair of shapes is
    split once and placed at each pair of copies.  kc is one summand if both
    factors are connected by their differentials alone (a Cartesian product
    of connected graphs is connected)."""
    l1, l2 = _layout(k1), _layout(k2)
    if l1 is None or l2 is None:
        return None
    p1, p2 = _parts(l1), _parts(l2)
    if len(p1) == len(p2) == 1 and len(_parts(l1, flips=False)) == len(_parts(l2, flips=False)) == 1:
        return _split_of(kc, [range(len(kc.generators))])
    shapes1, labels1 = _grouped(k1, p1, (_shape_key(l1, part) for part in p1))
    shapes2, labels2 = _grouped(k2, p2, (_shape_key(l2, part) for part in p2))
    tensors, found, width = {}, [], len(k2.generators)
    for P, i in zip(p1, labels1):
        for Q, j in zip(p2, labels2):
            if (i, j) not in tensors:
                (r1, _copies), (r2, _copies) = shapes1[i], shapes2[j]
                t, n = _knot_tensor(r1, r2, _tensor(r1.base, r2.base)), len(r2.generators)
                lt = _layout(t)
                tensors[i, j] = [([divmod(k, n) for k in c], _shape_key(lt, c)) for c in _parts(lt)]
            found += [([P[r] * width + Q[s] for r, s in c], key) for c, key in tensors[i, j]]
    found.sort(key=lambda piece: piece[0][0])  # by first generator, as components lists them
    return _split_of(kc, [c for c, _key in found], [key for _c, key in found])


def k_n(n: int) -> KnotComplex:
    """The ribbon knot K_n = T(2, n) # T(2, -n), unreduced."""
    return _connected_sum(staircase_torus(n, "+"), staircase_torus(n, "-"), f"K{n}")


def reduce_canonical(kc: KnotComplex) -> KnotComplex:
    """Cancel every U^0 entry with zero Alexander drop.

    The output is filtered-homotopy-equivalent to the input and minimal
    in that sense.  The stored flip survives only if it is still a valid
    flip on the surviving basis (cancellation can mix it away).
    """
    reduced, flip = _canonical(kc), None
    if kc.flip is not None:
        candidate = {g: kc.flip[g] for g in reduced.generators if kc.flip[g] in reduced.alexander}
        if len(candidate) == len(reduced.generators) and not _flip_chain_map_violations(
                KnotComplex._built(reduced.base, reduced.alexander, candidate, kc.ambient)):
            flip = candidate
    return KnotComplex._built(reduced.base, reduced.alexander, flip, kc.ambient, kc.name)


def _canonical(kc: KnotComplex, rows=None) -> KnotComplex:
    """:func:`reduce_canonical` with no flip (no reader of a canonical shape takes one), on
    the ``rows`` of a passed check of its base if given: ``kc`` if nothing cancels."""
    r = _Reducer(kc.base, alexander=kc.alexander, rows=rows).cancel_u0()
    if all(r.alive):  # a sweep that cancels nothing changes no row
        return kc
    base = r.current_complex()
    return KnotComplex._built(base, {g: kc.alexander[g] for g in base.generators}, None, kc.ambient)


# ---------------------------------------------------------------------------
# hat-level invariants


@dataclass(frozen=True)
class HfkTable:
    """Bigraded hat dimensions; ``reduced`` drops the surviving generator
    at (0, tau) and is only defined over the sphere."""

    total: dict
    reduced: Optional[dict] = None

    def max_reduced_maslov(self) -> Optional[Fraction]:
        if not self.reduced:
            return None
        return max(m for (m, _s) in self.reduced)


def hfk_hat(kc: KnotComplex) -> HfkTable:
    """Bigraded hat homology: U = 0, Alexander-preserving arrows only.

    HFK-hat is the homology of the associated graded complex.  The
    canonical reduction cancels every U^0 entry with zero Alexander drop,
    so no hat arrow survives it and the table counts its generators per
    (Maslov, Alexander), once per summand shape, shifted and counted per
    copy.  Over the sphere the reduced table removes one generator at
    (0, tau), tau read off the same reduction.
    """
    shapes = _canonical_shapes(kc)
    counts: Counter = Counter()
    for canonical, copies in shapes:
        here = Counter((canonical.base.maslov[g], canonical.alexander[g]) for g in canonical.generators)
        for offset, count in copies:
            for (m, a), d in here.items():
                counts[m + offset, a] += d * count
    total = {(grading(m), a): d for (m, a), d in sorted(counts.items())}
    reduced = None
    if kc.ambient.is_sphere:
        _pairs, (canonical, x, _offset) = _unpaired(shapes)
        tau = canonical.alexander[x]
        reduced = dict(total)
        spot = (F(0), tau)
        if reduced.get(spot, 0) < 1:
            raise InvalidComplex("no surviving generator at (0, tau)")
        if reduced[spot] == 1:
            del reduced[spot]
        else:
            reduced[spot] -= 1
    return HfkTable(total=total, reduced=reduced)


def filtration_homology(kc: KnotComplex, i: int) -> dict[int | Fraction, int]:
    """Graded homology of the U=0 subcomplex on generators with A <= i,
    by Gaussian elimination on the complex as given, keyed by the stored
    gradings (an ``int`` if integral)."""
    gens = [g for g in kc.generators if kc.alexander[g] <= i]
    index, rows = {g: n for n, g in enumerate(gens)}, kc.base.differential
    masks = [sum(1 << index[t] for t, p in rows.get(g, {}).items() if p == 0 and t in index) for g in gens]
    return graded_f2_dims([kc.base.maslov[g] for g in gens], masks, lambda m: m + 1)


def knot_numerics(kc: KnotComplex) -> dict:
    """tau and genus of a complex over the sphere.

    tau is the least i for which the filtration-level homology surjects
    onto the one-dimensional total U=0 homology: the Alexander grading of
    the one generator the vertical pairing of the canonically reduced
    complex leaves unpaired.  genus is the largest |Alexander| surviving
    canonical reduction.
    """
    if not kc.ambient.is_sphere:
        raise ValueError("tau/genus need the trivial ambient manifold")
    shapes = _canonical_shapes(kc)
    _pairs, (reduced, x, _offset) = _unpaired(shapes)
    return {"tau": reduced.alexander[x], "genus": max((r.genus_bound() for r, _copies in shapes), default=0)}


def _canonical_shapes(kc: KnotComplex, rows=()) -> list[tuple[KnotComplex, list[tuple]]]:
    """:func:`_canonical` per shape of :func:`_shapes`, with its copies, kept on ``kc``; on checked ``rows`` if any."""
    if kc._canonical is None:
        kc._canonical = [(_canonical(rep, r), copies) for (rep, copies), r in zip(_shapes(kc), rows or repeat(None))]
    return kc._canonical


def _unpaired(shapes):
    """The vertical pairs of each canonically reduced shape, and the one
    generator the pairing leaves unpaired, as ``(reduced shape, generator,
    offset of its copy)``.  The pairing never crosses summands, so that
    generator lies in the one copy of its shape."""
    pairs, unpaired = [], []
    for reduced, copies in shapes:
        found, survivors = _vertical_pairing(reduced)
        pairs.append(found)
        unpaired += [(reduced, x, offset, count) for x in survivors for offset, count in copies]
    if sum(count for *_found, count in unpaired) != 1:  # a count is never 0
        raise InvalidComplex("U=0 homology is not one-dimensional")
    return pairs, unpaired[0][:3]


def _vertical_pairing(reduced: KnotComplex):
    """Persistence pairing of the U=0 complex of a canonically reduced complex.

    Returns the pairs (y, z) with z the lowest term of the reduced
    boundary of y, and the generators left unpaired.  Columns are
    reduced in Alexander order by :func:`fualgebra._pivots`, each generator
    numbered from the end of that order, so the lowest set bit is the lowest
    term.  That order is a filtration order because ``reduce_canonical``
    leaves no U^0 entry with zero Alexander drop, so every U=0 arrow
    strictly lowers A; an unpaired generator is then born at the least
    filtration level whose homology reaches its class.
    """
    order = sorted(reduced.generators, key=lambda g: (reduced.alexander[g], str(reduced.base.maslov[g]), g))
    bit, rows = {g: b for b, g in enumerate(reversed(order))}, reduced.base.differential
    pivots = _pivots(sum(1 << bit[t] for t, p in rows.get(g, {}).items() if p == 0) for g in order)
    sources = set(pivots.values())
    return ([(order[i], order[~b]) for b, i in pivots.items()],
            [g for i, g in enumerate(order) if i not in sources and bit[g] not in pivots])


# ---------------------------------------------------------------------------
# the reduced hat-basis normal form


@dataclass(frozen=True)
class ReducedBasisForm:
    """Canonical pairing x, (y_j -> z_j) of the reduced U=0 complex.

    Each pair is recorded as (maslov of y_j, Alexander of y_j, drop d_j);
    the surviving generator x sits at Maslov and Alexander zero.
    """

    pairs: tuple[tuple[Fraction, int, int], ...]

    @staticmethod
    def make(pairs) -> "ReducedBasisForm":
        counts = pairs if isinstance(pairs, Mapping) else Counter((_exact(m), int(a), int(d)) for m, a, d in pairs)
        if (total := sum(counts.values())) > sys.maxsize:
            raise ValueError(f"reduced basis form of {total} pairs is too deep to list (at most {sys.maxsize})")
        order = sorted(counts, key=lambda t: (-t[0], -t[1], t[2]))  # only equal triples tie
        return ReducedBasisForm(tuple(t for m, a, d in order for t in [(grading(m), a, d)] * counts[m, a, d]))

    def mirror(self) -> "ReducedBasisForm":
        """Pairing of the mirror complex: (m, A, d) -> (1 - m, d - A, d)."""
        return ReducedBasisForm.make((1 - m, d - a, d) for m, a, d in self.pairs)


def reduced_basis_form(kc: KnotComplex) -> ReducedBasisForm:
    """Extract the (m_j, A_j, d_j) pairing from the reduced U=0 complex.

    Requires the trivial ambient and tau = 0; the vertical differential
    must pair all generators but one, which must sit at Maslov and
    Alexander zero.  The pairing is the persistence pairing of
    :func:`_vertical_pairing` (the same one that gives tau), a filtered
    change of basis, so the triples are well defined.  It is taken once
    per summand shape; each copy adds the shape's triples at its offset.
    """
    if not kc.ambient.is_sphere:
        raise ValueError("reduced basis form needs the trivial ambient manifold")
    return _reduced_basis_form(_canonical_shapes(kc))


def _reduced_basis_form(shapes, mirror: bool = False) -> ReducedBasisForm:
    """:func:`reduced_basis_form` from ``_canonical_shapes(kc)``, or with
    ``mirror`` that of the mirror knot (``ReducedBasisForm.mirror``), whose
    tau is the negative."""
    pairs, (reduced, x, offset) = _unpaired(shapes)
    if tau := reduced.alexander[x]:
        raise ValueError(f"reduced basis form needs tau = 0, got {-tau if mirror else tau}")
    if (m := reduced.base.maslov[x] + offset) != 0:
        raise InvalidComplex(f"surviving generator {x} sits at ({format_grading(m)}, 0), not (0, 0)")
    triples = Counter()  # each shape's triples counted once, then moved by each copy's offset
    for (canonical, copies), found in zip(shapes, pairs):
        M, A = canonical.base.maslov, canonical.alexander
        here = Counter((M[y], A[y], A[y] - A[z]) for y, z in found)
        if any(d <= 0 for _m, _a, d in here):
            raise InvalidComplex("vertical pairing produced a non-positive drop")
        for shift, count in copies:
            triples.update({(m + shift, a, d): c * count for (m, a, d), c in here.items()})
    rb = ReducedBasisForm.make(triples)
    return rb.mirror() if mirror else rb
