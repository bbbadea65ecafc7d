"""Exact homological algebra for free graded chain complexes over F2[U].

Everything here is exact.  A complex keeps an integral grading as an
``int`` and any other as a ``fractions.Fraction`` (:func:`_exact` makes
that choice), so validation, tensor products and reduction of complexes
over S3 run on machine integers, and validation and tensors of half-integral
ones (over a manifold with b1 = 1) on them times a common denominator; a public
value that is a grading, such as a summand of an :class:`FUDecomposition`, is a
``Fraction`` again, made once per distinct value.  Coefficients live in F2 (an
entry is present or absent), and the variable U carries grading -2.  A
differential entry from generator ``x`` to generator ``y`` is a single
monomial ``U^p``; homogeneity forces the exponent
``p = (maslov(x) - 1 - maslov(y)) / 2``, so a sum of distinct powers
between the same pair of generators can never arise in a homogeneous
complex (two contributions with the same endpoints have equal exponent
and cancel mod 2).

Homology of a free complex is computed by change of basis alone:

1. cancel every U^0 entry (the cancellation lemma), then
2. on the resulting minimal complex, pivot on entries of minimal
   U-exponent.  F2[U] is a local PID, so this Smith-style sweep
   terminates and splits the complex into free summands and pairs
   ``partner -> U^k . top``.

The result is reported as an :class:`FUDecomposition`: free summands
(one grading each) plus torsion summands F2[U]/U^k (top grading and
length).

>>> c = FreeComplex([("y", Fraction(-4)), ("x", Fraction(-1))],
...                 {"y": {"x": 2}})
>>> homology_decomposition(c)
FUDecomposition(towers=(), torsion=((Fraction(-1, 1), 2, 1),))
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping

U_DEGREE = -2


def grading(value) -> Fraction:
    """Coerce ints (not bools), strings like ``"-3/2"``, or Fractions to an exact grading."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:  # int() parses an integer string faster than Fraction's regex, to the same value
            return Fraction(int(value))
        except ValueError:
            pass
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"grading {value!r} has a zero denominator") from None
    raise TypeError(f"not an exact grading: {value!r}")


def _exact(value) -> int | Fraction:
    """A grading as the package keeps it: an ``int`` if it is integral, else a
    ``Fraction``; the value and the errors are those of :func:`grading`."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:  # an integer string never becomes a Fraction
            return int(value)
        except ValueError:
            pass
    g = grading(value)
    return g.numerator if g.denominator == 1 else g


def integer(value) -> int:
    """Coerce an int (not a bool) or an integer string such as ``"-3"``; raise otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


def json_checked(value, kind: type, what: str):
    """``value`` if it is a JSON object (``kind`` ``dict``) or list; otherwise
    a TypeError naming ``what`` and the JSON kind found."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} is {_JSON_KINDS.get(type(value), type(value).__name__)}, not {_JSON_KINDS[kind]}")
    return value


def json_field(obj: Mapping, key: str, what: str):
    """``obj[key]``; a missing key is a ValueError naming the field and ``what``."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f'{what} has no "{key}"') from None


def json_records(value, what: str, entry: str, keys: tuple[str, ...]) -> list:
    """``value``, checked to be a JSON list of objects that each hold every
    key in ``keys``; an error names ``entry`` with its index and the field."""
    required = set(keys)
    for i, record in enumerate(json_checked(value, list, what)):
        if not isinstance(record, dict) or not record.keys() >= required:
            json_checked(record, dict, f"{entry} {i}")
            missing = next(key for key in keys if key not in record)
            raise ValueError(f'{entry} {i} has no "{missing}"')
    return value


def format_grading(g: int | Fraction) -> str:
    """Canonical fraction string: ``"0"``, ``"2"``, ``"-3/2"``."""
    if type(g) is int:
        return str(g)
    if not isinstance(g, Fraction):
        g = Fraction(g)
    if g.denominator == 1:
        return str(g.numerator)
    return f"{g.numerator}/{g.denominator}"


class InvalidComplex(ValueError):
    """Raised when an operation is handed a complex that fails validation."""


@dataclass(frozen=True)
class ValidationReport:
    """A verdict with every violation found, and what the checks ran on (``checked``),
    for the caller to use within the same call; that takes no part in comparisons."""

    ok: bool
    violations: tuple[str, ...] = ()
    checked: object = field(default=None, compare=False, repr=False)

    def require(self, what: str = "complex"):
        if not self.ok:
            detail = "; ".join(self.violations)
            raise InvalidComplex(f"invalid {what}: {detail}")


class FreeComplex:
    """A finitely generated free chain complex over F2[U].

    ``generators`` is an ordered list of ``(name, maslov)`` pairs and
    ``differential`` maps source name -> {target name: U-exponent}.
    ``maslov`` keeps each grading as :func:`_exact` gives it, for the package's integer work
    (times a common denominator if one is not integral); public gradings built on it are ``Fraction``.
    Instances are treated as immutable values; all operations return new
    complexes.
    """

    __slots__ = ("generators", "maslov", "differential")

    def __init__(self, generators, differential=None):
        gens = []
        maslov = {}
        for name, m in generators:
            if name in maslov:
                raise ValueError(f"duplicate generator name {name!r}")
            gens.append(name)
            maslov[name] = m if type(m) is int else _exact(m)
        self.generators: tuple[str, ...] = tuple(gens)
        self.maslov: dict[str, int | Fraction] = maslov
        diff = {}
        for src, row in (differential or {}).items():
            if row:
                diff[src] = {tgt: int(p) for tgt, p in row.items()}
        self.differential: dict[str, dict[str, int]] = diff

    @classmethod
    def _built(cls, maslov: dict, differential: dict) -> "FreeComplex":
        """A complex the package built, kept as given, not copied or checked: ``maslov`` in
        generator order, :func:`_exact` gradings, only non-empty rows of ``int`` powers."""
        c = object.__new__(cls)
        c.generators, c.maslov, c.differential = tuple(maslov), maslov, differential
        return c

    def entries(self):
        for src, row in self.differential.items():
            for tgt, p in row.items():
                yield src, tgt, p

    def shift(self, by) -> "FreeComplex":
        """The same complex with every grading shifted up by ``by``."""
        by = _exact(by)
        return FreeComplex(
            [(g, self.maslov[g] + by) for g in self.generators],
            self.differential,
        )

    def __eq__(self, other):
        if not isinstance(other, FreeComplex):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.maslov == other.maslov
            and self.differential == other.differential
        )

    def __repr__(self):
        return f"FreeComplex({len(self.generators)} generators, {sum(len(r) for r in self.differential.values())} entries)"

    def to_json(self) -> dict:
        return {"generators": [{"name": g, "maslov": format_grading(self.maslov[g])} for g in self.generators],
                "differential": [{"from": s, "to": t, "upower": p} for s, t, p in sorted(self.entries())]}

    @classmethod
    def from_json(cls, data: Mapping) -> "FreeComplex":
        """The complex of ``data``, built from the dicts its checks make, not copied again."""
        generators = json_field(json_checked(data, dict, "the complex"), "generators", "the complex")
        records = json_records(generators, '"generators"', "generator", ("name", "maslov"))
        names, gradings = [g["name"] for g in records], [_exact(g["maslov"]) for g in records]
        for g in names:
            if not isinstance(g, str):
                raise TypeError(f"generator name {g!r} is not a string")
        diff: dict[str, dict[str, int]] = {}
        entries = data.get("differential", [])
        for e in json_records(entries, '"differential"', "differential entry", ("from", "to", "upower")):
            if (row := diff.get(src := e["from"])) is None:
                row = diff[src] = {}
            if (tgt := e["to"]) in row:
                raise ValueError(f"differential entry {src}->{tgt} is listed twice")
            row[tgt] = integer(e["upower"])
        maslov = dict(zip(names, gradings))
        if len(maslov) < len(names):
            cls(zip(names, gradings))  # raises the duplicate-name error
        return cls._built(maslov, diff)


def xor_entry(row: dict[str, int], key: str, power: int) -> bool:
    """Add ``U^power . key`` to a sparse F2[U] row in place.

    Over F2 an equal power already present cancels it; otherwise the entry
    is inserted.  Returns True on insertion.  A homogeneous map has one
    power per key, so a different power, or a negative one, is a bug.

    >>> row = {"x": 1}
    >>> xor_entry(row, "y", 0), xor_entry(row, "x", 1), row
    (True, False, {'y': 0})
    """
    if key in row:
        if row[key] != power:
            raise AssertionError(f"inhomogeneous entry at {key}: powers {row[key]} vs {power}")
        del row[key]
        return False
    if power < 0:
        raise AssertionError(f"negative U-power {power} at {key}")
    row[key] = power
    return True


def _pivots(vectors: Iterable[int]) -> dict[int, int]:
    """Gaussian elimination of bitmask vectors over F2, in order, on a pivot
    table keyed by each pivot's lowest set bit: a vector meets only the pivot
    at its own lowest set bit, which clears that bit.  ``{bit: i}``, in the
    order found: each pivot's lowest set bit and the index of its vector.

    >>> _pivots([0b011, 0b110, 0b101, 0])
    {0: 0, 1: 1}
    """
    table, owners = {}, {}
    for i, v in enumerate(vectors):
        while v and (low := (v & -v).bit_length() - 1) in table:
            v ^= table[low]
        if v:
            table[low], owners[low] = v, i
    return owners


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over F2 of bitmask vectors: the size of their :func:`_pivots` table.

    >>> gf2_rank([0b011, 0b110, 0b101, 0])
    2
    """
    return len(_pivots(vectors))


def graded_f2_dims(keys, boundaries, above) -> dict:
    """Graded dimensions of the homology of an F2 differential.

    Basis vector i sits in grading ``keys[i]`` and has boundary
    ``boundaries[i]``, a bitmask over the basis; ``above(key)`` is the
    grading one step up.  Then dim H(key) = #key - rank d(key) -
    rank d(above(key)).  Zero dimensions are dropped and the keys come
    out sorted.

    >>> graded_f2_dims([0, 1, 1], [0, 0b001, 0b001], lambda k: k + 1)
    {1: 1}
    """
    buckets: dict = {}
    for key, mask in zip(keys, boundaries):
        buckets.setdefault(key, []).append(mask)
    ranks = {key: gf2_rank(masks) for key, masks in buckets.items()}
    dims = {}
    for key in sorted(buckets):
        d = len(buckets[key]) - ranks[key] - ranks.get(above(key), 0)
        if d:
            dims[key] = d
    return dims


def _bits(x: int):
    """The set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# The kernel numbers generators by position (input order) and holds a set of
# positions as a window bitset: an int ``v`` and a base ``o``, bit b of v
# standing for position o + b.  A set then costs what its members span, not
# its highest position, so the rows of a large complex stay small.


def _plus(v: int, o: int, w: int, wo: int) -> tuple[int, int]:
    """The F2 sum of the window bitsets ``(v, o)`` and ``(w, wo)``."""
    if not v:
        return w, wo
    if not w:
        return v, o
    if wo >= o:
        return v ^ w << (wo - o), o
    return v << (o - wo) ^ w, wo


def _positions(v: int, o: int) -> list[int]:
    """The positions in the window bitset ``(v, o)``, lowest first."""
    return [o + b for b in _bits(v)]


def _odd_overlap(v: int, o: int, w: int, wo: int) -> bool:
    """Whether the window bitsets ``(v, o)`` and ``(w, wo)`` share an odd number of positions."""
    low = min(o, wo)
    return (v << (o - low) & w << (wo - low)).bit_count() % 2 == 1


def _spread(sets: list, bases: list, v: int, o: int, w: int, wo: int):
    """Add ``(w, wo)`` to the set ``(sets[i], bases[i])`` of each position i in ``(v, o)``."""
    while v:  # _plus, inlined
        low = v & -v
        i = o + low.bit_length() - 1
        v ^= low
        if not (x := sets[i]):
            sets[i], bases[i] = w, wo
        elif wo >= (b := bases[i]):
            sets[i] = x ^ w << (wo - b)
        else:
            sets[i], bases[i] = x << (b - wo) ^ w, wo


def _sum(sets: list, bases: list, v: int, o: int, acc: int = 0, at: int = 0) -> tuple[int, int]:
    """``(acc, at)`` plus the sets ``(sets[i], bases[i])`` over the positions i in ``(v, o)``."""
    while v:  # _plus, inlined
        low = v & -v
        i = o + low.bit_length() - 1
        v ^= low
        if not (w := sets[i]):
            continue
        if not acc:
            acc, at = w, bases[i]
        elif (b := bases[i]) >= at:
            acc ^= w << (b - at)
        else:
            acc, at = acc << (at - b) ^ w, b
    return acc, at


def _id_rows(c: FreeComplex, ids: Mapping[str, int]) -> tuple[tuple, list[str]]:
    """The window bitset rows ``(rows, row_bases)`` of the entries of ``c`` of the right
    degree over the positions ``ids``, and each entry with an unknown end, a negative or a
    wrong power, worded on the public gradings.  Degrees are checked on the gradings times
    their common denominator q, or as they are (q = 1) if the first one is an ``int``."""
    maslov, n, bad = c.maslov, len(ids), []
    q = 1 if type(next(iter(maslov.values()), 0)) is int else math.lcm(*{m.denominator for m in maslov.values()})
    scaled = maslov if q == 1 else {g: m.numerator * (q // m.denominator) for g, m in maslov.items()}
    rows, row_bases, step = [0] * n, [0] * n, U_DEGREE * q
    for src, row in c.differential.items():
        i, top, v, o = ids.get(src), scaled.get(src, 0) - q, 0, 0
        for tgt, p in row.items():
            j = ids.get(tgt)
            if i is None or j is None:
                bad.append(f"entry {src}->{tgt}: unknown {'target' if j is None else 'source'}")
            elif p < 0 or scaled[tgt] + step * p != top:
                if p < 0:
                    bad.append(f"entry {src}->{tgt}: negative U-power {p}")
                if scaled[tgt] + step * p != top:
                    bad.append(f"entry {src}->U^{p}.{tgt}: grading {format_grading(maslov[src])} "
                               f"-> {format_grading(maslov[tgt] + U_DEGREE * p)} is not degree -1")
            elif not v:
                v, o = 1, j
            elif j >= o:
                v |= 1 << (j - o)
            else:
                v, o = v << (o - j) | 1, j
        if v:
            rows[i], row_bases[i] = v, o
    return (rows, row_bases), bad


def _square_violations(names: list[str], maslov, rows: list[int], bases: list[int]) -> list[str]:
    """Each nonzero entry of d^2 over F2 of the window bitset ``rows``,
    position i standing for ``names[i]``."""
    out = []
    for i, v in enumerate(rows):
        if v and (square := _sum(rows, bases, v, bases[i]))[0]:
            for j in _positions(*square):
                power = (maslov[names[j]] - maslov[names[i]]) // 2 + 1
                out.append(f"d^2 from {names[i]} to {names[j]} has surviving powers [{power}]")
    return out


def validate_complex(c: FreeComplex) -> ValidationReport:
    """Check d^2 = 0 and grading homogeneity, listing every violation.

    d^2 is taken over F2 on the entries of the right degree: once every
    power is the one the gradings give, that is d^2 over F2[U].  The report
    carries the ``(ids, sets)`` of :func:`_id_rows` it checked."""
    sets, violations = _id_rows(c, ids := {g: i for i, g in enumerate(c.generators)})
    violations += _square_violations(c.generators, c.maslov, *sets)
    return ValidationReport(ok=not violations, violations=tuple(violations), checked=(ids, sets))


def tensor_complexes(c1: FreeComplex, c2: FreeComplex) -> FreeComplex:
    """Tensor product over F2[U]: gradings add, Leibniz differential, names ``(a|b)``."""
    validate_complex(c1).require("left tensor factor")
    validate_complex(c2).require("right tensor factor")
    return _tensor(c1, c2)


def _tensor(c1: FreeComplex, c2: FreeComplex) -> FreeComplex:
    """:func:`tensor_complexes` of valid complexes, unchecked: each name made once per
    pair, each grading once per distinct pair of gradings, each row once, as built."""
    g1, g2, M1, M2 = c1.generators, c2.generators, c1.maslov, c2.maslov
    names = [[f"({a}|{b})" for b in g2] for a in g1]
    at, made, maslov = {}, {}, {}  # the place of each distinct right grading; each left one's products
    slots = [at.setdefault(m, len(at)) for m in map(M2.__getitem__, g2)]
    for m1, here in zip(map(M1.__getitem__, g1), names):
        if (sums := made.get(m1)) is None:  # a sum per distinct right grading, then one per generator
            sums = made[m1] = list(map([m if type(m := m1 + m2) is int else _exact(m) for m2 in at].__getitem__, slots))
        maslov.update(zip(here, sums))
    if len(maslov) < len(g1) * len(g2):
        FreeComplex((n, 0) for here in names for n in here)  # raises the duplicate-name error
    index1, index2 = ({g: i for i, g in enumerate(c.generators)} for c in (c1, c2))
    rows2 = [[(index2[t], p) for t, p in c2.differential.get(b, {}).items()] for b in g2]
    diff: dict[str, dict[str, int]] = {}
    for a, here in zip(g1, names):
        left = [(names[index1[t]], p) for t, p in c1.differential.get(a, {}).items()]
        for j, (n, right) in enumerate(zip(here, rows2)):
            row = {there[j]: p for there, p in left}
            for t, p in right:
                row[here[t]] = p
            if row:
                diff[n] = row
    return FreeComplex._built(maslov, diff)


@dataclass(frozen=True)
class FUDecomposition:
    """A finitely generated graded F2[U]-module, split into summands.

    ``towers`` lists one grading per free summand; ``torsion`` lists
    ``(top_grading, length, count)`` once per distinct F2[U]/U^k summand,
    the top grading being that of the top nonzero element.  Both are
    stored sorted (gradings descending) so equality is multiset equality.
    """

    towers: tuple[Fraction, ...] = ()
    torsion: tuple[tuple[Fraction, int, int], ...] = ()

    @staticmethod
    def make(towers: Iterable, torsion) -> "FUDecomposition":
        """``torsion`` is ``(top, length)`` pairs, repeats allowed, or a
        mapping ``(top, length) -> count`` with exact tops."""
        if not isinstance(torsion, Mapping):
            torsion = Counter((_exact(g), int(k)) for g, k in torsion)
        torsion = {t: c for t, c in torsion.items() if c}
        return FUDecomposition._counted(Counter(map(_exact, towers)), torsion, grading, grading)

    @staticmethod
    def _counted(towers: Mapping, torsion: Mapping, tower, top) -> "FUDecomposition":
        """:meth:`make` of counted towers and ``(top, length) -> count`` at private gradings, sorted
        on them, each made public by ``tower(g)`` or ``top(g)`` once per distinct key."""
        return FUDecomposition(tuple(t for g in sorted(towers, reverse=True) for t in repeat(tower(g), towers[g])),
                               tuple((top(g), k, torsion[g, k])
                                     for g, k in sorted(torsion, key=lambda x: (-x[0], x[1]))))

    def torsion_rank_table(self) -> dict[Fraction, int]:
        """Graded F-dimension of the torsion part (U spreads a length-k
        summand over gradings top, top-2, ..., top-2(k-1)), counted on them times a common denominator."""
        q, table, made = math.lcm(*{top.denominator for top, _k, _c in self.torsion}), {}, {}
        for top, k, c in self.torsion:
            made[x := top.numerator * (q // top.denominator)] = top
            for g in range(x, x + U_DEGREE * q * k, U_DEGREE * q):
                table[g] = table.get(g, 0) + c
        return {made[g] if g in made else Fraction(g, q): d for g, d in table.items()}

    def to_json(self) -> dict:
        return {
            "towers": [format_grading(t) for t in sorted(self.towers)],
            "torsion": [
                {"grading": format_grading(g), "length": k}
                for g, k, c in sorted(self.torsion) for _ in range(c)
            ],
        }


class _Reducer:
    """Change-of-basis engine for free F2[U]-complexes: a pivot is a chain
    of basis changes g := g + U^s h, each exact, so d^2 = 0 is preserved.

    Generators are numbered by position in ``c.generators``.  Row and
    column i are window bitsets (``rows[i]`` over ``row_bases[i]``, and
    ``cols``/``col_bases``) of the targets of d(i) and of the sources
    hitting i; the gradings give the power of i -> j, (m(j) - m(i) + 1) / 2.
    Pivots are ordered by generator name (``rank``), so the smallest live
    entry is the same whatever the input order (:func:`_homology` names the
    positions by themselves).  ``rows`` may hand over the ``(ids, sets)`` of a
    passed :func:`_id_rows` check on those positions; the reducer works on
    copies of the sets.  :meth:`fork` carries a reduction over to other gradings.

    ``track`` names the maps the reducer also maintains, as changes from
    the identity: ``"iota"``, the inclusion (survivor i is the originals in
    ``iota_rows[i]`` plus i), and ``"pi"``, the projection (survivor i is in
    the image of the originals in ``pi_cols[i]`` plus i), an explicit
    homotopy equivalence once cancelled pairs are split off.
    """

    cols = alexander = rank = iota_rows = iota_bases = pi_cols = pi_bases = None  # until set

    def __init__(self, c: FreeComplex, alexander=None, track=(), rows=None):
        if rows is None:
            (self.rows, self.row_bases), bad = _id_rows(c, {g: i for i, g in enumerate(c.generators)})
            if bad:
                raise AssertionError(bad[0])
        else:
            self.rows, self.row_bases = map(list, rows[1])
        self.generators, n = c.generators, len(c.generators)
        self.m = list(map(c.maslov.__getitem__, c.generators))
        if alexander is not None:
            self.alexander = list(map(alexander.__getitem__, c.generators))
        self.alive, self.torsion = [True] * n, []
        if "iota" in track:
            self.iota_rows, self.iota_bases = [0] * n, [0] * n
        if "pi" in track:
            self.pi_cols, self.pi_bases = [0] * n, [0] * n

    def _sweep(self, u0: bool, level=None):
        """Pivot on the smallest live (power, source name, target name) entry,
        only on U^0 entries whose ends have one ``level`` (by default the
        Alexander grading, if given) if ``u0``, until none is left.  At
        alpha -> U^k beta, each z hitting beta adds U^(p - k) alpha, and beta
        adds U^(q - k) w per w alpha hits."""
        m, A, n, rows = self.m, self.alexander, len(self.m), self.rows
        row_bases, entries, L = self.row_bases, [], A if level is None else level
        for i, v in enumerate(rows):
            o, mi = row_bases[i], m[i]
            while v:
                low = v & -v
                j = o + low.bit_length() - 1
                v ^= low
                if not u0 or m[j] == mi - 1 and (L is None or L[j] == L[i]):
                    entries.append(((m[j] - mi + 1) // 2, i, j))
        if not entries:
            return
        cols, col_bases = self._columns()
        if self.rank is None:
            self.at = sorted(range(n), key=self.generators.__getitem__)  # positions in name order
            self.rank = [0] * n
            for r, i in enumerate(self.at):
                self.rank[i] = r
        at, rank, heappop, heappush = self.at, self.rank, heapq.heappop, heapq.heappush
        iota, iota_bases, pi, pi_bases = self.iota_rows, self.iota_bases, self.pi_cols, self.pi_bases
        heap = [(p * n + rank[i]) * n + rank[j] for p, i, j in entries]
        heapq.heapify(heap)
        while heap:
            rest, beta = divmod(heappop(heap), n)
            k, alpha = divmod(rest, n)
            alpha, beta = at[alpha], at[beta]
            out_a, oa = rows[alpha], row_bases[alpha]
            if beta < oa or not out_a >> (beta - oa) & 1:
                continue
            into_b, ob = cols[beta], col_bases[beta]
            zs, ws = into_b ^ 1 << (alpha - ob), out_a ^ 1 << (beta - oa)
            if A is not None and (any(A[alpha] - (m[beta] - m[z] + 1) // 2 + k > A[z] for z in _positions(zs, ob))
                                  or any(A[w] - (m[w] - m[alpha] + 1) // 2 + k > A[beta] for w in _positions(ws, oa))):
                raise AssertionError(f"filtration-breaking pivot {self.generators[alpha]} -> {self.generators[beta]}")
            left = zs
            while left:
                low = left & -left
                z = ob + low.bit_length() - 1
                left ^= low
                old, oz = rows[z], row_bases[z]
                if oa >= oz:
                    added = out_a << (oa - oz)
                else:
                    old, oz, added = old << (oz - oa), oa, out_a
                    row_bases[z] = oa
                rows[z] = old ^ added
                new, mz = added & ~old, m[z]
                while new:
                    low = new & -new
                    t = oz + low.bit_length() - 1
                    new ^= low
                    if not u0 or m[t] == mz - 1 and (L is None or L[t] == L[z]):
                        heappush(heap, ((m[t] - mz + 1) // 2 * n + rank[z]) * n + rank[t])
            # d^2 = 0 forces: what hits the z's is what hits alpha; the w's rows sum to beta's
            if (zs or cols[alpha]) and _sum(cols, col_bases, zs, ob, cols[alpha], col_bases[alpha])[0] or (
                    ws or rows[beta]) and _sum(rows, row_bases, ws, oa, rows[beta], row_bases[beta])[0]:
                raise AssertionError("d^2 = 0 fails at a pivot")
            if iota is not None and zs:
                _spread(iota, iota_bases, zs, ob, *_plus(iota[alpha], iota_bases[alpha], 1, alpha))
            if pi is not None and ws:
                _spread(pi, pi_bases, ws, oa, *_plus(pi[beta], pi_bases[beta], 1, beta))
            if cols[alpha]:
                _spread(rows, row_bases, cols[alpha], col_bases[alpha], 1, alpha)
            _spread(cols, col_bases, out_a, oa, into_b, ob)
            if rows[beta]:
                _spread(cols, col_bases, rows[beta], row_bases[beta], 1, beta)
            rows[alpha] = rows[beta] = cols[alpha] = 0  # free what the pair held
            if iota is not None:
                iota[alpha] = iota[beta] = 0
            if pi is not None:
                pi[alpha] = pi[beta] = 0
            self.alive[alpha] = self.alive[beta] = False
            if k > 0:
                self.torsion.append((m[beta], k))

    def _columns(self) -> tuple[list, list]:
        """The window bitset columns ``(cols, col_bases)``, built from the rows on first use."""
        if self.cols is None:
            n = len(self.m)
            self.cols, self.col_bases = cols, col_bases = [0] * n, [0] * n
            for i, v in enumerate(self.rows):
                o = self.row_bases[i]
                while v:  # sources come in rising position, so a column's first is its base
                    low = v & -v
                    j = o + low.bit_length() - 1
                    v ^= low
                    if cols[j]:
                        cols[j] |= 1 << (i - col_bases[j])
                    else:
                        cols[j], col_bases[j] = 1, i
        return self.cols, self.col_bases

    def cancel_u0(self, level=None) -> "_Reducer":
        """Cancel every U^0 entry, smallest (source, target) pair first.

        A reducer given an Alexander grading cancels only the entries with
        zero Alexander drop (filtered reduction); the triggered basis
        changes are then automatically filtered.  A ``level`` vector, one
        int per position, takes the Alexander grading's place in that test.
        """
        self._sweep(u0=True, level=level)
        return self

    def fork(self, m, track=()) -> "_Reducer":
        """A copy of this reduction under the gradings ``m``, still tracking the
        maps named in ``track``: the F2 row operation of a U^0 pivot is the
        same whatever the gradings."""
        new, (cols, col_bases) = object.__new__(type(self)), self._columns()
        new.__dict__.update(vars(self), m=m, rows=self.rows[:], row_bases=self.row_bases[:], cols=cols[:],
                            col_bases=col_bases[:], alive=self.alive[:], torsion=self.torsion[:])
        new.iota_rows, new.iota_bases = (self.iota_rows[:], self.iota_bases[:]) if "iota" in track else (None, None)
        new.pi_cols, new.pi_bases = (self.pi_cols[:], self.pi_bases[:]) if "pi" in track else (None, None)
        return new

    def diagonalize(self) -> "_Reducer":
        """Pivot on minimal-exponent entries until the differential is empty."""
        self._sweep(u0=False)
        return self

    def powers(self, v: int, o: int, top) -> dict[str, int]:
        """``{name of j: (m(j) - top) / 2}`` over the positions j in ``(v, o)``."""
        gens, m, out = self.generators, self.m, {}
        while v:
            low = v & -v
            j = o + low.bit_length() - 1
            out[gens[j]] = (m[j] - top) // 2
            v ^= low
        return out

    def current_complex(self) -> FreeComplex:
        gens, m, rows, bases = self.generators, self.m, self.rows, self.row_bases
        alive = [i for i, kept in enumerate(self.alive) if kept]
        return FreeComplex([(gens[i], m[i]) for i in alive],
                           {gens[i]: self.powers(rows[i], bases[i], m[i] - 1) for i in alive if rows[i]})


def components(n: int, edges) -> list[list[int]]:
    """Connected components of the graph on the positions ``0 .. n - 1``
    spanned by the ``(i, j)`` pairs of ``edges``, by union-find.  Each
    component lists its members rising; components come in the order of
    their first members.

    >>> components(5, [(3, 1), (2, 0)])
    [[0, 2], [1, 3], [4]]
    """
    parent = list(range(n))  # a root is the least position of its tree, so parent[i] <= i
    for a, b in edges:
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        parent[i] = root = parent[p]  # p <= i, so parent[p] is p's root already
        groups.setdefault(root, []).append(i)
    return list(groups.values())


def homology_decomposition(c: FreeComplex) -> FUDecomposition:
    """Homology of a free complex as towers (free part) plus torsion.

    One reduction runs over the whole complex; a pivot never mixes two
    direct summands, so each is reduced as if alone.  The torsion summand
    produced by a pivot ``alpha -> U^k beta`` has its top element in the
    grading of ``beta``:

    >>> c = FreeComplex([("y", Fraction(-1)), ("x", Fraction(0))], {"y": {"x": 1}})
    >>> homology_decomposition(c)
    FUDecomposition(towers=(), torsion=((Fraction(0, 1), 1, 1),))
    """
    if not c.differential:  # nothing to check or cancel: a tower per generator
        return FUDecomposition.make(c.maslov.values(), ())
    (report := validate_complex(c)).require()
    r = _Reducer(c, rows=report.checked).cancel_u0().diagonalize()
    return FUDecomposition.make([m for m, kept in zip(r.m, r.alive) if kept], r.torsion)


def _homology(m: list, rows: list, bases: list) -> tuple[Counter, list]:
    """The towers, counted, and the torsion ``(top, length, count)`` of the complex on the positions
    of the gradings ``m`` with the window bitset rows ``(rows, bases)``, taken as its own:
    :func:`homology_decomposition` unchecked and without names, pivots in position order."""
    r = object.__new__(_Reducer)
    r.generators, r.m, r.rows, r.row_bases, r.alive, r.torsion = range(len(m)), m, rows, bases, [True] * len(m), []
    r.cancel_u0().diagonalize()
    return Counter(x for x, kept in zip(r.m, r.alive) if kept), [(g, k, c) for (g, k), c in Counter(r.torsion).items()]


def plus_presentation(h: FUDecomposition) -> FUDecomposition:
    """Re-express a decomposition in plus-flavoured (tower) terms.

    The engine computes homology of free complexes built from subcomplex
    regions of U-localised complexes.  Presenting that answer in the
    quotient-region (plus) normalisation keeps each free summand's
    generator grading as the tower's bottom grading -- the constant is
    calibrated once by the split 0-framed pipeline on the trivial knot,
    which must come out as towers at +1/2 and -1/2 -- while every torsion
    summand's top grading moves down by 1 (the connecting map of the
    region sequence has degree -1).
    """
    # The torsion shift is uniform, so the stored ordering survives.
    return FUDecomposition(
        h.towers,
        tuple((g - 1, k, c) for g, k, c in h.torsion),
    )
