"""Exact homological algebra for free graded chain complexes over F2[U].

Everything here is exact.  A complex keeps an integral grading as an
``int`` and any other as a ``fractions.Fraction`` (:func:`_exact` makes
that choice), so validation, tensor products and reduction of complexes
over S3 run on machine integers; a public value that is a grading, such
as a summand of an :class:`FUDecomposition`, is a ``Fraction`` again,
made once per distinct value.  Coefficients live in F2 (an entry is
present or absent), and the variable U carries grading -2.  A
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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

Grading = Fraction

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
    ok: bool
    violations: tuple[str, ...] = ()

    def require(self, what: str = "complex"):
        if not self.ok:
            detail = "; ".join(self.violations)
            raise InvalidComplex(f"invalid {what}: {detail}")


class FreeComplex:
    """A finitely generated free chain complex over F2[U].

    ``generators`` is an ordered list of ``(name, maslov)`` pairs and
    ``differential`` maps source name -> {target name: U-exponent}.
    ``maslov`` keeps each grading as :func:`_exact` gives it, for the
    package's own use; the public gradings built on it are ``Fraction``.
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
        return {
            "generators": [
                {"name": g, "maslov": format_grading(self.maslov[g])}
                for g in self.generators
            ],
            "differential": sorted(
                (
                    {"from": src, "to": tgt, "upower": p}
                    for src, tgt, p in self.entries()
                ),
                key=lambda e: (e["from"], e["to"]),
            ),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FreeComplex":
        generators = json_field(json_checked(data, dict, "the complex"), "generators", "the complex")
        gens = [(g["name"], _exact(g["maslov"]))
                for g in json_records(generators, '"generators"', "generator", ("name", "maslov"))]
        for g, _m in gens:
            if not isinstance(g, str):
                raise TypeError(f"generator name {g!r} is not a string")
        diff: dict[str, dict[str, int]] = {}
        entries = data.get("differential", [])
        for e in json_records(entries, '"differential"', "differential entry", ("from", "to", "upower")):
            row = diff.setdefault(e["from"], {})
            if e["to"] in row:
                raise ValueError(f"differential entry {e['from']}->{e['to']} is listed twice")
            row[e["to"]] = integer(e["upower"])
        return cls(gens, diff)


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


def compose(first: Mapping, then: Mapping) -> dict[str, dict[str, int]]:
    """The map ``first`` followed by ``then``, both as source -> {target: power}.

    >>> compose({"a": {"m": 1, "n": 0}}, {"m": {"z": 0}, "n": {"z": 1}})
    {}
    >>> compose({"a": {"m": 1}}, {"m": {"y": 0, "z": 2}})
    {'a': {'y': 1, 'z': 3}}
    """
    out: dict[str, dict[str, int]] = {}
    for src, row in first.items():
        acc: dict[str, int] = {}
        for mid, p in row.items():
            for tgt, q in then.get(mid, {}).items():
                xor_entry(acc, tgt, p + q)
        if acc:
            out[src] = acc
    return out


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over F2 of bitmask vectors, by Gaussian elimination.

    >>> gf2_rank([0b011, 0b110, 0b101, 0])
    2
    """
    pivots: list[int] = []
    for v in vectors:
        for pv in pivots:
            if v & (pv & -pv):
                v ^= pv
        if v:
            pivots.append(v)
    return len(pivots)


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


def validate_complex(c: FreeComplex) -> ValidationReport:
    """Check d^2 = 0 and grading homogeneity, listing every violation."""
    violations = []
    for src, tgt, p in c.entries():
        if tgt not in c.maslov:
            violations.append(f"entry {src}->{tgt}: unknown target")
            continue
        if src not in c.maslov:
            violations.append(f"entry {src}->{tgt}: unknown source")
            continue
        if p < 0:
            violations.append(f"entry {src}->{tgt}: negative U-power {p}")
        if c.maslov[tgt] + U_DEGREE * p != c.maslov[src] - 1:
            violations.append(
                f"entry {src}->U^{p}.{tgt}: grading {format_grading(c.maslov[src])} "
                f"-> {format_grading(c.maslov[tgt] + U_DEGREE * p)} is not degree -1"
            )
    # d^2 over F2[U]: contributions to (src, tgt) cancel in pairs.
    for src in c.differential:
        square: dict[str, set[int]] = {}
        for mid, p in c.differential[src].items():
            for tgt, q in c.differential.get(mid, {}).items():
                square.setdefault(tgt, set()).symmetric_difference_update({p + q})
        for tgt, powers in square.items():
            if powers:
                violations.append(f"d^2 from {src} to {tgt} has surviving powers {sorted(powers)}")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def tensor_complexes(c1: FreeComplex, c2: FreeComplex) -> FreeComplex:
    """Tensor product over F2[U]: gradings add, Leibniz differential, names ``(a|b)``."""
    validate_complex(c1).require("left tensor factor")
    validate_complex(c2).require("right tensor factor")
    name = lambda a, b: f"({a}|{b})"
    gens = []
    for a in c1.generators:
        for b in c2.generators:
            gens.append((name(a, b), c1.maslov[a] + c2.maslov[b]))
    diff: dict[str, dict[str, int]] = {}
    for a in c1.generators:
        for b in c2.generators:
            row: dict[str, int] = {}
            for tgt, p in c1.differential.get(a, {}).items():
                row[name(tgt, b)] = p
            for tgt, p in c2.differential.get(b, {}).items():
                row[name(a, tgt)] = p
            if row:
                diff[name(a, b)] = row
    return FreeComplex(gens, diff)


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
        tw = tuple(sorted(map(grading, towers), reverse=True))
        to = tuple(sorted(((grading(g), k, c) for (g, k), c in torsion.items() if c), key=lambda x: (-x[0], x[1])))
        return FUDecomposition(tw, to)

    def torsion_rank_table(self) -> dict[Fraction, int]:
        """Graded F-dimension of the torsion part (U spreads a length-k
        summand over gradings top, top-2, ..., top-2(k-1))."""
        table: dict[Fraction, int] = {}
        for top, k, c in self.torsion:
            for i in range(k):
                g = top + U_DEGREE * i
                table[g] = table.get(g, 0) + c
        return table

    def to_json(self) -> dict:
        return {
            "towers": [format_grading(t) for t in sorted(self.towers)],
            "torsion": [
                {"grading": format_grading(g), "length": k}
                for g, k, c in sorted(self.torsion) for _ in range(c)
            ],
        }


class _Reducer:
    """Change-of-basis engine for free F2[U]-complexes.

    The one primitive is ``mix(g, h, s)``, the basis change
    ``g := g + U^s h`` (h kept).  It adjusts the differential out of g
    and reroutes arrows that hit g into arrows hitting h; both effects
    together are an exact change of basis, so d^2 = 0 is preserved.

    ``track`` names the maps the reducer also maintains: ``"iota"``, the
    inclusion (surviving basis vector expressed in the original basis),
    and ``"pi"``, the projection (original generator expressed in the
    surviving basis).  They turn the reduction into an explicit homotopy
    equivalence once cancelled pairs are split off.
    """

    def __init__(self, c: FreeComplex, alexander=None, track=()):
        self.maslov = dict(c.maslov)
        self.alexander = dict(alexander) if alexander is not None else None
        self.diff: dict[str, dict[str, int]] = {
            src: dict(row) for src, row in c.differential.items()
        }
        self.into: dict[str, set[str]] = {}
        for src, row in self.diff.items():
            for tgt in row:
                self.into.setdefault(tgt, set()).add(src)
        self.alive: list[str] = list(c.generators)
        self.alive_set = set(self.alive)
        self.torsion: list[tuple[int | Fraction, int]] = []
        self._created: list[tuple[str, str, int]] = []
        self.iota = {g: {g: 0} for g in c.generators} if "iota" in track else None
        self.pi = {g: {g: 0} for g in c.generators} if "pi" in track else None
        self.pi_into = {g: {g} for g in c.generators} if "pi" in track else None

    # -- low-level dictionary surgery ------------------------------------

    def _toggle(self, src: str, tgt: str, p: int):
        row = self.diff.setdefault(src, {})
        if xor_entry(row, tgt, p):
            self.into.setdefault(tgt, set()).add(src)
            self._created.append((src, tgt, p))
        else:
            if not row:
                del self.diff[src]
            self.into[tgt].discard(src)

    def mix(self, g: str, h: str, s: int):
        """Basis change g := g + U^s h."""
        if self.maslov[g] != self.maslov[h] + U_DEGREE * s:
            raise AssertionError(f"inhomogeneous mix {g} += U^{s}.{h}")
        if self.alexander is not None:
            if self.alexander[h] - s > self.alexander[g]:
                raise AssertionError(f"filtration-breaking mix {g} += U^{s}.{h}")
        for tgt, p in list(self.diff.get(h, {}).items()):
            self._toggle(g, tgt, p + s)
        for y in list(self.into.get(g, set())):
            self._toggle(y, h, self.diff[y][g] + s)
        if self.iota is not None:
            for old, p in list(self.iota[h].items()):
                xor_entry(self.iota[g], old, p + s)
        if self.pi is not None:
            for e in list(self.pi_into.get(g, set())):
                if xor_entry(self.pi[e], h, self.pi[e][g] + s):
                    self.pi_into.setdefault(h, set()).add(e)
                else:
                    self.pi_into[h].discard(e)

    def _drop(self, g: str):
        self.alive_set.discard(g)
        for tgt in list(self.diff.get(g, {})):
            self.into[tgt].discard(g)
        self.diff.pop(g, None)
        self.into.pop(g, None)
        if self.iota is not None:
            self.iota.pop(g, None)
        if self.pi is not None:
            for e in list(self.pi_into.get(g, set())):
                del self.pi[e][g]
            self.pi_into.pop(g, None)

    # -- pivoting ---------------------------------------------------------

    def _split_pair(self, alpha: str, beta: str, k: int):
        """Clear row and column of a pivot alpha -> U^k beta, then delete.

        After clearing, d(alpha) = U^k beta exactly, nothing else touches
        the pair, and d(beta) = 0 is forced by d^2 = 0 and freeness.
        """
        for z in list(self.into.get(beta, set())):
            if z != alpha:
                self.mix(z, alpha, self.diff[z][beta] - k)
        for w, q in list(self.diff.get(alpha, {}).items()):
            if w != beta:
                self.mix(beta, w, q - k)
        if self.diff.get(alpha) != {beta: k}:
            raise AssertionError("pivot row failed to clear")
        if self.diff.get(beta):
            raise AssertionError("cancelled partner has nonzero differential")
        if self.into.get(alpha):
            raise AssertionError("arrows into a cleared pivot source")
        if k > 0:
            self.torsion.append((self.maslov[beta], k))
        self._drop(alpha)
        self._drop(beta)

    def cancel_u0(self):
        """Cancel every U^0 entry, smallest (source, target) pair first.

        A reducer given an Alexander grading cancels only the entries with
        zero Alexander drop (filtered reduction); the triggered basis
        changes are then automatically filtered.
        """
        heap = []
        for src, tgt, p in list(self._live_entries()):
            if p == 0 and self._u0_ok(src, tgt):
                heapq.heappush(heap, (src, tgt))
        while heap:
            src, tgt = heapq.heappop(heap)
            if self.diff.get(src, {}).get(tgt) != 0:
                continue
            self._created.clear()
            self._split_pair(src, tgt, 0)
            for s2, t2, p2 in self._created:
                if p2 == 0 and self._u0_ok(s2, t2) and self.diff.get(s2, {}).get(t2) == 0:
                    heapq.heappush(heap, (s2, t2))

    def _u0_ok(self, src, tgt):
        return self.alexander is None or self.alexander[src] == self.alexander[tgt]

    def _live_entries(self):
        for src, row in self.diff.items():
            for tgt, p in row.items():
                yield src, tgt, p

    def diagonalize(self):
        """Pivot on minimal-exponent entries until the differential is empty."""
        heap = [(p, src, tgt) for src, tgt, p in self._live_entries()]
        heapq.heapify(heap)
        while heap:
            p, src, tgt = heapq.heappop(heap)
            if self.diff.get(src, {}).get(tgt) != p:
                continue
            self._created.clear()
            self._split_pair(src, tgt, p)
            for s2, t2, p2 in self._created:
                if self.diff.get(s2, {}).get(t2) == p2:
                    heapq.heappush(heap, (p2, s2, t2))

    def current_complex(self) -> FreeComplex:
        alive = [g for g in self.alive if g in self.alive_set]
        return FreeComplex(
            [(g, self.maslov[g]) for g in alive],
            {
                src: dict(row)
                for src, row in self.diff.items()
                if src in self.alive_set
            },
        )


def components(generators, edges) -> list[list[str]]:
    """Connected components of the graph on ``generators`` spanned by the
    ``(a, b)`` pairs of ``edges``, by union-find.  Each component lists
    its members in generator order; components come in the order of their
    first members.

    >>> components("abcde", [("d", "b"), ("c", "a")])
    [['a', 'c'], ['b', 'd'], ['e']]
    """
    parent = {g: g for g in generators}

    def find(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    buckets: dict[str, list[str]] = {}
    for g in generators:
        buckets.setdefault(find(g), []).append(g)
    return list(buckets.values())


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
    validate_complex(c).require()
    r = _Reducer(c)
    r.cancel_u0()
    r.diagonalize()
    return FUDecomposition.make([r.maslov[g] for g in r.alive if g in r.alive_set], r.torsion)


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
