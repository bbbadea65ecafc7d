"""Command-line front end.

Commands: ``cfk``, ``surgery``, ``double``, ``endfloer``, ``distinguish``,
``verify``.  JSON output is byte-stable (sorted keys, canonical fraction
strings); tables align gradings descending.  Exit codes: 0 success,
1 domain error, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

from .cfk import (
    HfkTable,
    KnotComplex,
    _canonical_shapes,
    _shapes,
    filtration_homology,
    hfk_hat,
    knot_numerics,
    reduced_basis_form,
    validate_knot,
)
from .corpus import canonical_json, complex_json, load_complex
from .endfloer import (
    CH_MINUS,
    CH_PLUS,
    CH_STAR,
    CassonHandle,
    SliceR4Spec,
    distinguish,
    he_slice_r4,
)
from .fualgebra import FUDecomposition, InvalidComplex, format_grading, json_checked, json_field
from .surgery import MissingFlip, _summed_cones, _window
from .verify import format_rows, run_verification
from .whitehead import box_tower


class UsageError(Exception):
    pass


def _emit(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _decomposition_table(dec: FUDecomposition) -> str:
    towers = {}
    for t in dec.towers:
        towers[t] = towers.get(t, 0) + 1
    reduced = dec.torsion_rank_table()
    gradings = sorted(set(towers) | set(reduced), reverse=True)
    header = f"{'grading':>10}  {'towers':>6}  {'reduced':>7}"
    lines = [header]
    for g in gradings:
        lines.append(
            f"{format_grading(g):>10}  {towers.get(g, 0) or '.':>6}  {reduced.get(g, 0) or '.':>7}"
        )
    if not gradings:
        lines.append(f"{'-':>10}  {'.':>6}  {'.':>7}")
    return "\n".join(lines) + "\n"


def _hfk_table(table: HfkTable) -> str:
    keys = sorted(table.total, key=lambda k: (-k[1], -k[0]))
    lines = [f"{'maslov':>8}  {'alexander':>9}  {'dim':>4}"]
    for m, s in keys:
        lines.append(f"{format_grading(m):>8}  {s:>9}  {table.total[(m, s)]:>4}")
    return "\n".join(lines) + "\n"


def _load(source) -> tuple[KnotComplex, list]:
    """Read and validate a complex (path, corpus name or inline JSON), with the rows per shape
    ``validate_knot`` checked.  Over S3 its Maslov gradings are integers and its U=0 homology
    is one F2 at 0, taken once per summand shape of ``cfk._shapes`` and shifted."""
    from_file = isinstance(source, str)
    try:
        kc = load_complex(source) if from_file else KnotComplex.from_json(source)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        what = f"complex file {source!r}" if from_file else "inline complex"
        raise UsageError(f"cannot parse {what}: {exc}") from exc
    if kc.ambient.is_sphere:
        for g, m in kc.base.maslov.items():
            if type(m) is not int:
                raise InvalidComplex(f"invalid complex: Maslov grading {format_grading(m)} of {g} "
                                     f"is not an integer over {kc.ambient.name}")
    (report := validate_knot(kc)).require("complex")
    if kc.ambient.is_sphere:
        dims: Counter = Counter()
        for rep, copies in _shapes(kc):
            for m, d in filtration_homology(rep, rep.genus_bound()).items():
                for offset, count in copies:
                    dims[m + offset] += d * count
        if dims != {0: 1}:
            found = ", ".join(f"rank {d} at Maslov {format_grading(m)}" for m, d in sorted(dims.items()))
            raise InvalidComplex(f"invalid complex: U=0 homology over {kc.ambient.name} is "
                                 f"{found or 'zero'}, not rank 1 at Maslov 0")
    return kc, report.checked


_HANDLES = {"ch+": CH_PLUS, "ch-": CH_MINUS, "ch*": CH_STAR,
            "undetermined": CassonHandle("undetermined")}


def _parse_handle(value) -> CassonHandle:
    if isinstance(value, str):
        if value in _HANDLES:
            return _HANDLES[value]
        raise UsageError(f"unknown handle {value!r}; use one of {sorted(_HANDLES)}")
    return CassonHandle.from_json(value)


def _piece_fields(data, what: str) -> tuple:
    """The knot, handle, orientation and disk label of one piece of a
    ``distinguish`` file, called ``what`` in errors; a malformed field,
    the handle object included, is a KeyError, TypeError or ValueError."""
    json_checked(data, dict, what)
    if not isinstance(label := data.get("disk_label", "standard"), str):
        raise TypeError(f"disk_label is not a string: {label!r}")
    if (orientation := data.get("orientation", "+")) not in ("+", "-"):
        raise TypeError(f"orientation is not '+' or '-': {orientation!r}")
    return json_field(data, "knot", what), _parse_handle(data.get("handle", "ch+")), orientation, label


def _parse_operand(path: str):
    """The piece or end sum of a ``distinguish`` file.  Every piece is checked
    for malformed fields, and its handle built, before any knot is loaded."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, UnicodeDecodeError or too long an int
        raise UsageError(f"cannot parse {path!r}: {exc}") from exc
    try:
        summands = "summands" in json_checked(data, dict, "the piece")
        entries = json_checked(data["summands"], list, '"summands"') if summands else [data]
        pieces = [_piece_fields(s, f"summand {i}" if summands else "the piece") for i, s in enumerate(entries)]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed piece description in {path!r}: {exc}") from exc
    specs = [SliceR4Spec(_load(knot)[0], *fields) for knot, *fields in pieces]
    return specs if summands else specs[0]


def _cmd_cfk(args) -> int:
    kc, rows = _load(args.complex)
    _canonical_shapes(kc, rows)  # each shape reduced on the rows its validation built
    table = hfk_hat(kc)
    if args.format == "table":
        _emit(_hfk_table(table), args.out)
        return 0
    payload = {"hfk_hat": {}, "name": kc.name}
    payload["hfk_hat"] = {
        f"({format_grading(m)},{s})": d for (m, s), d in sorted(table.total.items())
    }
    if table.reduced is not None:
        payload["hfk_hat_reduced"] = {
            f"({format_grading(m)},{s})": d for (m, s), d in sorted(table.reduced.items())
        }
        payload["numerics"] = knot_numerics(kc)
    _emit(canonical_json(payload), args.out)
    return 0


def _cmd_surgery(args) -> int:
    kc, rows = _load(args.complex)
    result = _summed_cones(_shapes(kc), args.n, _window(kc, args.n), rows)
    if args.format == "table":
        _emit(_decomposition_table(result.decomposition), args.out)
    else:
        _emit(canonical_json(result.to_json()), args.out)
    return 0


_DEEPEST = (sys.maxsize.bit_length() - 2) // 2  # past it, 2 * 4^k + 1 generators of a depth-k double exceed sys.maxsize


def _count(value: int, flag: str, least: int, most: int, why: str):
    """Check ``value`` of ``flag``: at least ``least``, at most ``most``, past which ``why``."""
    if value < least:
        raise UsageError(f"{flag} must be at least {least}")
    if value > most:
        raise UsageError(f"{flag} must be at most {most}: {why}")


def _cmd_double(args) -> int:
    _count(args.iterations, "--iterations", 1, _DEEPEST, "a double of depth k has at least 2*4^k + 1 generators")
    kc = _load(args.complex)[0]
    _emit(complex_json(box_tower(reduced_basis_form(kc), args.sign * args.iterations, kc.name)[-1]), args.out)
    return 0


def _cmd_endfloer(args) -> int:
    _count(args.levels, "--levels", 2, sys.maxsize, "a tower of more levels cannot be listed")
    spec = SliceR4Spec(
        knot=_load(args.knot)[0],
        handle=_parse_handle(args.handle),
        orientation=args.orientation,
    )
    report = he_slice_r4(spec, levels=args.levels)
    _emit(canonical_json(report.to_json()), args.out)
    return 0


def _cmd_distinguish(args) -> int:
    a = _parse_operand(args.a)
    b = _parse_operand(args.b)
    verdict = distinguish(a, b)
    _emit(canonical_json(verdict.to_json()), args.out)
    return 0


def _cmd_verify(args) -> int:
    rows = run_verification(args.filter)
    if not rows:
        raise UsageError(f"no verification rows match {args.filter!r}")
    _emit(format_rows(rows) + "\n", None)
    return 0 if all(r.passed for r in rows) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: ``parse_args``
    keeps no state on it and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="floerforge",
        description="Exact computations with knot complexes over F2[U].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfk", help="hat invariants of a knot complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cfk)

    p = sub.add_parser("surgery", help="graded output of integer surgery")
    p.add_argument("--complex", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("double", help="iterated Whitehead double of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("endfloer", help="end invariant of a slice piece")
    p.add_argument("--knot", required=True)
    p.add_argument("--handle", default="ch+")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--orientation", choices=["+", "-"], default="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_endfloer)

    p = sub.add_parser("distinguish", help="compare two pieces under both orientations")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("verify", help="run the reproduction suite")
    p.add_argument("--filter", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def _fail(exc: Exception, code: int) -> int:
    """Print ``exc`` as one ``error:`` line, a line break in it (a generator
    name may hold one) escaped, and return ``code``."""
    print("error:", str(exc).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail(exc, 2)
    except (InvalidComplex, MissingFlip, ValueError) as exc:
        return _fail(exc, 1)
    except MemoryError:  # the input is valid, but its answer does not fit in memory
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
