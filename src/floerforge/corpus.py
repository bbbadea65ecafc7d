"""Bundled complex corpus: builders, canonical JSON, loading rules.

The corpus ships every built-in complex plus the ribbon sums of opposite
(2, n) torus knots and their precomputed doubles as regression fixtures.
``FLOERFORGE_CORPUS`` overrides the bundled directory; ``load_complex``
accepts a real path or a bare corpus name.
"""

from __future__ import annotations

import functools
import json
import os
from importlib import resources
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .cfk import KnotComplex, builtin, k_n, reduce_canonical, reduced_basis_form, staircase_torus
from .whitehead import whitehead_double_cfk


def _wh_k_n(n: int) -> KnotComplex:
    return whitehead_double_cfk(reduced_basis_form(k_n(n)), name=f"Wh(K{n})")


def corpus_builders() -> dict:
    builders = {
        "unknot": lambda: builtin("unknot"),
        "figure8": lambda: builtin("figure8"),
        "j_in_y": lambda: builtin("J_in_Y"),
        "jprime_in_yprime": lambda: builtin("Jprime_in_Yprime"),
        "trefoil": lambda: staircase_torus(3, "+"),
    }
    for n in (3, 5, 7, 9):
        builders[f"t2_{n}"] = lambda n=n: staircase_torus(n, "+")
        # The fixtures hold K_n canonically reduced.
        builders[f"k{n}"] = lambda n=n: reduce_canonical(k_n(n))
        builders[f"wh_k{n}"] = lambda n=n: _wh_k_n(n)
    return builders


def canonical_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder.  This
    writes ``str``, ``int``, lists (of flat records by one template), tuples
    and dicts with ``str`` keys itself and hands any other value alone to
    ``json.dumps``, re-indented: a JSON text holds no raw newline inside a
    string.  Input this cannot take, a cycle or a nesting past the recursion
    limit, goes to ``json.dumps`` whole, so its errors are the ones
    ``json.dumps`` raises.
    """
    out: list[str] = []
    try:
        _write_json(data, "\n", out)
    except RecursionError:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]):
    """Append the text of ``value`` at the indent that ``newline`` ends with.
    A ``str`` or ``int`` item is written in its container's loop."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if type(value[0]) is dict and (records := _records(value, inner)) is not None:
            out.append("[" + inner + ("," + inner).join(records) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(sep + _encode_str(item))
            elif type(item) is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            head, item = sep + _encode_str(key) + ": ", value[key]
            if type(item) is str:
                out.append(head + _encode_str(item))
            elif type(item) is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def _records(items, newline: str):
    """The texts of ``items``, a list whose first item is a ``dict``, at the
    indent that ``newline`` ends with; None unless every item is a dict of
    exactly type ``dict`` with the first's ``str`` keys and, under each key,
    all ``str`` or all ``int`` values, as in the generators and the
    differential of a complex.  Each text fills one ``%`` template."""
    keys = items[0].keys()
    if not keys or not all(type(key) is str for key in keys) or \
            not all(type(item) is dict and item.keys() == keys for item in items):
        return None
    order, columns = sorted(keys), []
    for key in order:
        column = [item[key] for item in items]
        kinds = set(map(type, column))
        if kinds != {str} and kinds != {int}:
            return None
        columns.append(map(_encode_str if kinds == {str} else int.__repr__, column))
    inner = newline + "  "
    fields = ("," + inner).join(_encode_str(key).replace("%", "%%") + ": %s" for key in order)
    return map(f"{{{inner}{fields}{newline}}}".__mod__, zip(*columns))


def write_corpus(directory) -> list[str]:
    """Regenerate every corpus file; returns the file names written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in sorted(corpus_builders().items()):
        path = directory / f"{name}.json"
        path.write_text(canonical_json(build().to_json()), encoding="utf-8")
        written.append(path.name)
    return written


@functools.cache
def _bundled_dir() -> Path:
    return Path(resources.files("floerforge") / "corpus")


def corpus_dir() -> Path:
    """``FLOERFORGE_CORPUS``, read at each call, or the bundled directory, resolved once per process."""
    override = os.environ.get("FLOERFORGE_CORPUS")
    return Path(override) if override else _bundled_dir()


def load_complex(spec: str) -> KnotComplex:
    """Load a knot complex from a path, or from the corpus by name: the first
    file among ``spec``, then in the corpus directory its last component and,
    unless ``spec`` ends in ``.json``, ``spec.json``; each is stat'ed once."""
    path = Path(spec)
    if not os.path.isfile(path):
        directory = os.fspath(corpus_dir())
        names = (path.name,) if spec.endswith(".json") else (path.name, f"{spec}.json")
        found = (join for name in names if os.path.isfile(join := os.path.join(directory, name)))
        if (path := next(found, None)) is None:
            raise FileNotFoundError(f"no complex file or corpus entry for {spec!r}")
    with open(path, encoding="utf-8") as file:
        text = file.read()
    return KnotComplex.from_json(json.loads(text))
