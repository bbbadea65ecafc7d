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
from .fualgebra import format_grading
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
    writes ``str``, ``int``, lists, tuples and dicts with ``str`` keys itself
    and hands any other value alone to ``json.dumps``, re-indented: a JSON
    text holds no raw newline inside a string.  Input this cannot take, a
    cycle or a nesting past the recursion limit, goes to ``json.dumps`` whole,
    so its errors are the ones ``json.dumps`` raises.  A complex file is
    written by :func:`complex_json`.
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


class _Encoded(dict):
    """JSON texts of generator names; a name that is no generator is encoded when met."""

    def __missing__(self, name):
        return json.dumps(name)


def complex_json(kc: KnotComplex) -> str:
    """``canonical_json(kc.to_json())``, byte for byte, written directly: each name
    encoded once, one f-string per generator, differential entry and flip pair, one
    join.  Names are ``str``, as ``from_json`` requires of a file; the gradings and
    Alexander grades are in generator order, as a ``KnotComplex`` keeps them."""
    gens, M, A, flip = kc.generators, kc.base.maslov, kc.alexander, kc.flip
    names = list(map(_encode_str, gens))
    enc = _Encoded(zip(gens, names))
    entries = sorted([(s, t, p) for s, row in kc.base.differential.items() for t, p in row.items()])
    out = ['{\n  "alexander": ', *_block("{}", [f"{e}: {a}" for _g, e, a in sorted(zip(gens, names, A.values()))]),
           ',\n  "ambient": ', json.dumps(kc.ambient.to_json(), sort_keys=True, indent=2).replace("\n", "\n  "),
           ',\n  "differential": ', *_block("[]", [f'{{\n      "from": {enc[s]},\n      "to": {enc[t]},\n'
                                                   f'      "upower": {p}\n    }}' for s, t, p in entries])]
    if flip is not None:
        pairs = sorted([(a, b) for a, b in flip.items() if a <= b])
        out += [',\n  "flip": ', *_block("[]", [f"[\n      {enc[a]},\n      {enc[b]}\n    ]" for a, b in pairs])]
    records = [f'{{\n      "maslov": "{m if type(m) is int else format_grading(m)}",\n      "name": {e}\n    }}'
               for e, m in zip(names, M.values())]  # both in generator order
    out += [',\n  "generators": ', *_block("[]", records)]
    out.append(f',\n  "name": {_encode_str(kc.name)}\n}}\n' if kc.name else "\n}\n")
    return "".join(out)


def _block(brackets: str, items: list[str]) -> tuple[str, ...]:
    """The pieces of the JSON object or list in ``brackets`` of the texts ``items``, its items at indent 4."""
    return (brackets[0], "\n    ", ",\n    ".join(items), "\n  ", brackets[1]) if items else (brackets,)


def write_corpus(directory) -> list[str]:
    """Regenerate every corpus file; returns the file names written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in sorted(corpus_builders().items()):
        path = directory / f"{name}.json"
        path.write_text(complex_json(build()), encoding="utf-8")
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
