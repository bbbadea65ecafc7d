"""Bundled complex corpus: builders, canonical JSON, loading rules.

The corpus ships every built-in complex plus the ribbon sums of opposite
(2, n) torus knots and their precomputed doubles as regression fixtures.
``FLOERFORGE_CORPUS`` overrides the bundled directory; ``load_complex``
accepts a real path or a bare corpus name.
"""

from __future__ import annotations

import json
import os
from importlib import resources
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
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


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


def corpus_dir() -> Path:
    override = os.environ.get("FLOERFORGE_CORPUS")
    if override:
        return Path(override)
    return Path(resources.files("floerforge") / "corpus")


def load_complex(spec: str) -> KnotComplex:
    """Load a knot complex from a path, or from the corpus by name."""
    path = Path(spec)
    if not path.is_file():
        candidate = corpus_dir() / path.name
        if candidate.is_file():
            path = candidate
        elif not spec.endswith(".json"):
            candidate = corpus_dir() / f"{spec}.json"
            if candidate.is_file():
                path = candidate
    if not path.is_file():
        raise FileNotFoundError(f"no complex file or corpus entry for {spec!r}")
    data = json.loads(path.read_text(encoding="utf-8"))
    return KnotComplex.from_json(data)
