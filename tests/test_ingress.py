"""Reading complex files: one pass from JSON to a split, checked complex.

``from_json`` builds each dict once and hands it to ``_built``, so loading a
valid file runs neither ``__init__``; its checks still fire in their order.
``cfk._summands`` splits on generator positions; ``complexes.named_split``,
the split taken on names, is its reference.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from floerforge.cfk import (
    KnotComplex,
    _summands,
    box,
    figure8,
    j_in_y,
    staircase_torus,
    unknot,
)
from floerforge.cli import main
from floerforge.corpus import corpus_builders, corpus_dir, load_complex
from floerforge.fualgebra import FreeComplex

from complexes import flat_tower, named_split, scrambled_sums, split_contents, unchecked

F = Fraction


@pytest.mark.parametrize("name", sorted(corpus_builders()))
def test_positional_split_is_the_named_split_on_the_corpus(name):
    kc = load_complex(name)
    assert split_contents(_summands(kc)) == split_contents(named_split(kc))


def test_positional_split_is_the_named_split_on_wh2_k9():
    kc = flat_tower(load_complex("k9"), "++")[-1]
    split = _summands(kc)
    assert len(split) == 2 and split_contents(split) == split_contents(named_split(kc))


def with_flip(kc, flip):
    return KnotComplex(kc.base, kc.alexander, flip, kc.ambient)


PIECES = {
    "unknot": unknot,
    "figure8": figure8,
    "T(2,-3)": lambda: staircase_torus(3, "-"),
    "box(1/2)": lambda: box(F(1, 2)),
    "box(0, 1)": lambda: box(0, 1),
    "J in Y": j_in_y,
    # Broken: a partial flip, a flip that is no involution, an unknown endpoint.
    "partial flip": lambda: with_flip(box(0), {"a": "a", "d": "d"}),
    "three-cycle flip": lambda: with_flip(box(0), {"a": "b", "b": "c", "c": "a", "d": "d"}),
    "unknown source": lambda: KnotComplex(FreeComplex([("x", 0)], {"ghost": {"x": 0}}), {"x": 0}, {"x": "x"}),
}


@settings(deadline=None, max_examples=100)
@given(scrambled_sums(PIECES, max_size=4))
def test_positional_split_is_the_named_split_on_scrambled_sums(kc):
    assert split_contents(_summands(kc)) == split_contents(named_split(kc))


def test_loading_a_valid_file_runs_no_constructor(monkeypatch):
    unchecked(monkeypatch)
    calls = []
    for cls in (FreeComplex, KnotComplex):
        def counted(self, *args, real=cls.__init__, cls=cls, **kwargs):
            calls.append(cls.__name__)
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    for name in sorted(corpus_builders()):
        kc = load_complex(name)
        assert kc.to_json() == json.loads((corpus_dir() / f"{name}.json").read_text(encoding="utf-8"))
    assert calls == []


def test_loaded_alexander_grades_follow_the_generators(tmp_path):
    data = json.loads((corpus_dir() / "trefoil.json").read_text(encoding="utf-8"))
    data["alexander"] = dict(reversed(data["alexander"].items()))
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    kc = load_complex(str(path))
    assert list(kc.alexander) == list(kc.generators) == ["s0", "s1", "s2"]
    assert kc == load_complex("trefoil")


# One file with several defects: each check keeps its place in the order, so
# the message names the first defect that order reaches.
GENERATORS = [{"name": "a", "maslov": "0"}, {"name": "b", "maslov": "-1"}, {"name": "a", "maslov": "0"}]
ENTRY = {"from": "a", "to": "b", "upower": 0}


@pytest.mark.parametrize("data, message", [
    ({"generators": GENERATORS, "differential": [ENTRY, ENTRY], "alexander": {"ghost": 0}, "flip": [["a"]]},
     "differential entry a->b is listed twice"),
    ({"generators": GENERATORS, "differential": [ENTRY], "alexander": {"ghost": 0}, "flip": [["a"]]},
     "duplicate generator name 'a'"),
    ({"generators": GENERATORS[:2], "differential": [ENTRY], "alexander": {"ghost": 0}, "flip": [["a"]]},
     "flip pair 0 is not a list of two generator names"),
    ({"generators": GENERATORS[:2], "differential": [ENTRY], "alexander": {"ghost": 0, "zz": 1},
      "flip": [["a", "ghost"]]}, "alexander grades 'ghost', 'zz', which are not generators"),
    ({"generators": GENERATORS[:2], "differential": [ENTRY], "alexander": {"b": 0}, "flip": [["a", "ghost"]]},
     "flip pairs 'ghost', which are not generators"),
    ({"generators": GENERATORS[:2], "differential": [ENTRY], "alexander": {"b": 0}, "flip": [],
      "ambient": {"name": "S3", "b1": -1, "reduced_trivial": True}}, "generator 'a' has no alexander grade"),
], ids=["entry-twice", "duplicate-name", "flip-pair", "extra-alexander", "ghost-flip", "missing-alexander"])
def test_a_file_with_several_defects_reports_the_first(tmp_path, capsys, data, message):
    path = tmp_path / "defects.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["cfk", "--complex", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: cannot parse complex file {str(path)!r}: {message}\n")
