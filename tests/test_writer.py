"""The direct writer of complex files, ``corpus.complex_json``.

Its oracle is ``json.dumps(kc.to_json(), sort_keys=True, indent=2) + "\\n"``,
the text ``canonical_json(kc.to_json())`` writes, over renamed, shuffled sums
of small pieces: mirrors, half-integral gradings, no flip, no differential,
no name, an ambient other than S3, and generator names holding non-ASCII
characters, quotes, backslashes, ``%`` and braces.  ``double`` writes its
complex through it, and so does ``write_corpus``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from floerforge.cfk import (
    Ambient,
    KnotComplex,
    box,
    figure8,
    j_in_y,
    k_n,
    mirror_knot,
    reduced_basis_form,
    staircase_torus,
    unknot,
)
from floerforge.cli import main
from floerforge.corpus import complex_json, corpus_builders, corpus_dir, load_complex, write_corpus
from floerforge.fualgebra import FreeComplex
from floerforge.whitehead import box_tower

from complexes import scrambled_sums

F = Fraction


def reference(kc):
    return json.dumps(kc.to_json(), sort_keys=True, indent=2) + "\n"


def relabelled(kc, tag, flip, ambient, name):
    """``kc`` with ``tag`` around each generator name, its flip kept or dropped,
    and the given ambient and name."""
    new = lambda g: f"{tag}{g}{tag[::-1]}"
    base = FreeComplex([(new(g), kc.maslov(g)) for g in kc.generators],
                       {new(s): {new(t): p for t, p in row.items()} for s, row in kc.base.differential.items()})
    return KnotComplex(base, {new(g): a for g, a in kc.alexander.items()},
                       {new(a): new(b) for a, b in kc.flip.items()} if flip and kc.flip is not None else None,
                       ambient, name)


PIECES = {
    "unknot": unknot,
    "figure8": figure8,
    "T(2,5)": lambda: staircase_torus(5, "+"),
    "T(2,-5)": lambda: staircase_torus(5, "-"),
    "m(K3)": lambda: mirror_knot(k_n(3)),
    "box(1/2)": lambda: box(F(1, 2)),
    "box(-3, 2)": lambda: box(-3, 2),
    "J in Y": j_in_y,
}
TAGS = st.text(st.sampled_from('é"\\%{}\u2028\U0001f600a '), max_size=4)
AMBIENTS = st.sampled_from([Ambient(), Ambient("Y", 1, True), Ambient('Y" é', 2, False)])


@settings(deadline=None, max_examples=150)
@given(scrambled_sums(PIECES, max_size=3), TAGS, st.booleans(), AMBIENTS, TAGS)
@example(unknot(), "", True, Ambient(), "")
@example(KnotComplex(FreeComplex([]), {}, {}), "%s", True, Ambient(), "{}")
@example(KnotComplex(FreeComplex([]), {}), "", False, Ambient(), "")
def test_complex_json_is_the_canonical_text_of_to_json(kc, tag, flip, ambient, name):
    kc = relabelled(kc, tag, flip, ambient, name)
    assert complex_json(kc) == reference(kc)


def test_complex_json_writes_names_that_are_no_generators():
    # An invalid complex is written as to_json has it: an unknown endpoint
    # and a flip image that is no generator are encoded when met.
    kc = KnotComplex(FreeComplex([("x", 0)], {"ghost é": {"x": 0}}), {"x": 0}, {"x": "other\\"})
    assert complex_json(kc) == reference(kc)


def test_write_corpus_reproduces_the_bundled_files(tmp_path):
    assert sorted(write_corpus(tmp_path)) == sorted(f"{name}.json" for name in corpus_builders())
    for name in corpus_builders():
        assert (tmp_path / f"{name}.json").read_bytes() == (corpus_dir() / f"{name}.json").read_bytes()


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("iterations", [1, 2])
def test_double_writes_the_canonical_text_of_the_double(capsys, sign, iterations):
    # Every corpus knot over S3 with tau = 0 but the unknot, which has no pairs to double.
    doubled = []
    for name in sorted(corpus_builders()):
        code = main(["double", "--complex", name, "--sign", sign, "--iterations", str(iterations)])
        out = capsys.readouterr().out
        if code:
            assert out == ""
            continue
        kc = load_complex(name)
        top = box_tower(reduced_basis_form(kc), sign * iterations, kc.name)[-1]
        assert top.name == f"Wh^{iterations}({kc.name})" and out == reference(top)
        doubled.append(name)
    assert doubled == ["figure8", "k3", "k5", "k7", "k9", "wh_k3", "wh_k5", "wh_k7", "wh_k9"]
