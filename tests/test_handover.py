"""The summand splits that sums and mirrors hand over, and the rows that
validation hands to surgery.

``connected_sum_knots``, ``mirror_knot``, ``k_n`` and ``staircase_torus(n,
"-")`` give their result the split ``cfk._summands`` would take of it, so no
later call splits the flat complex.  These tests run the hat layers and
surgery as users run the program (without the suite's re-checks) and check
that the flat complex is never split and that every answer is the one taken
on a copy without the split.  ``surgery_hf`` builds a shape's window-bitset
rows once, in its validation, and checks its flip once; the hat layers
check no flip.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from floerforge import cfk, cli, fualgebra
from floerforge.cfk import (
    KnotComplex,
    _shapes,
    _summands,
    box,
    connected_sum_knots,
    figure8,
    hfk_hat,
    j_in_y,
    k_n,
    knot_numerics,
    mirror_knot,
    reduced_basis_form,
    staircase_torus,
    unknot,
)
from floerforge.corpus import load_complex
from floerforge.fualgebra import FreeComplex
from floerforge.surgery import surgery_hf

from complexes import (
    ORACLE_CASES,
    disjoint_sum,
    flat_tower,
    flip_swapped_boxes,
    holders,
    scrambled_sums,
    split_contents,
    unchecked,
    unsplit,
)

F = Fraction

HANDED_OVER = {
    **{name: ORACLE_CASES[name] for name in ["K3", "K5", "K7", "K9", "T(2,-7)", "figure8#figure8",
                                             "T(2,5)#T(2,5)#T(2,5)", "swapped#swapped", "m(Wh(K3))", "m(m(K5))"]},
    "J#Wh(K5)": lambda: connected_sum_knots(j_in_y(), flat_tower(k_n(5), "+")[0]),
}

LAYERS = {
    "hfk_hat": hfk_hat,
    "knot_numerics": knot_numerics,
    "reduced_basis_form": reduced_basis_form,
    **{f"surgery_hf({n})": (lambda kc, n=n: surgery_hf(kc, n)) for n in (-1, 0, 1)},
}


def answers(kc):
    out = {}
    for name, layer in LAYERS.items():
        try:
            out[name] = layer(kc)
        except ValueError as exc:  # a domain error: tau != 0, or an ambient with b1 > 0
            out[name] = (type(exc), str(exc))
    return out


@pytest.mark.parametrize("name", list(HANDED_OVER))
def test_sums_and_mirrors_are_never_split_again(monkeypatch, name):
    unchecked(monkeypatch)
    split = []
    real = cfk._summands
    monkeypatch.setattr(cfk, "_summands", lambda kc: split.append(kc) or real(kc))
    kc = HANDED_OVER[name]()
    handed_over = kc._split
    found = answers(kc)
    assert handed_over is not None and kc._split is handed_over
    assert not [k for k in split if k == kc]  # factors and small tensors may be split, the result never
    assert found == answers(unsplit(kc))
    assert any(not isinstance(value, tuple) for value in found.values())


def test_mirror_of_shapes_alike_but_for_their_row_order_hands_over_nothing():
    # Two boxes whose corner a lists its targets in either order are two
    # shapes; their duals list each row's sources in generator order, so the
    # mirror has one box shape, and only the whole complex orders its copies.
    b = box(2)
    reordered = KnotComplex(FreeComplex([(g, b.maslov(g)) for g in b.generators],
                                        {**b.base.differential, "a": {"c": 0, "b": 1}}), b.alexander, b.flip)
    kc = disjoint_sum([unknot(), box(0), reordered, box(0)])
    assert len(_shapes(kc)) == 3
    mirrored = mirror_knot(kc)
    assert mirrored._split is None
    assert len(_shapes(mirrored)) == 2 and answers(mirrored) == answers(unsplit(mirrored))


def without_x(kc):
    """``kc`` without its generator x."""
    gens = [g for g in kc.generators if g != "x"]
    return KnotComplex(FreeComplex([(g, kc.maslov(g)) for g in gens], kc.base.differential),
                       {g: kc.alexander[g] for g in gens}, {g: kc.flip[g] for g in gens})


def half_shifted(kc):
    return KnotComplex(kc.base.shift(F(1, 2)), kc.alexander, kc.flip)


# Small pieces whose renamed, shuffled sums interleave their summands in
# generator order: x, boxes with and without a flip, two boxes that only the
# flip joins, a staircase, and half-integral gradings.
PIECES = {
    "unknot": unknot,
    "figure8": figure8,
    "T(2,3)": lambda: staircase_torus(3, "+"),
    "T(2,-3)": lambda: staircase_torus(3, "-"),
    "box(1)": lambda: box(1),
    "box(1/2)": lambda: box(F(1, 2)),
    "box(0, 1)": lambda: box(0, 1),
    "swapped(1)": lambda: flip_swapped_boxes(1),
    "swapped(1) - x": lambda: without_x(flip_swapped_boxes(1)),
    "T(2,3)[1/2]": lambda: half_shifted(staircase_torus(3, "+")),
}


@settings(deadline=None, max_examples=60)
@given(scrambled_sums(PIECES, max_size=3), scrambled_sums(PIECES, max_size=2))
@example(PIECES["T(2,3)[1/2]"](), unknot())
@example(disjoint_sum([PIECES["T(2,3)[1/2]"](), box(F(1, 2))]), PIECES["swapped(1) - x"]())
@example(PIECES["swapped(1) - x"](), PIECES["swapped(1) - x"]())
def test_handed_over_splits_are_the_splits_of_the_whole(k1, k2):
    built = [connected_sum_knots(k1, k2), connected_sum_knots(k2, k1)]
    try:
        built.append(mirror_knot(k1))
    except ValueError:  # a sum of pieces that is not a knot over S3
        pass
    for kc in built:
        if kc._split is not None:
            assert split_contents(kc._split) == split_contents(_summands(unsplit(kc)))


def counting(monkeypatch, *functions):
    """A Counter of the calls of each of ``functions`` by name, through every module that holds it."""
    calls = Counter()
    for fn in functions:
        for module in holders(sys.modules.values(), fn.__name__, fn):
            monkeypatch.setattr(module, fn.__name__, lambda *args, fn=fn: calls.update([fn.__name__]) or fn(*args))
    return calls


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_surgery_builds_the_rows_of_a_shape_once(monkeypatch, n):
    # K9 is one shape: validation builds its rows and checks its flip, and
    # hands the rows to the shared reduction; the minimal cone goes to the
    # reducer on positions, with no rows built or checked again.
    unchecked(monkeypatch)
    kc = load_complex("k9")
    calls = counting(monkeypatch, fualgebra._id_rows, cfk._flip_chain_map_violations)
    surgery_hf(kc, n)
    assert calls == {"_id_rows": 1, "_flip_chain_map_violations": 1}


@pytest.mark.parametrize("argv", [["surgery", "--n", "-1"], ["surgery", "--n", "0"], ["surgery", "--n", "1"], ["cfk"]],
                         ids=" ".join)
def test_the_cli_builds_the_rows_of_a_shape_once(monkeypatch, capsys, argv):
    # The CLI validates its input once and reduces each shape on the rows
    # that validation built: the surgery cone, and the canonical reduction.
    unchecked(monkeypatch)
    calls = counting(monkeypatch, fualgebra._id_rows)
    assert cli.main([argv[0], "--complex", "k9", *argv[1:]]) == 0
    assert capsys.readouterr().err == ""
    assert calls == {"_id_rows": 1}


def test_hat_layers_check_no_flip(monkeypatch):
    # No reader of a canonical shape takes its flip, so none is checked.
    unchecked(monkeypatch)
    kc = load_complex("k9")
    calls = counting(monkeypatch, cfk._flip_chain_map_violations)
    hfk_hat(kc), knot_numerics(kc), reduced_basis_form(kc)
    assert calls == {}
