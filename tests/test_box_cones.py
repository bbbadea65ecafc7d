"""The per-process cones of Hedden's normal form (``surgery._NORMAL_FORM_CONES``):
x and the box, in either clasp's layout, are reduced once per framing and
window, a warm answer equals a cold one and the flat cone, and no other
shape is kept.  A split representative carries its shape key, and
``validate_knot`` certifies x and the box by it: their per-shape checks do
not run, every other shape is checked once, and an invalid file ends as
before.

A test that needs the cache cold empties it itself, so the module also runs
as users run the program, under ``pytest --noconftest``.
"""

import json
from fractions import Fraction

import pytest

from complexes import disjoint_sum, flat_tower, flip_swapped_boxes, unsplit
from floerforge import cfk, surgery, whitehead
from floerforge.cfk import (
    KnotComplex,
    _layout,
    _shape_key,
    _shapes,
    box,
    connected_sum_knots,
    figure8,
    j_in_y,
    k_n,
    mirror_knot,
    staircase_torus,
    unknot,
    validate_knot,
)
from floerforge.cli import main
from floerforge.corpus import corpus_dir, load_complex
from floerforge.fualgebra import FreeComplex, homology_decomposition, plus_presentation
from floerforge.surgery import build_cone, surgery_hf
from floerforge.whitehead import BoxSum

F = Fraction


def shape(kc):
    return _shape_key(_layout(kc), range(len(kc.generators)))


def dual_box():
    """The box in the negative clasp's layout, as ``BoxSum.complex("-")``
    writes it: a, d at 0, b at -1, c at 1, b -> U a, c -> a, d -> b, d -> U c."""
    base = FreeComplex([("a", 0), ("b", -1), ("c", 1), ("d", 0)],
                       {"b": {"a": 1}, "c": {"a": 0}, "d": {"b": 0, "c": 1}})
    return KnotComplex(base, {"a": 0, "b": -1, "c": 1, "d": 0}, {"a": "a", "b": "c", "c": "b", "d": "d"})


NORMAL_FORMS = {shape(unknot()), shape(box(0)), shape(dual_box())}


def flat_surgery(kc, n):
    return plus_presentation(homology_decomposition(build_cone(kc, n).total_complex()))


@pytest.fixture
def cones_built(monkeypatch):
    """The generator count of every shape ``surgery._shape_cone`` builds a cone for."""
    sizes, cone = [], surgery._shape_cone
    monkeypatch.setattr(surgery, "_shape_cone", lambda kc, *args: sizes.append(len(kc.generators)) or cone(kc, *args))
    return sizes


def test_both_clasps_write_the_normal_forms():
    for sign in "+-":
        shapes = {shape(rep) for rep, _copies in _shapes(BoxSum(((F(1), 2), (F(0), 1))).complex(sign))}
        assert shapes == {shape(unknot()), shape(box(0) if sign == "+" else dual_box())}


@pytest.mark.parametrize("signs", ["++", "--"])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_second_surgery_builds_no_normal_form_cone(n, signs, cones_built):
    kc = flat_tower(k_n(3), signs)[-1]  # Wh^2(K3): x plus 32 boxes
    first = surgery_hf(kc, n)
    cones_built.clear()
    assert surgery_hf(unsplit(kc), n) == first  # a fresh object, split again
    assert cones_built == []


def test_cache_holds_only_x_and_the_boxes():
    surgery._NORMAL_FORM_CONES.clear()
    knots = [k_n(3), k_n(5), k_n(7), k_n(9), staircase_torus(5, "+"), connected_sum_knots(figure8(), figure8()),
             j_in_y()]
    for kc in knots:
        for n in (-1, 0, 1):
            surgery_hf(kc, n)
    shapes = {key for key, _n, _g_hat in surgery._NORMAL_FORM_CONES}
    # figure8#figure8 has x and boxes beside its 16-generator box tensor box;
    # J_in_Y's split generator d is an x at grading -1/2.
    assert shapes == {shape(unknot()), shape(box(0))} and shapes <= NORMAL_FORMS
    assert {(n, g_hat) for _key, n, g_hat in surgery._NORMAL_FORM_CONES} == {(n, g) for n in (-1, 0, 1) for g in (1, 2)}


CASES = {
    **{f"Wh^{len(signs)}{signs}(K3)": (lambda signs=signs: flat_tower(k_n(3), signs)[-1])
       for signs in ("+", "++", "+++", "-", "--", "---")},
    # x plus boxes beside a genus-2 and a genus-3 summand: g_hat 2 and 3.
    "x+boxes+T(2,5)": lambda: disjoint_sum([unknot(), box(2), box(0), box(0), box(-1), staircase_torus(5, "+")]),
    "x+boxes+T(2,7)": lambda: disjoint_sum([unknot(), box(1), dual_box(), staircase_torus(7, "+")]),
    "swapped boxes j=0": lambda: flip_swapped_boxes(0),
    "swapped boxes j=1": lambda: flip_swapped_boxes(1),
}


@pytest.mark.parametrize("name", list(CASES))
def test_warm_answers_equal_cold_ones_and_the_flat_cone(name):
    kc, cold = CASES[name](), {}
    for n in (-1, 0, 1):
        surgery._NORMAL_FORM_CONES.clear()
        cold[n] = surgery_hf(unsplit(kc), n)
        assert cold[n].decomposition == flat_surgery(kc, n)
    assert surgery._NORMAL_FORM_CONES  # every case has an x or a box
    for n in (-1, 0, 1, -1, 0, 1):  # each framing filled, then warm
        assert surgery_hf(unsplit(kc), n) == cold[n]


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_box_at_a_nonzero_grading_is_moved_from_the_cache(n, cones_built):
    # box(3) alone is its own shape at offset 0, with first grading 3.
    surgery._NORMAL_FORM_CONES.clear()
    cold = surgery_hf(box(3), n)
    assert cones_built == [4] and cold.decomposition == flat_surgery(box(3), n)
    surgery._NORMAL_FORM_CONES.clear()
    surgery_hf(box(0), n)
    cones_built.clear()
    assert surgery_hf(box(3), n) == cold
    assert cones_built == []


def reordered_box():
    """``box(0)`` with its generators listed d, c, b, a: the negative clasp's
    box but for the order of d's row, so its key is no normal form's."""
    b = box(0)
    return KnotComplex(FreeComplex([(g, b.base.maslov[g]) for g in reversed(b.generators)], b.base.differential),
                       b.alexander, b.flip)


@pytest.fixture
def summands_checked(monkeypatch):
    """The generator count of every representative ``cfk._summand_violations`` checks."""
    sizes, check = [], cfk._summand_violations
    monkeypatch.setattr(cfk, "_summand_violations", lambda rep: sizes.append(len(rep.generators)) or check(rep))
    return sizes


def test_split_representatives_carry_their_own_keys():
    wh_k3 = load_complex("wh_k3")
    reps = [whitehead._X, whitehead._BOX, *(rep for kc in (wh_k3, mirror_knot(wh_k3)) for rep, _copies in _shapes(kc)),
            *(rep for sign in "+-" for rep, _copies in _shapes(BoxSum(((F(1), 2), (F(0), 1))).complex(sign)))]
    assert len(reps) == 10
    for rep in reps:
        assert rep._key == shape(rep) and rep._key in NORMAL_FORMS
    # box(3) alone is its own shape, the complex itself: it carries no key.
    assert [rep._key for rep, _copies in _shapes(box(3))] == [None] and unknot()._key is None


def test_normal_forms_run_no_per_shape_check(summands_checked):
    for kc in (flat_tower(k_n(3), "++")[-1], load_complex("wh_k3")):
        assert validate_knot(kc).ok
        for n in (-1, 0, 1):
            surgery_hf(kc, n)
    assert summands_checked == []


def test_other_shapes_are_checked_once_per_distinct_shape(summands_checked):
    kc = disjoint_sum([unknot(), reordered_box(), box(1), reordered_box(), staircase_torus(5, "+")])
    assert shape(reordered_box()) not in NORMAL_FORMS and shape(reordered_box()) != shape(dual_box())
    assert validate_knot(kc).ok
    assert sorted(summands_checked) == [4, 5]
    for n in (-1, 0, 1):
        flat = flat_surgery(kc, n)
        summands_checked.clear()
        assert surgery_hf(kc, n).decomposition == flat
        assert sorted(summands_checked) == [4, 5]


def set_power(data):
    data["differential"][0]["upower"] = 2  # 1.a -> U^2 1.b


def raise_alexander(data):
    data["alexander"]["1.b"] += 1


def fixed_flip_pair(data):
    data["flip"][2] = ["1.b", "1.b"]  # was ["1.b", "1.c"]


def drop_u0_edges(data):
    data["differential"] = [e for e in data["differential"] if not (e["from"].startswith("3.") and e["upower"] == 0)]


@pytest.mark.parametrize("mutate, message", [
    (set_power, "entry 1.a->U^2.1.b: grading 1 -> -2 is not degree -1; d^2 from 1.a to 1.d has surviving powers [1]"),
    (raise_alexander, "entry 1.a->U^1.1.b raises the Alexander filtration; flip image of 1.b has Alexander -1 != -2; "
                      "flip image of 1.b has wrong Maslov grading; flip image of 1.c has Alexander 2 != 1; "
                      "flip fails to be a chain map at 1.a; flip fails to be a chain map at 1.b"),
    (fixed_flip_pair, "flip image of 1.b has Alexander 1 != -1; flip image of 1.b has wrong Maslov grading; "
                      "flip undefined on 1.c"),
    (drop_u0_edges, "flip fails to be a chain map at 3.a; flip fails to be a chain map at 3.b; "
                    "flip fails to be a chain map at 3.c"),
], ids=["power", "alexander", "flip-pair", "no-u0-in-box-3"])
def test_a_mutated_box_is_checked_in_full(tmp_path, capsys, mutate, message):
    # One box of wh_k3 spoiled: its shape is no normal form's, so it is
    # checked and named exactly as when every shape was checked.
    data = json.loads((corpus_dir() / "wh_k3.json").read_text(encoding="utf-8"))
    mutate(data)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["surgery", "--n", "0", "--complex", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: invalid complex: {message}\n")
