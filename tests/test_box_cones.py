"""The per-process cones of Hedden's normal form (``surgery._NORMAL_FORM_CONES``):
x and the box, in either clasp's layout, are reduced once per framing and
window, a warm answer equals a cold one and the flat cone, and no other
shape is kept.

A test that needs the cache cold empties it itself, so the module also runs
as users run the program, under ``pytest --noconftest``.
"""

from fractions import Fraction

import pytest

from complexes import disjoint_sum, flat_tower, flip_swapped_boxes, unsplit
from floerforge import surgery
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
    staircase_torus,
    unknot,
)
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
