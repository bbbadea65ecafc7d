"""The per-process cones of Hedden's normal form (``surgery._NORMAL_FORM_CONES``):
x and the box, in either clasp's layout, are reduced once per framing and
window, a warm answer equals a cold one and the flat cone, and no other
shape is kept.  A split representative carries its shape key, and
``validate_knot`` certifies x and the box by it: their per-shape checks do
not run, every other shape is checked once, and an invalid file ends as
before.  A double is counted: a tower 64 levels deep is validated, surgered
and read for its hat invariants without its flat form ever being written.
Doubling refuses a clasp sign other than "+" or "-" and a reduced pair
whose drop is below 1, and the closed-form top grading that the end
invariants read off a finite mixed prefix is that of the hat table.  The
reproduction rows of section 7 write out the one double they tensor.

A test that needs the cache cold empties it itself, so the module also runs
as users run the program, under ``pytest --noconftest``.
"""

import json
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from complexes import disjoint_sum, flat_tower, flip_swapped_boxes, unchecked, unsplit
from floerforge import cfk, surgery
from floerforge.cfk import (
    KnotComplex,
    ReducedBasisForm,
    _layout,
    _shape_key,
    _shapes,
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
    validate_knot,
)
from floerforge.cli import main
from floerforge.endfloer import CH_PLUS, CassonHandle, SliceR4Spec, he_end_sum, he_product_end, he_slice_r4, s3_data
from floerforge.corpus import corpus_dir, load_complex
from floerforge.fualgebra import FreeComplex, homology_decomposition, plus_presentation
from floerforge.surgery import build_cone, surgery_hf
from floerforge.verify import run_verification
from floerforge.whitehead import _counted, box_tower, negative_double_cfk, whitehead_double_cfk

F = Fraction


def shape(kc):
    return _shape_key(_layout(kc), range(len(kc.generators)))


def dual_box():
    """The box in the negative clasp's layout, as a negative double writes
    it: a, d at 0, b at -1, c at 1, b -> U a, c -> a, d -> b, d -> U c."""
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
        shapes = {shape(rep) for rep, _copies in _shapes(_counted({1: 2, 0: 1}, sign))}
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
    reps = [*cfk._normal_forms().values(),
            *(rep for kc in (wh_k3, mirror_knot(wh_k3)) for rep, _copies in _shapes(kc)),
            *(rep for sign in "+-" for rep, _copies in _shapes(_counted({1: 2, 0: 1}, sign)))]
    assert len(reps) == 11
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


# --- counted doubles: never written out ---------------------------------------------


@pytest.fixture
def nothing_written(monkeypatch):
    """Refuse to write out the flat form of any counted complex."""
    def refuse(kc):
        raise AssertionError(f"{kc.name or 'a counted complex'} was written out")
    monkeypatch.setattr(cfk, "_expanded", refuse)


def written_out(kc):
    """Whether the flat form of ``kc`` is on it (``KnotComplex.__getattr__`` not consulted)."""
    try:
        object.__getattribute__(kc, "base")
    except AttributeError:
        return False
    return True


def positive_tower_corners(rb, depth):
    """Box corners of the depth-th positive double with their multiplicities, descending, by
    Hedden's rule: 2 d boxes B[m - 1] per pair (m, A, d), and each next double takes B[k]^c to
    B[k]^2c + B[k - 1]^2c."""
    corners = Counter()
    for m, _a, d in rb.pairs:
        corners[m - 1] += 2 * d
    for _ in range(depth - 1):
        corners = sum((Counter({k: 2 * c, k - 1: 2 * c}) for k, c in corners.items()), Counter())
    return sorted(corners.items(), reverse=True)


def test_a_tower_64_levels_deep_is_never_written_out(nothing_written):
    # 4 * 2^130 or so box copies, counted: surgery, the hat table and the
    # numerics read two shapes and their counts.
    k9, times = load_complex("k9"), []
    for _ in range(3):
        start = time.perf_counter()
        kc = box_tower(reduced_basis_form(k9), "+" * 64)[-1]
        result, hat, numerics = surgery_hf(kc, 0), hfk_hat(kc), knot_numerics(kc)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    corners = positive_tower_corners(reduced_basis_form(k9), 64)
    size = 1 + 4 * sum(c for _k, c in corners)
    assert size > 2 ** 130 and repr(kc) == f"KnotComplex(Wh^64, {size} generators)"
    assert not written_out(kc)
    # x gives the towers of S1 x S2, and each box at corner k one F2 at k - 1/2.
    assert result.d_invariants == (F(-1, 2), F(1, 2))
    assert result.decomposition.torsion == tuple((k - F(1, 2), 1, c) for k, c in corners)
    table = Counter({(F(0), 0): 1})  # box(k): a and d at (k, 0), b at (k + 1, 1), c at (k - 1, -1)
    for k, c in corners:
        table.update({(k, 0): 2 * c, (k + 1, 1): c, (k - 1, -1): c})
    assert hat.total == dict(table) and numerics == {"tau": 0, "genus": 1}


def test_verify_writes_out_only_the_double_it_tensors(monkeypatch):
    # Row 7.symmetry reads the flip of each corpus double off its split;
    # 7.valid's tensor of Wh(K3) is the one place that needs a flat base.
    unchecked(monkeypatch)
    written, expand = [], cfk._expanded
    monkeypatch.setattr(cfk, "_expanded", lambda kc: written.append(kc.name) or expand(kc))
    rows = run_verification("7")
    assert rows and all(row.passed for row in rows)
    assert written == ["Wh^1(K3)"]


def test_the_ladder_writes_no_double_out(nothing_written):
    # reduced_basis_form -> whitehead_double_cfk -> surgery_hf, as the
    # benchmark's ladder runs it on K9.
    kc, tower = load_complex("k9"), []
    for level in (1, 2, 3):
        kc = whitehead_double_cfk(reduced_basis_form(kc), name=f"Wh^{level}(K9)")
        tower.append(kc)
        for n in (-1, 0, 1):
            surgery_hf(kc, n)
    assert [repr(kc) for kc in tower] == [f"KnotComplex(Wh^{level}(K9), {size} generators)"
                                          for level, size in ((1, 321), (2, 1281), (3, 5121))]
    assert not any(map(written_out, tower))


def test_end_invariants_build_no_flat_double(nothing_written):
    # Each level of an end invariant's tower is a counted complex (box_tower).
    mixed_plus, mixed_minus = (CassonHandle("finite_mixed_then_one_sign", (a,), b) for a, b in ("-+", "+-"))
    r_spec = lambda n, handle=CH_PLUS: SliceR4Spec(k_n(n), handle)
    assert he_slice_r4(r_spec(5), levels=6).max_nontrivial_grading == 2
    assert he_slice_r4(r_spec(3, mixed_plus), levels=6).max_nontrivial_grading == 1
    assert he_slice_r4(r_spec(3, mixed_minus)).vanishes is True
    assert he_end_sum([r_spec(3, mixed_plus), r_spec(5)], levels=5).max_nontrivial_grading == 4
    assert he_end_sum([r_spec(3), r_spec(3), r_spec(3)], levels=5).max_nontrivial_grading == 2
    report = he_product_end(s3_data(), r_spec(5), 5, levels=5)
    assert report.max_nontrivial_grading == 2
    assert any("f(S3) = -2" in line for line in report.narrative)


def test_a_counted_double_is_written_out_on_first_read():
    kc = _counted({1: 2, -1: 1}, "-", "double")
    assert not written_out(kc)
    assert kc.generators[:5] == ("0.x", "1.a", "1.b", "1.c", "1.d") and written_out(kc)
    assert (kc.alexander["1.b"], kc.flip["1.b"], kc.base.differential["1.d"]) == (-1, "1.c", {"1.b": 0, "1.c": 1})
    with pytest.raises(AttributeError, match="no attribute 'maslov_table'"):
        kc.maslov_table


@pytest.mark.parametrize("signs", ["x", "+ ", "+-*", ["+", "++"]])
def test_doubling_refuses_a_clasp_sign_other_than_plus_or_minus(signs):
    bad = next(s for s in signs if s not in ("+", "-"))
    with pytest.raises(ValueError, match=re.escape(f"clasp sign must be '+' or '-', not {bad!r}")):
        box_tower(reduced_basis_form(k_n(3)), signs)


@pytest.mark.parametrize("pairs", [((F(1), 0, -1),), ((F(1), 0, 0),), ((F(2), 1, 1), (F(1), 0, 0))],
                         ids=["drop -1", "drop 0", "a good pair and drop 0"])
@pytest.mark.parametrize("double", [whitehead_double_cfk, negative_double_cfk, lambda rb: box_tower(rb, "+-")],
                         ids=["positive", "negative", "tower"])
def test_doubling_refuses_a_pair_whose_drop_is_below_one(double, pairs):
    # make() takes the pairs as given; a drop below 1 would give a negative box count or the unknot.
    for rb in (ReducedBasisForm(pairs), ReducedBasisForm.make(pairs)):
        with pytest.raises(ValueError, match="has drop -?[01]; doubling needs drops of at least 1"):
            double(rb)


@pytest.mark.parametrize("entry", ["figure8", "k3", "k5", "k9", "wh_k3"])
def test_the_top_of_a_mixed_prefix_is_read_in_closed_form(entry):
    # endfloer reads the top reduced hat grading of a finite mixed prefix's
    # double as the knot's top plus one per "-" sign.  Over every prefix of
    # 1 to 5 signs (62 towers per knot), it is the top of hfk_hat of the
    # counted level, and the end invariant built on it checks each level's
    # 0-surgery against it; to depth 3 also the top of the flat level.
    kc = load_complex(entry)
    rb = reduced_basis_form(kc)
    closed = lambda signs: max(m for m, _a, _d in rb.pairs) + signs.count("-")
    for signs in ("".join(p) for n in range(1, 6) for p in product("+-", repeat=n)):
        assert hfk_hat(box_tower(rb, signs)[-1]).max_reduced_maslov() == closed(signs)
        handle = CassonHandle("finite_mixed_then_one_sign", tuple(signs), "+")
        assert he_slice_r4(SliceR4Spec(kc, handle), levels=2).max_nontrivial_grading == closed(signs) - 2
    for signs in ("".join(p) for p in product("+-", repeat=3)):
        for depth, flat in enumerate(flat_tower(kc, signs), start=1):
            assert hfk_hat(flat).max_reduced_maslov() == closed(signs[:depth])
