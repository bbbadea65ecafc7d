from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from floerforge.cfk import (
    KnotComplex,
    _summands,
    box,
    figure8,
    filtration_homology,
    hfk_hat,
    k_n,
    knot_numerics,
    mirror_knot,
    reduce_canonical,
    reduced_basis_form,
    staircase_torus,
    unknot,
    validate_knot,
    ReducedBasisForm,
)
from floerforge.corpus import load_complex
from floerforge.fualgebra import FreeComplex
from floerforge.surgery import surgery_hf
from floerforge.whitehead import (
    FormalRankError,
    _corners,
    _counted,
    box_parameters,
    box_tower,
    hedden_hfk_double,
    negative_double_cfk,
    whitehead_double_cfk,
)

from complexes import ORACLE_CASES, disjoint_sum, flat_tower, scrambled_sums, split_contents, unchecked, unsplit

F = Fraction


def filtration_data(kc, g):
    return {i: filtration_homology(kc, i) for i in range(-g, g + 1)}


# --- the hat-level doubling formula -------------------------------------------


def test_hedden_trivial_knot():
    table = hedden_hfk_double({0: {F(0): 1}}, g=0)
    assert table == {(F(0), 0): 1}


def test_hedden_survivor_only_contribution_cancels():
    # Genus 1, only the surviving class: one F at level 0 and 1.
    filtration = {-1: {}, 0: {F(0): 1}, 1: {F(0): 1}}
    table = hedden_hfk_double(filtration, g=1)
    assert table == {(F(0), 0): 1}


def test_hedden_single_pair_contribution():
    # One extra pair (m, A, d) = (1, 1, 1) on top of the survivor adds
    # two classes at grading m, four at m - 1, two at m - 2.
    filtration = {-1: {}, 0: {F(0): 2}, 1: {F(0): 1}}
    table = hedden_hfk_double(filtration, g=1)
    assert table == {
        (F(1), 1): 2,
        (F(0), 0): 5,
        (F(-1), -1): 2,
    }


def test_hedden_negative_final_rank_rejected():
    with pytest.raises(FormalRankError):
        hedden_hfk_double({0: {F(0): 1}, 1: {}, -1: {}}, g=1)


# --- complex-level doubling -----------------------------------------------------


def test_double_single_pair_two_boxes():
    rb = ReducedBasisForm.make([(F(1), 1, 1)])
    doubled = whitehead_double_cfk(rb)
    assert box_parameters(doubled) == [F(0), F(0)]


def test_double_figure8_shape():
    rb = reduced_basis_form(figure8())
    doubled = whitehead_double_cfk(rb)
    assert box_parameters(doubled) == [F(0), F(0), F(-1), F(-1)]
    assert validate_knot(doubled).ok


def test_double_rejects_trivial_knot():
    with pytest.raises(ValueError):
        whitehead_double_cfk(ReducedBasisForm.make([]))
    with pytest.raises(ValueError):
        negative_double_cfk(ReducedBasisForm.make([]))
    for sign in "+-":
        with pytest.raises(ValueError, match="nontrivial knot"):
            _corners([], sign)
        with pytest.raises(ValueError, match="nontrivial knot"):
            box_tower(ReducedBasisForm.make([]), sign)


@pytest.mark.parametrize("kc", [figure8(), k_n(3), k_n(5)])
def test_double_genus_one_tau_zero(kc):
    doubled = whitehead_double_cfk(reduced_basis_form(kc))
    numerics = knot_numerics(doubled)
    assert numerics == {"tau": 0, "genus": 1}


@pytest.mark.parametrize("kc", [figure8(), k_n(3), k_n(5)])
def test_double_hat_total_dimension(kc):
    rb = reduced_basis_form(kc)
    doubled = whitehead_double_cfk(rb)
    total = sum(hfk_hat(doubled).total.values())
    assert total == 1 + 8 * sum(d for _m, _a, d in rb.pairs)


@pytest.mark.parametrize("kc", [figure8(), k_n(3), k_n(5)])
def test_double_matches_hat_formula(kc):
    rb = reduced_basis_form(kc)
    doubled = whitehead_double_cfk(rb)
    g = knot_numerics(kc)["genus"]
    assert hfk_hat(doubled).total == hedden_hfk_double(filtration_data(kc, g), g)


def test_double_max_box_parameter_is_max_reduced_grading_minus_one():
    for kc in (figure8(), k_n(3), k_n(5)):
        rb = reduced_basis_form(kc)
        params = box_parameters(whitehead_double_cfk(rb))
        assert max(params) == hfk_hat(kc).max_reduced_maslov() - 1


def test_iterated_double_box_pattern():
    # Boxes at k spawn boxes at k and k - 1, squared.
    rb = reduced_basis_form(k_n(3))
    first = whitehead_double_cfk(rb)
    second = whitehead_double_cfk(reduced_basis_form(first))
    params1 = box_parameters(first)
    expected = sorted(
        [k for k in params1 for _ in range(2)] + [k - 1 for k in params1 for _ in range(2)],
        reverse=True,
    )
    assert box_parameters(second) == expected


def test_negative_double_is_mirror_of_positive_on_mirror():
    rb = reduced_basis_form(k_n(3))
    neg = negative_double_cfk(rb)
    via_def = mirror_knot(whitehead_double_cfk(rb.mirror()))
    assert box_parameters(neg) == box_parameters(via_def)
    assert hfk_hat(neg).total == hfk_hat(via_def).total


LEVEL_2_K3 = whitehead_double_cfk(reduced_basis_form(k_n(3)))
# The ladder rung Wh^2(K9): 640 reduced pairs, several boxes at each corner.
LEVEL_3_K9 = whitehead_double_cfk(reduced_basis_form(whitehead_double_cfk(reduced_basis_form(k_n(9)))))


@pytest.mark.parametrize("kc", [figure8(), k_n(3), k_n(5), k_n(9), LEVEL_2_K3, LEVEL_3_K9],
                         ids=["figure8", "K3", "K5", "K9", "Wh(K3)", "Wh^2(K9)"])
def test_flat_doubles_keep_the_layout_of_their_definitions(kc):
    rb = reduced_basis_form(kc)
    unnamed = lambda c: {k: v for k, v in c.to_json().items() if k != "name"}
    positive = disjoint_sum([unknot()] + [box(m - 1) for m, _a, d in rb.pairs for _ in range(2 * d)])
    assert unnamed(whitehead_double_cfk(rb)) == unnamed(positive)
    assert unnamed(negative_double_cfk(rb)) == unnamed(mirror_knot(whitehead_double_cfk(rb.mirror())))


def test_negative_double_of_amphichiral_shape_mirrors_positive():
    rb = reduced_basis_form(figure8())
    pos = whitehead_double_cfk(rb)
    neg = negative_double_cfk(rb)
    assert box_parameters(neg) == sorted((-k for k in box_parameters(pos)), reverse=True)


def test_box_parameters_recognition():
    assert box_parameters(whitehead_double_cfk(reduced_basis_form(figure8()))) == [F(0), F(0), F(-1), F(-1)]
    for kc in (staircase_torus(3, "+"), k_n(3)):
        with pytest.raises(ValueError):
            box_parameters(kc)


# The whole-complex route of box_parameters: one corner walk on the canonical
# reduction of the flat complex, the oracle for the per-shape walk.


def whole_box_parameters(kc):
    reduced = reduce_canonical(kc)
    remaining = set(reduced.generators)
    diff, M = reduced.base.differential, reduced.base.maslov
    params = []
    x_seen = False
    for a in sorted(remaining):
        row = diff.get(a, {})
        if len(row) != 2:
            continue
        powered = [t for t, p in row.items() if p == 1]
        plain = [t for t, p in row.items() if p == 0]
        if len(powered) != 1 or len(plain) != 1:
            raise ValueError(f"generator {a} is not a box corner")
        b, c = powered[0], plain[0]
        d_row = diff.get(b, {})
        if len(d_row) != 1 or list(d_row.values()) != [0]:
            raise ValueError(f"box at {a} has a malformed vertical edge")
        d = next(iter(d_row))
        if diff.get(c, {}) != {d: 1}:
            raise ValueError(f"box at {a} has a malformed horizontal edge")
        if reduced.alexander[a] != 0 or reduced.alexander[d] != 0:
            raise ValueError(f"box at {a} is Alexander-offset")
        params.append(M[a])
        remaining -= {a, b, c, d}
    for g in sorted(remaining):
        if diff.get(g):
            raise ValueError(f"leftover generator {g} has a differential")
        if M[g] != 0 or reduced.alexander[g] != 0:
            raise ValueError(f"leftover generator {g} is not at (0, 0)")
        if x_seen:
            raise ValueError("more than one split generator")
        x_seen = True
    if not x_seen:
        raise ValueError("no split generator at (0, 0)")
    return sorted(map(Fraction, params), reverse=True)


def x_joined_to_box():
    """One summand: x, box(-2), and p -> q + a + U x with dq = da.  Canonical
    reduction cancels p against q or a and leaves x plus one box; x is hit
    only through U, so every cancellation order leaves it alone."""
    b = box(-2)
    base = FreeComplex([("x", 0), ("p", -1), ("q", -2)] + [(g, b.maslov(g)) for g in b.generators],
                       {"p": {"q": 0, "a": 0, "x": 1}, "q": {"b": 1, "c": 0}, **b.base.differential})
    return KnotComplex(base, {"x": 0, "p": 0, "q": 0, **b.alexander}, {"x": "x", "p": "p", "q": "q", **b.flip})


def test_box_parameters_walks_a_shape_that_reduces_to_a_sum():
    kc = x_joined_to_box()
    assert validate_knot(kc).ok and len(_summands(kc)) == 1
    assert box_parameters(kc) == whole_box_parameters(kc) == [F(-2)]
    with_copies = disjoint_sum([kc, box(2), box(-1), box(2)])
    assert box_parameters(with_copies) == whole_box_parameters(unsplit(with_copies)) == [F(2), F(2), F(-1), F(-2)]
    with pytest.raises(ValueError, match="more than one split generator"):
        box_parameters(disjoint_sum([kc, kc]))


BOX_CASES = {
    **ORACLE_CASES,
    **{f"Wh{sign}({name})": (lambda build=build, kc=kc: build(reduced_basis_form(kc())))
       for sign, build in (("+", whitehead_double_cfk), ("-", negative_double_cfk))
       for name, kc in (("figure8", figure8), ("K3", lambda: k_n(3)))},
    "counted-": lambda: _counted({3: 2, 0: 1, -2: 3}, "-"),
    "x~box": x_joined_to_box,
    "x~box+boxes": lambda: disjoint_sum([x_joined_to_box(), box(2), box(-1), box(2)]),
}


def walk_outcome(walk, kc):
    try:
        return walk(kc)
    except ValueError:
        return ValueError


@settings(deadline=None, max_examples=120)
@given(scrambled_sums(BOX_CASES, max_size=2))
def test_box_parameters_per_shape_match_the_whole_complex(kc):
    assert walk_outcome(box_parameters, kc) == walk_outcome(whole_box_parameters, unsplit(kc))


# --- the box-sum normal form ------------------------------------------------------


def corners(kc):
    """Box corners of a flat double with their multiplicities, descending."""
    return tuple(sorted(Counter(box_parameters(kc)).items(), reverse=True))


def expanded(level):
    return disjoint_sum([unknot()] + [box(k) for k, c in corners(level) for _ in range(c)])


def box_sum_hat_ranks(level):
    """x at (0, 0); per box B[k], two classes at (k, 0), one at (k + 1, 1), one at (k - 1, -1)."""
    table = Counter({(F(0), 0): 1})
    for k, c in corners(level):
        table.update({(k, 0): 2 * c, (k + 1, 1): c, (k - 1, -1): c})
    return dict(table)


TOWERS = [(3, "-+-+", (-1, 0, 1)), (3, "+--+", (0,)), (5, "--++", (0,)), (5, "+-+-", (-1, 0, 1)),
          (7, "-+-+", (0,)), (9, "+--+", (0,))]


@pytest.mark.parametrize("n, signs, framings", TOWERS, ids=[f"K{n}{signs}" for n, signs, _ in TOWERS])
def test_box_tower_matches_flat_tower(n, signs, framings):
    kc = k_n(n)
    tower = box_tower(reduced_basis_form(kc), signs, kc.name)
    assert [level.name for level in tower] == [f"Wh^{i}(K{n})" for i in range(1, len(signs) + 1)]
    for flat, symbolic in zip(flat_tower(kc, signs), tower, strict=True):
        assert hfk_hat(symbolic) == hfk_hat(flat) and corners(symbolic) == corners(flat)
        # Corners and pairings are counted on ints inside; the public gradings stay Fractions.
        assert type(hfk_hat(symbolic).max_reduced_maslov()) is Fraction
        assert all(type(m) is Fraction for level in (symbolic, flat) for m, _a, _d in reduced_basis_form(level).pairs)
        for framing in framings:
            assert surgery_hf(symbolic, framing) == surgery_hf(flat, framing)


@pytest.mark.parametrize("signs", ["+", "-", "+-", "-+", "--"])
def test_box_sum_mirror_matches_mirror_knot(signs):
    for kc in (figure8(), k_n(3)):
        flat, symbolic = flat_tower(kc, signs)[-1], box_tower(reduced_basis_form(kc), signs)[-1]
        assert corners(mirror_knot(symbolic)) == corners(mirror_knot(flat))
        assert corners(mirror_knot(mirror_knot(symbolic))) == corners(symbolic)


@pytest.mark.parametrize("kc", [figure8(), k_n(3), k_n(5), k_n(7)])
def test_box_sum_hat_ranks_match_rank_formula(kc):
    g = knot_numerics(kc)["genus"]
    symbolic = box_tower(reduced_basis_form(kc), "+")[0]
    assert box_sum_hat_ranks(symbolic) == hedden_hfk_double(filtration_data(kc, g), g)


@pytest.mark.parametrize("signs", ["+", "-", "++", "-+"])
def test_box_sum_matches_expanded_complex(signs):
    symbolic = box_tower(reduced_basis_form(k_n(3)), signs)[-1]
    assert box_sum_hat_ranks(symbolic) == hfk_hat(expanded(symbolic)).total
    # Each box B[k] contributes the reduced pairs (k + 1, 1, 1) and (k, 0, 1).
    closed = {p: c for k, c in corners(symbolic) for p in ((k + 1, 1, 1), (k, 0, 1))}
    assert Counter(reduced_basis_form(expanded(symbolic)).pairs) == closed


# --- the split that a counted double hands over -------------------------------------


# The corpus entries with a reduced basis form (tau = 0, over S3).
DOUBLABLE = ["figure8", "k3", "k5", "k7", "k9", "wh_k3", "wh_k5", "wh_k7", "wh_k9"]


@pytest.mark.parametrize("entry", DOUBLABLE)
def test_box_sum_complex_hands_over_the_split_of_its_expansion(entry):
    kc = load_complex(entry)
    for signs in ("+++", "-+-"):
        for level in box_tower(reduced_basis_form(kc), signs):
            assert split_contents(level._split) == split_contents(_summands(unsplit(level)))


@pytest.mark.parametrize("entry", DOUBLABLE)
def test_counted_doubles_match_the_flat_route(entry):
    # Doubling depth 4 from the knot itself, a wh_ entry being one double
    # already: each counted level answers surgery as the flat level does,
    # before it is written out, and writes the same JSON.
    kc = load_complex(entry)
    for signs in ("+-+-", "-+-+"):
        signs, counted = signs[entry.startswith("wh_"):], kc
        for flat, sign in zip(flat_tower(kc, signs), signs, strict=True):
            counted = (whitehead_double_cfk if sign == "+" else negative_double_cfk)(reduced_basis_form(counted))
            for n in (-1, 0, 1):
                assert surgery_hf(counted, n) == surgery_hf(flat, n)
            assert counted.to_json() == flat.to_json()


@pytest.mark.parametrize("sign", "+-")
def test_box_sum_split_counts_each_corner(sign):
    flat = _counted({-2: 2, 1: 3}, sign)  # in no order, as _corners may give them
    assert split_contents(flat._split) == split_contents(_summands(unsplit(flat)))
    copies = [(1, 3), (-2, 2)]
    assert [c for _rep, c in flat._split] == [[(0, 1)], copies if sign == "+" else copies[::-1]]


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("fault", ["empty row", "Fraction power"])
def test_suite_compares_the_built_double(monkeypatch, fault, sign):
    # Writing out a counted double hands FreeComplex its rows without a copy.
    # In the suite (conftest.py) they also go through __init__ and must come
    # out the same, types included; the program takes them as they are.
    def mutating(built):
        def mutated(cls, maslov, differential):
            if fault == "empty row":
                differential["0.x"] = {}
            else:
                row = differential[next(g for g in differential if g.startswith("1."))]
                row[next(iter(row))] = Fraction(row[next(iter(row))])
            return built(cls, maslov, differential)
        return classmethod(mutated)

    double = lambda: _counted({1: 2, -1: 1}, sign)
    monkeypatch.setattr(FreeComplex, "_built", mutating(FreeComplex._built.__func__))
    with pytest.raises(AssertionError, match="differs from its copy"):
        double().base
    monkeypatch.undo()
    unchecked(monkeypatch)
    monkeypatch.setattr(FreeComplex, "_built", mutating(FreeComplex._built.__func__))
    double().base  # the program takes the rows as they are
