import gc
import itertools
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floerforge import cfk
from floerforge.cfk import (
    HfkTable,
    KnotComplex,
    ReducedBasisForm,
    _flip_chain_map_violations,
    _shapes,
    _summand_violations,
    _vertical_pairing,
    box,
    builtin,
    connected_sum_knots,
    figure8,
    filtration_homology,
    hfk_hat,
    j_in_y,
    jprime_in_yprime,
    k_n,
    knot_numerics,
    mirror_knot,
    reduce_canonical,
    reduced_basis_form,
    staircase_torus,
    unknot,
    validate_knot,
)
from floerforge.corpus import canonical_json, corpus_builders, load_complex
from floerforge.fualgebra import (
    FreeComplex,
    FUDecomposition,
    InvalidComplex,
    ValidationReport,
    _Reducer,
    format_grading,
    graded_f2_dims,
    homology_decomposition,
    tensor_complexes,
    validate_complex,
)
from floerforge.surgery import build_cone, surgery_hf
from floerforge.whitehead import box_parameters, box_tower

from complexes import ORACLE_CASES, disjoint_sum, filtered_mixes, flat_tower, mix, scrambled_sums, unsplit

F = Fraction


ALL_BUILDERS = [
    unknot(),
    figure8(),
    staircase_torus(3, "+"),
    staircase_torus(3, "-"),
    staircase_torus(5, "+"),
    staircase_torus(7, "+"),
    staircase_torus(9, "+"),
    j_in_y(),
    jprime_in_yprime(),
    box(F(0)),
    box(F(2), 1),
    box(F(-1, 2)),
]


@pytest.mark.parametrize("kc", ALL_BUILDERS, ids=lambda k: k.name)
def test_builders_validate(kc):
    report = validate_knot(kc)
    assert report.ok, report.violations


def test_box_gradings_match_table():
    b = box(F(0), 0)
    assert b.maslov("a") == 0 and b.alexander["a"] == 0
    assert b.maslov("b") == 1 and b.alexander["b"] == 1
    assert b.maslov("c") == -1 and b.alexander["c"] == -1
    assert b.maslov("d") == 0 and b.alexander["d"] == 0
    assert b.base.differential == {"a": {"b": 1, "c": 0}, "b": {"d": 0}, "c": {"d": 1}}


def test_box_flip_grading_identity():
    b = box(F(3), 0)
    assert b.maslov("c") == b.maslov("b") - 2
    assert b.flip["b"] == "c" and b.flip["a"] == "a"


def test_box_with_alexander_offset():
    b = box(F(2), 1)
    assert (b.maslov("b"), b.alexander["b"]) == (F(3), 2)
    assert (b.maslov("c"), b.alexander["c"]) == (F(1), 0)
    assert b.flip is None


def test_staircase_trefoil_free_rank_one_at_zero():
    h = homology_decomposition(staircase_torus(3, "+").base)
    assert h == FUDecomposition.make([F(0)], [])


SPHERE_KNOTS = [
    unknot(),
    figure8(),
    staircase_torus(3, "+"),
    staircase_torus(3, "-"),
    staircase_torus(5, "+"),
    staircase_torus(7, "+"),
    staircase_torus(9, "+"),
]


@pytest.mark.parametrize("kc", SPHERE_KNOTS, ids=lambda k: k.name)
def test_sphere_knots_have_free_rank_one(kc):
    h = homology_decomposition(kc.base)
    assert len(h.towers) == 1


def test_staircase_five_hat_dims():
    table = hfk_hat(staircase_torus(5, "+")).total
    assert table == {
        (F(0), 2): 1,
        (F(-1), 1): 1,
        (F(-2), 0): 1,
        (F(-3), -1): 1,
        (F(-4), -2): 1,
    }


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_staircase_euler_characteristic_is_alexander_polynomial(n):
    # Alexander polynomial of the (2, n) torus knot: alternating +-1 across
    # n consecutive Alexander gradings.
    table = hfk_hat(staircase_torus(n, "+")).total
    m = (n - 1) // 2
    coeffs = {}
    for (mas, s), d in table.items():
        coeffs[s] = coeffs.get(s, 0) + (-1) ** int(mas) * d
    assert coeffs == {m - i: (-1) ** i for i in range(n)}


def test_builtin_names():
    assert builtin("unknot").generators == ("x",)
    with pytest.raises(ValueError):
        builtin("granny")


def test_builtin_j_in_y_table():
    j = builtin("J_in_Y")
    assert [j.maslov(g) for g in "abcd"] == [F(1, 2), F(-1, 2), F(-3, 2), F(-1, 2)]
    assert [j.alexander[g] for g in "abcd"] == [1, 0, -1, 0]
    assert j.base.differential == {"a": {"b": 0}, "c": {"b": 1}}
    assert j.ambient.b1 == 1 and j.ambient.reduced_trivial


def test_builtin_figure8_shape():
    f8 = builtin("figure8")
    assert len(f8.generators) == 5
    assert f8.base.differential == {"a": {"b": 1, "c": 0}, "b": {"d": 0}, "c": {"d": 1}}


def test_figure8_hat_dims_thin():
    table = hfk_hat(figure8()).total
    assert table == {(F(1), 1): 1, (F(0), 0): 3, (F(-1), -1): 1}


def test_mirror_unknot_is_unknot():
    m = mirror_knot(unknot())
    assert m.base.maslov == {"x": F(0)} and m.alexander == {"x": 0}


def test_mirror_figure8_amphichiral():
    m = mirror_knot(figure8())
    assert validate_knot(m).ok
    assert hfk_hat(m).total == hfk_hat(figure8()).total
    assert homology_decomposition(m.base) == homology_decomposition(figure8().base)
    assert knot_numerics(m) == knot_numerics(figure8())


def test_mirror_staircase_is_negative_builder():
    assert mirror_knot(staircase_torus(3, "+")) == staircase_torus(3, "-")


def test_connected_sum_with_unknot_is_identity():
    k = figure8()
    s = connected_sum_knots(k, unknot())
    assert hfk_hat(s).total == hfk_hat(k).total
    assert homology_decomposition(s.base) == homology_decomposition(k.base)


def test_k3_nine_generators_and_hat_dims():
    k3 = k_n(3)
    assert len(k3.generators) == 9
    reduced = reduce_canonical(k3)
    assert len(reduced.generators) == 9
    dims_by_alexander = {}
    for (m, s), d in hfk_hat(k3).total.items():
        assert m == s  # thin: supported on the main diagonal
        dims_by_alexander[s] = dims_by_alexander.get(s, 0) + d
    assert dims_by_alexander == {2: 1, 1: 2, 0: 3, -1: 2, -2: 1}


def test_reduce_canonical_on_minimal_box_is_identity():
    b = box(F(0))
    assert reduce_canonical(b) == b


def test_reduce_canonical_drops_an_invalid_flip_when_nothing_cancels():
    # box(0) has no U^0 entry of zero Alexander drop, so the sweep cancels
    # nothing.  The flip a <-> d, b <-> c is an involution with the gradings
    # a flip needs, but no chain map (d(a) = Ub + c, d(d) = 0): it does not
    # survive, though the canonical shapes of the hat layers never check it.
    b = box(F(0))
    kc = KnotComplex(b.base, b.alexander, {"a": "d", "d": "a", "b": "c", "c": "b"})
    assert not validate_knot(kc).ok and validate_knot(kc).violations[0] == "flip fails to be a chain map at a"
    reduced = reduce_canonical(kc)
    assert (reduced.base, reduced.alexander, reduced.flip) == (kc.base, kc.alexander, None)
    assert cfk._canonical_shapes(kc)[0][0] is _shapes(kc)[0][0]  # taken as it is, flip and all


def test_reduce_canonical_cancels_trivial_pair():
    base_pair = KnotComplex(
        staircase_torus(3, "+").base, staircase_torus(3, "+").alexander,
        None, unknot().ambient,
    )
    # A same-Alexander differential pair disappears.
    from floerforge.fualgebra import FreeComplex

    c = FreeComplex([("y", F(0)), ("x", F(-1))], {"y": {"x": 0}})
    kc = KnotComplex(c, {"y": 0, "x": 0})
    assert reduce_canonical(kc).generators == ()
    del base_pair


def test_reduce_canonical_preserves_hat_invariants():
    for kc in (figure8(), k_n(3), k_n(5)):
        reduced = reduce_canonical(kc)
        assert hfk_hat(reduced).total == hfk_hat(kc).total
        for i in range(-3, 4):
            assert filtration_homology(reduced, i) == filtration_homology(kc, i)


def test_hfk_symmetry_on_sums():
    for kc in (k_n(3), connected_sum_knots(figure8(), figure8()), k_n(5)):
        table = hfk_hat(kc).total
        for (m, s), d in table.items():
            assert table.get((m - 2 * s, -s), 0) == d


def test_filtration_homology_unknot():
    u = unknot()
    assert filtration_homology(u, 0) == {F(0): 1}
    assert filtration_homology(u, 3) == {F(0): 1}
    assert filtration_homology(u, -1) == {}


def test_filtration_homology_figure8_levels():
    f8 = figure8()
    assert filtration_homology(f8, -2) == {}
    assert filtration_homology(f8, -1) == {F(-1): 1}
    assert filtration_homology(f8, 0) == {F(0): 2}
    assert filtration_homology(f8, 1) == {F(0): 1}


def test_knot_numerics_unknot():
    assert knot_numerics(unknot()) == {"tau": 0, "genus": 0}


def test_knot_numerics_figure8():
    assert knot_numerics(figure8()) == {"tau": 0, "genus": 1}


def test_knot_numerics_trefoil():
    assert knot_numerics(staircase_torus(3, "+")) == {"tau": 1, "genus": 1}
    assert knot_numerics(staircase_torus(3, "-")) == {"tau": -1, "genus": 1}


SMALL_SPHERE_ENTRIES = ["unknot", "figure8", "trefoil", "t2_5", "k3"]


@settings(deadline=None)
@given(st.sampled_from(SMALL_SPHERE_ENTRIES), st.sampled_from(SMALL_SPHERE_ENTRIES))
def test_tau_adds_under_sum_and_negates_under_mirror(a, b):
    ka, kb = load_complex(a), load_complex(b)
    tau = lambda kc: knot_numerics(kc)["tau"]
    total = connected_sum_knots(ka, kb)
    assert tau(total) == tau(ka) + tau(kb)
    assert tau(mirror_knot(ka)) == -tau(ka)
    assert tau(mirror_knot(total)) == -tau(total)


def test_knot_numerics_rejects_acyclic_vertical_homology():
    with pytest.raises(InvalidComplex, match="not one-dimensional"):
        knot_numerics(box(0))


@pytest.mark.parametrize("n", [3, 5])
def test_connected_sum_tau_adds_and_genus_sums(n):
    kn = k_n(n)
    numerics = knot_numerics(kn)
    assert numerics["tau"] == 0
    assert numerics["genus"] == n - 1


def test_reduced_basis_form_unknot_empty():
    assert reduced_basis_form(unknot()).pairs == ()


def test_reduced_basis_form_figure8():
    rb = reduced_basis_form(figure8())
    assert set(rb.pairs) == {(F(1), 1, 1), (F(0), 0, 1)}


def test_reduced_basis_form_k3():
    rb = reduced_basis_form(k_n(3))
    assert set(rb.pairs) == {
        (F(2), 2, 1),
        (F(1), 1, 1),
        (F(0), 0, 1),
        (F(-1), -1, 1),
    }
    assert max(m for m, _a, _d in rb.pairs) == 2


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_k_n_max_reduced_hat_grading(n):
    # For the ribbon sums of opposite (2, n) torus knots the maximal
    # nontrivial reduced hat grading is n - 1.
    table = hfk_hat(k_n(n))
    assert table.max_reduced_maslov() == n - 1


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_reduced_basis_form_rejects_nonzero_tau(n):
    with pytest.raises(ValueError, match=rf"needs tau = 0, got {(n - 1) // 2}$"):
        reduced_basis_form(staircase_torus(n, "+"))


def test_j_sum_box_graded_counts():
    # J # B[k] carries the graded generator content of
    # B[k-1/2]^2 + B[k+1/2, 1] + B[k-3/2, -1].
    k = F(2)
    s = connected_sum_knots(j_in_y(), box(k))
    counts = {}
    for g in s.generators:
        key = (s.maslov(g), s.alexander[g])
        counts[key] = counts.get(key, 0) + 1
    expected = {}
    for part in [box(k - F(1, 2)), box(k - F(1, 2)), box(k + F(1, 2), 1), box(k - F(3, 2), -1)]:
        for g in part.generators:
            key = (part.maslov(g), part.alexander[g])
            expected[key] = expected.get(key, 0) + 1
    assert counts == expected


def test_connected_sum_rejects_two_ambient_factors():
    with pytest.raises(ValueError):
        connected_sum_knots(j_in_y(), jprime_in_yprime())


def test_knot_json_round_trip():
    for kc in (figure8(), j_in_y(), box(F(2), 1)):
        data = kc.to_json()
        back = KnotComplex.from_json(data)
        assert back == kc
        assert back.to_json() == data


def gaussian_hat_table(kc):
    """Hat dimensions as the homology of the associated graded complex (U^0
    arrows that keep the Alexander grading), by elimination over F2."""
    index = {g: i for i, g in enumerate(kc.generators)}
    A = kc.alexander
    masks = [
        sum(1 << index[t] for t, p in kc.base.differential.get(g, {}).items() if p == 0 and A[t] == A[g])
        for g in kc.generators
    ]
    keys = [(kc.maslov(g), A[g]) for g in kc.generators]
    return graded_f2_dims(keys, masks, lambda key: (key[0] + 1, key[1]))


def with_hat_pair(kc):
    """``kc`` plus an acyclic pair y -> x with zero Alexander drop (a hat
    arrow), mixed into the rest by seeded filtered basis changes."""
    import random

    from floerforge.fualgebra import _Reducer

    extra = with_extra(kc, [("hy", F(1)), ("hx", F(0))], {"hy": 0, "hx": 0}, diff={"hy": {"hx": 0}})
    r = _Reducer(extra.base, alexander=extra.alexander)
    rng = random.Random(7)
    for _ in range(40):
        g, h = rng.sample(extra.generators, 2)
        s = (extra.maslov(h) - extra.maslov(g)) / 2
        if s.denominator == 1 and s >= 0 and extra.alexander[h] - s <= extra.alexander[g]:
            mix(r, g, h, int(s))
    return KnotComplex(r.current_complex(), extra.alexander, None, kc.ambient)


def in_ambient_y(kc):
    # Boxes have no U=0 homology, so over the sphere hfk_hat rejects them
    # when it looks for tau; in a b1 = 1 ambient only the total is formed.
    return KnotComplex(kc.base, kc.alexander, kc.flip, j_in_y().ambient, kc.name)


HAT_ORACLE_CASES = {
    **{f"corpus.{name}": build for name, build in sorted(corpus_builders().items())},
    **{f"K{n}": (lambda n=n: k_n(n)) for n in (3, 5, 7, 9)},
    **{f"T(2,-{n})": (lambda n=n: staircase_torus(n, "-")) for n in (3, 5, 7, 9)},
    "figure8#T(2,3)": lambda: connected_sum_knots(figure8(), staircase_torus(3, "+")),
    "T(2,3)#T(2,5)": lambda: connected_sum_knots(staircase_torus(3, "+"), staircase_torus(5, "+")),
    "J#T(2,3)": lambda: connected_sum_knots(j_in_y(), staircase_torus(3, "+")),
    "Wh^2+-(K3)": lambda: flat_tower(k_n(3), "+-")[-1],
    "Wh^2-+(K3)": lambda: flat_tower(k_n(3), "-+")[-1],
    "m(K5)": lambda: mirror_knot(k_n(5)),
    "m(Wh^2+-(K3))": lambda: mirror_knot(flat_tower(k_n(3), "+-")[-1]),
    "K3+hat pair": lambda: with_hat_pair(k_n(3)),
    "figure8+hat pair": lambda: with_hat_pair(figure8()),
    "box(0)": lambda: in_ambient_y(box(0)),
    "box(2,1)": lambda: in_ambient_y(box(2, 1)),
}


@pytest.mark.parametrize("name", list(HAT_ORACLE_CASES))
def test_hfk_hat_matches_gaussian_associated_graded(name):
    kc = HAT_ORACLE_CASES[name]()
    assert hfk_hat(kc).total == gaussian_hat_table(kc)


SPHERE_KNOTS = {name: (kc, filtered_mixes(kc)) for name, build in {
    **corpus_builders(),
    "figure8#figure8": lambda: connected_sum_knots(figure8(), figure8()),
    "figure8#T(2,3)": lambda: connected_sum_knots(figure8(), staircase_torus(3, "+")),
}.items() for kc in [build()] if kc.ambient.is_sphere}


@st.composite
def filtered_basis_changes(draw):
    """A corpus knot over S3 (K3-K9 among them) or a flat sum of figure8 with a
    second factor, and the same knot after random filtered changes of basis
    (``complexes.mix``, free to mix summands), without its flip."""
    kc, mixes = SPHERE_KNOTS[draw(st.sampled_from(sorted(SPHERE_KNOTS)))]
    r = _Reducer(kc.base, alexander=kc.alexander)
    for g, h, s in draw(st.lists(st.sampled_from(mixes), min_size=1, max_size=40)) if mixes else ():
        mix(r, g, h, s)
    return kc, KnotComplex(r.current_complex(), kc.alexander, None, kc.ambient)


@settings(deadline=None, max_examples=40)
@given(filtered_basis_changes())
def test_filtered_basis_changes_keep_the_hat_invariants(pair):
    kc, mixed = pair
    assert hfk_hat(mixed) == hfk_hat(kc)
    assert knot_numerics(mixed) == knot_numerics(kc)
    assert homology_decomposition(mixed.base) == homology_decomposition(kc.base)
    if knot_numerics(kc)["tau"] == 0:
        assert reduced_basis_form(mixed) == reduced_basis_form(kc)


def with_extra(kc, gens, alexander, flip=None, diff=None):
    """``kc`` plus extra generators, as a complex with the given flip."""
    base = FreeComplex(
        [(g, kc.maslov(g)) for g in kc.generators] + list(gens),
        {**kc.base.differential, **(diff or {})},
    )
    return KnotComplex(base, {**kc.alexander, **alexander}, flip, kc.ambient)


def two_pairs_swapped():
    # dy = x only; the flip swaps (y, x) with the arrow-less (y2, x2).
    base = FreeComplex([("y", F(0)), ("x", F(-1)), ("y2", F(0)), ("x2", F(-1))], {"y": {"x": 0}})
    flip = {"y": "y2", "y2": "y", "x": "x2", "x2": "x"}
    return KnotComplex(base, {"y": 0, "x": 0, "y2": 0, "x2": 0}, flip)


def three_cycle():
    base = FreeComplex([("x", F(0)), ("y", F(0)), ("z", F(0))])
    return KnotComplex(base, {"x": 0, "y": 0, "z": 0}, {"x": "y", "y": "z", "z": "x"})


def box_with_power(p):
    """box(0) with the power of a -> b set to p (1 is valid)."""
    b = box(0)
    diff = {**b.base.differential, "a": {"b": p, "c": 0}}
    return KnotComplex(FreeComplex([(g, b.maslov(g)) for g in b.generators], diff), b.alexander, b.flip)


INVALID_CASES = {
    "alexander-filtration": (
        lambda: KnotComplex(FreeComplex([("y", F(0)), ("x", F(-1))], {"y": {"x": 0}}), {"y": 0, "x": 1}),
        "entry y->U^0.x raises the Alexander filtration",
    ),
    "flip-undefined": (
        lambda: with_extra(unknot(), [("y", F(0))], {"y": 0}, flip={"x": "x"}),
        "flip undefined on y",
    ),
    "flip-not-involutive": (three_cycle, "flip not involutive at x"),
    # The unknot plus y at (0, 1) fixed by the flip: its hat table is
    # asymmetric, and the flip checks alone reject it.
    "flip-alexander": (
        lambda: with_extra(unknot(), [("y", F(0))], {"y": 1}, flip={"x": "x", "y": "y"}),
        "flip image of y has Alexander 1 != -1",
    ),
    "flip-maslov": (
        lambda: with_extra(unknot(), [("y", F(1)), ("z", F(0))], {"y": 0, "z": 0},
                           flip={"x": "x", "y": "z", "z": "y"}),
        "flip image of y has wrong Maslov grading",
    ),
    "flip-chain-map": (two_pairs_swapped, "flip fails to be a chain map at y"),
    "unknown-source": (
        lambda: KnotComplex(FreeComplex([("x", F(0))], {"ghost": {"x": 0}}), {"x": 0}, {"x": "x"}),
        "entry ghost->x: unknown source",
    ),
    "negative-upower": (
        lambda: KnotComplex(FreeComplex([("y", F(3)), ("x", F(0))], {"y": {"x": -1}}),
                            {"y": 0, "x": 0}, {"y": "y", "x": "x"}),
        "entry y->x: negative U-power -1",
    ),
    "inhomogeneous": (
        lambda: KnotComplex(FreeComplex([("y", F(1, 2)), ("x", F(0))], {"y": {"x": 0}}),
                            {"y": 0, "x": 0}, {"y": "y", "x": "x"}),
        "entry y->U^0.x: grading 1/2 -> 0 is not degree -1",
    ),
    # The second copy differs from the first only in one power.
    "power-of-one-copy": (
        lambda: disjoint_sum([box(0), box_with_power(3)]),
        "entry 1.a->U^3.1.b: grading 0 -> -5 is not degree -1",
    ),
}


@pytest.mark.parametrize("name", list(INVALID_CASES))
def test_validation_rejects_with_message(name):
    build, message = INVALID_CASES[name]
    report = validate_knot(build())
    assert report.ok is False
    assert message in report.violations


# A factor with an invalid base fails the tensor's validation; a partial flip
# has no image to pair with the other factor's, and is named as validate_knot
# names it.
SUM_REJECTS = {"unknown-source": InvalidComplex, "negative-upower": InvalidComplex, "inhomogeneous": InvalidComplex,
               "power-of-one-copy": InvalidComplex, "flip-undefined": InvalidComplex}


@pytest.mark.parametrize("name", list(INVALID_CASES))
def test_sum_with_an_invalid_factor_reports_as_its_unsplit_copy(name):
    bad = INVALID_CASES[name][0]()
    for k1, k2 in ((bad, figure8()), (staircase_torus(3, "+"), bad)):
        if name in SUM_REJECTS:
            with pytest.raises(SUM_REJECTS[name]) as caught:
                connected_sum_knots(k1, k2)
            if name == "flip-undefined":
                assert str(caught.value) == INVALID_CASES[name][1] == "flip undefined on y"
            continue
        kc = connected_sum_knots(k1, k2)
        report = validate_knot(kc)
        assert not report.ok and report == validate_knot(unsplit(kc))


def test_colliding_sum_names_raise_the_duplicate_name_error():
    # ("p|q", "r") and ("p", "q|r") are both named (p|q|r).
    left = KnotComplex(FreeComplex([("p|q", 0), ("p", 0)]), {"p|q": 0, "p": 0}, {"p|q": "p|q", "p": "p"})
    right = KnotComplex(FreeComplex([("r", 0), ("q|r", 0)]), {"r": 0, "q|r": 0}, {"r": "r", "q|r": "q|r"})
    names = [(f"({a}|{b})", 0) for a in left.generators for b in right.generators]
    with pytest.raises(ValueError) as expected:
        FreeComplex(names)
    for build in (lambda: connected_sum_knots(left, right), lambda: tensor_complexes(left.base, right.base)):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == str(expected.value) == "duplicate generator name '(p|q|r)'"


def whole_complex_report(kc):
    """The oracle: every check run on the whole complex as one summand."""
    violations, chain_map, _rows = _summand_violations(kc)
    if chain_map:
        violations += _flip_chain_map_violations(kc)
    return ValidationReport(ok=not violations, violations=tuple(violations))


VALIDATION_PIECES = {
    **{name: build for name, (build, _message) in INVALID_CASES.items()},
    **{name: ORACLE_CASES[name] for name in ("unknot", "figure8", "trefoil", "k3", "wh_k3", "j_in_y",
                                             "Wh+-(K3)", "T(2,5)+boxes")},
    "box(1/2)": lambda: box(F(1, 2)),
    # A flip that is no chain map beside an invalid base, which turns the
    # chain-map check off.
    "negative-upower+flip-chain-map": lambda: disjoint_sum(
        [INVALID_CASES["negative-upower"][0](), two_pairs_swapped()]),
}


@settings(deadline=None, max_examples=60)
@given(scrambled_sums(VALIDATION_PIECES, max_size=3))
def test_split_validation_matches_whole_complex(kc):
    split, whole = validate_knot(kc), whole_complex_report(kc)
    assert split.ok == whole.ok
    assert set(split.violations) <= set(whole.violations)
    assert split.ok or split.violations


def test_per_shape_checks_run_once_per_distinct_shape(monkeypatch):
    # Wh^2(K3) is x plus 32 boxes B[k, 0] at several k: 33 summands, two
    # shapes, both of Hedden's normal form and certified by the keys they
    # carry.  Beside x and two boxes, two copies of T(2,5) are one shape that
    # is not, checked once.
    checked = []

    def counting(rep):
        checked.append(len(rep.generators))
        return _summand_violations(rep)

    monkeypatch.setattr(cfk, "_summand_violations", counting)
    for kc, expected in ((flat_tower(k_n(3), "++")[-1], []),
                         (disjoint_sum([unknot(), staircase_torus(5, "+"), box(0), staircase_torus(5, "+"), box(3)]),
                          [5])):
        checked.clear()
        assert validate_knot(kc).ok
        assert checked == expected
        checked.clear()
        surgery_hf(kc, 0)
        assert checked == expected


def test_suite_holds_each_carried_key_to_its_representative(monkeypatch):
    # The suite's validate_knot (conftest.py) re-takes every carried key: a
    # box that carries x's key is caught, though the program would take the
    # key as given.  The box is shared by every double, so its key is restored.
    kc = flat_tower(k_n(3), "+")[0]
    (x, _copies), (square, _copies) = _shapes(kc)
    monkeypatch.setattr(square, "_key", x._key)
    with pytest.raises(AssertionError, match="carries a shape key that is not its own"):
        validate_knot(kc)


@pytest.mark.parametrize("name, whole", [("unknown-source", True), ("flip-undefined", True),
                                         ("power-of-one-copy", False)])
def test_validation_verdicts_are_not_stored(name, whole):
    # The split is kept on the object; the verdict on it is taken anew.
    build, message = INVALID_CASES[name]
    kc = build()
    first, second = validate_knot(kc), validate_knot(kc)
    assert not first.ok and message in first.violations
    assert second == first == validate_knot(unsplit(kc))
    assert (_shapes(kc) == [(kc, [(0, 1)])]) is whole
    errors = []
    for _ in range(2):
        with pytest.raises(InvalidComplex) as caught:
            surgery_hf(kc, 0)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == f"invalid surgery input: {'; '.join(first.violations)}"


@pytest.mark.parametrize("name", ["k5", "wh_k3", "Wh^2-+(figure8)"])
@pytest.mark.parametrize("order", list(itertools.permutations((-1, 0, 1))), ids=str)
def test_stored_split_is_invisible_to_surgery(name, order):
    kc = load_complex(name) if name != "Wh^2-+(figure8)" else flat_tower(figure8(), "-+")[-1]
    for n in order:
        assert surgery_hf(kc, n) == surgery_hf(unsplit(kc), n)


def test_one_summand_is_its_own_shape():
    # K9 is indecomposable: its representative shares the base, at offset 0.
    kc = load_complex("k9")
    [(rep, copies)] = _shapes(kc)
    assert rep is not kc and rep.base is kc.base and copies == [(0, 1)]
    assert (rep.alexander, rep.flip, rep.ambient) == (kc.alexander, kc.flip, kc.ambient)


class _Watched(KnotComplex):
    """A KnotComplex that takes weak references; the split builds plain ones."""


def test_dropped_complex_needs_no_cyclic_gc():
    # A split or canonical list that held the complex itself would be a
    # cycle; so would an invalid complex kept whole as its own shape.
    def freed(build, valid):
        kc = build()
        kc = _Watched(kc.base, kc.alexander, kc.flip, kc.ambient, kc.name)
        assert validate_knot(kc).ok is valid and (hfk_hat(kc) if valid else _shapes(kc))
        ref = weakref.ref(kc)
        del kc
        return ref() is None

    gc.disable()
    try:
        assert freed(lambda: load_complex("k9"), True)
        assert freed(INVALID_CASES["unknown-source"][0], False)
    finally:
        gc.enable()


def test_half_integral_summand_keeps_relative_int_gradings():
    trefoil = staircase_torus(3, "+")
    kc = KnotComplex(trefoil.base.shift(F(1, 2)), trefoil.alexander, trefoil.flip)
    [(rep, copies)] = _shapes(kc)
    assert copies == [(F(1, 2), 1)]
    assert all(type(m) is int for m in rep.base.maslov.values())
    assert rep.base.shift(F(1, 2)) == kc.base


def test_vertical_pairing_reduces_columns_in_alexander_order():
    # a -> b + c at U^0 with A(c) = 0 < A(b) = 1 < A(a) = 2, canonically
    # reduced already.  b and c are homologous, so the level-0 class [c]
    # reaches the total class: tau = 0, and the pairing must pair a with the
    # later of its targets in a filtration order, b.  By name, and by
    # (Maslov, name), b comes before c, so either order pairs a with c and
    # leaves b unpaired: tau 1, and no reduced basis form.
    kc = KnotComplex(FreeComplex([("a", 1), ("b", 0), ("c", 0)], {"a": {"b": 0, "c": 0}}), {"a": 2, "b": 1, "c": 0})
    assert validate_knot(kc).ok and reduce_canonical(kc) == kc
    assert _vertical_pairing(kc) == ([("a", "b")], ["c"])
    assert knot_numerics(kc) == {"tau": 0, "genus": 2}
    assert reduced_basis_form(kc) == ReducedBasisForm.make([(1, 2, 1)])
    assert hfk_hat(kc).reduced == {(F(0), 1): 1, (F(1), 2): 1}


# The whole-complex route of the hat layers: one canonical reduction and one
# vertical pairing of the flat complex, the oracle for the per-shape route.


def whole_pairing(kc):
    reduced = reduce_canonical(kc)
    pairs, survivors = _vertical_pairing(reduced)
    if len(survivors) != 1:
        raise InvalidComplex("U=0 homology is not one-dimensional")
    return reduced, pairs, survivors[0]


def whole_hfk_hat(kc):
    reduced = reduce_canonical(kc)
    total = Counter((reduced.maslov(g), reduced.alexander[g]) for g in reduced.generators)
    if not kc.ambient.is_sphere:
        return HfkTable(dict(total))
    canonical, _pairs, x = whole_pairing(kc)
    spot = (F(0), canonical.alexander[x])
    if total[spot] < 1:
        raise InvalidComplex("no surviving generator at (0, tau)")
    return HfkTable(dict(total), dict(total - Counter([spot])))


def whole_numerics(kc):
    if not kc.ambient.is_sphere:
        raise ValueError("tau/genus need the trivial ambient manifold")
    reduced, _pairs, x = whole_pairing(kc)
    return {"tau": reduced.alexander[x], "genus": reduced.genus_bound()}


def whole_reduced_pairs(kc):
    if not kc.ambient.is_sphere:
        raise ValueError("reduced basis form needs the trivial ambient manifold")
    reduced, pairs, x = whole_pairing(kc)
    A = reduced.alexander
    if A[x] != 0:
        raise ValueError(f"reduced basis form needs tau = 0, got {A[x]}")
    if reduced.maslov(x) != 0:
        raise InvalidComplex(f"surviving generator {x} sits at ({format_grading(reduced.maslov(x))}, 0), not (0, 0)")
    triples = [(reduced.maslov(y), A[y], A[y] - A[z]) for y, z in pairs]
    if any(d <= 0 for _m, _a, d in triples):
        raise InvalidComplex("vertical pairing produced a non-positive drop")
    return ReducedBasisForm.make(triples).pairs


def whole_mirror_json(kc):
    if not kc.ambient.is_sphere:
        raise ValueError("mirror is only defined for complexes with trivial ambient")
    validate_knot(kc).require("knot complex")
    transposed = {}
    for src, tgt, p in kc.base.entries():
        transposed.setdefault(tgt, {})[src] = p
    base = FreeComplex([(g, -kc.maslov(g)) for g in kc.generators], transposed)
    h = homology_decomposition(base)
    if len(h.towers) != 1:
        raise InvalidComplex("mirror normalisation expects free rank 1")
    return KnotComplex(base.shift(-h.towers[0]), {g: -a for g, a in kc.alexander.items()}, kc.flip,
                       kc.ambient, name=f"m({kc.name})" if kc.name else "").to_json()


HAT_LAYERS = {
    "reduced_basis_form": (lambda kc: reduced_basis_form(kc).pairs, whole_reduced_pairs),
    "hfk_hat": (hfk_hat, whole_hfk_hat),
    "knot_numerics": (knot_numerics, whole_numerics),
    "mirror_knot": (lambda kc: mirror_knot(kc).to_json(), whole_mirror_json),
}


def outcome(layer, kc):
    try:
        return layer(kc)
    except ValueError as exc:  # InvalidComplex and the domain errors
        return type(exc), str(exc)


@settings(deadline=None, max_examples=80)
@given(scrambled_sums(ORACLE_CASES, max_size=2))
def test_hat_layers_per_shape_match_the_whole_complex(kc):
    for per_shape, whole in HAT_LAYERS.values():
        assert outcome(per_shape, kc) == outcome(whole, unsplit(kc))


PUBLIC_COMPLEXES = {
    **{f"corpus.{name}": (lambda name=name: load_complex(name)) for name in sorted(corpus_builders())},
    **{f"builder.{kc.name}": (lambda kc=kc: kc) for kc in ALL_BUILDERS},
    "K5": lambda: k_n(5),
    "m(K5)": lambda: mirror_knot(k_n(5)),
    "reduce_canonical(K5)": lambda: reduce_canonical(k_n(5)),
    "figure8#T(2,3)": lambda: connected_sum_knots(figure8(), staircase_torus(3, "+")),
    "Wh^2+-(K3)": lambda: flat_tower(k_n(3), "+-")[-1],
    "T(2,5)+boxes": ORACLE_CASES["T(2,5)+boxes"],
    "J#Wh(K5)": lambda: connected_sum_knots(j_in_y(), flat_tower(k_n(5), "+")[0]),
}


@pytest.mark.parametrize("name", list(PUBLIC_COMPLEXES))
def test_public_gradings_are_fractions(name):
    kc = PUBLIC_COMPLEXES[name]()
    assert all(type(kc.maslov(g)) is Fraction for g in kc.generators)


def public_gradings(kc):
    """Every public value that is a grading and that the package derives from
    ``kc``, as ``(where, value)``; a layer that rejects ``kc`` adds none."""
    found = []

    def add(where, layer):
        try:
            found.extend((where, value) for value in layer())
        except ValueError:  # the domain errors: no flip, tau != 0, no free class, ...
            pass

    def hat(k):
        table = hfk_hat(k)
        reduced = [m for m, _s in table.reduced or ()]
        return [m for m, _s in table.total] + reduced + ([table.max_reduced_maslov()] if reduced else [])

    def tops(dec):
        return [*dec.towers, *(top for top, _k, _c in dec.torsion)]

    add("hfk_hat", lambda: hat(kc))
    add("FUDecomposition", lambda: tops(homology_decomposition(kc.base)))
    for n in (-1, 0, 1):
        add("surgery_hf", lambda: [*(result := surgery_hf(kc, n)).d_invariants, *tops(result.decomposition)])
        add("FUDecomposition", lambda: tops(homology_decomposition(build_cone(kc, n).total_complex())))
    add("ReducedBasisForm.pairs", lambda: [m for m, _a, _d in reduced_basis_form(kc).pairs])
    add("box_parameters", lambda: box_parameters(box_tower(reduced_basis_form(kc), "+")[0]))
    derived = [reduce_canonical(kc), connected_sum_knots(kc, staircase_torus(3, "+"))]
    try:
        derived.append(mirror_knot(kc))
    except ValueError:  # not over S3, or no free class
        pass
    for k in derived:
        add(f"{k.name}.maslov", lambda: map(k.maslov, k.generators))
        add(f"{k.name} hfk_hat", lambda: hat(k))
    return found


@pytest.mark.parametrize("name", [name for name in PUBLIC_COMPLEXES if name.startswith(("corpus.", "builder."))])
def test_public_values_that_are_gradings_are_fractions(name):
    found = public_gradings(PUBLIC_COMPLEXES[name]())
    assert found
    assert [(where, value) for where, value in found if type(value) is not Fraction] == []


def with_gradings(kc, convert):
    """``kc`` built anew from its public gradings passed through ``convert``."""
    base = FreeComplex([(g, convert(kc.maslov(g))) for g in kc.generators], kc.base.differential)
    return KnotComplex(base, kc.alexander, kc.flip, kc.ambient, kc.name)


GRADED_LAYERS = {
    "validate_complex": lambda kc: validate_complex(kc.base),
    "homology_decomposition": lambda kc: homology_decomposition(kc.base),
    **{f"surgery_hf({n})": (lambda kc, n=n: surgery_hf(kc, n)) for n in (-1, 0, 1)},
    "hfk_hat": hfk_hat,
    "reduced_basis_form": reduced_basis_form,
    "to_json": lambda kc: canonical_json(kc.to_json()),
}


@settings(deadline=None, max_examples=40)
@given(scrambled_sums({**ORACLE_CASES, "J_in_Y": j_in_y, "Jprime_in_Yprime": jprime_in_yprime}, max_size=2))
def test_int_fraction_and_json_gradings_give_the_same_results(kc):
    # Compared as text, so an int that leaks out where a Fraction belongs shows.
    variants = [with_gradings(kc, Fraction), with_gradings(kc, lambda m: m.numerator if m.denominator == 1 else m),
                KnotComplex.from_json(kc.to_json())]
    first, *others = [{name: repr(outcome(layer, k)) for name, layer in GRADED_LAYERS.items()} for k in variants]
    assert all(other == first for other in others)
