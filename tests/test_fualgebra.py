from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from floerforge.cfk import _canonical_shapes, _vertical_pairing, k_n, reduced_basis_form
from floerforge.corpus import corpus_builders, load_complex
from floerforge.fualgebra import (
    FreeComplex,
    FUDecomposition,
    _pivots,
    _Reducer,
    gf2_rank,
    grading,
    homology_decomposition,
    plus_presentation,
    tensor_complexes,
    validate_complex,
    xor_entry,
)
from floerforge.truncation import (
    expected_truncated_dimensions,
    truncated_graded_dimensions,
)
from floerforge.surgery import build_cone
from floerforge.whitehead import whitehead_double_cfk

from complexes import ORACLE_CASES, mix, scrambled_sums, survivors, tracked_maps

F = Fraction

SPHERE_CORPUS = {name: kc for name in sorted(corpus_builders()) for kc in [load_complex(name)] if kc.ambient.is_sphere}


def box_complex(k=F(0)):
    """Standalone 1x1 box: da = Ub + c, db = d, dc = Ud."""
    return FreeComplex(
        [("a", k), ("b", k + 1), ("c", k - 1), ("d", k)],
        {"a": {"b": 1, "c": 0}, "b": {"d": 0}, "c": {"d": 1}},
    )


def scan_pivots(vectors):
    """The reference F2 elimination: each vector is reduced by every pivot
    found so far, in order; the pivots, each with the index of its vector."""
    pivots = []
    for i, v in enumerate(vectors):
        for pv, _j in pivots:
            if v & (pv & -pv):
                v ^= pv
        if v:
            pivots.append((v, i))
    return pivots


def scan_rank(vectors):
    """The reference F2 rank: the number of :func:`scan_pivots`."""
    return len(scan_pivots(vectors))


def scan_pairing(reduced):
    """The reference vertical pairing: each generator's U=0 column, in
    (Alexander, Maslov, name) order, reduced by the column owning its highest
    set bit over ascending positions; the pairs and the unpaired generators."""
    order = sorted(reduced.generators, key=lambda g: (reduced.alexander[g], str(reduced.base.maslov[g]), g))
    pos = {g: i for i, g in enumerate(order)}
    owner, columns, pairs = {}, [], []
    for g in order:
        col = 0
        for tgt, p in reduced.base.differential.get(g, {}).items():
            if p == 0:
                col |= 1 << pos[tgt]
        while col and (high := col.bit_length() - 1) in owner:
            col ^= columns[owner[high]]
        columns.append(col)
        if col:
            owner[high] = pos[g]
            pairs.append((g, order[high]))
    return pairs, [g for i, g in enumerate(order) if not columns[i] and i not in owner]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 70), max_size=40),
       st.lists(st.integers(min_value=0, max_value=40), max_size=40))
@example([0b011, 0b110, 0b101, 0], [])
def test_gf2_rank_by_its_pivot_table_is_the_scans_rank(vectors, shifts):
    # Wide, sparse and repeated vectors: shifted copies share their lowest bits.
    # Both eliminations find a new pivot at the same vectors, and there the same
    # lowest bit: the one position the span of the vectors so far gains.
    vectors += [v << s for v, s in zip(vectors, shifts)] + vectors[:3]
    assert _pivots(vectors) == {(v & -v).bit_length() - 1: i for v, i in scan_pivots(vectors)}
    assert list(_pivots(iter(vectors)).values()) == [i for _v, i in scan_pivots(vectors)]
    assert gf2_rank(vectors) == scan_rank(vectors)
    assert gf2_rank(iter(vectors)) == scan_rank(vectors)


def assert_pairing_is_the_scans(kc):
    # On the complex as given and on each canonically reduced shape.
    for complex_ in [kc] + [canonical for canonical, _copies in _canonical_shapes(kc)]:
        assert _vertical_pairing(complex_) == scan_pairing(complex_)


@pytest.mark.parametrize("name", sorted(SPHERE_CORPUS))
def test_vertical_pairing_is_the_scans_on_the_corpus(name):
    assert_pairing_is_the_scans(SPHERE_CORPUS[name])


@settings(deadline=None, max_examples=40)
@given(scrambled_sums(ORACLE_CASES, max_size=2))
def test_vertical_pairing_is_the_scans_on_scrambled_sums(kc):
    assert_pairing_is_the_scans(kc)


def test_validate_single_generator():
    c = FreeComplex([("x", F(0))])
    assert validate_complex(c).ok


def test_validate_degree_minus_one_pair():
    c = FreeComplex([("y", F(0)), ("x", F(-1))], {"y": {"x": 0}})
    assert validate_complex(c).ok


def test_validate_reports_homogeneity_violation():
    c = FreeComplex([("y", F(0)), ("x", F(0))], {"y": {"x": 0}})
    report = validate_complex(c)
    assert not report.ok
    assert any("y" in v and "x" in v for v in report.violations)


def test_validate_reports_d_squared_failure():
    c = FreeComplex(
        [("z", F(1)), ("y", F(0)), ("x", F(-1))],
        {"z": {"y": 0}, "y": {"x": 0}},
    )
    report = validate_complex(c)
    assert not report.ok
    assert any("d^2" in v for v in report.violations)


def test_tensor_with_unit_relabels():
    c = box_complex()
    unit = FreeComplex([("e", F(0))])
    t = tensor_complexes(c, unit)
    assert sorted(t.maslov.values()) == sorted(c.maslov.values())
    assert validate_complex(t).ok
    assert homology_decomposition(t) == homology_decomposition(c)


def test_tensor_gradings_add():
    c1 = FreeComplex([("x", F(3, 2))])
    c2 = FreeComplex([("y", F(-1))])
    t = tensor_complexes(c1, c2)
    assert list(t.maslov.values()) == [F(1, 2)]


def test_tensor_leibniz_char2():
    c1 = FreeComplex([("y", F(0)), ("x", F(-1))], {"y": {"x": 0}})
    c2 = FreeComplex([("b", F(0)), ("a", F(-1))], {"b": {"a": 0}})
    t = tensor_complexes(c1, c2)
    assert len(t.generators) == 4
    assert validate_complex(t).ok
    assert t.differential["(y|b)"] == {"(x|b)": 0, "(y|a)": 0}


def test_tensor_graded_counts_convolve():
    c1 = box_complex(F(0))
    c2 = FreeComplex([("p", F(1, 2)), ("q", F(-3, 2))])
    t = tensor_complexes(c1, c2)
    counts1 = Counter(c1.maslov.values())
    counts2 = Counter(c2.maslov.values())
    expect = {}
    for g1, n1 in counts1.items():
        for g2, n2 in counts2.items():
            expect[g1 + g2] = expect.get(g1 + g2, 0) + n1 * n2
    assert Counter(t.maslov.values()) == expect


def test_homology_single_generator_is_tower():
    c = FreeComplex([("x", F(1, 2))])
    assert homology_decomposition(c) == FUDecomposition.make([F(1, 2)], [])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_homology_u_power_pair_is_torsion(k):
    # dy = U^k x: homogeneity forces m(y) = m(x) + 1 - 2k; the homology is
    # one torsion summand of length k topped at m(x).
    mx = F(-1, 2)
    c = FreeComplex([("y", mx + 1 - 2 * k), ("x", mx)], {"y": {"x": k}})
    assert homology_decomposition(c) == FUDecomposition.make([], [(mx, k)])


def test_homology_standalone_box_vanishes():
    # Hand cancellation: substitute c' = Ub + c, cancel (a, c'), then (b, d).
    h = homology_decomposition(box_complex())
    assert h == FUDecomposition()
    # Independent truncated Gaussian elimination at two cutoff levels.
    for cutoff in (4, 5):
        assert truncated_graded_dimensions(box_complex(), cutoff) == {}


def test_homology_idempotent_in_rank():
    c = box_complex(F(3))
    first = homology_decomposition(c)
    again = homology_decomposition(c)
    assert first == again


def complexes_for_properties():
    yield FreeComplex([("x", F(0))])
    yield box_complex(F(0))
    yield box_complex(F(-2))
    yield FreeComplex([("y", F(-3)), ("x", F(0))], {"y": {"x": 2}})
    yield tensor_complexes(box_complex(), FreeComplex([("y", F(-1)), ("x", F(0))], {"y": {"x": 1}}))
    staircase = FreeComplex(
        [("g0", F(0)), ("g1", F(-1)), ("g2", F(-2))],
        {"g1": {"g0": 1, "g2": 0}},
    )
    yield staircase
    yield tensor_complexes(staircase, staircase)


@pytest.mark.parametrize("c", list(complexes_for_properties()), ids=lambda c: repr(c))
def test_truncation_stability_and_oracle(c):
    """Claimed decomposition reproduces truncated dims at two cutoffs."""
    h = homology_decomposition(c)
    cutoff = len(c.generators) + max([p for _, _, p in c.entries()], default=0) + 1
    for n in (cutoff, cutoff + 1):
        assert truncated_graded_dimensions(c, n) == expected_truncated_dimensions(h, n)


@pytest.mark.parametrize("c", list(complexes_for_properties()), ids=lambda c: repr(c))
def test_euler_characteristic_per_coset(c):
    """Alternating generator counts match homology of the U=0 complex."""
    hom_dims = truncated_graded_dimensions(c, 1)
    gen_dims = Counter(c.maslov.values())
    cosets = {g % 1 for g in list(hom_dims) + list(gen_dims)}
    for r in cosets:
        chi_gens = sum((-1) ** int(g - r) * n for g, n in gen_dims.items() if g % 1 == r)
        chi_hom = sum((-1) ** int(g - r) * n for g, n in hom_dims.items() if g % 1 == r)
        assert chi_gens == chi_hom


def test_plus_presentation_unknot_towers_pass_through():
    h = FUDecomposition.make([F(1, 2), F(-1, 2)], [])
    assert plus_presentation(h) == h


def test_plus_presentation_empty():
    assert plus_presentation(FUDecomposition.make([], [])) == FUDecomposition()


def test_plus_presentation_torsion_conventions():
    pure = FUDecomposition.make([], [(F(1, 2), 1), (F(3), 2)])
    # Internal subcomplex-style homology drops torsion tops by one.
    shifted = plus_presentation(pure)
    assert shifted == FUDecomposition.make([], [(F(-1, 2), 1), (F(2), 2)])


def test_xor_entry_cancels_inserts_and_asserts_homogeneity():
    row = {"x": 2}
    assert xor_entry(row, "x", 2) is False
    assert row == {}
    assert xor_entry(row, "y", 0) is True
    assert row == {"y": 0}
    with pytest.raises(AssertionError):
        xor_entry(row, "y", 1)  # inhomogeneous: a second power at y
    with pytest.raises(AssertionError):
        xor_entry(row, "z", -1)  # negative U-power
    assert row == {"y": 0}


def test_homology_rejects_invalid_complex():
    c = FreeComplex([("y", F(0)), ("x", F(0))], {"y": {"x": 0}})
    with pytest.raises(Exception):
        homology_decomposition(c)


def test_free_complex_json_round_trip():
    c = box_complex(F(-1, 2))
    data = c.to_json()
    back = FreeComplex.from_json(data)
    assert back == c
    assert back.to_json() == data


def scrambled(c, seed, rounds=40):
    """Apply random homogeneity-respecting basis changes g := g + U^s h."""
    import random

    from floerforge.fualgebra import _Reducer

    r = _Reducer(c)
    rng = random.Random(seed)
    gens = list(c.generators)
    for _ in range(rounds):
        g, h = rng.sample(gens, 2)
        delta = r.m[gens.index(h)] - r.m[gens.index(g)]
        if delta % 2 == 0 and delta >= 0:
            mix(r, g, h, int(delta) // 2)
    return r.current_complex()


@pytest.mark.parametrize("seed", [3, 17, 51])
def test_homology_invariant_under_random_basis_changes(seed):
    pieces = [
        box_complex(F(0)),
        box_complex(F(-2)),
        tensor_complexes(
            box_complex(), FreeComplex([("y", F(-1)), ("x", F(0))], {"y": {"x": 1}})
        ),
    ]
    for c in pieces:
        baseline = homology_decomposition(c)
        mixed = scrambled(c, seed)
        assert validate_complex(mixed).ok
        assert homology_decomposition(mixed) == baseline
        cutoff = len(c.generators) + 4
        assert truncated_graded_dimensions(mixed, cutoff) == expected_truncated_dimensions(
            baseline, cutoff
        )


def copied(c, order, name):
    """``c`` with its generators, rows and row entries in ``order``'s
    arrangement and every generator renamed by ``name``."""
    rank = {g: i for i, g in enumerate(order)}
    rows = sorted(c.differential.items(), key=lambda item: rank[item[0]])
    return FreeComplex([(name(g), c.maslov[g]) for g in order],
                       {name(src): {name(t): row[t] for t in sorted(row, key=rank.get)} for src, row in rows})


def reduced(c):
    r = _Reducer(c).cancel_u0()
    model = r.current_complex()
    r.diagonalize()
    return set(model.generators), model.differential, sorted(r.torsion), sorted(r.m[i] for i in survivors(r).values())


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(sorted(ORACLE_CASES)), st.sampled_from([-1, 0, 1]), st.data())
def test_reduction_ignores_generator_order(name, n, data):
    # Pivots go by sorted name, not by the position of a generator or of an
    # entry: a shuffled copy of a cone block (whose U^0 entries leave the
    # pivots a choice) reduces to the same survivors, differential and
    # torsion, and so does a copy renamed in an order-keeping way (a common
    # prefix), up to that renaming.  Any renaming keeps the homology.
    mc = build_cone(ORACLE_CASES[name](), n)
    c = data.draw(st.sampled_from([*mc.a_complexes.values(), *mc.b_complexes.values()]))
    rng = data.draw(st.randoms(use_true_random=False))
    order = list(c.generators)
    rng.shuffle(order)
    assert reduced(copied(c, order, lambda g: g)) == reduced(c)
    survivors, diff, torsion, towers = reduced(c)
    prefix = lambda g: f"p.{g}"
    assert reduced(copied(c, order, prefix)) == (
        {prefix(g) for g in survivors},
        {prefix(src): {prefix(t): p for t, p in row.items()} for src, row in diff.items()}, torsion, towers)
    fresh = dict(zip(order, rng.sample([f"v{i}" for i in range(len(order))], len(order))))
    assert homology_decomposition(copied(c, order, fresh.get)) == homology_decomposition(c)


@pytest.mark.parametrize("diff, gens", [
    ({"y": {"x": 1}}, [("y", F(0)), ("x", F(-1))]),  # U^1 where the gradings give U^0
    ({"y": {"x": -1}}, [("y", F(-3)), ("x", F(0))]),  # a negative power of degree -1
    ({"y": {"x": 0}, "z": {"x": 1}}, [("y", F(0)), ("z", F(0)), ("x", F(-1))]),
])
def test_reducer_rejects_inhomogeneous_and_negative_entries(diff, gens):
    with pytest.raises(AssertionError):
        _Reducer(FreeComplex(gens, diff))
    assert not validate_complex(FreeComplex(gens, diff)).ok


def test_kernel_invariants_fire_in_production():
    # The kernel's assertions are the program's own, not re-checks the suite
    # adds (conftest.py): they fire as users run it.
    with pytest.raises(AssertionError):
        xor_entry({"y": 0}, "y", 1)  # a second power at y
    with pytest.raises(AssertionError):
        xor_entry({}, "z", -1)
    with pytest.raises(AssertionError):
        _Reducer(FreeComplex([("y", F(0)), ("x", F(-1))], {"y": {"x": 1}}))  # U^1 of degree +1
    chain = FreeComplex([("a", F(2)), ("b", F(1)), ("c", F(0))], {"a": {"b": 0}, "b": {"c": 0}})
    with pytest.raises(AssertionError, match="d\\^2 = 0 fails at a pivot"):
        _Reducer(chain).cancel_u0()  # d^2 a = c


def test_mix_rejects_inhomogeneous_and_filtration_breaking_changes():
    # The suite's change of basis (complexes.mix), which its property tests draw.
    c = box_complex()  # a at 0, b at 1, c at -1, d at 0
    with pytest.raises(AssertionError):
        mix(_Reducer(c), "a", "b", 0)  # gradings 0 and 1: no power of U joins them
    with pytest.raises(AssertionError):
        mix(_Reducer(c), "b", "c", -1)  # b at 1 is U^-1 . c at -1: a negative power
    alexander = {"a": 0, "b": 1, "c": 0, "d": 1}
    with pytest.raises(AssertionError):
        mix(_Reducer(c, alexander=alexander), "a", "d", 0)  # d sits higher in the filtration
    r = _Reducer(c, alexander=alexander, track=("iota", "pi"))
    mix(r, "d", "a", 0)  # d := d + a, filtered and homogeneous
    assert r.current_complex().differential == {"a": {"b": 1, "c": 0}, "b": {"d": 0, "a": 0},
                                                "c": {"d": 1, "a": 1}, "d": {"b": 1, "c": 0}}
    iota, pi = tracked_maps(r)
    assert iota["d"] == {"d": 0, "a": 0} and pi["d"] == {"d": 0, "a": 0} and pi["a"] == {"a": 0}


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return str(exc)
    assert type(value) is Fraction
    return value


def _fraction_of(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"grading {text!r} has a zero denominator") from None


@given(st.one_of(st.text(), st.text(st.sampled_from("0123456789_+-/.eE \t\n\x1c\xa0\u3000\u0663\uff13x"))))
@example("1" * 5000)
@example(" -0_7\n")
def test_grading_of_a_string_is_its_fraction(text):
    # The int() fast path keeps Fraction's value and error for every string.
    assert _outcome(grading, text) == _outcome(_fraction_of, text)


def test_integral_kernels_build_no_fraction(monkeypatch):
    # K3 (x) Wh(K3), 297 generators: integral gradings are ints inside, so
    # validation, the tensor product, the reduction and JSON ingress do no
    # Fraction arithmetic.
    k3 = k_n(3)
    wh = whitehead_double_cfk(reduced_basis_form(k3))
    wh.base  # written out before counting: the suite's re-check of that makes Fractions
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))

    def fractions_built(kernel):
        built.clear()
        value = kernel()
        return len(built), value

    assert fractions_built(lambda: F(1, 2))[0] == 1  # the count sees construction
    count, product = fractions_built(lambda: tensor_complexes(k3.base, wh.base))
    assert (count, len(product.generators)) == (0, 297)
    assert fractions_built(lambda: validate_complex(product))[0] == 0
    reducer = _Reducer(product)
    assert fractions_built(reducer.cancel_u0)[0] == 0
    assert fractions_built(reducer.diagonalize)[0] == 0
    assert fractions_built(lambda: FreeComplex.from_json(product.to_json()))[0] == 0
