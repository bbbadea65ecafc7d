import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from floerforge.cfk import (
    box,
    connected_sum_knots,
    figure8,
    j_in_y,
    jprime_in_yprime,
    mirror_knot,
    staircase_torus,
    unknot,
    k_n,
    KnotComplex,
    validate_knot,
    _shapes,
)
from floerforge.fualgebra import (
    FreeComplex,
    FUDecomposition,
    InvalidComplex,
    _positions,
    _Reducer,
    homology_decomposition,
    plus_presentation,
    tensor_complexes,
    validate_complex,
)
from floerforge import surgery
from floerforge.cli import main
from floerforge.corpus import load_complex
from floerforge.surgery import (
    FORCED_INJECTIVE_TOP,
    FORCED_ZERO,
    HFPlusResult,
    InconsistentTriangle,
    MissingFlip,
    build_cone,
    connected_sum_floer,
    exact_triangle_force,
    one_handle_stabilize,
    surgery_hf,
)
from floerforge.whitehead import _counted
from floerforge.truncation import (
    expected_truncated_dimensions,
    truncated_graded_dimensions,
)

import complexes
from complexes import (ORACLE_CASES, a_gradings, cone_check, disjoint_sum, filtered_mixes, flat_tower,
                       flip_swapped_boxes, mix, positional_complex, scrambled_sums, spelled_cone, survivors,
                       tracked_maps, unchecked)

F = Fraction


def dec(towers, torsion=()):
    return FUDecomposition.make(towers, torsion)


def x_plus_boxes(params):
    return disjoint_sum([unknot()] + [box(k) for k in params])


# --- zero-framed outputs ----------------------------------------------------


def test_zero_surgery_unknot():
    r = surgery_hf(unknot(), 0)
    assert r.decomposition == dec([F(1, 2), F(-1, 2)])
    assert r.spinc == "torsion-summed [s0]"


def test_zero_surgery_trefoil():
    r = surgery_hf(staircase_torus(3, "+"), 0)
    assert r.decomposition == dec([F(-3, 2), F(-1, 2)])


def test_zero_surgery_figure8():
    r = surgery_hf(figure8(), 0)
    assert r.decomposition == dec([F(1, 2), F(-1, 2)], [(F(-1, 2), 1)])


def test_zero_surgery_torus25():
    r = surgery_hf(staircase_torus(5, "+"), 0)
    assert r.decomposition == dec([F(-3, 2), F(-1, 2)])


@pytest.mark.parametrize("params", [[F(0)], [F(1), F(-1)], [F(2), F(0), F(0)]])
def test_zero_surgery_box_sum_pattern(params):
    r = surgery_hf(x_plus_boxes(params), 0)
    expected = dec([F(1, 2), F(-1, 2)], [(k - F(1, 2), 1) for k in params])
    assert r.decomposition == expected
    assert sum(r.hf_red().values()) == len(params)


# --- companion complexes at framing -1 ---------------------------------------


def test_minus_one_surgery_on_companion_is_two_towers():
    r = surgery_hf(j_in_y(), -1)
    assert r.decomposition == dec([F(1, 2), F(-1, 2)])


def test_companion_ambient_and_surgered_d_invariants():
    # Ambient: towers at -3/2 and -1/2; surgered: towers at 1/2 and -1/2.
    y = surgery_hf(staircase_torus(3, "+"), 0)
    yj = surgery_hf(j_in_y(), -1)

    def d_by_class(result, cls):
        matches = [t for t in result.d_invariants if (t - cls) % 2 == 0]
        assert len(matches) == 1
        return matches[0]

    assert d_by_class(y, F(-1, 2)) == F(-1, 2)
    assert d_by_class(yj, F(-1, 2)) == F(-1, 2)
    assert d_by_class(y, F(1, 2)) == F(-3, 2)
    assert d_by_class(yj, F(1, 2)) == F(1, 2)


def test_negative_companion_ambient_homology():
    # Frozen derived gradings: ambient homology has towers +-1/2 and one
    # reduced class at -1/2.
    jp = jprime_in_yprime()
    h = plus_presentation(homology_decomposition(jp.base))
    assert h == dec([F(1, 2), F(-1, 2)], [(F(-1, 2), 1)])


def test_negative_companion_minus_one_surgery():
    r = surgery_hf(jprime_in_yprime(), -1)
    assert r.decomposition == dec([F(1, 2), F(-1, 2)])


# --- integer framings on the sphere -------------------------------------------


def test_unknot_any_framing_single_tower():
    assert surgery_hf(unknot(), -1).decomposition == dec([F(0)])
    assert surgery_hf(unknot(), 1).decomposition == dec([F(0)])


def test_plus_one_trefoil_lowest_tower():
    # +1-framed surgery on the right-handed staircase: one tower at -2.
    assert surgery_hf(staircase_torus(3, "+"), 1).decomposition == dec([F(-2)])


def test_minus_one_trefoil_tower_and_torsion():
    r = surgery_hf(staircase_torus(3, "+"), -1)
    assert r.decomposition == dec([F(0)], [(F(-1), 1)])


@pytest.mark.parametrize("kc", [figure8(), staircase_torus(3, "+"), staircase_torus(5, "+")])
def test_zero_surgery_mirror_negates_d_invariants(kc):
    d = surgery_hf(kc, 0).d_invariants
    d_mirror = surgery_hf(mirror_knot(kc), 0).d_invariants
    assert sorted(-x for x in d_mirror) == sorted(d)


# --- cone structure -----------------------------------------------------------


def test_cone_window_genus_one_framing_zero():
    mc = build_cone(figure8(), 0)
    assert mc.a_window == (0,) and mc.b_window == (0,)


def test_cone_window_genus_two_framing_minus_one():
    jk = connected_sum_knots(j_in_y(), figure8())
    mc = build_cone(jk, -1)
    assert mc.a_window == (-1, 0, 1)
    assert mc.b_window == (-2, -1, 0, 1)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_cone_total_complex_validates(n):
    for kc in (unknot(), figure8(), staircase_torus(3, "+")):
        total = build_cone(kc, n).total_complex()
        assert validate_complex(total).ok


def test_cone_requires_flip():
    naked = KnotComplex(figure8().base, figure8().alexander, None, figure8().ambient)
    with pytest.raises(MissingFlip):
        build_cone(naked, 0)


def test_cone_rejects_large_framing():
    with pytest.raises(ValueError):
        build_cone(figure8(), 2)


@pytest.mark.parametrize(
    "kc,n",
    [
        (figure8(), 0),
        (staircase_torus(3, "+"), 0),
        (j_in_y(), -1),
        (staircase_torus(3, "+"), -1),
        (connected_sum_knots(j_in_y(), figure8()), -1),
    ],
)
def test_reduced_summand_route_agrees(kc, n):
    # The whole complex taken as one shape: its minimal cone is valid and,
    # at the framing's anchor, has the answer as homology.
    direct = surgery_hf(kc, n)
    total = positional_complex(*surgery._minimal_cone(shape_cone(kc, n)))
    assert validate_complex(total).ok
    reduced = plus_presentation(homology_decomposition(total.shift(surgery._ANCHORS[n])))
    assert direct.decomposition == reduced


def shape_cone(kc, n):
    """The vector cone of all of ``kc``, over the window of ``surgery_hf``."""
    return surgery._shape_cone(kc, n, surgery._window(kc, n))


@settings(deadline=None, max_examples=30)
@given(scrambled_sums(ORACLE_CASES, max_size=2), st.sampled_from([-1, 0, 1]))
def test_shape_cone_spells_out_the_flat_cone(kc, n):
    # Each power read off the grading vectors is the one build_cone writes.
    spelled = spelled_cone(shape_cone(kc, n)).total_complex().shift(surgery._ANCHORS[n])
    assert spelled == build_cone(kc, n).total_complex()


# --- the summand-wise route against the flat cone -----------------------------


def flat_surgery(kc, n):
    """The oracle: homology of the one flat cone over the whole complex."""
    return plus_presentation(homology_decomposition(build_cone(kc, n).total_complex()))


@settings(deadline=None, max_examples=40)
@given(scrambled_sums(ORACLE_CASES, max_size=2))
def test_summand_route_equals_flat_cone(kc):
    for n in (-1, 0, 1):
        assert surgery_hf(kc, n).decomposition == flat_surgery(kc, n)


def flip_stable_mixes(kc):
    """The filtered changes g := g + U^s h of ``kc`` (over S3) that keep its flip
    a chain map once each is paired with its image under the flip x -> U^-A(x)
    flip(x): flip g := flip g + U^(s + A(g) - A(h)) flip h, itself filtered.
    A change whose image swaps g and h would be singular and is left out."""
    A, flip = kc.alexander, kc.flip
    return [((g, h, s), (flip[g], flip[h], s + A[g] - A[h])) for g, h, s in filtered_mixes(kc) if flip[g] != h]


SURGERY_KNOTS = {name: (kc, flip_stable_mixes(kc)) for name, build in {
    **{f"K{n}": (lambda n=n: k_n(n)) for n in (3, 5, 7, 9)},
    "figure8": figure8,
    "T(2,5)": lambda: staircase_torus(5, "+"),
    "Wh(K3)": lambda: flat_tower(k_n(3), "+")[0],
    "figure8#figure8": lambda: connected_sum_knots(figure8(), figure8()),
    "figure8#T(2,3)": lambda: connected_sum_knots(figure8(), staircase_torus(3, "+")),
}.items() for kc in [build()]}


def flip_stable_basis_changes(name):
    """The knot ``name`` of ``SURGERY_KNOTS`` after 1 to 40 random pairs of its
    :func:`flip_stable_mixes` (``complexes.mix``), with the same flip; T(2,5)
    has none, its gradings and filtration leave no pair."""
    kc, pairs = SURGERY_KNOTS[name]

    def mixed(changes):
        r = _Reducer(kc.base, alexander=kc.alexander)
        for change, image in changes:
            mix(r, *change)
            if image != change:
                mix(r, *image)
        return KnotComplex(r.current_complex(), kc.alexander, kc.flip, kc.ambient)

    return st.lists(st.sampled_from(pairs), min_size=1, max_size=40).map(mixed) if pairs else st.just(kc)


@functools.cache
def flat_answer(name, n):
    return flat_surgery(SURGERY_KNOTS[name][0], n)


@pytest.mark.parametrize("name", sorted(SURGERY_KNOTS))
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_filtered_basis_changes_keep_the_surgeries(name, data):
    # The halving tree's shared cancellations depend on which U^0 entries meet
    # at both ends of a range of leaves; a change of basis moves them.  Each
    # answer is the flat cone's on the unchanged knot.
    mixed = data.draw(flip_stable_basis_changes(name))
    assert validate_knot(mixed).ok
    for n in (-1, 0, 1):
        assert surgery_hf(mixed, n).decomposition == flat_answer(name, n)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_large_torus_sum_equals_flat_cone(n):
    # T(2,7)#T(2,7)#T(2,7): one shape of 343 generators, 10 blocks at +-1.
    t = staircase_torus(7, "+")
    kc = connected_sum_knots(connected_sum_knots(t, t), t)
    assert surgery_hf(kc, n).decomposition == flat_surgery(kc, n)


@pytest.fixture
def cone_sizes(monkeypatch):
    """Generator counts of the unreduced cones ``surgery._shape_cone`` builds
    (blocks times shape size), cleared before each ``surgery_hf`` call."""
    sizes = []

    def counting(kc, *args):
        sc = cone(kc, *args)
        sizes.append((len(sc.a_shifts) + len(sc.b_shifts)) * len(sc.base.generators))
        return sc

    cone = surgery._shape_cone
    monkeypatch.setattr(surgery, "_shape_cone", counting)
    return sizes


@pytest.mark.parametrize("j", [0, 1])
def test_flip_pairs_join_summands(j, cone_sizes):
    kc = flip_swapped_boxes(j)
    assert validate_knot(kc).ok
    for n in (-1, 0, 1):
        expected = flat_surgery(kc, n)
        per_copy = len(build_cone(kc, n).a_window) + len(build_cone(kc, n).b_window)
        cone_sizes.clear()
        assert surgery_hf(kc, n).decomposition == expected
        # One cone for x, one for the two boxes together: each summand
        # contributes its 1 or 8 generators to every A_s and B_t.
        assert sorted(cone_sizes) == [per_copy, 8 * per_copy]


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_one_cone_per_distinct_shape(n, cone_sizes):
    # Wh^2(K3) is x plus 32 boxes B[k, 0] at several k: 33 summands, two shapes.
    kc = flat_tower(k_n(3), "++")[-1]
    assert len(kc.generators) == 129
    expected = flat_surgery(kc, n)
    per_copy = len(build_cone(kc, n).a_window) + len(build_cone(kc, n).b_window)
    cone_sizes.clear()
    assert surgery_hf(kc, n).decomposition == expected
    assert sorted(cone_sizes) == [per_copy, 4 * per_copy]


@pytest.mark.parametrize("n, size", [(-1, 71), (1, 69)])
def test_minimal_blocks_shrink_the_k9_cone(monkeypatch, n, size):
    # A U^0-minimal block has rank dim H(block/U), whatever basis the
    # reduction picks; the flat cone of K9 has 81 generators per block.
    sizes, cone = [], surgery._minimal_cone

    def counting(sc):
        minimal = cone(sc)
        sizes.append(len(minimal[0]))
        return minimal

    monkeypatch.setattr(surgery, "_minimal_cone", counting)
    surgery_hf(k_n(9), n)
    assert sizes == [size]


def leaves(sc):
    """The grading vectors of A_0 .. A_{g-1} and B in ``sc``, in that order."""
    return [sc.gradings[s] for s in sorted(sc.gradings) if s >= 0] + [list(map(sc.base.maslov.__getitem__,
                                                                           sc.base.generators))] * bool(sc.b_shifts)


@pytest.mark.parametrize("n", [-1, 1])
def test_flip_halves_the_k9_reductions(monkeypatch, n):
    # K9 is one shape of genus 8: A_0 .. A_7 and B are the leaves of one
    # shared reduction, A_-7 .. A_-1 are read off A_1 .. A_7 through the
    # flip, and what the nine blocks have in common is cancelled once:
    # fewer than half of the pairs of nine separate reductions.
    reduced, pairs = [], []

    class Counting(surgery._Reducer):
        def cancel_u0(self, level=None):
            alive = sum(self.alive)
            super().cancel_u0(level)
            pairs.append((alive - sum(self.alive)) // 2)
            if level is None:
                reduced.append(self.m)
            return self

    monkeypatch.setattr(surgery, "_Reducer", Counting)
    expected = flat_surgery(k_n(9), n)
    assert surgery_hf(k_n(9), n).decomposition == expected
    (rep, _copies), = _shapes(k_n(9))
    sc = surgery._shape_cone(rep, n, surgery._window(rep, n))
    assert len(sc.a_shifts) == 15 and sorted(reduced) == sorted(leaves(sc)) and len(reduced) == 9
    assert sorted(sc.gradings) == list(range(8))  # the vectors of A_-7 .. A_-1 are never built
    separate = [(len(rep.generators) - len(survivors(_Reducer(rep.base).fork(m).cancel_u0()))) // 2
                for m in leaves(sc)]
    assert sum(separate) == 350 and sum(pairs) < 350 / 2


@settings(deadline=None, max_examples=40)
@given(scrambled_sums(ORACLE_CASES), st.sampled_from([-1, 0, 1]))
def test_u0_at_both_ends_is_u0_throughout(kc, n):
    # For any x, y and any range of leaves A_lo .. A_hi (B last), the rise
    # m(y) - m(x) is -1 at both ends exactly when it is -1 at every leaf
    # between: the shared reduction cancels at a range what each leaf would.
    grades = leaves(shape_cone(kc, n))
    columns = set(zip(*grades))  # a generator's grading at each leaf
    for lo in range(len(grades)):
        for hi in range(lo + 1, len(grades)):
            for x in columns:
                for y in columns:
                    rises = [b - a for a, b in zip(x[lo:hi + 1], y[lo:hi + 1])]
                    assert (rises[0] == rises[-1] == -1) == (set(rises) == {-1})


@settings(deadline=None, max_examples=40)
@given(scrambled_sums(ORACLE_CASES), st.sampled_from([-1, 0, 1]))
@example(unknot(), 1)
def test_u0_in_some_block_shows_in_b(kc, n):
    # Some block has a U^0 entry exactly when B has one, so the check of B
    # covers every block _minimal_cone reduces: the flip carries an entry
    # that is U^0 in an A_s and not in B to a U^0 entry of B.
    sc = shape_cone(kc, n)
    blocks = [dict(zip(sc.base.generators, ms)) for ms in a_gradings(sc).values()] + [sc.base.maslov]
    anywhere = any(m[y] - m[x] == -1 for m in blocks for x, row in sc.base.differential.items() for y in row)
    assert any(0 in row.values() for row in sc.base.differential.values()) is anywhere


def test_every_shape_cone_takes_the_shared_reduction(monkeypatch):
    # One route for every shape cone: the unknot's, with no U^0 entry to
    # cancel, reaches _minimal_blocks as box(0)'s does, and each once per
    # framing, as the cones of x and the box are kept per process.
    monkeypatch.setattr(surgery, "_NORMAL_FORM_CONES", {})
    calls, reduce = [], surgery._minimal_blocks
    monkeypatch.setattr(surgery, "_minimal_blocks", lambda sc: calls.append(len(sc.base.generators)) or reduce(sc))
    for n in (-1, 0, 1):
        for _again in range(2):
            surgery_hf(_counted({0: 1}, "+"), n)
    assert calls == [1, 4, 1, 4, 1, 4]


@settings(deadline=None, max_examples=40)
@given(scrambled_sums(ORACLE_CASES), st.sampled_from([-1, 0, 1]))
def test_shared_blocks_match_separate_reductions(kc, n):
    # Each block the shared reduction hands over is U^0-minimal, with the
    # rank and the homology of its own reduction from scratch.
    sc = shape_cone(kc, n)
    blocks = surgery._minimal_blocks(sc)
    models = {s: positional_complex(m, masks, [0] * len(m)) for s, (m, masks, _maps) in blocks.items()}
    assert len(models) == len(sc.a_shifts) + bool(sc.b_shifts)
    for s, model in models.items():
        r = _Reducer(sc.base)
        alone = (r if s is None else r.fork(a_gradings(sc)[s])).cancel_u0()
        assert not any(p == 0 for _src, _tgt, p in model.entries())
        assert len(model.generators) == len(survivors(alone))
        assert homology_decomposition(model) == homology_decomposition(alone.current_complex())


def test_box_sum_shapes_pass_validation():
    # validate_knot certifies the shapes of a counted double by their keys.
    assert validate_knot(unknot()).ok and validate_knot(box(0)).ok


def test_cone_check_runs_in_the_suite_only(monkeypatch):
    # The suite checks each shape's cone once; the program checks none, and
    # every answer is the same.
    calls, check = [], complexes.cone_check
    monkeypatch.setattr(complexes, "cone_check", lambda sc: calls.append(len(sc.base.generators)) or check(sc))
    k9, answers = load_complex("k9"), []
    for expected in ([81, 81, 1, 4], []):
        calls.clear()
        answers.append([surgery_hf(k9, -1), surgery_hf(k9, 1), surgery_hf(_counted({1: 2, 0: 1}, "+"), 0)])
        assert calls == expected
        unchecked(monkeypatch)
    assert answers[0] == answers[1]


def composed(first, then):
    """The map ``first`` followed by ``then``, each source -> {target:
    power}, as source -> the set of (target, power) terms left over F2."""
    out = {}
    for src, row in first.items():
        terms = set()
        for mid, p in row.items():
            for tgt, q in then.get(mid, {}).items():
                terms ^= {(tgt, p + q)}
        out[src] = terms
    return out


def same_map(f, g, sources):
    return all(f.get(x, set()) == g.get(x, set()) for x in sources)


@settings(deadline=None, max_examples=40)
@given(scrambled_sums(ORACLE_CASES), st.sampled_from([-1, 0, 1]), st.data())
def test_tracked_maps_are_homotopy_equivalence_data(kc, n, data):
    # On a cone block C with minimal model C', checked with explicit powers
    # and not through the reducer's bitsets: iota: C' -> C and pi: C -> C'
    # are chain maps, and pi . iota is the identity of C'.
    mc = build_cone(kc, n)
    c = data.draw(st.sampled_from([*mc.a_complexes.values(), *mc.b_complexes.values()]))
    r = _Reducer(c, track=("iota", "pi")).cancel_u0()
    model = r.current_complex()
    d, d_model, (iota, pi) = c.differential, model.differential, tracked_maps(r)
    assert set(iota) == set(model.generators) and set(pi) == set(c.generators)
    assert same_map(composed(d_model, iota), composed(iota, d), model.generators)
    assert same_map(composed(d, pi), composed(pi, d_model), c.generators)
    assert composed(iota, pi) == {x: {(x, 0)} for x in model.generators}
    assert not any(p == 0 for _src, _tgt, p in model.entries())
    # A_{-s} (s > 0), read off A_s through the flip: its model has the
    # homology of the flat A_{-s}, and its inclusion is a chain map into it
    # whose mapping cone is acyclic.
    sc = shape_cone(kc, n)
    blocks = surgery._minimal_blocks(sc)
    gens = kc.generators
    for s in (s for s in mc.a_window if s < 0):
        flat, (m, masks, inclusion) = mc.a_complexes[s], blocks[s]
        model = positional_complex(m, masks, [0] * len(m))
        assert homology_decomposition(model) == homology_decomposition(flat)
        assert len(inclusion) == len(model.generators)
        iota = {g: {gens[j]: (flat.maslov[gens[j]] - mg) // 2 for j in _positions(*x)}
                for g, mg, x in zip(model.generators, m, inclusion)}
        assert same_map(composed(model.differential, iota), composed(iota, flat.differential), model.generators)
        assert homology_decomposition(mapping_cone(iota, model, flat)) == FUDecomposition()


def mapping_cone(f, source, target):
    """The cone of the degree-0 chain map ``f``: ``source`` shifted up by one
    and ``target``, joined by ``f``; it is acyclic when ``f`` is a homotopy
    equivalence."""
    gens = [(f"s|{g}", source.maslov[g] + 1) for g in source.generators]
    gens += [(f"t|{x}", target.maslov[x]) for x in target.generators]
    diff = {f"t|{x}": {f"t|{y}": p for y, p in row.items()} for x, row in target.differential.items()}
    for g in source.generators:
        diff[f"s|{g}"] = {**{f"s|{h}": p for h, p in source.differential.get(g, {}).items()},
                          **{f"t|{x}": p for x, p in f[g].items()}}
    cone = FreeComplex(gens, diff)
    assert validate_complex(cone).ok
    return cone


def toggled(entries, src, tgt, p):
    """A copy of the map ``entries`` with the entry ``src -> tgt`` removed,
    or added with power ``p`` if absent."""
    out = {x: dict(row) for x, row in entries.items()}
    row = out.setdefault(src, {})
    if row.pop(tgt, None) is None:
        row[tgt] = p
    return out


def corrupting(part):
    """A stand-in for ``surgery._shape_cone`` that raises the grading of the
    first generator in A_0 by one (part "A"), removes the first entry of B
    (part "B"), or moves the first image of the map v_0 or h_0 one place on."""
    cone = surgery._shape_cone

    def corrupted(kc, *args):
        sc = cone(kc, *args)
        if part == "A":
            sc.gradings[0] = [sc.gradings[0][0] + 1, *sc.gradings[0][1:]]
        elif part == "B":
            c = sc.base
            sc.base = FreeComplex([(g, c.maslov[g]) for g in c.generators], toggled(c.differential, *next(c.entries())))
        else:
            e = sc.edges[(0, part)]
            sc.edges[(0, part)] = [(e[0] + 1) % len(e), *e[1:]]
        return sc

    return corrupted


@pytest.mark.parametrize("part", ["A", "B", "v", "h"])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_corrupted_cone_is_rejected(monkeypatch, capsys, n, part):
    # T(2,5) has genus 2, so v_0 and h_0 both exist at every framing.  The
    # cone check is the suite's (conftest.py): the program trusts the cones
    # it builds and would not see this corruption.
    monkeypatch.setattr(surgery, "_shape_cone", corrupting(part))
    with pytest.raises(InvalidComplex):
        surgery_hf(staircase_torus(5, "+"), n)
    assert main(["surgery", "--complex", "t2_5", "--n", str(n)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid ") and len(err.splitlines()) == 1


def flat_ok(mc):
    try:
        return validate_complex(mc.total_complex()).ok
    except AssertionError:  # xor_entry meets a negative or inhomogeneous entry
        return False


def edges_ok(mc):
    """Whether each entry of each edge map is a non-negative power of degree
    -1 before v_0 and h_0 are summed, where two equal entries cancel."""
    for (s, kind), entries in mc.edges.items():
        t = s if kind == "v" else s + mc.n
        a, b = mc.a_complexes[s], mc.b_complexes[t]
        for x, row in entries.items():
            for y, p in row.items():
                if p < 0 or b.maslov[y] + mc.b_shifts[t] - 2 * p != a.maslov[x] + mc.a_shifts[s] - 1:
                    return False
    return True


def flip_read_ok(sc):
    """Whether m_{-s}(flip x) = m_s(x) - 2s for every s > 0 of ``sc``."""
    return all(sc.gradings[-s][j] == m - 2 * s for s in sc.gradings if s > 0 and -s in sc.gradings
               for j, m in zip(sc.flip, sc.gradings[s]))


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(["figure8", "t2_5", "k3"]), st.sampled_from([-1, 0, 1]), st.data())
def test_block_check_is_the_flat_check(name, n, data):
    # Toggle one entry of B, of any power, move one grading of one A_s or one
    # image of one edge map: the check on the vectors agrees with the
    # validation of the cone they spell out, with each edge map's entries
    # checked one by one and the flip relation that reading A_{-s} off A_s
    # rests on.
    sc = shape_cone(load_complex(name), n)
    gens, c = sc.base.generators, sc.base
    position = st.integers(0, len(gens) - 1)
    part = data.draw(st.sampled_from(["B", "A"] + ["edge"] * bool(sc.edges)))
    if part == "B":
        src, tgt, p = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens)), data.draw(st.integers(-1, 3))
        sc.base = FreeComplex([(g, c.maslov[g]) for g in gens], toggled(c.differential, src, tgt, p))
    elif part == "A":
        s, i, by = data.draw(st.sampled_from(sorted(sc.gradings))), data.draw(position), data.draw(st.integers(-3, 3))
        sc.gradings[s] = [m + by * (j == i) for j, m in enumerate(sc.gradings[s])]
    else:
        key, i, image = data.draw(st.sampled_from(sorted(sc.edges))), data.draw(position), data.draw(position)
        sc.edges[key] = [image if j == i else k for j, k in enumerate(sc.edges[key])]
    mc = spelled_cone(sc)
    assert cone_check(sc).ok == (flat_ok(mc) and edges_ok(mc) and flip_read_ok(sc))


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_shared_rows_keep_every_check(n):
    # Every A_s shares B's rows, so its own powers are read off its grading
    # vector and still checked: one odd grading in it fails the cone check
    # as it fails the flat one.
    sc = shape_cone(staircase_torus(5, "+"), n)
    s = min(sc.gradings)
    sc.gradings[s] = [sc.gradings[s][0] + 1, *sc.gradings[s][1:]]
    report = cone_check(sc)
    assert not report.ok and not flat_ok(spelled_cone(sc))
    assert f"entry A{s}|s1->A{s}|s0 is not a non-negative power of degree -1" in report.violations
    # An entry of B of the wrong degree is left out of the rows, so only
    # the entry check of B sees it.
    kc = staircase_torus(5, "+")
    diff = {**kc.base.differential, "s0": {"s2": 5}}
    sc = surgery._shape_cone(KnotComplex(FreeComplex([(g, kc.base.maslov[g]) for g in kc.generators], diff),
                                         kc.alexander, kc.flip), n, 2)
    report = cone_check(sc)
    assert not flat_ok(spelled_cone(sc))
    assert report.violations == ("entry s0->U^5.s2: grading 0 -> -12 is not degree -1",)
    # A base with d^2 != 0 whose flip still commutes with d: every edge map
    # is a chain map, and only the d^2 check of the blocks sees the fault.
    kc = staircase_torus(5, "+")
    diff = {**kc.base.differential, "s2": {"s3": 0, "s1": 1}}  # d^2 s1 = s3 + U.s1
    bad = KnotComplex(FreeComplex([(g, kc.base.maslov[g]) for g in kc.generators], diff), kc.alexander, kc.flip)
    sc = surgery._shape_cone(bad, n, 2)
    report = cone_check(sc)
    assert not report.ok and not flat_ok(spelled_cone(sc))
    assert all(v.startswith("d^2 from ") for v in report.violations)


@pytest.mark.parametrize("n", [-1, 1])
def test_edge_entries_are_checked(n):
    # The unknot's generator has no entry, so its grading one off in A_0
    # shows in the edge maps alone (at framing 0 the flat sum v_0 + h_0
    # would cancel the two, which the check takes one by one).
    sc = surgery._shape_cone(disjoint_sum([unknot(), box(0)]), n, 2)
    sc.gradings[0] = [sc.gradings[0][0] + 1, *sc.gradings[0][1:]]
    report = cone_check(sc)
    assert not report.ok and not flat_ok(spelled_cone(sc))
    assert all(v.startswith("edge A0|0.x->") for v in report.violations)


def three_boxes():
    """The vector cone at -1, window 2, of the unknot plus three boxes B[0, 0]
    (positions 1 + 4k .. 4 + 4k for box k: a, b, c, d)."""
    return surgery._shape_cone(disjoint_sum([unknot(), box(0), box(0), box(0)]), -1, 2)


def test_flip_read_checks_what_it_rests_on():
    # A_{-s} is read off A_s through ``flip``, so the check also holds the
    # flip to be an involution, an F2 chain map and to carry m_s to
    # m_{-s} + 2s.  Each fault below leaves the edge maps, and so the flat
    # cone, as they were.
    assert cone_check(three_boxes()).ok
    flip = three_boxes().flip
    faults = {
        # flip, then the next box: a chain map that is no involution
        "the flip is not an involution": [0, *((j + 4 - 1) % 12 + 1 for j in flip[1:])],
        # b of box 1 with c of box 2 and c of box 1 with b of box 2: no chain map
        "the flip is not a chain map": [{2: 7, 7: 2, 3: 6, 6: 3}.get(i, j) for i, j in enumerate(flip)],
    }
    for violation, images in faults.items():
        sc = three_boxes()
        sc.flip = images
        assert flat_ok(spelled_cone(sc)) and cone_check(sc).violations == (violation,)
        with pytest.raises(InvalidComplex):
            surgery._minimal_cone(sc)
    sc = three_boxes()  # the unknot's generator two lower in A_-1: a valid cone, but not A_1 moved
    sc.gradings[-1] = [a_gradings(sc)[-1][0] - 2, *a_gradings(sc)[-1][1:]]
    assert flat_ok(spelled_cone(sc)) and cone_check(sc).violations == ("A-1 is not A1 through the flip",)


# --- stabilisation ------------------------------------------------------------


def test_one_handle_stabilize_single_tower():
    stabilized = one_handle_stabilize(HFPlusResult(dec([F(0)])))
    assert stabilized.decomposition == dec([F(1, 2), F(-1, 2)])


def test_one_handle_stabilize_empty():
    stabilized = one_handle_stabilize(HFPlusResult(dec([])))
    assert stabilized.decomposition == dec([])


def test_box_sum_stabilized_reproduces_summed_pattern():
    params = [F(1), F(0)]
    r = surgery_hf(x_plus_boxes(params), 0)
    stabilized = one_handle_stabilize(r)
    expected = dec(
        [F(1), F(0), F(0), F(-1)],
        [(k, 1) for k in params] + [(k - 1, 1) for k in params],
    )
    assert stabilized.decomposition == expected


# --- connected sums of decompositions -----------------------------------------


def s3_unit():
    return HFPlusResult(dec([F(0)]))


def test_floer_sum_with_unit_is_identity():
    r = HFPlusResult(dec([F(1, 2), F(-1, 2)], [(F(3, 2), 2), (F(0), 1)]))
    assert connected_sum_floer(r, s3_unit()).decomposition == r.decomposition
    assert connected_sum_floer(s3_unit(), r).decomposition == r.decomposition


def test_floer_sum_with_circle_times_sphere():
    towers = HFPlusResult(dec([F(1, 2), F(-1, 2)]))
    out = connected_sum_floer(towers, towers)
    assert out.decomposition == dec([F(1), F(0), F(0), F(-1)])


def encode(d: FUDecomposition, tag: str) -> FreeComplex:
    """Free-complex model whose homology, presented in plus terms, is ``d``.

    A tower at g becomes a free generator at g; torsion (top g, length k)
    becomes a pair dy = U^k x with m(x) = g + 1.
    """
    gens = [(f"{tag}t{i}", t) for i, t in enumerate(d.towers)]
    diff = {}
    for i, (g, k) in enumerate((g, k) for g, k, c in d.torsion for _ in range(c)):
        gens += [(f"{tag}x{i}", g + 1), (f"{tag}y{i}", g + 2 - 2 * k)]
        diff[f"{tag}y{i}"] = {f"{tag}x{i}": k}
    return FreeComplex(gens, diff)


def test_floer_sum_torsion_against_itself_matches_truncation_oracle():
    r = HFPlusResult(dec([], [(F(0), 1)]))
    engine = connected_sum_floer(r, r).decomposition
    assert engine == dec([], [(F(1), 1), (F(0), 1)])
    # Brute-force oracle: tensor the encodings and compare truncated dims.
    c = tensor_complexes(encode(r.decomposition, "L"), encode(r.decomposition, "R"))
    h = homology_decomposition(c)
    for cutoff in (5, 6):
        assert truncated_graded_dimensions(c, cutoff) == expected_truncated_dimensions(h, cutoff)
    assert plus_presentation(h) == engine


@pytest.mark.parametrize("k1", range(1, 9))
def test_floer_sum_kunneth_blocks_match_engine(k1):
    # The closed-form torsion x torsion blocks against the homology of the
    # tensor product of the two encodings, at shifted tops.
    for k2 in range(1, 9):
        a = dec([], [(F(1, 2), k1)])
        b = dec([], [(F(-3), k2)])
        engine = plus_presentation(homology_decomposition(tensor_complexes(encode(a, "L"), encode(b, "R"))))
        assert connected_sum_floer(HFPlusResult(a), HFPlusResult(b)).decomposition == engine


def test_floer_sum_commutative_associative():
    a = HFPlusResult(dec([F(1, 2)], [(F(0), 1)]))
    b = HFPlusResult(dec([F(-1, 2)], [(F(2), 1)]))
    c = HFPlusResult(dec([F(0)], [(F(-1), 2)]))
    ab = connected_sum_floer(a, b)
    ba = connected_sum_floer(b, a)
    assert ab.decomposition == ba.decomposition
    left = connected_sum_floer(ab, c).decomposition
    right = connected_sum_floer(a, connected_sum_floer(b, c)).decomposition
    assert left == right


def expanded_torsion(d):
    return [(g, k) for g, k, c in d.torsion for _ in range(c)]


def expanded_kunneth(r1, r2):
    """The Kunneth sum over every pair of the expanded summand lists."""
    d1, d2 = r1.decomposition, r2.decomposition
    t1, t2 = expanded_torsion(d1), expanded_torsion(d2)
    towers = [a + b for a in d1.towers for b in d2.towers]
    torsion = [(g + t, k) for t in d1.towers for g, k in t2]
    torsion += [(g + t, k) for t in d2.towers for g, k in t1]
    for g1, k1 in t1:
        for g2, k2 in t2:
            torsion += [(g1 + g2 + 1, min(k1, k2)), (g1 + g2 + 2 - 2 * max(k1, k2), min(k1, k2))]
    return FUDecomposition.make(towers, torsion)


def expanded_rank_table(d):
    table = {}
    for g, k in expanded_torsion(d):
        for i in range(k):
            table[g - 2 * i] = table.get(g - 2 * i, 0) + 1
    return table


half_gradings = st.integers(-6, 6).map(lambda n: F(n, 2))
plus_results = st.builds(
    lambda towers, torsion: HFPlusResult(dec(towers, torsion)),
    st.lists(half_gradings, max_size=3),
    st.lists(st.tuples(half_gradings, st.integers(1, 3)), max_size=8),
)


@settings(deadline=None, max_examples=80)
@given(plus_results, plus_results)
def test_counted_sums_equal_expanded_kunneth(r1, r2):
    total = connected_sum_floer(r1, r2).decomposition
    assert total == expanded_kunneth(r1, r2)
    assert total.torsion_rank_table() == expanded_rank_table(total)
    for r in (r1, r2):
        assert r.hf_red() == expanded_rank_table(r.decomposition)


def test_repeated_summands_are_counted_once():
    d = dec([F(0)], [(F(1), 2), (F(-1), 1), (F(1), 2)])
    assert d.torsion == ((F(1), 2, 2), (F(-1), 1, 1))
    assert d == dec([F(0)], [(F(-1), 1), (F(1), 2), (F(1), 2)])
    assert d.to_json()["torsion"] == [{"grading": "-1", "length": 1}] + [{"grading": "1", "length": 2}] * 2


# --- exact triangle forcing ----------------------------------------------------


def test_triangle_negative_rank_pattern_forces_zero():
    n = 3
    modules = [{F(0): 2 * n}, {F(0): 4 * n}, {F(0): 6 * n}]
    force = exact_triangle_force(modules)
    assert force.ranks == (0, 4 * n, 2 * n)
    assert force.verdict(0) == FORCED_ZERO


def test_triangle_all_zero_modules():
    force = exact_triangle_force([{}, {}, {}])
    assert force.ranks == (0, 0, 0)
    assert force.verdicts == (FORCED_ZERO,) * 3


def test_triangle_positive_clasp_data_forces_top_injectivity():
    ks = [F(1), F(0)]
    mod1 = {}
    for k in ks:
        mod1[k] = mod1.get(k, 0) + 1
        mod1[k - 1] = mod1.get(k - 1, 0) + 1
    mod2 = {}
    for k in ks:
        mod2[k - F(1, 2)] = mod2.get(k - F(1, 2), 0) + 2
        mod2[k - F(3, 2)] = mod2.get(k - F(3, 2), 0) + 2
    force = exact_triangle_force([mod1, mod2, dict(mod2)])
    assert force.verdict(0) == FORCED_INJECTIVE_TOP


def test_triangle_inconsistent_ranks_rejected():
    with pytest.raises(InconsistentTriangle):
        exact_triangle_force([{F(0): 1}, {}, {}])


@given(st.integers(-6, 6), st.integers(1, 4))
def test_triangle_verdicts_translation_invariant(num, den):
    shift = F(num, den)
    ks = [F(2), F(0)]
    mod1 = {k: 1 for k in ks}
    mod1.update({k - 1: 1 for k in ks})
    mod2 = {k - F(1, 2): 2 for k in ks}
    mod2.update({k - F(3, 2): 2 for k in ks})
    mods = [mod1, mod2, dict(mod2)]
    shifted = [{g + shift: r for g, r in m.items()} for m in mods]
    base = exact_triangle_force(mods)
    moved = exact_triangle_force(shifted)
    assert base.verdicts == moved.verdicts
    assert base.ranks == moved.ranks


def test_pm_one_framings_on_mirror_staircase():
    # Duality regression: the mirror staircase's +-1 framings are the
    # orientation reverses of the staircase's -+1 framings, so the
    # d-invariants negate and reduced gradings reflect through g -> -g - 1.
    plus = surgery_hf(staircase_torus(3, "-"), 1)
    assert plus.decomposition == dec([F(0)], [(F(0), 1)])
    minus = surgery_hf(staircase_torus(3, "-"), -1)
    assert minus.decomposition == dec([F(2)])
