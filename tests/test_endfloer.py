import functools
import itertools
import random
from fractions import Fraction

import pytest

from floerforge import cfk, endfloer
from floerforge.cfk import k_n, mirror_knot, reduced_basis_form, staircase_torus, unknot
from floerforge.corpus import corpus_builders, load_complex
from floerforge.endfloer import (
    CH_MINUS,
    CH_PLUS,
    CH_STAR,
    CassonHandle,
    ExhaustionSpec,
    INFINITE,
    InconsistentProductEnd,
    Level,
    RankEntry,
    SliceR4Spec,
    StepDescriptor,
    _resolve_piece,
    colimit,
    distinguish,
    he_end_sum,
    he_product_end,
    he_slice_r4,
    normalize_level,
    restrict_spec,
    s1xs2_data,
    s3_data,
)
from floerforge.fualgebra import FreeComplex, InvalidComplex
from floerforge.whitehead import whitehead_double_cfk

F = Fraction


def r_spec(n, handle=CH_PLUS, **kw):
    return SliceR4Spec(k_n(n), handle, **kw)


# --- normalisation and shifts ---------------------------------------------------


def test_normalize_level_b1_zero_is_identity():
    table = {F(1): 2, F(-1, 2): 1}
    assert normalize_level(table, 0) == table


def test_normalize_level_examples():
    assert normalize_level({F(1, 2): 1}, 1) == {F(0): 1}
    n = 7
    assert normalize_level({F(n) - F(5, 2): 2}, 1) == {F(n) - 3: 2}


# --- colimits ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["iso", "negative_clasp", "bogus"])
def test_step_descriptor_rejects_unbuilt_kinds(kind):
    with pytest.raises(ValueError, match="unknown step kind"):
        StepDescriptor(kind=kind)


def make_levels(tables, b1=0):
    return tuple(Level(b1=b1, module=t, label=f"L{i}") for i, t in enumerate(tables))


def test_colimit_all_zero_steps_vanishes():
    table = {F(0): 3}
    spec = ExhaustionSpec(
        levels=make_levels([table, table, table]),
        steps=(StepDescriptor(kind="zero"), StepDescriptor(kind="zero")),
    )
    report = colimit(spec)
    assert report.vanishes is True
    assert report.per_grading == ()
    assert report.max_nontrivial_grading is None


def test_colimit_positive_clasp_tower():
    tables = [{F(1): 2, F(0): 1}, {F(1): 4, F(0): 3}, {F(1): 8, F(-2): 1}]
    spec = ExhaustionSpec(
        levels=make_levels(tables),
        steps=(StepDescriptor(kind="positive_clasp"),) * 2,
    )
    report = colimit(spec)
    assert report.entry(F(1)).rank is INFINITE
    assert report.entry(F(1)).tag == "exact"
    assert report.entry(F(-2)) == RankEntry(0, "lower_bound")
    assert report.max_nontrivial_grading == F(1)


def test_colimit_explicit_stabilized_image():
    # One class dies immediately; the other persists.
    table = {F(0): 2}
    keep_one = StepDescriptor(kind="explicit", matrix={F(0): [0b01, 0]})
    spec = ExhaustionSpec(
        levels=make_levels([table, table, table, table]),
        steps=(keep_one,) * 3,
    )
    report = colimit(spec)
    assert report.entry(F(0)) == RankEntry(1, "exact")


def test_colimit_non_stabilizing_reported_undetermined():
    # Nilpotent step: ranks keep dropping inside the window.
    table = {F(0): 2}
    shift_down = StepDescriptor(kind="explicit", matrix={F(0): [0, 0b01]})
    spec = ExhaustionSpec(
        levels=make_levels([table, table, table]),
        steps=(shift_down,) * 2,
    )
    report = colimit(spec)
    assert report.vanishes is None


def random_explicit_spec(rng, levels=6):
    gradings = [F(0), F(2), F(-1, 2)]
    dims = {g: rng.randint(1, 3) for g in gradings}
    table = dict(dims)

    def random_matrix():
        return {
            g: [rng.getrandbits(dims[g]) for _ in range(dims[g])] for g in gradings
        }

    def projection():
        return {
            g: [
                (1 << i) if rng.random() < 0.7 else 0
                for i in range(dims[g])
            ]
            for g in gradings
        }

    steps = [
        StepDescriptor(kind="explicit", matrix=random_matrix()),
        StepDescriptor(kind="explicit", matrix=random_matrix()),
    ]
    proj = projection()
    steps += [
        StepDescriptor(kind="explicit", matrix=proj)
        for _ in range(levels - 3)
    ]
    return ExhaustionSpec(levels=make_levels([table] * levels), steps=tuple(steps))


@pytest.mark.parametrize("seed", [11, 23, 87])
def test_colimit_subsequence_invariance(seed):
    rng = random.Random(seed)
    spec = random_explicit_spec(rng)
    full = colimit(spec)
    for indices in ([0, 2, 4, 5], [1, 3, 4, 5], [0, 3, 4, 5]):
        restricted = colimit(restrict_spec(spec, indices))
        assert restricted.table() == full.table()
        assert restricted.vanishes == full.vanishes


# --- slice pieces ------------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(3, F(0)), (5, F(2))])
def test_he_slice_positive_max_grading(n, expected):
    report = he_slice_r4(r_spec(n))
    assert report.vanishes is False
    assert report.max_nontrivial_grading == expected
    assert report.entry(expected).rank is INFINITE
    assert report.entry(expected).tag == "exact"


def test_he_slice_per_level_top_rank_doubles():
    results = _resolve_piece(r_spec(3), 3)[1]
    tops = []
    for r in results:
        table = r.hf_red()
        tops.append(table[max(table)])
    assert tops == [tops[0], 2 * tops[0], 4 * tops[0]]


def test_he_slice_lower_bounds_below_top():
    report = he_slice_r4(r_spec(3))
    for g, entry in report.per_grading:
        if g != report.max_nontrivial_grading:
            assert entry.tag == "lower_bound"


def test_he_slice_negative_chain_vanishes():
    report = he_slice_r4(r_spec(3, CH_MINUS))
    assert report.vanishes is True


def test_he_slice_orientation_reversal_vanishes():
    report = he_slice_r4(r_spec(3, orientation="-"))
    assert report.vanishes is True


def test_he_slice_trivial_knot_standard():
    report = he_slice_r4(SliceR4Spec(unknot(), CH_PLUS))
    assert report.vanishes is True


def test_he_slice_rejects_nonzero_tau():
    # The doubling pipeline needs tau = 0.
    with pytest.raises(ValueError):
        he_slice_r4(SliceR4Spec(staircase_torus(3, "+"), CH_PLUS))


def test_he_slice_double_replacement_invariance():
    base = he_slice_r4(r_spec(3))
    doubled_knot = whitehead_double_cfk(reduced_basis_form(k_n(3)))
    again = he_slice_r4(SliceR4Spec(doubled_knot, CH_PLUS))
    assert base.max_nontrivial_grading == again.max_nontrivial_grading
    assert base.vanishes == again.vanishes


def test_he_slice_mixed_prefix_then_positive():
    handle = CassonHandle("finite_mixed_then_one_sign", signs=("+",), tail="+")
    report = he_slice_r4(SliceR4Spec(k_n(3), handle))
    # The prefix double has the same maximal reduced grading behaviour.
    assert report.vanishes is False
    assert report.max_nontrivial_grading == F(0)


def test_he_slice_mixed_prefix_then_negative():
    handle = CassonHandle("finite_mixed_then_one_sign", signs=("-",), tail="-")
    report = he_slice_r4(SliceR4Spec(k_n(3), handle))
    assert report.vanishes is True


def test_he_slice_branching_kinds():
    doubled = whitehead_double_cfk(reduced_basis_form(k_n(3)))
    pos_chain = he_slice_r4(SliceR4Spec(doubled, CassonHandle("has_infinite_positive_chain")))
    assert pos_chain.vanishes is False
    assert pos_chain.per_grading == ()
    star = he_slice_r4(SliceR4Spec(doubled, CH_STAR))
    assert star.vanishes is False
    star_rev = he_slice_r4(SliceR4Spec(doubled, CH_STAR, orientation="-"))
    assert star_rev.vanishes is False
    # The branching verdict needs a doubled knot.
    not_double = he_slice_r4(SliceR4Spec(k_n(3), CH_STAR))
    assert not_double.vanishes is None


def test_he_slice_undetermined_kind():
    report = he_slice_r4(SliceR4Spec(k_n(3), CassonHandle("undetermined")))
    assert report.vanishes is None


def test_handle_from_json_names_the_missing_kind():
    with pytest.raises(ValueError, match='^the handle has no "kind"$'):
        CassonHandle.from_json({"signs": ["+"], "tail": "-"})
    assert CassonHandle.from_json({"kind": "undetermined"}) == CassonHandle("undetermined")


def test_orientation_double_reversal_identity():
    spec = r_spec(3)
    once = he_slice_r4(spec.reversed())
    twice = he_slice_r4(spec.reversed().reversed())
    plain = he_slice_r4(spec)
    assert twice.to_json() == plain.to_json()
    assert once.vanishes is True


# --- end sums -----------------------------------------------------------------------


def test_end_sum_single_operand_identity():
    report = he_end_sum([r_spec(3)], levels=3)
    assert report.to_json() == he_slice_r4(r_spec(3), levels=3).to_json()


def test_end_sum_with_reversed_copy_vanishes():
    pair = [r_spec(3), r_spec(3, orientation="-")]
    assert he_end_sum(pair).vanishes is True
    assert he_end_sum([s.reversed() for s in pair]).vanishes is True


def test_end_sum_max_gradings_differ_by_gap():
    # Sums against a fixed piece: maxima differ by the gap of the others.
    ab = he_end_sum([r_spec(3), r_spec(5)])
    ac = he_end_sum([r_spec(3), r_spec(7)])
    assert ab.vanishes is False and ac.vanishes is False
    assert ac.max_nontrivial_grading - ab.max_nontrivial_grading == F(7 - 5)


MIXED_PLUS = CassonHandle("finite_mixed_then_one_sign", signs=("-",), tail="+")
MIXED_MINUS = CassonHandle("finite_mixed_then_one_sign", signs=("+",), tail="-")
END_SUM_PIECES = {  # name: (knot, handle, orientation); "wh3" is Wh(K3)
    "k3+": (3, CH_PLUS, "+"),
    "k5+": (5, CH_PLUS, "+"),
    "k5+rev": (5, CH_PLUS, "-"),
    "k3-": (3, CH_MINUS, "+"),
    "k5-rev": (5, CH_MINUS, "-"),
    "k3*": (3, CH_STAR, "+"),
    "wh3*": ("wh3", CH_STAR, "+"),
    "k5?": (5, CassonHandle("undetermined"), "+"),
    "k3mix+": (3, MIXED_PLUS, "+"),
    "k3mix+rev": (3, MIXED_PLUS, "-"),
    "k3mix-": (3, MIXED_MINUS, "+"),
    "k3mix-rev": (3, MIXED_MINUS, "-"),
}


@functools.lru_cache(maxsize=None)
def end_sum_piece(name):
    knot, handle, orientation = END_SUM_PIECES[name]
    kc = whitehead_double_cfk(reduced_basis_form(k_n(3))) if knot == "wh3" else k_n(knot)
    return SliceR4Spec(kc, handle, orientation)


@pytest.mark.parametrize("pair", list(itertools.combinations(END_SUM_PIECES, 2)), ids="+".join)
def test_end_sum_follows_its_operands(pair):
    # Each operand is resolved as he_slice_r4 resolves it; a nonvanishing
    # operand without levels (an infinite chain) leaves the sum undetermined.
    specs = [end_sum_piece(name) for name in pair]
    alone = [he_slice_r4(s, levels=2) for s in specs]
    report = he_end_sum(specs)
    if any(r.vanishes is None for r in alone):
        assert report.vanishes is None
    elif any(r.vanishes for r in alone):
        assert report.vanishes is True
    elif any(r.max_nontrivial_grading is None for r in alone):
        assert report.vanishes is None
    else:
        assert report.vanishes is False
        top = sum(r.max_nontrivial_grading for r in alone) + len(specs) - 1
        assert report.max_nontrivial_grading == top
        assert report.entry(top) == RankEntry(INFINITE)


def test_end_sum_needs_two_levels():
    with pytest.raises(ValueError, match="need at least two levels"):
        he_end_sum([r_spec(3), r_spec(5)], levels=1)


# --- one canonical reduction per piece ----------------------------------------------

S3_CORPUS = [name for name in sorted(corpus_builders()) if load_complex(name).ambient.is_sphere]
PIECE_HANDLES = [CH_PLUS, CH_MINUS, CH_STAR, CassonHandle("undetermined"), MIXED_PLUS]


def report_or_error(run, *args):
    try:
        return run(*args).to_json()
    except ValueError as exc:  # InvalidComplex and the domain errors
        return type(exc), str(exc)


@pytest.mark.parametrize("name", S3_CORPUS)
def test_reversed_piece_matches_the_mirrored_knot(name):
    # Orientation "-" reads the mirror off the pairing; the flat route mirrors
    # the complex and the handle and resolves at "+".
    knot, partner = load_complex(name), r_spec(3)
    for handle in PIECE_HANDLES:
        new, old = SliceR4Spec(knot, handle, "-"), SliceR4Spec(mirror_knot(knot), handle.mirror(), "+")
        for levels in (2, 3):
            assert report_or_error(he_slice_r4, new, levels) == report_or_error(he_slice_r4, old, levels)
            assert report_or_error(he_end_sum, [new, partner], levels) == \
                report_or_error(he_end_sum, [old, partner], levels)


@pytest.mark.parametrize("name", ["unknot", "figure8", "trefoil", "k9", "wh_k3"])
@pytest.mark.parametrize("orientation", "+-")
def test_resolve_piece_reduces_each_summand_shape_once(monkeypatch, name, orientation):
    reduced = []
    real = cfk._canonical
    monkeypatch.setattr(cfk, "_canonical", lambda kc, *rows: reduced.append(kc) or real(kc, *rows))
    for handle in PIECE_HANDLES:
        knot = load_complex(name)
        reduced.clear()
        try:
            _resolve_piece(SliceR4Spec(knot, handle, orientation), 2)
        except ValueError:  # tau != 0 under a positive chain or a doubling prefix
            pass
        assert list(map(id, reduced)) == [id(rep) for rep, _copies in knot._split]
        assert all(kc is not knot for kc in reduced)


def test_a_resolved_piece_is_kept_on_its_knot_and_its_knot_checked_at_every_call(monkeypatch):
    surgered, checked = [], []
    surgery_hf, validate_knot = endfloer.surgery_hf, endfloer.validate_knot
    monkeypatch.setattr(endfloer, "surgery_hf", lambda kc, n: surgered.append(n) or surgery_hf(kc, n))
    monkeypatch.setattr(endfloer, "validate_knot", lambda kc: checked.append(kc) or validate_knot(kc))
    spec = r_spec(3)
    first = _resolve_piece(spec, 3)
    assert _resolve_piece(SliceR4Spec(spec.knot, CH_PLUS, disk_label="exotic-disk"), 3) is first
    assert he_slice_r4(spec) == he_slice_r4(spec) == first[0] and type(first[1]) is tuple
    assert len(surgered) == 3 and len(checked) == 4
    _resolve_piece(spec, 2), _resolve_piece(spec.reversed(), 3)  # other levels and orientation: their own
    assert len(surgered) == 5 and set(spec.knot._pieces) == {(CH_PLUS, "+", 3), (CH_PLUS, "+", 2), (CH_PLUS, "-", 3)}


def test_a_piece_that_fails_is_not_kept_and_fails_at_every_call():
    knot = k_n(3)
    broken = cfk.KnotComplex(FreeComplex(((g, knot.maslov(g)) for g in knot.generators),
                                         {**knot.base.differential, knot.generators[0]: {knot.generators[1]: 7}}),
                             knot.alexander, knot.flip)
    for spec, error in [(SliceR4Spec(broken, CH_PLUS), InvalidComplex),
                        (SliceR4Spec(staircase_torus(3, "+"), CH_PLUS), ValueError)]:  # tau != 0
        messages = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                he_slice_r4(spec)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and not spec.knot._pieces


# --- product ends ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 7])
def test_product_end_sphere_consistency(n):
    report = he_product_end(s3_data(), r_spec(n), n)
    slice_report = he_slice_r4(r_spec(n))
    assert report.vanishes is False
    assert report.max_nontrivial_grading == slice_report.max_nontrivial_grading
    assert any("f(S3) = -2" in line for line in report.narrative)


def test_product_end_distinct_values():
    r5 = he_product_end(s3_data(), r_spec(5), 5)
    r7 = he_product_end(s3_data(), r_spec(7), 7)
    assert r5.max_nontrivial_grading != r7.max_nontrivial_grading


def test_product_end_circle_times_sphere():
    report = he_product_end(s1xs2_data(), r_spec(5), 5)
    assert report.vanishes is False
    assert report.max_nontrivial_grading == F(2)
    assert any("f(S1xS2) = -3/2" in line for line in report.narrative)


@pytest.mark.parametrize(
    "data, n, top, f",
    [(s3_data, 3, "0", "-2"), (s3_data, 5, "2", "-2"), (s3_data, 7, "4", "-2"),
     (s1xs2_data, 3, "0", "-3/2"), (s1xs2_data, 5, "2", "-3/2"), (s1xs2_data, 7, "4", "-3/2")],
    ids=["s3-3", "s3-5", "s3-7", "s1xs2-3", "s1xs2-5", "s1xs2-7"],
)
def test_product_end_reports_pinned(data, n, top, f):
    m = data()
    assert he_product_end(m, r_spec(n), n).to_json() == {
        "per_grading": {top: {"rank": "inf", "tag": "exact"}},
        "max_nontrivial_grading": top,
        "vanishes": False,
        "narrative": [f"f({m.name}) = {f} computed from the level sums",
                      "maximal grading n + f - 1 - b1/2 with infinite rank"],
    }


def test_product_end_trivial_knot_vanishes():
    report = he_product_end(s3_data(), SliceR4Spec(unknot(), CH_PLUS), 3)
    assert report.vanishes is True
    assert report.narrative == ("trivial knot: the summed end is standard",)


@pytest.mark.parametrize("spec", [r_spec(5, orientation="-"), r_spec(5, CH_MINUS), r_spec(5, CH_STAR)],
                         ids=["ch+-reversed", "ch-", "ch*"])
def test_product_end_needs_positive_chain(spec):
    with pytest.raises(ValueError, match="product ends are computed for positive-chain pieces"):
        he_product_end(s3_data(), spec, 5)


def test_product_end_reversed_negative_chain_is_positive():
    assert he_product_end(s3_data(), r_spec(5, CH_MINUS, orientation="-"), 5).vanishes is False


def test_product_end_tops_off_the_formula_raise_a_domain_error(monkeypatch):
    # Each summed level moved up by one: the tops still stabilise, but at
    # n + f - 1/2, and the final consistency check fires (exit 1 at the CLI).
    normalize = endfloer.normalize_level
    moved = lambda module, b1: {g + 1: r for g, r in normalize(module, b1).items()}
    monkeypatch.setattr(endfloer, "normalize_level", moved)
    with pytest.raises(InconsistentProductEnd, match=r"^normalised top 3 disagrees with n \+ f - 1 - b1/2$"):
        he_product_end(s3_data(), r_spec(5), 5)
    assert issubclass(InconsistentProductEnd, ValueError)


def test_product_end_needs_two_levels():
    with pytest.raises(ValueError, match="need at least two levels"):
        he_product_end(s3_data(), r_spec(5), 5, levels=0)


def test_product_end_small_n_undetermined():
    # A manifold with reduced content far above the tower's gradings.
    from floerforge.fualgebra import FUDecomposition
    from floerforge.surgery import HFPlusResult
    from floerforge.endfloer import ClosedManifoldData

    loud = ClosedManifoldData(
        HFPlusResult(FUDecomposition.make([F(0)], [(F(40), 1)])), b1=0, name="loud"
    )
    report = he_product_end(loud, r_spec(3), 3)
    assert report.vanishes is None
    assert any("dominance" in line for line in report.narrative)


# --- distinguishing --------------------------------------------------------------------


def test_distinguish_r3_r5_distinct():
    verdict = distinguish(r_spec(3), r_spec(5))
    assert verdict.distinct
    assert "0" in verdict.witness and "2" in verdict.witness


def test_distinguish_reduces_each_knot_once(monkeypatch):
    # A reversed piece keeps its knot, which keeps its canonical shapes.
    reduced = []
    real = cfk._canonical
    monkeypatch.setattr(cfk, "_canonical", lambda kc, *rows: reduced.append(len(kc.generators)) or real(kc, *rows))
    assert distinguish(r_spec(3), r_spec(5)).distinct
    assert reduced == [9, 25]


def test_distinguish_same_knot_different_disk_indistinguishable():
    verdict = distinguish(r_spec(3), r_spec(3, disk_label="exotic-disk"))
    assert not verdict.distinct
    assert "indistinguishable" in verdict.witness


def test_distinguish_sum_with_reversed_against_plain():
    verdict = distinguish([r_spec(3), r_spec(3, orientation="-")], r_spec(3))
    assert verdict.distinct


def test_distinguish_branching_before_plain():
    doubled = whitehead_double_cfk(reduced_basis_form(k_n(3)))
    star = SliceR4Spec(doubled, CH_STAR)
    verdict = distinguish(star, r_spec(3))
    assert verdict.distinct


def test_distinguish_undetermined_is_inconclusive():
    undet = SliceR4Spec(k_n(3), CassonHandle("undetermined"))
    verdict = distinguish(undet, r_spec(5))
    assert not verdict.distinct
    assert "undetermined" in verdict.witness


def test_report_json_shape():
    report = he_slice_r4(r_spec(3))
    data = report.to_json()
    assert data["vanishes"] is False
    assert data["max_nontrivial_grading"] == "0"
    assert data["per_grading"]["0"] == {"rank": "inf", "tag": "exact"}


def test_end_sum_three_fold_consistency():
    # Level sums chain associatively: the threefold maximum extends the
    # pairwise gap pattern (sum of single-piece maxima plus the number of
    # extra factors).
    triple = he_end_sum([r_spec(3), r_spec(3), r_spec(3)])
    single = he_slice_r4(r_spec(3)).max_nontrivial_grading
    assert triple.vanishes is False
    assert triple.max_nontrivial_grading == 3 * single + 2


# --- symbolic towers ---------------------------------------------------------------------


def test_positive_family_at_depth():
    # The paper's family: the positive piece on K_n has maximal grading n - 3.
    for n in range(3, 53, 2):
        report = he_slice_r4(r_spec(n), levels=8)
        assert (report.vanishes, report.max_nontrivial_grading) == (False, n - 3)
        assert report.entry(n - 3) == RankEntry(INFINITE)
