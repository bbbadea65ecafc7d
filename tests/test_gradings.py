"""Half-integral and other non-integral gradings on the package's integer paths.

The checks and sums below run on machine integers (each grading times a
common denominator) and make a public ``Fraction`` once per distinct value.
These tests hold that a shift of every grading by 1/2 or 1/3 changes no
verdict and moves every answer by the shift, that two half-integral tensor
factors give ``int`` gradings, that mixed denominators are checked on their
least common multiple, and that every violation names the public grading.
"""

from collections import Counter
from fractions import Fraction

import pytest

from floerforge import cli, verify
from floerforge.cfk import (
    builtin,
    connected_sum_knots,
    figure8,
    hfk_hat,
    k_n,
    reduced_basis_form,
    staircase_torus,
    unknot,
)
from floerforge.corpus import canonical_json, corpus_dir, load_complex
from floerforge.endfloer import (
    CH_PLUS,
    ExhaustionSpec,
    Level,
    SliceR4Spec,
    StepDescriptor,
    _normalized,
    _resolve_piece,
    colimit,
    he_slice_r4,
)
from floerforge.fualgebra import FreeComplex, FUDecomposition, _tensor, homology_decomposition, validate_complex
from floerforge.surgery import (
    FORCED_INJECTIVE_TOP,
    FORCED_ZERO,
    HFPlusResult,
    InconsistentTriangle,
    connected_sum_floer,
    exact_triangle_force,
    one_handle_stabilize,
    surgery_hf,
)
from floerforge.truncation import expected_truncated_dimensions, truncated_graded_dimensions
from floerforge.whitehead import box_tower, negative_double_cfk

F = Fraction
SHIFTS = [F(1, 2), F(1, 3)]


def property_builders() -> dict:
    """The eight builders whose pairwise tensors the reproduction row 7.valid checks."""
    return {
        "unknot": unknot(),
        "figure8": figure8(),
        "t2_3": staircase_torus(3, "+"),
        "t2_5": staircase_torus(5, "+"),
        "j_in_y": builtin("J_in_Y"),
        "jprime": builtin("Jprime_in_Yprime"),
        "k3": k_n(3),
        "wh_k3": box_tower(reduced_basis_form(k_n(3)), "+")[0],
    }


def bases() -> dict:
    """The base complex of every corpus entry and of every 7.valid builder."""
    found = {f"corpus {path.stem}": load_complex(path.stem).base for path in sorted(corpus_dir().glob("*.json"))}
    return {**found, **{name: kc.base for name, kc in property_builders().items()}}


def with_row(c: FreeComplex, src: str, row: dict, extra=()) -> FreeComplex:
    """``c`` with the row of ``src`` replaced by ``row`` and the generators ``extra`` appended."""
    return FreeComplex([*c.maslov.items(), *extra], {**c.differential, src: row})


def mutations(c: FreeComplex) -> dict:
    """``c`` broken four ways: a wrong power, a negative power, an unknown end, an extra d^2 entry."""
    first, out = c.generators[0], {}
    if c.differential:
        src, tgt, p = min(c.entries())
        out["wrong power"] = with_row(c, src, {**c.differential[src], tgt: p + 1})
        out["negative power"] = with_row(c, src, {**c.differential[src], tgt: -1})
    out["unknown end"] = with_row(c, first, {**c.differential.get(first, {}), "+ghost": 0})
    m = c.maslov[first]  # +u -> +w -> first, each U^0: d^2(+u) = first
    out["extra d^2 entry"] = with_row(with_row(c, "+u", {"+w": 0}, [("+u", m + 2), ("+w", m + 1)]), "+w", {first: 0})
    return out


KINDS = ("unknown", "negative U-power", "is not degree -1", "d^2 from")


def verdict(c: FreeComplex):
    """Whether ``c`` is valid, and the kinds of its violations, counted."""
    report = validate_complex(c)
    return report.ok, Counter(next(kind for kind in KINDS if kind in v) for v in report.violations)


@pytest.mark.parametrize("h", SHIFTS, ids=str)
def test_a_shift_keeps_every_verdict(h):
    for name, c in bases().items():
        assert verdict(c) == verdict(c.shift(h)) == (True, Counter()), name
        for how, broken in mutations(c).items():
            found = verdict(broken)
            assert not found[0], (name, how)
            assert verdict(broken.shift(h)) == found, (name, how)


def tensor_factors() -> list:
    builders = property_builders()
    return [builders[name].base for name in ("unknot", "figure8", "t2_5", "j_in_y", "jprime", "wh_k3")]


def typed(c: FreeComplex):
    return c.generators, [(type(m), m) for m in c.maslov.values()], c.differential


@pytest.mark.parametrize("h", SHIFTS, ids=str)
def test_tensor_commutes_with_a_shift(h):
    for a in tensor_factors():
        for b in tensor_factors():
            assert typed(_tensor(a.shift(h), b)) == typed(_tensor(a, b).shift(h))
            assert typed(_tensor(a, b.shift(h))) == typed(_tensor(a, b).shift(h))


def test_two_half_integral_factors_give_int_gradings():
    j, jp, f8 = (builtin("J_in_Y").base, builtin("Jprime_in_Yprime").base, figure8().base.shift(F(1, 2)))
    for a, b in ((j, j), (j, jp), (jp, jp), (f8, j), (jp, f8)):
        c = _tensor(a, b)
        assert all(type(m) is int for m in c.maslov.values())
        assert c.maslov == {f"({x}|{y})": a.maslov[x] + b.maslov[y] for x in a.generators for y in b.generators}
        assert validate_complex(c).ok


def thirds_and_halves(lead=()) -> list:
    """A half-integral pair a -> b and a pair x -> y at thirds, behind the generators ``lead``."""
    return [*lead, ("a", F(1, 2)), ("b", F(-1, 2)), ("x", F(1, 3)), ("y", F(-2, 3)), ("z", F(-5, 3))]


@pytest.mark.parametrize("lead", [(), (("o", 0),)], ids=["first at 1/2", "first at 0"])
def test_denominators_two_and_three_are_checked_on_sixths(lead):
    gens = thirds_and_halves(lead)
    assert validate_complex(FreeComplex(gens, {"a": {"b": 0}, "x": {"y": 0}})).ok
    assert validate_complex(FreeComplex(gens, {"a": {"b": 0}, "x": {"y": 0}, "y": {"z": 0}})).violations == (
        "d^2 from x to z has surviving powers [0]",)
    report = validate_complex(FreeComplex(gens, {"a": {"y": 0, "b": 0}, "x": {"y": 1}}))
    assert report.violations == ("entry a->U^0.y: grading 1/2 -> -2/3 is not degree -1",
                                 "entry x->U^1.y: grading 1/3 -> -8/3 is not degree -1")


def decompositions() -> list:
    """Decompositions with towers and torsion at integral, half-integral and mixed gradings."""
    wh = box_tower(reduced_basis_form(k_n(3)), "+")[0]
    made = [surgery_hf(kc, n).decomposition for kc in (load_complex("k9"), wh, builtin("J_in_Y")) for n in (-1, 0, 1)]
    made.append(homology_decomposition(builtin("Jprime_in_Yprime").base))
    made.append(FUDecomposition.make([F(1, 2), F(1, 3), F(0)], [(F(1, 2), 3), (F(1, 3), 2), (F(0), 1), (F(1, 2), 3)]))
    return made


def moved(dec: FUDecomposition, h) -> FUDecomposition:
    return FUDecomposition.make([t + h for t in dec.towers], {(g + h, k): c for g, k, c in dec.torsion})


def fractions_only(dec: FUDecomposition) -> bool:
    return all(type(g) is Fraction for g in (*dec.towers, *(g for g, _k, _c in dec.torsion)))


def up(table: dict, h) -> dict:
    """``table`` with every grading key moved up by ``h``."""
    return {g + h: d for g, d in table.items()}


@pytest.mark.parametrize("h", SHIFTS, ids=str)
def test_rank_tables_commute_with_a_shift(h):
    for dec in decompositions():
        table = moved(dec, h).torsion_rank_table()
        assert table == up(dec.torsion_rank_table(), h) == HFPlusResult(moved(dec, h)).hf_red()
        assert all(type(g) is Fraction for g in table)
        for cutoff in (1, 2, 5):
            assert expected_truncated_dimensions(moved(dec, h), cutoff) == up(expected_truncated_dimensions(dec, cutoff), h)


@pytest.mark.parametrize("h", SHIFTS, ids=str)
def test_truncated_dimensions_commute_with_a_shift(h):
    for name, kc in property_builders().items():
        c = kc.base  # cut past every power, as row 7.truncation cuts
        cutoff = len(c.generators) + max([p for _, _, p in c.entries()], default=0) + 1
        found = truncated_graded_dimensions(c, cutoff)
        assert truncated_graded_dimensions(c.shift(h), cutoff) == up(found, h), name
        assert found == expected_truncated_dimensions(homology_decomposition(c), cutoff), name


def explicit_system(h, b1: int) -> ExhaustionSpec:
    """Four levels at 0, 2 and -1/2 moved up by ``h``, joined by explicit steps (kept at the source gradings)."""
    table = {F(0) + h: 2, F(2) + h: 1, F(-1, 2) + h: 2}
    keep = StepDescriptor("explicit", {F(0) + h: [0b01, 0b10], F(2) + h: [1], F(-1, 2) + h: [0b01, 0]})
    return ExhaustionSpec(tuple(Level(b1, table) for _ in range(4)), (keep,) * 3)


def clasped(tables, b1: int) -> ExhaustionSpec:
    """The positively clasped system of the level ``tables``."""
    return ExhaustionSpec(tuple(Level(b1, t) for t in tables), (StepDescriptor("positive_clasp"),) * (len(tables) - 1))


def clasped_system(h, b1: int) -> ExhaustionSpec:
    """The level system of K3's positive doubling tower, its tables moved up by ``h``."""
    return clasped([up(r.hf_red(), h) for r in _resolve_piece(SliceR4Spec(k_n(3), CH_PLUS), 3)[1]], b1)


@pytest.mark.parametrize("h", SHIFTS, ids=str)
@pytest.mark.parametrize("b1", [0, 1, 2, 3])
def test_level_tables_commute_with_a_shift(h, b1):
    for system in (explicit_system, clasped_system):
        spec, shifted = system(F(0), b1), system(h, b1)
        (q, tables), (moved_q, moved_tables) = _normalized(spec), _normalized(shifted)
        for table, moved in zip(tables, moved_tables, strict=True):
            assert {F(x, moved_q): r for x, r in moved.items()} == up({F(x, q): r for x, r in table.items()}, h)
        report, moved_report = colimit(spec), colimit(shifted)
        assert moved_report.per_grading == tuple((g + h, e) for g, e in report.per_grading)
        assert moved_report.max_nontrivial_grading == report.max_nontrivial_grading + h
        assert all(type(g) is Fraction for g, _e in moved_report.per_grading)


def forced(tables):
    """The ranks and verdicts of the triangle of ``tables``, or the message that it admits none."""
    try:
        return exact_triangle_force(tables)
    except InconsistentTriangle as e:
        return str(e)


@pytest.mark.parametrize("h", SHIFTS, ids=str)
def test_triangle_forcing_commutes_with_a_shift(h):
    # Row 4's positive triangles for Wh(K3) and Wh(K5), its negative one for Wh(K3), and a triple that is none.
    ctx, decs = verify._Context(), decompositions()
    k = ctx.wh_tower(3)[0]
    negative = [one_handle_stabilize(surgery_hf(k, 0)), surgery_hf(negative_double_cfk(reduced_basis_form(k)), 0),
                surgery_hf(connected_sum_knots(builtin("Jprime_in_Yprime"), k), -1)]
    triples = [[d.torsion_rank_table() for d in ctx.chain_outputs(n)] for n in (3, 5)]
    triples += [[r.hf_red() for r in negative], [d.torsion_rank_table() for d in decs[:3]]]
    assert [forced(t).verdict(0) for t in triples[:3]] == [FORCED_INJECTIVE_TOP, FORCED_INJECTIVE_TOP, FORCED_ZERO]
    for tables in triples:
        assert forced([up(t, h) for t in tables]) == forced(tables)


def fractions_built(monkeypatch, call) -> int:
    """The number of ``Fraction``s a second call of ``call`` makes."""
    call()
    built, new = [], Fraction.__new__
    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        call()
    return len(built)


def test_warm_calls_build_no_fraction(monkeypatch):
    # A public grading is made once per distinct value and process: a warm
    # call adds, hashes and compares ints only.
    k3, k9, piece = k_n(3), k_n(9), SliceR4Spec(k_n(5), CH_PLUS)
    levels = _resolve_piece(piece, 3)[1]
    h, chain, decs = homology_decomposition(k3.base), verify._Context().chain_outputs(3), decompositions()
    cutoff = len(k3.base.generators) + 1
    assert fractions_built(monkeypatch, lambda: F(1, 2)) == 1  # the count sees construction
    calls = {
        "hfk_hat": lambda: hfk_hat(k9),
        "he_slice_r4": lambda: he_slice_r4(piece),
        "colimit": lambda: colimit(clasped([r.hf_red() for r in levels], 1)),
        "truncation": lambda: (truncated_graded_dimensions(k3.base, cutoff), expected_truncated_dimensions(h, cutoff)),
        "triangle": lambda: exact_triangle_force([d.torsion_rank_table() for d in chain]),
        "torsion_rank_table": lambda: [d.torsion_rank_table() for d in decs],
    }
    assert {name: fractions_built(monkeypatch, call) for name, call in calls.items()} == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("h", SHIFTS, ids=str)
def test_connected_sums_commute_with_a_shift(h):
    decs = decompositions()
    for d1 in decs:
        for d2 in decs[::3]:
            summed = connected_sum_floer(HFPlusResult(d1), HFPlusResult(d2)).decomposition
            assert fractions_only(summed)
            assert connected_sum_floer(HFPlusResult(moved(d1, h)), HFPlusResult(d2)).decomposition == moved(summed, h)
            assert connected_sum_floer(HFPlusResult(d1), HFPlusResult(moved(d2, h))).decomposition == moved(summed, h)


def test_a_half_integral_square_names_the_power_its_gradings_give():
    c = FreeComplex([("u", F(5, 2)), ("w", F(7, 2)), ("t", F(5, 2))], {"u": {"w": 1}, "w": {"t": 0}})
    assert validate_complex(c).violations == ("d^2 from u to t has surviving powers [1]",)


@pytest.mark.parametrize("command", [["cfk"], ["surgery", "--n", "0"]])
def test_a_half_integral_file_with_a_wrong_degree_entry_is_one_line(capsys, tmp_path, command):
    data = load_complex("j_in_y").to_json()
    data["differential"][0]["upower"] = 1  # a -> U b, from 1/2 to -5/2
    path = tmp_path / "j_bad.json"
    path.write_text(canonical_json(data), encoding="utf-8")
    assert cli.main([command[0], "--complex", str(path), *command[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: invalid complex: entry a->U^1.b: grading 1/2 -> -5/2 is not degree -1\n"


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_warm_surgery_gives_the_same_public_gradings(n):
    wh3 = box_tower(reduced_basis_form(load_complex("k9")), "+++")[-1]
    first, second = surgery_hf(wh3, n), surgery_hf(wh3, n)
    assert first == second
    for result in (first, second):
        assert fractions_only(result.decomposition)
        assert all(type(g) is Fraction for g in (*result.d_invariants, *result.hf_red()))
    assert canonical_json(first.to_json()) == canonical_json(second.to_json())
