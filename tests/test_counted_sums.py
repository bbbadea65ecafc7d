"""Connected sums with a counted factor (a double of ``box_tower``).

Such a sum stays counted: its split is built from the factors' splits and
its flat form is never written.  Surgery at -1, 0 and +1, the hat table and
tau and genus equal those of the flat sum of the same factors written out
(``complexes.flat_tower``), in either factor order, also for a factor that
is one summand not starting at grading 0; the counted sum written
out has the split it holds.  A sum 64 doubles deep is surgered at once.  An
invalid flat factor is refused with the flat sum's words, a flat factor
without a flip gives the flat sum, and the reduced basis form of a tower
too deep to list is refused in one line.

The module runs as users run the program, under ``pytest --noconftest``.
"""

import time
from fractions import Fraction

import pytest

from complexes import flat_tower, split_contents, unsplit
from floerforge import cfk
from floerforge.cfk import (
    KnotComplex,
    _CountedComplex,
    _expanded,
    _shapes,
    _summands,
    box,
    connected_sum_knots,
    figure8,
    hfk_hat,
    j_in_y,
    jprime_in_yprime,
    k_n,
    knot_numerics,
    reduced_basis_form,
    staircase_torus,
)
from floerforge.corpus import load_complex
from floerforge.fualgebra import FUDecomposition, FreeComplex, InvalidComplex
from floerforge.surgery import surgery_hf
from floerforge.whitehead import box_tower

F = Fraction



def last_first(kc):
    """``kc`` with its generators listed last first: one summand whose first generator is not at grading 0."""
    return KnotComplex(FreeComplex([(g, kc.maslov(g)) for g in reversed(kc.generators)], kc.base.differential),
                       kc.alexander, kc.flip, kc.ambient, kc.name)


FACTORS = {"J": j_in_y, "J'": jprime_in_yprime, "T(2,3)": lambda: staircase_torus(3), "figure8": figure8,
           "T(2,3) last first": lambda: last_first(staircase_torus(3))}


def written_out(kc):
    """Whether the flat form of ``kc`` is on it (``_CountedComplex.__getattr__`` not consulted)."""
    try:
        object.__getattribute__(kc, "base")
    except AttributeError:
        return False
    return True


@pytest.fixture
def nothing_written(monkeypatch):
    """Refuse to write out the flat form of any counted complex: at depth 64 it would not fit in memory."""
    def refuse(kc):
        raise AssertionError(f"{kc.name or 'a counted complex'} was written out")
    monkeypatch.setattr(cfk, "_expanded", refuse)


def both_orders(a, b):
    return [(a, b), (b, a)]


@pytest.mark.parametrize("signs", ["+", "-", "++", "--"])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("factor", sorted(FACTORS))
def test_a_counted_sum_answers_as_the_flat_sum(factor, n, signs):
    rb, other = reduced_basis_form(k_n(n)), FACTORS[factor]()
    flat = flat_tower(k_n(n), signs)[-1]
    for (k1, k2), (f1, f2) in zip(both_orders(other, box_tower(rb, signs)[-1]), both_orders(other, flat)):
        kc, reference = connected_sum_knots(k1, k2), connected_sum_knots(f1, f2)
        assert type(kc) is _CountedComplex and type(reference) is KnotComplex
        for framing in (-1, 0, 1):
            assert surgery_hf(kc, framing) == surgery_hf(reference, framing)
        assert hfk_hat(kc) == hfk_hat(reference)
        if other.ambient.is_sphere:
            assert knot_numerics(kc) == knot_numerics(reference)
        assert not written_out(kc) and kc.ambient == other.ambient and kc.name == f"{k1.name}#{k2.name}"
        assert split_contents(_summands(unsplit(_expanded(kc)))) == split_contents(_shapes(kc))


def test_a_sum_64_doubles_deep_is_surgered_from_its_counts(nothing_written):
    # J # Wh^64(K9) at -1: the towers of the ambient, and per box of the double
    # at corner k two F2 at k - 1/2 and two at k - 3/2 (the pattern of verify's
    # companion-sum rows); about 2^130 box copies, never written out.
    rb, times = reduced_basis_form(load_complex("k9")), []
    for _ in range(3):
        start = time.perf_counter()
        double = box_tower(rb, "+" * 64)[-1]
        kc = connected_sum_knots(j_in_y(), double)
        result = surgery_hf(kc, -1)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    corners = _shapes(double)[1][1]
    assert sum(c for _k, c in corners) > 2 ** 130
    torsion = {}
    for k, c in corners:
        for top in (k - F(1, 2), k - F(3, 2)):
            torsion[top, 1] = torsion.get((top, 1), 0) + 2 * c
    assert result.decomposition == FUDecomposition.make([F(1, 2), F(-1, 2)], torsion)
    assert not written_out(kc) and not written_out(double)


@pytest.mark.parametrize("side", ["left", "right"])
def test_an_invalid_flat_factor_is_refused_in_the_flat_sums_words(side):
    good = j_in_y()
    bad = KnotComplex(FreeComplex([(g, good.maslov(g)) for g in good.generators], {"a": {"b": 1}, "c": {"b": 1}}),
                      good.alexander, good.flip, good.ambient, "bad")
    double = box_tower(reduced_basis_form(k_n(3)), "+")[-1]
    messages = []
    for other in (double, unsplit(double)):
        with pytest.raises(InvalidComplex) as caught:
            connected_sum_knots(*((bad, other) if side == "left" else (other, bad)))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"invalid {side} tensor factor: entry a->U^1.b: grading")


def test_a_flat_factor_without_a_flip_gives_the_flat_sum():
    double = box_tower(reduced_basis_form(k_n(3)), "+")[-1]
    kc = connected_sum_knots(box(0, 1), double)
    assert type(kc) is KnotComplex and kc == connected_sum_knots(box(0, 1), unsplit(double))


def test_the_reduced_basis_form_of_a_tower_too_deep_to_list_is_refused(nothing_written):
    double = box_tower(reduced_basis_form(load_complex("k9")), "+" * 64)[-1]
    with pytest.raises(ValueError, match=r"^reduced basis form of \d+ pairs is too deep to list \(at most \d+\)$"):
        reduced_basis_form(double)


def test_a_sum_of_two_doubles_answers_as_the_flat_sum():
    plus, minus = box_tower(reduced_basis_form(k_n(3)), "+")[-1], box_tower(reduced_basis_form(k_n(5)), "-")[-1]
    kc, reference = connected_sum_knots(plus, minus), connected_sum_knots(unsplit(plus), unsplit(minus))
    assert type(kc) is _CountedComplex
    for framing in (-1, 0, 1):
        assert surgery_hf(kc, framing) == surgery_hf(reference, framing)
    assert hfk_hat(kc) == hfk_hat(reference) and knot_numerics(kc) == knot_numerics(reference)
    assert split_contents(_summands(unsplit(_expanded(kc)))) == split_contents(_shapes(kc))
