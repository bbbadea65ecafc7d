"""Truncated-coefficient homology oracle.

An independent check on :func:`floerforge.fualgebra.homology_decomposition`:
tensor a free complex with F2[U]/U^N, run plain Gaussian elimination over
F2 in each grading, and compare the graded dimensions against what the
claimed tower/torsion decomposition predicts.  A free summand contributes
one dimension in each of its top N gradings; a torsion summand of length k
contributes k dimensions at its top (the module) and k more shifted by the
truncation (the Tor correction).  Torsion multisets are pinned down by
agreement at two consecutive cutoffs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .fualgebra import FUDecomposition, FreeComplex, U_DEGREE, _denominator, _stored, _times, graded_f2_dims


def truncated_graded_dimensions(c: FreeComplex, cutoff: int) -> dict[int | Fraction, int]:
    """Graded dims of H(c tensor F2[U]/U^cutoff), by row reduction over F2 on the gradings
    times their common denominator, keyed by the stored gradings (an ``int`` if integral)."""
    at = {g: i * cutoff for i, g in enumerate(c.generators)}  # U^p.g is basis vector at[g] + p
    q = _denominator(c.maslov.values())
    degrees = [x + U_DEGREE * q * p for x in (_times(c.maslov[g], q) for g in c.generators) for p in range(cutoff)]

    # Boundary of each basis vector as a bitmask over the full basis.
    bdry = []
    for g in c.generators:
        row = c.differential.get(g, {})
        for p in range(cutoff):
            mask = 0
            for tgt, u in row.items():
                if p + u < cutoff:
                    mask |= 1 << (at[tgt] + p + u)
            bdry.append(mask)
    return {_stored(x, q): d for x, d in graded_f2_dims(degrees, bdry, lambda x: x + q).items()}


def expected_truncated_dimensions(h: FUDecomposition, cutoff: int) -> dict[int | Fraction, int]:
    """Graded dims that a decomposition predicts after tensoring with F2[U]/U^cutoff, counted on
    the gradings times their common denominator and keyed as :func:`truncated_graded_dimensions`."""
    q, dims = _denominator(h._gradings()), Counter()
    step = U_DEGREE * q
    for top in h.towers:
        dims.update(range(x := _times(top, q), x + step * cutoff, step))
    for top, k, c in h.torsion:
        top = _times(top, q)
        for i in range(min(k, cutoff)):
            dims[top + step * i] += c
        # Tor: kernel classes at the bottom of the truncated partner column.
        partner_top = top + q * (1 - 2 * k)
        for p in range(max(cutoff - k, 0), cutoff):
            dims[partner_top + step * p] += c
    return {_stored(x, q): n for x, n in dims.items() if n}
