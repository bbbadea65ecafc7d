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

from fractions import Fraction

from .fualgebra import FUDecomposition, FreeComplex, U_DEGREE, graded_f2_dims


def truncated_graded_dimensions(c: FreeComplex, cutoff: int) -> dict[int | Fraction, int]:
    """Graded dims of H(c tensor F2[U]/U^cutoff), by row reduction over F2,
    keyed by the stored gradings (an ``int`` if integral)."""
    at = {g: i * cutoff for i, g in enumerate(c.generators)}  # U^p.g is basis vector at[g] + p
    degrees = [c.maslov[g] + U_DEGREE * p for g in c.generators for p in range(cutoff)]

    # Boundary of each basis vector as a bitmask over the full basis.
    bdry = []
    for g in c.generators:
        row = c.differential.get(g, {})
        for p in range(cutoff):
            mask = 0
            for tgt, q in row.items():
                if p + q < cutoff:
                    mask |= 1 << (at[tgt] + p + q)
            bdry.append(mask)
    return graded_f2_dims(degrees, bdry, lambda d: d + 1)


def expected_truncated_dimensions(h: FUDecomposition, cutoff: int) -> dict[Fraction, int]:
    """Graded dims that a decomposition predicts after tensoring with F2[U]/U^cutoff."""
    dims: dict[Fraction, int] = {}

    def add(g, n=1):
        dims[g] = dims.get(g, 0) + n

    for top in h.towers:
        for i in range(cutoff):
            add(top + U_DEGREE * i)
    for top, k, c in h.torsion:
        span = min(k, cutoff)
        for i in range(span):
            add(top + U_DEGREE * i, c)
        # Tor: kernel classes at the bottom of the truncated partner column.
        partner_top = top + 1 - 2 * k
        for p in range(max(cutoff - k, 0), cutoff):
            add(partner_top + U_DEGREE * p, c)
    return {g: n for g, n in dims.items() if n}
