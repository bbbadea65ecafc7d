"""The tier-1 suite re-checks what the package builds for itself, which the
program takes as built: every cone ``surgery._minimal_cone`` receives must
pass ``surgery._cone_check``, and every complex handed to
``FreeComplex._built`` must come out of ``FreeComplex.__init__`` the same,
types included.

``complexes.unchecked`` takes these re-checks off for one test;
``pytest --noconftest`` runs a module without them, as users run the program.
"""

import functools

import pytest

from floerforge import surgery
from floerforge.fualgebra import FreeComplex


def checked_cone(minimal_cone):
    @functools.wraps(minimal_cone)
    def check(sc):
        surgery._cone_check(sc).require("surgery cone")
        return minimal_cone(sc)
    return check


def compared_complex(built):
    @functools.wraps(built)
    def compare(cls, maslov, differential):
        c, full = built(cls, maslov, differential), cls(maslov.items(), differential)
        if repr((c.maslov, c.differential)) != repr((full.maslov, full.differential)):  # tells 1 from Fraction(1), True
            raise AssertionError("a package-built complex differs from its copy through __init__")
        return c
    return compare


@pytest.fixture(autouse=True, scope="session")
def suite_checks():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "_minimal_cone", checked_cone(surgery._minimal_cone))
        mp.setattr(FreeComplex, "_built", classmethod(compared_complex(FreeComplex._built.__func__)))
        yield
