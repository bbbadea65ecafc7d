"""The tier-1 suite re-checks what the package builds for itself, which the
program takes as built: every cone ``surgery._minimal_cone`` receives must
pass ``complexes.cone_check`` and carry its base's rows, and every minimal
cone it hands to ``fualgebra._homology`` must have d^2 = 0 and each power
its gradings give; every complex handed to ``FreeComplex._built``
or ``KnotComplex._built`` must come out of ``__init__`` the same, types
included; and every summand split handed to ``KnotComplex._built`` must be
the one ``cfk._summands`` takes of the complex.  Each counted complex
(``cfk._CountedComplex``) of at most ``EXPANDED_UP_TO`` generators is also
written out once as it is made, through ``KnotComplex._built``, so its flat
form and its split meet both checks; the complex itself stays counted, and
a deeper one is checked when a caller writes it out.  ``validate_knot``, wherever
it is imported, also holds each shape key a representative carries to the
key of the representative itself, runs the checks it skips on a shape
certified by its key, which must pass them, and hands over for any other
shape the rows of its base.  The per-process cache of
normal-form cones (``surgery._NORMAL_FORM_CONES``) is emptied before each
test, so a test that counts or patches cones sees its own.

``complexes.unchecked`` takes these re-checks off for one test;
``pytest --noconftest`` runs a module without them, as users run the program.
"""

import functools
import sys

import pytest

import complexes
from complexes import holders, positional_complex, split_contents
from floerforge import surgery
from floerforge.cfk import (
    KnotComplex,
    _CountedComplex,
    _expanded,
    _flip_chain_map_violations,
    _layout,
    _normal_forms,
    _shape_key,
    _shapes,
    _summand_violations,
    _summands,
    validate_knot,
)
from floerforge.fualgebra import FreeComplex, _id_rows, validate_complex


def base_rows(c):
    """The ``(ids, sets)`` of ``fualgebra._id_rows`` of the complex ``c``."""
    return (ids := {g: i for i, g in enumerate(c.generators)}), _id_rows(c, ids)[0]


def checked_cone(minimal_cone):
    @functools.wraps(minimal_cone)
    def check(sc):
        complexes.cone_check(sc).require("surgery cone")
        if sc.rows != base_rows(sc.base):
            raise AssertionError("a shape cone carries rows that are not those of its base")
        cone = minimal_cone(sc)
        validate_complex(positional_complex(*cone)).require("minimal cone")
        return cone
    return check


def compared_complex(built):
    @functools.wraps(built)
    def compare(cls, maslov, differential):
        c, full = built(cls, maslov, differential), cls(maslov.items(), differential)
        if repr((c.maslov, c.differential)) != repr((full.maslov, full.differential)):  # tells 1 from Fraction(1), True
            raise AssertionError("a package-built complex differs from its copy through __init__")
        return c
    return compare


def compared_knot(built):
    @functools.wraps(built)
    def compare(cls, base, alexander, flip, ambient, name="", split=None):
        kc, full = built(cls, base, alexander, flip, ambient, name, split), cls(base, alexander, flip, ambient, name)
        if repr((kc.alexander, kc.flip)) != repr((full.alexander, full.flip)):
            raise AssertionError("a package-built knot complex differs from its copy through __init__")
        if split is not None and split_contents(split) != split_contents(_summands(full)):
            raise AssertionError("a handed-over split differs from the split of its complex")
        return kc
    return compare


EXPANDED_UP_TO = 1_281  # generators: Wh^2(K9); the end invariants' towers go far deeper


def expanded_counted(init):
    @functools.wraps(init)
    def expand(kc, split, *args):
        init(kc, split, *args)
        if sum(len(rep.generators) * count for rep, copies in split for _offset, count in copies) <= EXPANDED_UP_TO:
            _expanded(kc)  # a flat twin through KnotComplex._built, which compares it; kc stays counted
    return expand


def strict_validation(validate):
    @functools.wraps(validate)
    def check(kc):
        report = validate(kc)
        for (rep, _copies), rows in zip(_shapes(kc), report.checked, strict=True):
            if rep._key is not None and rep._key != _shape_key(_layout(rep), range(len(rep.generators))):
                raise AssertionError("a representative carries a shape key that is not its own")
            certified = rep._key in _normal_forms()
            if certified:
                violations, chain_map, _rows = _summand_violations(rep)
                if violations or not chain_map or _flip_chain_map_violations(rep):
                    raise AssertionError("a shape certified by its key fails the checks it skipped")
            if rows != (None if certified else base_rows(rep.base)):  # a certified shape builds none
                raise AssertionError("validation hands over rows that are not those of its shape")
        return report
    return check


@pytest.fixture(autouse=True, scope="session")
def suite_checks():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "_minimal_cone", checked_cone(surgery._minimal_cone))
        mp.setattr(FreeComplex, "_built", classmethod(compared_complex(FreeComplex._built.__func__)))
        mp.setattr(KnotComplex, "_built", classmethod(compared_knot(KnotComplex._built.__func__)))
        mp.setattr(_CountedComplex, "__init__", expanded_counted(_CountedComplex.__init__))
        strict = strict_validation(validate_knot)
        for module in holders(sys.modules.values(), "validate_knot", validate_knot):
            mp.setattr(module, "validate_knot", strict)
        yield


@pytest.fixture(autouse=True)
def fresh_normal_form_cones():
    surgery._NORMAL_FORM_CONES.clear()
