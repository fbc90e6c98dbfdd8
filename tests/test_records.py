"""Value semantics of the records the package returns: immutable, equal
and hash-equal by their fields, and shown as ``Name(field=value, ...)``."""

import re

import pytest

from toric_qh.cli import builtin_polytope
from toric_qh.f2ring import buchberger
from toric_qh.polytope import (
    Polytope,
    primitive_collection_data,
    validate_delzant,
)
from toric_qh.qh import (
    betti_crosscheck,
    build_ring,
    seidel_facet,
    uniruled_certificate,
)


def records():
    """One instance of each record type, by type name, with its fields."""
    p = builtin_polytope("blowup_cp3")
    report = validate_delzant(p)
    ring, pres = build_ring(p)
    recs = [
        (p, ("dim", "normals", "offsets")),
        (report.vertices[0], ("coords", "tight", "normal_det", "edge_dirs")),
        (primitive_collection_data(p)[0], ("indices", "batyrev", "m")),
        (report, ("ok", "reasons", "vertices")),
        (ring.gb, ("generators", "nvars")),
        (pres, ("space", "flavor", "nvars", "grading_unit",
                "linear_relations", "sr_relations")),
        (seidel_facet(ring, 1), ("element", "provenance")),
        (uniruled_certificate(ring), ("witness", "inverse",
                                      "fundamental_coefficient", "verdict",
                                      "reason")),
        (betti_crosscheck(p), ("betti", "hilbert")),
    ]
    return {type(rec).__name__: (rec, fields) for rec, fields in recs}


NAMES = ("Polytope", "Vertex", "PrimitiveCollection", "DelzantReport",
         "GroebnerBasis", "Presentation", "SeidelElement",
         "UniruledCertificate", "CrosscheckReport")


@pytest.mark.parametrize("name", NAMES)
def test_fields_reject_assignment(name):
    rec, fields = records()[name]
    for field in fields:
        before = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        assert getattr(rec, field) is before
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    rec, fields = records()[name]
    text = repr(rec)
    assert text.startswith(name + "(") and text.endswith(")")
    assert re.findall(r"\b(\w+)=", text)[:1] == [fields[0]]
    for field in fields:
        assert f"{field}={getattr(rec, field)!r}" in text


def test_polytope_equality_ignores_the_memo():
    p = builtin_polytope("blowup_cp3")
    q = Polytope(p.dim, p.normals, p.offsets)
    assert validate_delzant(p).ok  # fills p's memo only
    assert p._memo and not q._memo
    assert p == q and hash(p) == hash(q)
    assert p != Polytope(p.dim, p.normals, p.offsets[:-1] + (7,))
    assert "_memo" not in repr(p)


def test_groebner_basis_equality_ignores_divisors():
    gens = [[(1, 1, 0), (0, 2, 0)], [(2, 0, 0), (0, 0, 2)]]
    a, b = buchberger(gens, 3), buchberger(gens, 3)
    assert a._divisors is not None  # cached on a only
    assert "_divisors" in vars(a) and "_divisors" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert a != buchberger(gens[:1], 3)
    assert "_divisors" not in repr(a)
