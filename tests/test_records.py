"""The package's record classes: equality, hash, immutability, pickle and copy."""

import copy
import pickle
from fractions import Fraction

import pytest

from quandlekit import (
    QQ,
    ZZ,
    ClassifyResult,
    CocycleData,
    CoeffRing,
    FamilyVerifyReport,
    IdempotentReport,
    IdempotentSetReport,
    IntegersMod,
    InvalidParamsError,
    QuandleHom,
    SearchSpec,
    check_covering,
    covering_classify,
    covering_family_params,
    covering_family_verify,
    element_from_json,
    enumerate_mod_p,
    family_params_from_json,
    idempotent_quandle_check,
    parse_expr,
    properties,
    validate_cocycle,
)
from conftest import load_fixture, read_json


def _r3():
    return load_fixture("r3.json")


def _covering():
    return check_covering(QuandleHom(load_fixture("r6.json"), _r3(), [0, 1, 2, 0, 1, 2]))


def _cocycle(a=2, alpha00=0):
    return CocycleData.from_parts(_r3(), a, [[alpha00, 0, 0], [0, 0, 0], [0, 0, 0]])


def _params():
    return family_params_from_json(_covering(), read_json("family_r6.json"))


def _report(p):
    # the search's own report, timed as 0 ms so that two of them compare equal
    r = enumerate_mod_p(_r3(), p)
    return IdempotentReport(r.quandle, r.order, r.spec, r.idempotents, r.exhaustive, r.flags,
                            r.candidates_tested)


def _classify():
    return covering_classify(element_from_json(read_json("elem_family_r6.json")), _covering())


# name -> (a fresh record, a fresh record equal to none of those, one field)
FROZEN = {
    "CocycleData": (_cocycle, lambda: _cocycle(3), "group_order"),
    "CocycleReport": (lambda: validate_cocycle(_cocycle()),
                      lambda: validate_cocycle(_cocycle(alpha00=1)), "valid"),
    "QuandleProperties": (lambda: properties(_r3()), lambda: properties(load_fixture("t2.json")),
                          "latin"),
    "Covering": (_covering,
                 lambda: check_covering(QuandleHom(load_fixture("t2.json"),
                                                   load_fixture("t2.json"), [0, 1])),
                 "fibers"),
    "CoeffRing": (lambda: IntegersMod(7), lambda: CoeffRing("Zmod", 7, forced=True), "zero"),
    "LeftAssocExpr": (lambda: parse_expr("g0*g1^-1*g2"), lambda: parse_expr("g0*g1*g2"), "tail"),
    "SearchSpec": (lambda: SearchSpec(ZZ, 2, 3), lambda: SearchSpec(ZZ, 2), "box_bound"),
    "CoveringFamilyParams": (_params, lambda: covering_family_params(_covering(), ZZ, 1, {1: 1}, 1),
                             "base_point"),
}
MUTABLE = {
    "IdempotentReport": (lambda: _report(5), lambda: _report(7)),
    "FamilyVerifyReport": (lambda: covering_family_verify(_covering()),
                           lambda: covering_family_verify(_covering(), max_j=1)),
    "ClassifyResult": (_classify,
                       lambda: covering_classify(element_from_json(
                           {"ring": "Z", "coeffs": [[0, "1"]]}), _covering())),
    "IdempotentSetReport": (
        lambda: idempotent_quandle_check(enumerate_mod_p(_r3(), 5).idempotents, _r3()),
        lambda: idempotent_quandle_check(enumerate_mod_p(_r3(), 7).idempotents, _r3()),
    ),
}
COPIERS = [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]
COPIER_IDS = ["pickle", "copy", "deepcopy"]


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_records_compare_field_wise(name):
    build, other = {**FROZEN, **MUTABLE}[name][:2]
    a, b, c = build(), build(), other()
    assert type(a).__name__ == type(c).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != c and c != b
    assert a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_and_refuse_assignment(name):
    build, _, field = FROZEN[name]
    a, b = build(), build()
    if name == "Covering":
        # its fibers are a dict, as with any record holding one
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown_field = None
    assert a == b


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable_and_slotted(name):
    a = MUTABLE[name][0]()
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.unknown_field = None


@pytest.mark.parametrize("copier", COPIERS, ids=COPIER_IDS)
@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_records_survive_pickle_and_copy(name, copier):
    a = {**FROZEN, **MUTABLE}[name][0]()
    b = copier(a)
    assert type(b) is type(a) and b == a


def test_covering_orbit_plans_are_cached_and_survive_copies():
    cov = _covering()
    plans = cov.orbit_plans
    assert cov.orbit_plans is plans
    for copier in COPIERS:
        assert copier(cov).orbit_plans == plans


@pytest.mark.parametrize("ring, derived", [
    (ZZ, ("Z", 0, 0, 1, True)),
    (QQ, ("Q", 0, Fraction(0), Fraction(1), True)),
    (IntegersMod(7), ("Zmod:7", 7, 0, 1, True)),
    (IntegersMod(6, force=True), ("Zmod:6", 6, 0, 1, False)),
], ids=["Z", "Q", "Z7", "Z6"])
def test_coeff_ring_derived_values_survive_copies(ring, derived):
    for r in (ring, *(copier(ring) for copier in COPIERS)):
        assert (r.tag, r.characteristic, r.zero, r.one, r.is_domain) == derived
        assert type(r.zero) is type(derived[2]) and type(r.one) is type(derived[3])
        assert r == ring and hash(r) == hash(ring)
        assert r == CoeffRing(ring.kind, ring.modulus, ring.forced)


@pytest.mark.parametrize("build, error", [
    (lambda: CoeffRing("R"), "unknown coefficient ring kind 'R'"),
    (lambda: CoeffRing("Zmod", 1), "modulus must be >= 2"),
    (lambda: SearchSpec(ZZ, 2, 0), "max_support must be >= 1"),
], ids=["ring-kind", "ring-modulus", "spec-support"])
def test_record_checks_refuse_bad_fields(build, error):
    with pytest.raises(InvalidParamsError, match=error):
        build()


def test_record_defaults():
    assert (ZZ.modulus, ZZ.forced) == (0, False)
    spec = SearchSpec(ZZ)
    assert (spec.box_bound, spec.max_support) == (None, None)
    assert IdempotentReport("q", 3, {}, [], True).to_json() == {
        "quandle": "q", "order": 3, "spec": {}, "idempotents": [], "exhaustive": True,
        "flags": [], "candidates_tested": 0, "elapsed_ms": 0,
    }
    assert FamilyVerifyReport(True, 1, 2).to_json() == {
        "verified": True, "structures": 1, "cases": 2, "failures": [], "notes": [],
    }
    assert IdempotentSetReport(True, 1).to_json() == {"passed": True, "size": 1, "failures": []}
    a, b = ClassifyResult(False), ClassifyResult(False)
    assert (a.params, a.reason, a.flags) == (None, None, [])
    # each record gets its own list
    a.flags.append("flag")
    assert b.flags == []
