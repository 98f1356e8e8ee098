"""The package's value types: equality, hash, immutability, pickle and
copy of the records, the field-order contract of `core.Record`, and the
payloads of the structured errors and their pickle and copy round trips."""

import copy
import importlib
import inspect
import json
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import quandlekit
from quandlekit import (
    QQ,
    ZZ,
    BudgetExceededError,
    ClassifyResult,
    CocycleData,
    CoeffRing,
    CompositeModulusError,
    CoveringConditionError,
    FamilyVerifyReport,
    FreeQuandleElement,
    IdempotentReport,
    IdempotentSetReport,
    IntegersMod,
    InternalCheckError,
    InvalidParamsError,
    NotIdempotentError,
    NotPermutationError,
    NotRightDistributiveError,
    QuandleHom,
    RingElement,
    SearchBudgetExceededError,
    SearchSpec,
    SquareMatrix,
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
from conftest import FIXTURES, load_fixture, read_json
from quandlekit import errors
from quandlekit.core import Record, fields_json


def _r3():
    return load_fixture("r3.json")


def _covering():
    return check_covering(QuandleHom(load_fixture("r6.json"), _r3(), [0, 1, 2, 0, 1, 2]))


def _cocycle(a=2, alpha00=0):
    return CocycleData.from_parts(_r3(), a, [[alpha00, 0, 0], [0, 0, 0], [0, 0, 0]])


def _params():
    return family_params_from_json(_covering(), read_json("family_r6.json"))


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
    "RingElement": (lambda: RingElement(ZZ, [(0, 1), (2, -1)]), lambda: RingElement(ZZ, [(0, 1)]),
                    "coeffs"),
    "SquareMatrix": (lambda: SquareMatrix(ZZ, [[1, 0], [2, 1]]), lambda: SquareMatrix(ZZ, [[1]]),
                     "ring"),
    "FreeQuandleElement": (lambda: FreeQuandleElement(0, [(1, 1)]), lambda: FreeQuandleElement(1),
                           "conjugator"),
}
MUTABLE = {
    "IdempotentReport": (lambda: enumerate_mod_p(_r3(), 5), lambda: enumerate_mod_p(_r3(), 7)),
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


def test_search_reports_compare_equal_whatever_they_took(checkout_env):
    # the first search of a fresh process pays for its imports; its report
    # still equals the second one's, as their JSON does
    code = ("from quandlekit import enumerate_mod_p, load_quandle\n"
            f"r3 = load_quandle({str(FIXTURES / 'r3.json')!r})\n"
            "a, b = enumerate_mod_p(r3, 5), enumerate_mod_p(r3, 5)\n"
            "print(a == b)\n")
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "True"
    a = enumerate_mod_p(_r3(), 5)
    fields = [a.quandle, a.order, a.spec, a.idempotents, a.exhaustive, a.flags]
    assert IdempotentReport(*fields, a.candidates_tested, elapsed_ms=7) == a
    assert IdempotentReport(*fields, a.candidates_tested + 1) != a


def _record_classes() -> list[type]:
    for info in pkgutil.iter_modules(quandlekit.__path__):
        importlib.import_module(f"quandlekit.{info.name}")
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def test_records_state_their_constructor_parameters_in_slots():
    # `Record._args` reads `__slots__` back as the constructor's arguments,
    # which `==`, hash, repr, pickle and copy all go through
    classes = [cls for cls in _record_classes()
               if cls._args is Record._args and cls.__name__ not in ("Record", "Frozen")]
    assert {"CocycleData", "CocycleReport", "QuandleProperties", "SearchSpec",
            "CoveringFamilyParams", "FamilyVerifyReport", "ClassifyResult", "IdempotentSetReport",
            "LeftAssocExpr", "RingElement", "SquareMatrix"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert params == list(cls.__slots__), cls.__name__


_FLAGS = ["codomain ring assumed, not certified, to have only trivial idempotents"]
# the records whose JSON is their fields (`core.fields_json`): (a record, its JSON)
FIELDS_JSON = {
    "CocycleReport": (
        lambda: validate_cocycle(_cocycle()),
        {"valid": True, "violation": None, "involutory_compatible": True,
         "involutory_violation": None}),
    "CocycleReport-failing": (
        lambda: validate_cocycle(CocycleData.from_parts(_r3(), 3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])),
        {"valid": False, "violation": {"kind": "cocycle", "x": 0, "y": 1, "z": 0},
         "involutory_compatible": False, "involutory_violation": {"x": 0, "y": 1}}),
    "QuandleProperties": (
        lambda: properties(_r3()),
        {"connected": True, "latin": True, "medial": True, "faithful": True, "involutory": True,
         "finite_type_orders": [2, 2, 2]}),
    "FamilyVerifyReport": (
        lambda: covering_family_verify(_covering(), max_j=1),
        {"verified": True, "structures": 24, "cases": 180, "failures": [],
         "notes": ["grid {-1,0,1} per free coefficient certifies all coefficient values: the "
                   "idempotency defect is polynomial of degree <= 2 in each free coefficient"]}),
    "ClassifyResult": (
        _classify,
        {"in_family": True,
         "params": {"ring": "Z", "unit_fiber": 1, "base_point": 1, "unit_coeffs": [[1, "1"]],
                    "zero_sum_coeffs": [[0, [[0, "1"], [3, "-1"]]]]},
         "reason": None, "flags": _FLAGS}),
    "ClassifyResult-negative": (
        lambda: covering_classify(RingElement(IntegersMod(5), [(0, 2), (2, 2), (4, 2)]),
                                  _covering()),
        {"in_family": False, "params": None, "reason": "fiber sums are not a single unit mass",
         "flags": _FLAGS}),
    "IdempotentSetReport": (
        lambda: idempotent_quandle_check(enumerate_mod_p(_r3(), 5).idempotents, _r3()),
        {"passed": False, "size": 7, "failures": [
            {"check": "closure", "indices": [3, 4]}, {"check": "closure", "indices": [3, 5]},
            {"check": "closure", "indices": [3, 6]}, {"check": "closure", "indices": [4, 3]},
            {"check": "closure", "indices": [5, 3]}, {"check": "closure", "indices": [6, 3]},
            *({"check": "right_mult_is_basis_action", "indices": [i]} for i in (3, 4, 5, 6))]}),
}


@pytest.mark.parametrize("name", FIELDS_JSON)
def test_fields_json_records_pin_their_json(name):
    build, expected = FIELDS_JSON[name]
    doc = build().to_json()
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)


@pytest.mark.parametrize("name", FIELDS_JSON)
def test_fields_json_records_write_their_slots_in_order(name):
    # beside the field-order contract above: the JSON keys are the slots
    record = FIELDS_JSON[name][0]()
    assert type(record).to_json is fields_json
    assert list(record.to_json()) == list(type(record).__slots__)


def test_fields_json_hands_out_fresh_lists():
    failure = {"check": "closure", "indices": [0, 1]}
    for record in (FamilyVerifyReport(False, 1, 1, failures=[failure], notes=["note"]),
                   IdempotentSetReport(False, 1, failures=[failure]),
                   ClassifyResult(False, reason="r", flags=["flag"]),
                   properties(_r3())):
        before = copy.deepcopy(record)
        for value in record.to_json().values():
            if isinstance(value, list):
                value.append("extra")
        assert record == before


# (an error, its payload, its attributes, its exit code)
ERRORS = [
    (NotPermutationError(2),
     {"error": "NotPermutation", "message": "column 2 of the table is not a permutation",
      "column": 2},
     {"column": 2}, 1),
    (NotIdempotentError(1),
     {"error": "NotIdempotent", "message": "table[1][1] != 1", "index": 1},
     {"index": 1}, 1),
    (NotRightDistributiveError(0, 1, 0),
     {"error": "NotRightDistributive",
      "message": "(x*y)*z != (x*z)*(y*z) at (x, y, z) = (0, 1, 0)", "indices": [0, 1, 0]},
     {"indices": (0, 1, 0)}, 1),
    (CoveringConditionError(0, 2),
     {"error": "CoveringCondition", "message": "points 0 and 2 share an image but act differently",
      "pair": [0, 2]},
     {"pair": (0, 2)}, 1),
    (CompositeModulusError(6),
     {"error": "CompositeModulus",
      "message": "modulus 6 is composite; coefficients would not form a domain", "modulus": 6},
     {"modulus": 6}, 1),
    (BudgetExceededError(10, 7),
     {"error": "BudgetExceeded", "message": "search needs 10 candidates, budget is 7",
      "needed": 10, "budget": 7},
     {"needed": 10, "budget": 7}, 2),
    (BudgetExceededError(10**5000, 7),
     {"error": "BudgetExceeded", "message": "search needs ~10^5000 candidates, budget is 7",
      "needed": "~10^5000", "budget": 7},
     {"needed": "~10^5000", "budget": 7}, 2),
    (SearchBudgetExceededError(5),
     {"error": "SearchBudgetExceeded", "message": "search needs 6 search nodes, budget is 5",
      "needed": 6, "budget": 5},
     {"needed": 6, "budget": 5}, 2),
    (InternalCheckError("m", vector=[1, 2]),
     {"error": "InternalCheck", "message": "m", "vector": [1, 2]},
     {"details": {"vector": [1, 2]}}, 1),
    (InvalidParamsError("x"), {"error": "InvalidParams", "message": "x"}, {}, 1),
]


@pytest.mark.parametrize("err, payload, attributes, exit_code", ERRORS,
                         ids=[f"{type(e[0]).__name__}-{i}" for i, e in enumerate(ERRORS)])
def test_structured_errors_pin_their_payloads(err, payload, attributes, exit_code):
    assert err.payload() == payload
    assert str(err) == payload["message"]
    assert {name: getattr(err, name) for name in attributes} == attributes
    assert err.exit_code == exit_code


def _every_error():
    """The errors above, and one instance of each other error class."""
    pinned = [e[0] for e in ERRORS]
    covered = {type(e) for e in pinned}
    others = [cls for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, errors.QuandleKitError) and cls not in covered]
    return pinned + [cls(f"{cls.__name__} message", where=(1, 2)) for cls in others]


@pytest.mark.parametrize("copier", COPIERS, ids=COPIER_IDS)
@pytest.mark.parametrize("err", _every_error(), ids=lambda e: type(e).__name__)
def test_structured_errors_survive_pickle_and_copy(err, copier):
    # a process pool sends a worker's error back by pickling it
    back = copier(err)
    assert type(back) is type(err) and back is not err
    assert (str(back), back.args, back.exit_code) == (str(err), err.args, err.exit_code)
    assert back.payload() == err.payload()
    assert vars(back) == vars(err) and back.details == err.details
