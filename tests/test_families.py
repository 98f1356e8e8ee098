"""Structured idempotent families: coverings, unions, twisted unions, scans."""

import itertools
import json
from fractions import Fraction

import pytest

from quandlekit import (
    QQ,
    ZZ,
    BudgetExceededError,
    CarrierMismatchError,
    ConstraintViolatedError,
    Covering,
    CoveringConditionError,
    HypothesisFailedError,
    IntegersMod,
    InvalidParamsError,
    NotIdempotentInputError,
    NotNilpotentError,
    QuandleHom,
    RingElement,
    RingMismatchError,
    basis,
    check_covering,
    conjecture_scan,
    core_quandle,
    core_three_support_check,
    covering_classify,
    covering_family_params,
    covering_family_verify,
    covering_idempotent,
    dihedral_even_family,
    enumerate_boxed_Z,
    enumerate_mod_p,
    family_params_from_json,
    idempotent_quandle_check,
    is_idempotent,
    make,
    mul,
    product_quandle,
    right_zero_divisor_from_fiber,
    trivial_quandle,
    twisted_union_classify,
    union_cross_check,
    union_idempotents,
    union_quandle,
)

from quandlekit._search_kernel import table_product
from quandlekit.idempotents import _dense_sample, _support_search

from conftest import family_grid, load_fixture, read_json
from oracles import (
    element_to_vector,
    naive_idempotent_set_failures,
    naive_family_verify,
    naive_idempotents_boxed,
    poly_eval,
    poly_from_grid,
    product_vector,
)


def elem(ring, pairs):
    return RingElement(ring, pairs)


# ---------------------------------------------------------------------------
# covering family: construction


def test_family_params_validation(cov63):
    with pytest.raises(ConstraintViolatedError):
        covering_family_params(cov63, ZZ, 7, {0: 1}, 0)
    with pytest.raises(ConstraintViolatedError):
        covering_family_params(cov63, ZZ, 0, {1: 1}, 1)  # 1 not in fiber over 0
    with pytest.raises(ConstraintViolatedError):
        covering_family_params(cov63, ZZ, 0, {0: 2}, 0)  # unit mass 2
    with pytest.raises(ConstraintViolatedError):
        covering_family_params(cov63, ZZ, 0, {0: 1}, 3)  # base point outside support
    with pytest.raises(ConstraintViolatedError):
        covering_family_params(cov63, ZZ, 0, {0: 1}, 0, {1: {1: 1}})  # fiber sum 1, need 0


def test_family_element_plain_unit(cov63):
    params = covering_family_params(cov63, ZZ, 1, {4: 1}, 4)
    assert covering_idempotent(cov63, params) == basis(ZZ, 4)


def test_family_element_split_unit(cov63):
    params = covering_family_params(cov63, ZZ, 0, {0: 2, 3: -1}, 0)
    assert covering_idempotent(cov63, params) == elem(ZZ, [(0, 2), (3, -1)])


def test_family_element_with_orbit_sums(cov63):
    params = covering_family_params(cov63, ZZ, 1, {1: 1}, 1, {0: {0: 1, 3: -1}})
    u = covering_idempotent(cov63, params)
    assert u == elem(ZZ, [(0, 1), (1, 1), (2, 1), (3, -1), (5, -1)])


def test_family_params_json_round_trip(cov63):
    doc = read_json("family_r6.json")
    params = family_params_from_json(cov63, doc)
    assert params.to_json() == doc
    u = covering_idempotent(cov63, params)
    assert u == elem(ZZ, [(0, 1), (1, 1), (2, 1), (3, -1), (5, -1)])


def test_family_element_rational_weights(cov63):
    params = covering_family_params(
        cov63, QQ, 0, {0: Fraction(1, 2), 3: Fraction(1, 2)}, 0
    )
    u = covering_idempotent(cov63, params)
    assert is_idempotent(u, cov63.hom.domain)


# ---------------------------------------------------------------------------
# covering family: grid verification


def test_family_verify_sweep_counts(cov63):
    report = covering_family_verify(cov63)
    assert report.verified
    assert report.structures == 42
    assert report.cases == 666
    assert report.failures == []
    assert any("degree <= 2" in note for note in report.notes)


def test_family_verify_trivial_covering(r3, t2):
    q = product_quandle(r3, t2)
    cov = check_covering(QuandleHom(q, r3, [i // 2 for i in range(6)]))
    report = covering_family_verify(cov)
    assert report.verified
    assert report.cases == 666


def test_family_verify_rejects_bare_hom(r6, r3):
    with pytest.raises(TypeError):
        covering_family_verify(QuandleHom(r6, r3, [0, 1, 2, 0, 1, 2]))


def test_family_verify_budget(cov63):
    with pytest.raises(BudgetExceededError):
        covering_family_verify(cov63, budget=10)


def test_family_verify_refuses_negative_max_j(cov63):
    # a sweep over no index sets would certify nothing; refused before the budget
    with pytest.raises(InvalidParamsError, match="max_j must be >= 0"):
        covering_family_verify(cov63, max_j=-1, budget=0)


def _family_coverings():
    r3, r5, r6, r10, t2 = (load_fixture(f"{name}.json") for name in ("r3", "r5", "r6", "r10", "t2"))
    return {
        "r6_r3": check_covering(QuandleHom(r6, r3, [i % 3 for i in range(6)])),
        "r10_r5": check_covering(QuandleHom(r10, r5, [i % 5 for i in range(10)])),
        "r3xt2_r3": check_covering(
            QuandleHom(product_quandle(r3, t2), r3, [i // 2 for i in range(6)])
        ),
    }


FAMILY_COVERINGS = _family_coverings()
FAMILY_RINGS = {"Z": (ZZ, None), "Q": (QQ, None), "Z7": (IntegersMod(7), 7), "Z2": (IntegersMod(2), 2)}


def _oracle_family(cov, ring, modulus, **kw):
    return naive_family_verify(cov.hom.domain.table, cov.hom.images, ring.tag, modulus=modulus, **kw)


@pytest.mark.parametrize("ring_name", sorted(FAMILY_RINGS))
@pytest.mark.parametrize("cov_name", sorted(FAMILY_COVERINGS))
def test_family_verify_matches_the_naive_oracle(cov_name, ring_name):
    cov = FAMILY_COVERINGS[cov_name]
    ring, modulus = FAMILY_RINGS[ring_name]
    report = covering_family_verify(cov, ring=ring)
    structures, cases, failures = _oracle_family(cov, ring, modulus)
    assert (report.structures, report.cases, report.failures) == (structures, cases, failures)
    assert report.verified and failures == []


def _forged_covering(domain, codomain, images):
    """A Covering record on a hom whose fibers do not act alike."""
    hom = QuandleHom(domain, codomain, images)
    with pytest.raises(CoveringConditionError):
        check_covering(hom)
    fibers = {}
    for x, y in enumerate(images):
        fibers.setdefault(y, []).append(x)
    return Covering(hom, {y: tuple(f) for y, f in fibers.items()}, False)


@pytest.mark.parametrize("ring_name", sorted(FAMILY_RINGS))
def test_family_verify_failures_match_the_oracle_off_a_covering(r3, r6, t2, ring_name):
    ring, modulus = FAMILY_RINGS[ring_name]
    forged = [
        _forged_covering(r6, t2, [i % 2 for i in range(6)]),
        _forged_covering(r3, trivial_quandle(1), [0, 0, 0]),
    ]
    for cov in forged:
        for grid, max_j in [((-1, 0, 1), 2), ((0, 1, 2), 1)]:
            report = covering_family_verify(cov, ring=ring, grid=grid, max_j=max_j)
            structures, cases, failures = _oracle_family(cov, ring, modulus, grid=grid, max_j=max_j)
            assert (report.structures, report.cases) == (structures, cases)
            assert report.failures == failures
            assert report.verified is (failures == [])
    # R_3 has only trivial idempotents over Z, so splitting its one fiber fails
    assert not covering_family_verify(forged[1]).verified


DEGREE_NOTE = (
    "grid {-1,0,1} per free coefficient certifies all coefficient values: "
    "the idempotency defect is polynomial of degree <= 2 in each free coefficient"
)


@pytest.mark.parametrize(
    "ring,grid,note",
    [
        (ZZ, (-1, 0, 1), DEGREE_NOTE),
        (IntegersMod(7), (-1, 0, 1), DEGREE_NOTE),
        (QQ, (0, 1, 2), DEGREE_NOTE.replace("{-1,0,1}", "{0,1,2}")),
        (IntegersMod(2), (-1, 0, 1),
         "grid {-1,0,1} per free coefficient certifies all coefficient values: "
         "it takes every value of Zmod:2"),
        (ZZ, (0, 1), "grid {0,1} per free coefficient checks only the grid points"),
        (ZZ, (), "grid {} per free coefficient checks only the grid points"),
        (IntegersMod(3), (0, 3, 6), "grid {0,3,6} per free coefficient checks only the grid points"),
        # three values, but Z/6 is no domain: 3t(t+1) vanishes on it and 3t does too
        (IntegersMod(6, force=True), (0, 2, 4),
         "grid {0,2,4} per free coefficient checks only the grid points"),
    ],
)
def test_family_verify_note_states_what_its_grid_shows(cov63, ring, grid, note):
    (got,) = covering_family_verify(cov63, ring=ring, grid=grid, max_j=1).notes
    assert got.startswith(note)


def test_three_point_grid_certifies_quadratics(rng):
    """The verify sweep trusts that a per-variable-degree-2 polynomial
    vanishing on {-1,0,1}^n is zero; check that on random polynomials."""
    for _ in range(300):
        nvars = rng.randrange(1, 4)
        poly = {
            exps: rng.randrange(-4, 5)
            for exps in itertools.product((0, 1, 2), repeat=nvars)
            if rng.random() < 0.35
        }
        poly = {e: c for e, c in poly.items() if c}
        grid = {
            pt: poly_eval(poly, pt) for pt in itertools.product((-1, 0, 1), repeat=nvars)
        }
        if poly:
            assert any(grid.values())
        assert poly_from_grid(grid, nvars) == {e: Fraction(c) for e, c in poly.items()}


# ---------------------------------------------------------------------------
# covering classification


def test_classify_round_trips_family_element(cov63):
    u = elem(ZZ, [(0, 1), (1, 1), (2, 1), (3, -1), (5, -1)])
    result = covering_classify(u, cov63)
    assert result.in_family
    assert result.params.unit_fiber == 1
    assert result.params.unit_coeffs == ((1, 1),)
    assert result.params.base_point == 1
    assert result.params.zero_sum_coeffs == ((0, ((0, 1), (3, -1))),)
    assert result.flags == ["codomain ring attested to have only trivial idempotents"]


def test_classify_basis_element(cov63):
    result = covering_classify(basis(ZZ, 2), cov63)
    assert result.in_family
    assert result.params.zero_sum_coeffs == ()


def test_classify_rational_split(cov63):
    u = elem(QQ, [(0, Fraction(1, 2)), (3, Fraction(1, 2))])
    result = covering_classify(u, cov63)
    assert result.in_family
    assert result.params.unit_coeffs == ((0, Fraction(1, 2)), (3, Fraction(1, 2)))


def test_classify_rejects_non_idempotent(cov63):
    with pytest.raises(NotIdempotentInputError):
        covering_classify(elem(ZZ, [(0, 1), (3, -1)]), cov63)


def test_classify_negative_without_unit_mass(p6, t2):
    # over the product with a trivial factor the fiber sums can be 2 and
    # -1; no single fiber carries the unit, so membership fails
    q = product_quandle(p6, t2)
    cov = check_covering(QuandleHom(q, p6, [i // 2 for i in range(12)]))
    u = elem(ZZ, [(0, 2), (2, -1)])
    assert is_idempotent(u, q)
    result = covering_classify(u, cov)
    assert not result.in_family
    assert result.reason == "fiber sums are not a single unit mass"
    assert result.params is None


@pytest.mark.parametrize("order,bound,count", [(6, 2, 60), (10, 2, 500), (10, 3, 1470)])
def test_every_boxed_idempotent_of_a_covering_is_in_its_family(order, bound, count):
    # a finite shadow of the paper's complete description: over the
    # covering R_order -> R_(order/2) by i mod order/2, every idempotent
    # in the box is a family element
    k = order // 2
    domain = load_fixture(f"r{order}.json")
    base = load_fixture(f"r{k}.json")
    cov = check_covering(QuandleHom(domain, base, [i % k for i in range(order)]))
    found = enumerate_boxed_Z(domain, bound).idempotents
    assert len(found) == count
    assert all(covering_classify(u, cov).in_family for u in found)


def test_classify_json_shape(cov63):
    doc = covering_classify(basis(ZZ, 0), cov63).to_json()
    assert set(doc) == {"in_family", "params", "reason", "flags"}
    assert doc["in_family"] and doc["reason"] is None


# ---------------------------------------------------------------------------
# even dihedral family


def test_even_dihedral_frozen_values():
    assert dihedral_even_family(3, 0, 0, [1, 0]) == elem(ZZ, [(0, 2), (3, -1)])
    assert dihedral_even_family(3, 1, 1, [1, 0]) == elem(
        ZZ, [(0, 1), (1, 1), (2, 1), (3, -1), (5, -1)]
    )


def test_even_dihedral_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        dihedral_even_family(4, 0, 0, [1, 0, 0])
    with pytest.raises(InvalidParamsError):
        dihedral_even_family(3, 3, 0, [1, 0])
    with pytest.raises(InvalidParamsError):
        dihedral_even_family(3, 0, 0, [1])


def test_even_dihedral_grid_order_10():
    # every grid choice must assemble without tripping the internal
    # idempotency assertion
    count = 0
    for j in range(5):
        for beta in (-1, 0, 1):
            for alphas in itertools.product((-1, 0, 1), repeat=3):
                dihedral_even_family(5, j, beta, alphas)
                count += 1
    assert count == 405


# ---------------------------------------------------------------------------
# unions


def test_union_weighted_idempotents(t2, r3):
    u = union_idempotents(
        [t2, r3],
        "weighted_idempotents",
        weights=[2, -1],
        elements=[basis(ZZ, 0), basis(ZZ, 2)],
    )
    assert u == elem(ZZ, [(0, 2), (4, -1)])


def test_union_weighted_rejects_bad_weights(t2, r3):
    with pytest.raises(ConstraintViolatedError):
        union_idempotents(
            [t2, r3],
            "weighted_idempotents",
            weights=[2, -2],
            elements=[basis(ZZ, 0), basis(ZZ, 2)],
        )


def test_union_weighted_rejects_non_idempotent_part(t2, r3):
    with pytest.raises(NotIdempotentInputError):
        union_idempotents(
            [t2, r3],
            "weighted_idempotents",
            weights=[2, -1],
            elements=[basis(ZZ, 0).scale(2), basis(ZZ, 2)],
        )


def test_union_nilpotent_perturbation(r6, t2):
    u = union_idempotents(
        [r6, t2],
        "nilpotent_perturbation",
        elements=[elem(ZZ, [(0, 1), (3, -1)]), basis(ZZ, 0)],
        unit_index=1,
    )
    assert u == elem(ZZ, [(0, 1), (3, -1), (6, 1)])


def test_union_nilpotent_rejects_non_nilpotent(r6, t2):
    with pytest.raises(NotNilpotentError):
        union_idempotents(
            [r6, t2],
            "nilpotent_perturbation",
            elements=[elem(ZZ, [(0, 1), (1, -1)]), basis(ZZ, 0)],
            unit_index=1,
        )


def test_union_component_mass(t2, r3):
    u = union_idempotents([t2, r3], "component_mass", weights=[-1, 1])
    assert u == elem(ZZ, [(0, -1), (1, -1), (2, 1), (3, 1), (4, 1)])


def test_union_component_mass_rejects_bad_mass(t2, r3):
    with pytest.raises(ConstraintViolatedError):
        union_idempotents([t2, r3], "component_mass", weights=[1, 0])


def test_union_rejects_unknown_kind(t2, r3):
    with pytest.raises(InvalidParamsError):
        union_idempotents([t2, r3], "holomorphic", weights=[1, 0])


def test_union_cross_check_accounts_for_everything(t2, r3):
    out = union_cross_check([t2, r3], bound=1)
    assert out["total"] == sum(out["explained"].values()) + len(out["observed_gaps"])
    assert "gaps are observations within the search scope" in out["flags"]
    assert out["explained"]["weighted_idempotents"] > 0


def test_union_cross_check_mod_p(t2, t3):
    out = union_cross_check([t2, t3], modulus=5)
    assert out["total"] == sum(out["explained"].values()) + len(out["observed_gaps"])
    assert out["observed_gaps"] == []


def test_union_cross_check_needs_scope(t2, r3):
    with pytest.raises(InvalidParamsError):
        union_cross_check([t2, r3])


# ---------------------------------------------------------------------------
# twisted unions


def test_twisted_union_classification_mod_7(t2, t3):
    out = twisted_union_classify(t2, t3, [1, 0], [1, 2, 0], modulus=7)
    assert out["cross_check"]
    assert out["missing"] == [] and out["extra"] == []
    assert out["enumerated"] == out["expected_in_scope"]
    assert set(out["classification"]) == {"first_block", "second_block", "mixed"}


def test_twisted_union_classification_boxed(t2, t3):
    out = twisted_union_classify(t2, t3, [1, 0], [1, 2, 0], bound=2)
    assert out["cross_check"]
    # the mixed family at alpha = -1, beta = 1 sits inside this box
    q = make("twisted-union", t2, t3, [1, 0], [1, 2, 0])
    report = enumerate_boxed_Z(q, 2)
    target = elem(ZZ, [(0, -1), (1, -1), (2, 1), (3, 1), (4, 1)])
    assert target in report.idempotents


def test_twisted_union_hypothesis_failures(t2, t3):
    with pytest.raises(HypothesisFailedError, match="single cycle"):
        twisted_union_classify(t2, t3, [0, 1], [1, 2, 0], modulus=7)
    with pytest.raises(HypothesisFailedError, match="single cycle"):
        twisted_union_classify(t2, t3, [1, 0], [0, 2, 1], modulus=7)
    with pytest.raises(HypothesisFailedError, match="coprime"):
        twisted_union_classify(t2, t3, [1, 0], [1, 2, 0], modulus=3)


def test_twisted_union_budget_precheck(t2, t3):
    with pytest.raises(BudgetExceededError):
        twisted_union_classify(t2, t3, [1, 0], [1, 2, 0], modulus=7, budget=100)


# ---------------------------------------------------------------------------
# zero divisors from fibers


def test_fiber_zero_divisors(cov63):
    out = right_zero_divisor_from_fiber(cov63, 0, (1, -1))
    assert out["element"] == elem(ZZ, [(0, 1), (3, -1)])
    assert out["verified"]
    out = right_zero_divisor_from_fiber(cov63, 1, (1, -1))
    assert out["element"] == elem(ZZ, [(1, 1), (4, -1)])
    assert out["verified"]


def test_fiber_zero_divisor_constraints(cov63):
    with pytest.raises(ConstraintViolatedError):
        right_zero_divisor_from_fiber(cov63, 0, (1, 1))
    with pytest.raises(ConstraintViolatedError):
        right_zero_divisor_from_fiber(cov63, 0, (0, 0))
    with pytest.raises(InvalidParamsError):
        right_zero_divisor_from_fiber(cov63, 0, (1, -1, 0))


# ---------------------------------------------------------------------------
# reflection tables with small support


def test_core_small_support_only_trivial_mod_coprime():
    out = core_three_support_check([5], 3)
    assert out["trivial_found"] == 5
    assert out["nontrivial"] == []
    assert out["candidates_tested"] == 30 + 360 + 2160
    out = core_three_support_check([7], 2)
    assert out["trivial_found"] == 7
    assert out["nontrivial"] == []
    assert out["candidates_tested"] == 28 + 336 + 2240


def test_support_search_finds_non_basis_idempotents(r6):
    # order 6 is not coprime to 2 and 3, so this support window holds
    # idempotents other than the basis; the naive oracle knows all of them
    tested, found = _support_search(range(6), core_quandle([6]).op, 2, 3)
    vectors = {element_to_vector(u, 6) for u in found}
    assert len(vectors) == len(found) == 12
    assert vectors == naive_idempotents_boxed(r6.table, 2, max_support=3)
    assert sum(1 for u in found if len(u.coeffs) > 1) == 6
    assert tested == 6 * 4 + 15 * 16 + 20 * 64


@pytest.mark.parametrize("bound", [0, -1])
def test_core_small_support_rejects_bound_below_one(bound):
    with pytest.raises(InvalidParamsError, match="bound must be >= 1"):
        core_three_support_check([5], bound)
    # refused before the order check too
    with pytest.raises(InvalidParamsError):
        core_three_support_check([6], bound)


def test_core_small_support_hypothesis(t2):
    with pytest.raises(HypothesisFailedError):
        core_three_support_check([6], 2)
    with pytest.raises(HypothesisFailedError):
        core_three_support_check([3], 2)


def test_core_small_support_budget():
    with pytest.raises(BudgetExceededError):
        core_three_support_check([5], 3, budget=100)


# ---------------------------------------------------------------------------
# catalog scan


def test_conjecture_scan_statuses(r3, r5, t3, magma8):
    out = conjecture_scan(
        [
            ("r3", r3.table),
            ("r5", r5.table),
            ("t3", t3.table),
            ("quasigroup8", magma8.table),
        ],
        bound=2,
        moduli=(5,),
    )
    by_name = {item["quandle"]: item for item in out["items"]}
    # mod 5 the order-5 table keeps only basis idempotents (5 = 0 there),
    # while the order-3 one picks up orbit-sum weightings; the box search
    # stays clean for both
    assert by_name["r5"]["status"] == "no_counterexample_in_scope"
    assert by_name["r3"]["status"] == "counterexample_found"
    assert len(by_name["r3"]["searches"]) == 2
    assert by_name["t3"]["status"] == "skipped_not_latin"
    assert "semi_latin" not in by_name["r5"]
    assert by_name["quasigroup8"]["status"] == "not_a_quandle"
    assert "error" in by_name["quasigroup8"]
    assert out["flags"] == [
        "results are limited to the searched scope; absence is not a proof",
        "semi-latin (injective left multiplication) equals latin for a finite table; "
        "the semi_latin field is dropped",
    ]


def test_conjecture_scan_reports_counterexamples(r5):
    # 5 is invertible mod 3, so weightings of the full orbit sum become
    # idempotent: six non-basis elements show up
    out = conjecture_scan([("r5", r5.table)], moduli=(3,))
    item = out["items"][0]
    assert item["status"] == "counterexample_found"
    assert len(item["counterexamples"]) == 6
    assert {"ring": "Zmod:3", "coeffs": [[0, "2"], [1, "2"], [2, "2"], [3, "2"], [4, "2"]]} in item[
        "counterexamples"
    ]


def test_conjecture_scan_budget_does_not_abort_the_rest(r3, r5):
    out = conjecture_scan([("r5", r5.table), ("r3", r3.table)], bound=3, budget=100)
    assert out["items"][0]["status"] == "budget_exceeded"
    assert out["items"][1]["status"] == "no_counterexample_in_scope"


def test_conjecture_scan_never_claims_proof(r3, t3, magma8):
    out = conjecture_scan(
        [("r3", r3.table), ("t3", t3.table), ("quasigroup8", magma8.table)],
        bound=1,
        moduli=(2,),
    )
    assert "proved" not in json.dumps(out).lower()


# ---------------------------------------------------------------------------
# idempotent sets as quandles


def test_idempotent_set_of_basis_elements_passes(p6):
    report = idempotent_quandle_check([basis(ZZ, k) for k in range(6)], p6)
    assert report.passed
    assert report.size == 6
    assert report.to_json() == {"passed": True, "size": 6, "failures": []}


def test_idempotent_set_failure_is_localized(p6):
    sample = [basis(ZZ, 0), basis(ZZ, 3), elem(ZZ, [(4, 2), (5, -1)])]
    report = idempotent_quandle_check(sample, p6)
    assert not report.passed
    checks = {f["check"] for f in report.failures}
    assert "self_distributivity" in checks
    assert {"check": "self_distributivity", "indices": [0, 1, 2]} in report.failures
    assert {"check": "right_mult_is_basis_action", "indices": [2]} in report.failures


def test_idempotent_set_input_validation(r6, p6):
    with pytest.raises(InvalidParamsError):
        idempotent_quandle_check([], p6)
    with pytest.raises(NotIdempotentInputError):
        idempotent_quandle_check([elem(ZZ, [(0, 1), (3, -1)])], r6)
    with pytest.raises(RingMismatchError):
        idempotent_quandle_check([basis(ZZ, 0), basis(QQ, 1)], p6)


@pytest.mark.parametrize("key", [6, -1])
def test_idempotent_set_keys_outside_the_carrier(r6, key):
    # a key of -1 would silently index the last column of a dense array
    sample = [basis(ZZ, 0), basis(ZZ, key)]
    with pytest.raises(CarrierMismatchError):
        idempotent_quandle_check(sample, r6)
    with pytest.raises(CarrierMismatchError):
        _dense_sample(sample, r6, ZZ)


def pair_element(ring, block, c):
    """c e_{2b} + (1 - c) e_{2b+1}: idempotent for every c, since each pair
    of pairs6 is a trivial subquandle."""
    return elem(ring, [(2 * block, c), (2 * block + 1, 1 - c)])


def big_pair_sample():
    # l1 norms near 2 * 10^5: L^4 > 2^63, and products of products exceed int64
    return [pair_element(ZZ, b, c) for b, c in ((0, 98304), (1, -65535), (2, 100003))]


IDEMPOTENT_SETS = {
    "z-family57": ("r6", None, lambda q: family_grid((-1, 0, 1))),
    "z-pairs6-failing": ("p6", None, lambda q: [
        basis(ZZ, 0), basis(ZZ, 3), elem(ZZ, [(4, 2), (5, -1)])
    ]),
    "q-family": ("r6", None, lambda q: family_grid((Fraction(1, 2), -3), js=(0, 2), ring=QQ)),
    "q-pairs-failing": ("p6", None, lambda q: [
        pair_element(QQ, b, c) for b, c in ((0, Fraction(1, 3)), (1, Fraction(5, 2)), (2, -2))
    ]),
    # every idempotent of Z/7[pairs6]: closure and self-distributivity both fail
    "zmod7-all": ("p6", 7, lambda q: enumerate_mod_p(q, 7).idempotents),
    "z-past-int64": ("p6", None, lambda q: big_pair_sample()),
}


@pytest.mark.parametrize("name", IDEMPOTENT_SETS)
def test_idempotent_set_check_matches_naive_oracle(name, request):
    q_name, modulus, build = IDEMPOTENT_SETS[name]
    q = request.getfixturevalue(q_name)
    sample = build(q)
    vecs = [[u.coeff(x) for x in range(q.order)] for u in sample]
    report = idempotent_quandle_check(sample, q)
    dense = [f for f in report.failures if f["check"] != "right_mult_is_basis_action"]
    assert dense == naive_idempotent_set_failures(q.table, vecs, reduce=modulus)
    assert report.size == len(sample)


def test_idempotent_set_products_stay_exact_past_int64(p6):
    # P[i,l] P[j,l] reaches past 2^63 on this sample: int64 would wrap there
    sample = big_pair_sample()
    vecs = [[u.coeff(x) for x in range(6)] for u in sample]
    pairs = [[product_vector(p6.table, a, b) for b in vecs] for a in vecs]
    s, scale = _dense_sample(sample, p6, ZZ)
    assert scale == 1
    p = table_product(s[:, None], s[None, :], p6.table)
    assert p.tolist() == pairs
    biggest = 0
    for i in range(len(sample)):
        products = table_product(p[i][None, :], p, p6.table).tolist()
        for j, l in itertools.product(range(len(sample)), repeat=2):
            expected = product_vector(p6.table, pairs[i][l], pairs[j][l])
            assert products[j][l] == expected
            biggest = max(biggest, *map(abs, expected))
    assert biggest > 2**63
