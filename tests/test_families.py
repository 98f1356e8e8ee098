"""Structured idempotent families: coverings, unions, twisted unions, scans."""

import functools
import hashlib
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    QQ,
    ZZ,
    BudgetExceededError,
    CarrierMismatchError,
    CocycleData,
    ConstraintViolatedError,
    Covering,
    CoveringConditionError,
    HypothesisFailedError,
    IntegersMod,
    InternalCheckError,
    InvalidParamsError,
    NotIdempotentInputError,
    NotNilpotentError,
    NotSurjectiveError,
    QuandleHom,
    RingElement,
    RingMismatchError,
    basis,
    check_covering,
    cocycle_extension,
    conjecture_scan,
    core_quandle,
    core_three_support_check,
    covering_classify,
    covering_family_params,
    covering_family_verify,
    covering_idempotent,
    dihedral_even_family,
    dihedral_quandle,
    enumerate_boxed_Z,
    enumerate_mod_p,
    family_params_from_json,
    idempotent_quandle_check,
    is_idempotent,
    is_ring_endomorphism,
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

from quandlekit import core, idempotents
from quandlekit import ring as ring_module
from quandlekit.core import union_offsets
from quandlekit._search_kernel import _support_search, _support_tuples
from quandlekit.idempotents import _union_arguments, _union_membership

from conftest import family_grid, fixture_path, load_fixture, read_json
from oracles import (
    element_to_vector,
    naive_basis_action_failures,
    naive_idempotent_set_failures,
    naive_family_vector,
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


@pytest.mark.parametrize("unit, zero_sum, message", [
    ({}, None, "unit part must be nonempty"),
    ({4: 1}, {7: {0: 1, 3: -1}}, "7 is not a codomain index"),
    ({4: 1}, {0: {0: 1, 1: -1}}, "1 is not in the fiber over 0"),
], ids=["empty-unit-part", "zero-sum-off-the-codomain", "zero-sum-point-off-its-fiber"])
def test_family_params_refuse_malformed_parts(unit, zero_sum, message, cov63):
    with pytest.raises(ConstraintViolatedError, match=message):
        covering_family_params(cov63, ZZ, 1, unit, 4, zero_sum)


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


def _non_latin_coverings():
    """R_3 + T_2 over R_3 + T_1, and an extension of R_4 by Z/2 over R_4:
    bases with nontrivial idempotents, where the paper's hypothesis fails."""
    r3, r4 = dihedral_quandle(3), dihedral_quandle(4)
    union = QuandleHom(union_quandle([r3, trivial_quandle(2)]),
                       union_quandle([r3, trivial_quandle(1)]), [0, 1, 2, 3, 3])
    alpha = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    ext = cocycle_extension(CocycleData.from_parts(r4, 2, alpha))
    return [check_covering(union), check_covering(QuandleHom(ext, r4, [i // 2 for i in range(8)]))]


@pytest.mark.parametrize("max_j", [0, 1, 2])
def test_family_verify_matches_the_naive_oracle_off_latin_bases(monkeypatch, max_j):
    # the certificate uses only the covering condition, so it holds here too
    calls = dense_product_calls(monkeypatch)
    rings = [(ZZ, None), (QQ, None), (IntegersMod(2), 2), (IntegersMod(3), 3)]
    for cov, (ring, modulus) in itertools.product(_non_latin_coverings(), rings):
        assert cov.nontrivial
        report = covering_family_verify(cov, ring=ring, max_j=max_j)
        structures, cases, failures = _oracle_family(cov, ring, modulus, max_j=max_j)
        assert (report.structures, report.cases, report.failures) == (structures, cases, failures)
        assert report.verified and failures == []
    assert calls == []


# homs whose fibers do not act alike, with the pair each refusal names
NOT_COVERINGS = [
    (lambda: dihedral_quandle(6), 2, [i % 2 for i in range(6)], (0, 2)),
    (lambda: dihedral_quandle(3), 1, [0, 0, 0], (0, 1)),
    (lambda: union_quandle([dihedral_quandle(3), trivial_quandle(1)]), 2, [0, 0, 0, 1], (0, 1)),
    (lambda: union_quandle([dihedral_quandle(4), trivial_quandle(1)]), 2, [0, 1, 0, 1, 0], (0, 4)),
    (lambda: union_quandle([dihedral_quandle(3), trivial_quandle(2)]), 2, [0, 0, 0, 1, 1], (0, 1)),
]


def test_covering_refuses_a_hom_whose_fibers_act_differently():
    # the constructor is check_covering: no Covering holds fibers that act
    # differently, so nothing downstream has to sweep or test for them
    for domain, codomain_order, images, pair in NOT_COVERINGS:
        hom = QuandleHom(domain(), trivial_quandle(codomain_order), images)
        for build in (Covering, check_covering):
            with pytest.raises(CoveringConditionError) as err:
                build(hom)
            assert err.value.pair == pair
    hom = QuandleHom(trivial_quandle(2), trivial_quandle(3), [0, 1])
    for build in (Covering, check_covering):
        with pytest.raises(NotSurjectiveError, match="no preimage for codomain index 2"):
            build(hom)


@pytest.mark.parametrize("ring_name", sorted(FAMILY_RINGS))
def test_family_verify_builds_parameters_only_for_failures(monkeypatch, ring_name):
    # a covering's report has no failures, so no parameters are built
    calls = []
    real = idempotents.covering_family_params

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(idempotents, "covering_family_params", spy)
    ring, _ = FAMILY_RINGS[ring_name]
    for name in ("r6_r3", "r10_r5"):
        assert covering_family_verify(FAMILY_COVERINGS[name], ring=ring).verified
    assert calls == []


def dense_product_calls(monkeypatch):
    """Spy on the family sweep's dense_product: the arguments of each call."""
    calls = []
    real = idempotents.dense_product

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(idempotents, "dense_product", spy)
    return calls


def fixed_mass_calls(monkeypatch):
    """Spy on the family verdicts' _fixed_mass: the arguments of each call."""
    calls = []
    real = idempotents._fixed_mass
    monkeypatch.setattr(idempotents, "_fixed_mass", lambda *a: calls.append(a) or real(*a))
    return calls


def test_family_verify_decides_a_covering_from_the_defect_terms(monkeypatch):
    # every structure of a covering is certified by its class sums and its
    # invariance under S_x0, so its cases are counted, none squared
    calls = dense_product_calls(monkeypatch)
    for name, (ring, _) in itertools.product(("r6_r3", "r10_r5"), FAMILY_RINGS.values()):
        report = covering_family_verify(FAMILY_COVERINGS[name], ring=ring)
        assert report.verified and report.failures == []
        if name == "r10_r5":
            assert (report.structures, report.cases) == (160, 3180)
    assert calls == []


@pytest.mark.parametrize("name,calls", [("r6_r3", 15), ("r10_r5", 35)])
def test_family_verify_certifies_once_per_fiber_and_base_point(monkeypatch, name, calls):
    # one _fixed_mass verdict per direction of each (fiber y, theta_S class
    # c), since a base point x0 enters only through S_x0: |y| - 1 orbit
    # directions of every fiber at every class, and e with the |y| - 1
    # unit directions at the one class that y lies in; none per base
    # point or per structure
    cov = FAMILY_COVERINGS[name]
    fibers = cov.fibers.values()
    classes = cov.hom.domain.right_mult_classes
    assert all(len({classes[x] for x in f}) == 1 for f in fibers)
    per_pair = len(set(classes)) * sum(len(f) - 1 for f in fibers) + sum(len(f) for f in fibers)
    assert per_pair == calls
    seen = fixed_mass_calls(monkeypatch)
    products = dense_product_calls(monkeypatch)
    for ring, _ in FAMILY_RINGS.values():
        seen.clear()
        report = covering_family_verify(cov, ring=ring)
        assert report.verified and report.structures > per_pair
        assert len(seen) == calls
    assert products == []


def test_family_verify_scales_with_fibers_and_classes(monkeypatch):
    # R_42 -> R_21 at max_j = 2: 9,744 structures, but 21 x 21 orbit
    # verdicts and 21 unit verdicts of two directions each, and no case squared
    cov = _dihedral_double_covering(21)
    seen = fixed_mass_calls(monkeypatch)
    products = dense_product_calls(monkeypatch)
    report = covering_family_verify(cov, max_j=2)
    assert report.verified and report.failures == []
    assert (report.structures, report.cases) == (9744, 246204)
    assert len(seen) == 483 and products == []


def test_family_verify_raises_where_a_verdict_fails(monkeypatch):
    # the verdicts are the function's own exact check: whichever one
    # fails, it raises naming that verdict's fiber and class, and squares
    # no case
    cov = FAMILY_COVERINGS["r10_r5"]
    real = idempotents._fixed_mass
    products = dense_product_calls(monkeypatch)
    for failing in range(35):
        seen = []

        def flaky(*args):
            seen.append(args)
            return len(seen) - 1 != failing and real(*args)

        monkeypatch.setattr(idempotents, "_fixed_mass", flaky)
        with pytest.raises(InternalCheckError, match="fails its certificate") as err:
            covering_family_verify(cov)
        assert len(seen) == failing + 1
        assert err.value.fiber in cov.fibers and err.value.theta_class == seen[-1][1]
    assert products == []


def _dihedral_double_covering(n):
    return check_covering(QuandleHom(dihedral_quandle(2 * n), dihedral_quandle(n),
                                     [i % n for i in range(2 * n)]))


def _enumerated_counts(cov, g, max_j):
    """(structures, cases) of the family sweep, one structure at a time."""
    fibers = cov.fibers
    structures = cases = 0
    for size in range(max_j + 1):
        for j_set in itertools.combinations(sorted(fibers), size):
            free = sum(len(fibers[y]) - 1 for y in j_set)
            for fiber0 in fibers.values():
                for _ in fiber0:
                    structures += 1
                    cases += g ** (free + len(fiber0) - 1)
    return structures, cases


def test_family_verify_counts_match_the_enumeration():
    coverings = [_dihedral_double_covering(n) for n in (3, 5, 7, 6)]
    coverings += [
        check_covering(QuandleHom(trivial_quandle(3), trivial_quandle(1), [0, 0, 0])),
        _union_covering(),
    ]
    for cov, max_j in itertools.product(coverings, range(4)):
        report = covering_family_verify(cov, max_j=max_j)
        assert (report.structures, report.cases) == _enumerated_counts(cov, 3, max_j)
    pins = {3: (42, 666), 5: (160, 3180), 9: (828, 19008), 21: (9744, 246204)}
    for n, counts in pins.items():
        cov = _dihedral_double_covering(n)
        assert _enumerated_counts(cov, 3, 2) == counts
        if n < 21:
            report = covering_family_verify(cov)
            assert (report.structures, report.cases) == counts


def test_family_verify_refuses_the_budget_before_any_verdict(monkeypatch):
    def refuse(*args):
        raise AssertionError("a verdict was taken")

    monkeypatch.setattr(idempotents, "_fixed_mass", refuse)
    cov = FAMILY_COVERINGS["r10_r5"]
    with pytest.raises(BudgetExceededError):
        covering_family_verify(cov, budget=3179)
    with pytest.raises(AssertionError, match="a verdict was taken"):
        covering_family_verify(cov, budget=3180)


def _defect_terms(table, e, dirs, modulus):
    """The coefficient vectors of u(a)^2 - u(a), u(a) = e + sum a_t d_t, by
    kind, computed with product_vector: the kinds whose vectors are not 0."""
    def red(vec):
        return [c % modulus for c in vec] if modulus else vec

    def prod(a, b):
        return product_vector(table, a, b)

    terms = {"unit": [red([x - y for x, y in zip(prod(e, e), e)])]}
    terms["linear"] = [red([x + y - z for x, y, z in zip(prod(e, d), prod(d, e), d)]) for d in dirs]
    terms["square"] = [red(prod(d, d)) for d in dirs]
    terms["cross"] = [red([x + y for x, y in zip(prod(a, b), prod(b, a))])
                      for a, b in itertools.combinations(dirs, 2)]
    return {kind for kind, vecs in terms.items() if any(map(any, vecs))}


POLARIZATION_CASES = {
    # the unit point 5 of r10 -> R_5 with e_1 - e_6, its orbit sum left out
    "linear": ("r10.json", ZZ, [0, 0, 0, 0, 0, 1, 0, 0, 0, 0], [[0, 1, 0, 0, 0, 0, -1, 0, 0, 0]]),
    # over Z/3 on R_3, e_0 (e_1 - e_2) + (e_1 - e_2) e_0 = 2 (e_2 - e_1) = e_1 - e_2
    "square": ("r3.json", IntegersMod(3), [1, 0, 0], [[0, 1, 2]]),
    # over Z/3 on R_4 each direction alone is fine; their sum squares to nonzero
    "cross": (None, IntegersMod(3), [0, 2, 0, 2], [[0, 1, 0, 2], [1, 2, 1, 2]]),
}


@pytest.mark.parametrize("kind", sorted(POLARIZATION_CASES))
def test_defect_polynomial_fails_on_each_kind_of_term_alone(kind):
    fixture, ring, e, dirs = POLARIZATION_CASES[kind]
    q = load_fixture(fixture) if fixture else dihedral_quandle(4)
    table = q.table
    modulus = ring.modulus or None
    assert _defect_terms(table, e, dirs, modulus) == {kind}
    # no base point certifies the set: some vector is moved by S_x0, or
    # has class sums other than a unit mass on x0's class (e) or 0 (d_t)
    m = ring.characteristic
    for x0 in range(q.order):
        assert not (idempotents._fixed_mass(e, x0, q, m, 1)
                    and all(idempotents._fixed_mass(d, x0, q, m, 0) for d in dirs))
    # and some member of the family is not idempotent
    values = range(modulus) if modulus else (-1, 0, 1)
    squares = []
    for point in itertools.product(values, repeat=len(dirs)):
        u = e[:]
        for c, d in zip(point, dirs):
            u = [x + c * y for x, y in zip(u, d)]
        u = [c % modulus for c in u] if modulus else u
        squares.append(product_vector(table, u, u, modulus) == u)
    assert not all(squares)


def test_family_library_checks_import_no_numpy(checkout_env):
    # family-verify, classify, the endomorphism check and the idempotent-set
    # check, passing on a family sample of r6 and failing on pairs6, stay in
    # plain Python, so library callers never pay numpy's import
    code = (
        "import sys\n"
        "from quandlekit import *\n"
        "r10, r5, r6, p6 = map(load_quandle, sys.argv[1:])\n"
        "cov = check_covering(QuandleHom(r10, r5, [i % 5 for i in range(10)]))\n"
        "members = [dihedral_even_family(5, j, 2, [1, -1, 0]) for j in range(5)]\n"
        "assert all(is_ring_endomorphism(u, r10) for u in members)\n"
        "assert all(covering_classify(u, cov).in_family for u in members)\n"
        "assert all(covering_family_verify(cov, ring=r).verified for r in (ZZ, QQ, IntegersMod(7)))\n"
        "sample = [dihedral_even_family(3, j, 1, [-1, 0]) for j in range(3)]\n"
        "assert idempotent_quandle_check(sample, r6).passed\n"
        "sample = [basis(ZZ, 0), basis(ZZ, 3), RingElement(ZZ, [(4, 2), (5, -1)])]\n"
        "assert not idempotent_quandle_check(sample, p6).passed\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    fixtures = [fixture_path(f"{name}.json") for name in ("r10", "r5", "r6", "pairs6")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *fixtures],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    got = idempotents._grid_note(ring, grid)
    assert got.startswith(note)
    if grid == idempotents._GRID:
        assert covering_family_verify(cov63, ring=ring, max_j=1).notes == [got]


def test_three_point_grid_certifies_quadratics(rng):
    """The family-verify note states that a per-variable-degree-2
    polynomial vanishing on {-1,0,1}^n is zero; check that on random
    polynomials."""
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
    assert result.flags == [
        "codomain ring assumed, not certified, to have only trivial idempotents"
    ]


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


def test_classify_rejects_non_idempotent_with_unit_class_sums(cov63):
    # class sums 1 on {0, 3} and 0 elsewhere, but S_0 moves u: u u = S_0 u != u
    u = elem(ZZ, [(0, 1), (1, 1), (4, -1)])
    assert ring_module._class_action(u, cov63.hom.domain) == 0
    assert not is_idempotent(u, cov63.hom.domain)
    with pytest.raises(NotIdempotentInputError):
        covering_classify(u, cov63)


def test_classify_family_is_a_sublattice_of_the_unit_mass_idempotents():
    # S_0 has order 2 and fixes 3, so the orbit sum of 3 is 2 e_3: only even
    # coefficients on 3 are reached, and e_0 + e_3 - e_4 is refused
    r3 = dihedral_quandle(3)
    domain = union_quandle([r3, trivial_quandle(2)])
    cov = check_covering(QuandleHom(domain, union_quandle([r3, trivial_quandle(1)]), [0, 1, 2, 3, 3]))
    assert cov.nontrivial
    u = elem(ZZ, [(0, 1), (3, 1), (4, -1)])
    assert is_idempotent(u, domain)
    result = covering_classify(u, cov)
    assert (result.in_family, result.params) == (False, None)
    assert result.reason == "orbit multiplicity does not divide the orbit coefficient"
    assert covering_classify(elem(ZZ, [(0, 1), (3, 2), (4, -2)]), cov).in_family


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
    for u in found:
        result = covering_classify(u, cov)
        assert result.in_family
        # the reported parameters, assembled by the oracle, give u back
        vec = naive_family_vector(domain.table, cov.hom.images, result.params.to_json())
        assert tuple(vec) == element_to_vector(u, order)


@pytest.mark.parametrize(
    "domain,codomain,images,ring,coeffs,reason",
    [
        # in Z[T_2] u u = aug(u) u, so 2e_0 - e_1 is idempotent
        (trivial_quandle(2), trivial_quandle(2), [0, 1], ZZ, [(0, 2), (1, -1)],
         "fiber sums are not a single unit mass"),
        # S_0 has order 2 and fixes 3, so e_3 - e_4 is no multiple of 2 orbit sums
        (union_quandle([dihedral_quandle(3), trivial_quandle(2)]),
         union_quandle([dihedral_quandle(3), trivial_quandle(1)]), [0, 1, 2, 3, 3], ZZ,
         [(0, 1), (3, 1), (4, -1)], "orbit multiplicity does not divide the orbit coefficient"),
        # over Z/2 the orbit multipliers of a fiber class need not cancel,
        # since the orbit order 2 is zero there
        (dihedral_quandle(4), trivial_quandle(2), [0, 1, 0, 1], IntegersMod(2),
         [(0, 1), (1, 1), (2, 1)], "orbit multipliers do not cancel over a fiber class"),
    ],
    ids=["unit-mass", "multiplicity", "cancel"],
)
def test_classify_names_each_rejection(domain, codomain, images, ring, coeffs, reason):
    cov = check_covering(QuandleHom(domain, codomain, images))
    u = elem(ring, coeffs)
    assert is_idempotent(u, domain)
    result = covering_classify(u, cov)
    assert (result.in_family, result.reason, result.params) == (False, reason, None)


def test_classify_json_shape(cov63):
    doc = covering_classify(basis(ZZ, 0), cov63).to_json()
    assert set(doc) == {"in_family", "params", "reason", "flags"}
    assert doc["in_family"] and doc["reason"] is None


@st.composite
def _random_family_params(draw):
    """Family parameters on r6 -> R_3 or r10 -> R_5 over Z, Q or Z/5: a
    unit part over one fiber summing to 1, a base point in it, and up to
    three zero-sum groups, each over one fiber."""
    name = draw(st.sampled_from(["r6_r3", "r10_r5"]))
    ring = draw(st.sampled_from([ZZ, QQ, IntegersMod(5)]))
    cov = FAMILY_COVERINGS[name]
    if ring is QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        scalar = st.integers(-3, 3)

    def summing_to(total, points):
        coeffs = {x: draw(scalar) for x in points[1:]}
        coeffs[points[0]] = total - sum(coeffs.values())
        return coeffs

    fibers = sorted(cov.fibers)
    y0 = draw(st.sampled_from(fibers))
    support = draw(st.lists(st.sampled_from(cov.fibers[y0]), min_size=1, unique=True))
    groups = {
        y: summing_to(0, draw(st.lists(st.sampled_from(cov.fibers[y]), min_size=1, unique=True)))
        for y in draw(st.lists(st.sampled_from(fibers), max_size=3, unique=True))
    }
    base = draw(st.sampled_from(support))
    return name, covering_family_params(cov, ring, y0, summing_to(1, support), base, groups)


@settings(max_examples=200, deadline=None)
@given(case=_random_family_params())
def test_classify_recovers_every_random_family_element(case):
    name, params = case
    cov = FAMILY_COVERINGS[name]
    table, images = cov.hom.domain.table, cov.hom.images
    u = covering_idempotent(cov, params)
    vec = [u.coeff(k) for k in range(cov.hom.domain.order)]
    assert naive_family_vector(table, images, params.to_json()) == vec
    result = covering_classify(u, cov)
    assert result.in_family and result.reason is None
    assert naive_family_vector(table, images, result.params.to_json()) == vec
    # built without covering_family_params, yet exactly what it validates
    assert family_params_from_json(cov, result.params.to_json()) == result.params


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_random_family_params())
def test_classify_round_trips_family_parameters(case):
    name, params = case
    cov = FAMILY_COVERINGS[name]
    u = covering_idempotent(cov, params)
    result = covering_classify(u, cov)
    assert result.in_family
    assert covering_idempotent(cov, result.params) == u


def _r10_family_members():
    """The 304 r10 family members of the benchmark, on fresh tables."""
    r10, r5 = load_fixture("r10.json"), load_fixture("r5.json")
    cov = check_covering(QuandleHom(r10, r5, [i % 5 for i in range(10)]))
    members = list(dict.fromkeys(
        dihedral_even_family(5, j, beta, list(alphas))
        for j, beta in itertools.product(range(5), (-1, 0, 1, 2))
        for alphas in itertools.product((-1, 0, 1), repeat=3)
    ))
    assert len(members) == 304
    return cov, members


def test_classify_reads_family_members_without_a_product(monkeypatch):
    # idempotency and the stabilizer test are S_x0-invariance compares
    cov, members = _r10_family_members()
    calls = []
    real = ring_module._pair_product
    monkeypatch.setattr(ring_module, "_pair_product", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(idempotents, "_pair_product", lambda *a: calls.append(a) or real(*a))
    assert all(covering_classify(u, cov).in_family for u in members)
    assert calls == []


def test_classify_builds_orbit_data_once_per_quandle_and_base_point(monkeypatch):
    cov, members = _r10_family_members()
    r10, r5 = cov.hom.domain, cov.hom.codomain
    calls = []
    real = core.perm_cycles
    monkeypatch.setattr(core, "perm_cycles", lambda perm: calls.append(perm) or real(perm))
    monkeypatch.setattr(idempotents, "perm_cycles", core.perm_cycles)
    assert all(covering_classify(u, cov).in_family for u in members)
    first = len(calls)
    assert first <= r10.order + r5.order
    assert all(covering_classify(u, cov).in_family for u in members)
    assert len(calls) == first
    # the parameters are built directly; the round trip through
    # _family_vector is their check, not covering_family_params
    monkeypatch.setattr(idempotents, "covering_family_params", None)
    assert all(covering_classify(u, cov).in_family for u in members)


def _union_covering():
    r3 = dihedral_quandle(3)
    return check_covering(QuandleHom(union_quandle([r3, trivial_quandle(2)]),
                                     union_quandle([r3, trivial_quandle(1)]), [0, 1, 2, 3, 3]))


IN = (True, None)
SUMS = (False, "fiber sums are not a single unit mass")
MULTIPLICITY = (False, "orbit multiplicity does not divide the orbit coefficient")
# (covering, search, literal verdict histogram, SHA-256 of the results' JSON or None)
CLASSIFY_VERDICTS = {
    "r6_Z_box3": ("r6_r3", ("Z", 3), {IN: 126},
                  "6f64c1f4e60ef4fb390f40fe6552eeed50b101acedda925ac670689d492915fd"),
    "r6_Q_box2": ("r6_r3", ("Q", 2), {IN: 60},
                  "bca3e7983899eb7706b80e6593d1885c2f43372982376f7701f688a9b21e32a7"),
    "r6_Z5": ("r6_r3", ("mod", 5), {IN: 75, SUMS: 20},
              "07758b6e4ec9b888427c21f9a733f7984c8a8f8da4411b54b7bc581093de5b33"),
    "r6_Z4_forced": ("r6_r3", ("mod", 4), {IN: 48, SUMS: 16},
                     "8c82caa6a235343ccb969ffb64c9c3c66a9f81e3ab13fb724f1ef07227f7890a"),
    "r10_Z_box2": ("r10_r5", ("Z", 2), {IN: 500},
                   "881a81e0955e7cdde7111781ac67857dcb5d84beb4828b82e33d07a0c7d7a318"),
    "r10_Z3": ("r10_r5", ("mod", 3), {IN: 135, SUMS: 48},
               "a5daddadb3e6f26a190da81732ae9ab377d45cb6da0e604caf2de6ec330e06be"),
    "union_Z_box2": ("union", ("Z", 2), {IN: 13, SUMS: 31, MULTIPLICITY: 6}, None),
    "union_Z2": ("union", ("mod", 2), {IN: 5, SUMS: 5, MULTIPLICITY: 3}, None),
}


@pytest.mark.parametrize("case", sorted(CLASSIFY_VERDICTS))
def test_classify_verdicts_are_pinned(case):
    # every idempotent a search finds, classified: literal verdict counts,
    # and on r6 and r10 a digest of every result's JSON, taken when
    # classify ran is_idempotent and both invariance tests on every input
    name, (kind, value), histogram, digest = CLASSIFY_VERDICTS[case]
    cov = _union_covering() if name == "union" else FAMILY_COVERINGS[name]
    domain = cov.hom.domain
    if kind == "mod":
        found = enumerate_mod_p(domain, value, force=True).idempotents
    else:
        found = enumerate_boxed_Z(domain, value).idempotents
        if kind == "Q":
            found = [RingElement(QQ, u.coeffs) for u in found]
    results = [covering_classify(u, cov) for u in found]
    counts: dict = {}
    for r in results:
        counts[r.in_family, r.reason] = counts.get((r.in_family, r.reason), 0) + 1
    assert counts == histogram
    if digest is not None:
        text = json.dumps([r.to_json() for r in results], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_orbit_plans_hold_the_cycles_outside_the_base_fiber():
    for cov in [*FAMILY_COVERINGS.values(), _union_covering()]:
        domain, images = cov.hom.domain, cov.hom.images
        for x0, plan in enumerate(cov.orbit_plans):
            inside = [c for c in domain.right_mult_cycles[x0] if images[c[0]] == images[x0]]
            assert all(images[t] == images[x0] for c in inside for t in c)
            assert sorted(t for c in inside for t in c) == list(cov.fibers[images[x0]])
            assert [c for c, *_ in plan] == [c for c in domain.right_mult_cycles[x0] if c not in inside]


def test_classify_checks_its_parameters_by_the_rebuild(cov63, monkeypatch):
    # the decomposition is trusted only after _family_vector gives u back
    u = elem(ZZ, [(0, 1), (1, 1), (2, 1), (3, -1), (5, -1)])
    real = idempotents._family_vector
    monkeypatch.setattr(idempotents, "_family_vector",
                        lambda cov, params: [c + (k == 4) for k, c in enumerate(real(cov, params))])
    with pytest.raises(InternalCheckError, match="round-trip"):
        covering_classify(u, cov63)


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


@pytest.mark.parametrize("n", [3, 5, 7])
def test_even_dihedral_matches_the_covering_oracle(n):
    # the family of R_2n -> R_n with unit fiber and base point j, unit
    # coefficients beta and 1 - beta, and zero sums alpha_i e_i - alpha_i e_{n+i}
    table, images = dihedral_quandle(2 * n).table, [x % n for x in range(2 * n)]
    width = (n + 1) // 2
    cases = [(ZZ, "Z", beta, alphas) for beta in (-1, 0, 2)
             for alphas in itertools.product((-1, 0, 1), repeat=width)]
    cases += [(QQ, "Q", Fraction(1, 2), alphas)
              for alphas in itertools.product((Fraction(-1, 3), Fraction(1, 2)), repeat=width)]
    cases += [(IntegersMod(7), "Zmod:7", beta, alphas) for beta in (3, 6)
              for alphas in itertools.product((0, 5), repeat=width)]
    for (ring, tag, beta, alphas), j in itertools.product(cases, range(n)):
        doc = {
            "ring": tag,
            "unit_fiber": j,
            "base_point": j,
            "unit_coeffs": [[j, str(beta)], [n + j, str(1 - beta)]],
            "zero_sum_coeffs": [[i, [[i, str(a)], [n + i, str(-a)]]] for i, a in enumerate(alphas)],
        }
        u = dihedral_even_family(n, j, beta, alphas, ring=ring)
        assert [u.coeff(k) for k in range(2 * n)] == naive_family_vector(table, images, doc)


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


# over Z/6, 3 e_0 is an idempotent of augmentation 3
Z6 = IntegersMod(6, force=True)

UNION_REFUSALS = {
    "weighted-one-weight-short": (InvalidParamsError, "one element and one weight", dict(
        kind="weighted_idempotents", weights=[1], elements=[basis(ZZ, 0), basis(ZZ, 2)])),
    "weighted-part-sum-not-1": (ConstraintViolatedError, "part idempotents must", dict(
        kind="weighted_idempotents", weights=[1, 0], ring=Z6,
        elements=[elem(Z6, [(0, 3)]), basis(Z6, 2)])),
    "nilpotent-no-unit-index": (InvalidParamsError, "and a unit index", dict(
        kind="nilpotent_perturbation", elements=[basis(ZZ, 0), basis(ZZ, 2)])),
    "nilpotent-unit-not-idempotent": (NotIdempotentInputError, "unit part element", dict(
        kind="nilpotent_perturbation", unit_index=0,
        elements=[basis(ZZ, 0).scale(2), RingElement(ZZ, [])])),
    "nilpotent-unit-sum-not-1": (ConstraintViolatedError, "unit part must", dict(
        kind="nilpotent_perturbation", unit_index=0, ring=Z6,
        elements=[elem(Z6, [(0, 3)]), RingElement(Z6, [])])),
    "nilpotent-unit-index-out-of-range": (InvalidParamsError, "not a part index", dict(
        kind="nilpotent_perturbation", unit_index=7,
        elements=[RingElement(ZZ, []), RingElement(ZZ, [])])),
    "mass-one-weight-short": (InvalidParamsError, "one weight per part", dict(
        kind="component_mass", weights=[1])),
}


@pytest.mark.parametrize("case", sorted(UNION_REFUSALS))
def test_union_refuses_malformed_parts(case, t2, r3):
    error, message, kwargs = UNION_REFUSALS[case]
    with pytest.raises(error, match=message):
        union_idempotents([t2, r3], **kwargs)


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


def test_union_membership_needs_nilpotent_non_unit_blocks(r3):
    # e_0 is a unit block, but e_0 - e_1 over R_3 squares to e_0 + e_1 - 2 e_2,
    # so no union clause explains their sum
    parts = [trivial_quandle(1), r3]
    u = elem(ZZ, [(0, 1), (1, 1), (2, -1)])
    assert _union_membership(u, parts, union_offsets(parts)) is None


def test_union_cross_check_needs_scope(t2, r3):
    with pytest.raises(InvalidParamsError):
        union_cross_check([t2, r3])


# parts, scope, then (total, weighted, nilpotent, mass, gaps) of union_cross_check
UNION_ACCOUNTS = {
    "t2-t3-box1": (("t2", "t3"), dict(bound=1), (45, 8, 24, 1, 12)),
    "t2-t3-mod5": (("t2", "t3"), dict(modulus=5), (625, 405, 220, 0, 0)),
    "t2-r3-box1": (("t2", "r3"), dict(bound=1), (15, 5, 6, 1, 3)),
    "t1-r3-box2": (("t1", "r3"), dict(bound=2), (11, 10, 0, 1, 0)),
    "r3-r3-mod3": (("r3", "r3"), dict(modulus=3), (27, 15, 12, 0, 0)),
    "t2-r6-box1-support3": (("t2", "r6"), dict(bound=1, max_support=3), (44, 8, 24, 0, 12)),
}


@pytest.mark.parametrize("case", sorted(UNION_ACCOUNTS))
def test_union_cross_check_counts_are_pinned(case):
    names, scope, pinned = UNION_ACCOUNTS[case]
    parts = [trivial_quandle(1) if name == "t1" else load_fixture(f"{name}.json") for name in names]
    out = union_cross_check(parts, **scope)
    explained = out["explained"]
    assert (out["total"], explained["weighted_idempotents"], explained["nilpotent_perturbation"],
            explained["component_mass"], len(out["observed_gaps"])) == pinned


def test_union_arguments_read_back_what_the_builder_took(t2, r3, r6):
    cases = [
        ([t2, r3], dict(kind="weighted_idempotents", weights=[2, -1],
                        elements=[basis(ZZ, 1), basis(ZZ, 2)])),
        ([r6, t2], dict(kind="nilpotent_perturbation", unit_index=1,
                        elements=[elem(ZZ, [(0, 1), (3, -1)]), basis(ZZ, 0)])),
        ([r3, t2], dict(kind="component_mass", weights=[1, -1])),
    ]
    for parts, kwargs in cases:
        u = union_idempotents(parts, **kwargs)
        read = dict(_union_arguments(u, parts, union_offsets(parts)))[kwargs.pop("kind")]
        assert {key: read[key] for key in kwargs} == kwargs


def test_union_membership_reads_the_first_unit_and_compares_the_rebuild(t2, t3, r3):
    # two unit blocks: the first is read as the unit, and the second is not nilpotent
    parts = [t2, t3]
    u = elem(ZZ, [(1, 1), (4, 1)])
    assert dict(_union_arguments(u, parts, union_offsets(parts)))[
        "nilpotent_perturbation"]["unit_index"] == 0
    assert _union_membership(u, parts, union_offsets(parts)) is None
    # first coefficients -1 and 1 give mass 1, but the blocks are not constant
    parts = [t2, r3]
    u = elem(ZZ, [(0, -1), (1, 1), (2, 1), (3, 1), (4, -1)])
    assert dict(_union_arguments(u, parts, union_offsets(parts)))["component_mass"] == {
        "weights": [-1, 1]}
    assert _union_membership(u, parts, union_offsets(parts)) is None


def test_union_cross_check_passes_internal_errors_through(t2, t3, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalCheckError("rebuild broke")

    monkeypatch.setattr(idempotents, "_union_element", broken)
    with pytest.raises(InternalCheckError, match="rebuild broke"):
        union_cross_check([t2, t3], bound=1)


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
    found = [RingElement(ZZ, u) for u in _support_search(core_quandle([6]).table, 2, 3)]
    vectors = {element_to_vector(u, 6) for u in found}
    assert len(vectors) == len(found) == 12
    assert vectors == naive_idempotents_boxed(r6.table, 2, max_support=3)
    assert sum(1 for u in found if len(u.coeffs) > 1) == 6
    assert _support_tuples(6, 2, 3) == 6 * 4 + 15 * 16 + 20 * 64


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


def test_core_small_support_budget(monkeypatch):
    with pytest.raises(BudgetExceededError):
        core_three_support_check([5], 3, budget=100)
    # refused from the group order, before the 335-element table is built
    monkeypatch.setattr(idempotents, "core_quandle", None)
    with pytest.raises(BudgetExceededError) as err:
        core_three_support_check([5, 67], 1, budget=1000)
    assert err.value.needed == 49903610


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


def test_idempotent_set_input_validation(r6, p6, magma8, monkeypatch):
    calls = pair_products(monkeypatch)
    with pytest.raises(InvalidParamsError):
        idempotent_quandle_check([], p6)
    with pytest.raises(NotIdempotentInputError):
        idempotent_quandle_check([elem(ZZ, [(0, 1), (3, -1)])], r6)
    with pytest.raises(RingMismatchError):
        idempotent_quandle_check([basis(ZZ, 0), basis(QQ, 1)], p6)
    # the check leans on right distributivity and bijective columns, which
    # a magma table need not have, though each e_x of this one is idempotent
    with pytest.raises(InvalidParamsError, match="not a quandle"):
        idempotent_quandle_check([basis(ZZ, x) for x in range(8)], magma8)
    assert calls == []  # every refusal comes before any product


@pytest.mark.parametrize("key", [6, -1])
def test_idempotent_set_keys_outside_the_carrier(r6, key):
    # a key of -1 would silently index the last entry of a coefficient list
    sample = [basis(ZZ, 0), basis(ZZ, key)]
    with pytest.raises(CarrierMismatchError):
        idempotent_quandle_check(sample, r6)


def pair_element(ring, block, c):
    """c e_{2b} + (1 - c) e_{2b+1}: idempotent for every c, since each pair
    of pairs6 is a trivial subquandle."""
    return elem(ring, [(2 * block, c), (2 * block + 1, 1 - c)])


def big_pair_sample():
    # l1 norms near 2 * 10^5, so products of products exceed int64
    return [pair_element(ZZ, b, c) for b, c in ((0, 98304), (1, -65535), (2, 100003))]


Z6 = IntegersMod(6, force=True)


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
    # repeated, so duplicate vectors meet in every product
    "z-past-int64-repeated": ("p6", None, lambda q: big_pair_sample() * 2),
    # Fractions whose products leave int64
    "q-past-int64": ("p6", None, lambda q: [
        pair_element(QQ, b, c)
        for b, c in ((0, Fraction(2**40 + 1, 3)), (1, Fraction(-5, 2**33)), (2, Fraction(7**25, 11)))
    ]),
    # e_x (3 e_0) = 3 e_{x*0} is a basis element times 3, not a basis action
    "zmod6-scaled": ("r6", 6, lambda q: [elem(Z6, [(0, 3)]), elem(Z6, [(1, 4)]), basis(Z6, 2)]),
}


def oracle_failures_reduce_to_basis_action(table, vecs, reduce=None):
    """The naive failures of a set, after asserting from the oracles alone
    that closure fails only at (i, j) and self-distributivity only at
    (i, j, l) whose j, resp. l, acts as no basis element."""
    failures = naive_idempotent_set_failures(table, vecs, reduce=reduce)
    basis_action = naive_basis_action_failures(table, vecs, reduce=reduce)
    outside = {f["indices"][0] for f in basis_action}
    for f in failures:
        assert f["indices"][-1] in outside, f
    return failures + basis_action


@pytest.mark.parametrize("name", IDEMPOTENT_SETS)
def test_idempotent_set_check_matches_naive_oracle(name, request):
    q_name, modulus, build = IDEMPOTENT_SETS[name]
    q = request.getfixturevalue(q_name)
    sample = build(q)
    vecs = [[u.coeff(x) for x in range(q.order)] for u in sample]
    report = idempotent_quandle_check(sample, q)
    assert report.failures == oracle_failures_reduce_to_basis_action(q.table, vecs, reduce=modulus)
    assert report.size == len(sample)


@functools.cache
def idempotent_pool(name):
    """(quandle, modulus, idempotents) to draw idempotent-set samples from.
    T_3 has one theta_S class, so each of its idempotents summing to 1
    acts as S_0, the identity, though it is a member of no covering
    family; over Z/6 those summing to 3 or 4 act as no basis element."""
    q = load_fixture({"r6": "r6.json", "r10": "r10.json", "p6": "pairs6.json",
                      "t3": "t3.json"}[name[:name.index("-")]])
    if name.endswith("-mod5"):
        return q, 5, enumerate_mod_p(q, 5).idempotents
    if name.endswith("-mod6"):
        return q, 6, enumerate_mod_p(q, 6, force=True).idempotents
    if name.endswith("-q"):
        return q, None, family_grid((Fraction(1, 2), -3, Fraction(2, 3)), ring=QQ)
    return q, None, enumerate_boxed_Z(q, 2).idempotents


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["r6-box2", "r10-box2", "r6-mod5", "p6-mod5", "r6-q", "t3-box2",
                             "t3-mod6"]),
       picks=st.lists(st.integers(0, 10**4), min_size=1, max_size=9), repeat=st.integers(0, 8))
def test_idempotent_set_check_matches_naive_oracle_on_random_samples(name, picks, repeat):
    # random members of a pool, so products leave the sample; repeat > 0 adds a duplicate
    q, modulus, pool = idempotent_pool(name)
    sample = [pool[i % len(pool)] for i in picks]
    if repeat:
        sample.insert(repeat % len(sample), sample[repeat % len(picks)])
    vecs = [[u.coeff(x) for x in range(q.order)] for u in sample]
    report = idempotent_quandle_check(sample, q)
    expected = oracle_failures_reduce_to_basis_action(q.table, vecs, reduce=modulus)
    assert report.failures == expected
    assert report.passed == (not expected)


def test_covering_family_members_act_through_their_class_sums(r6, r10, monkeypatch):
    # each member's theta_S class sums are 1 on one class and 0 on the
    # others, so both checks read its right multiplication from the sums
    # and build no basis image
    def no_images(*args):
        raise AssertionError("a covering-family member needs no basis image")

    monkeypatch.setattr(ring_module, "_basis_images", no_images)
    monkeypatch.setattr(idempotents, "_basis_images", no_images)
    members = {dihedral_even_family(5, j, beta, list(alphas))
               for j, beta in itertools.product(range(5), (-1, 0, 1, 2))
               for alphas in itertools.product((-1, 0, 1), repeat=3)}
    assert len(members) == 304
    assert all(is_ring_endomorphism(u, r10) for u in members)
    sample = family_grid((-1, 0, 1))
    assert len(sample) == 57
    assert idempotent_quandle_check(sample, r6).passed


def pair_products(monkeypatch):
    """Spy on the _pair_product of the idempotent-set check: the factors of
    each call as tuples of (key, coefficient) pairs, in call order."""
    calls = []
    real = idempotents._pair_product

    def spy(left, right, table, ring):
        calls.append((tuple(left), tuple(right)))
        return real(left, right, table, ring)

    monkeypatch.setattr(idempotents, "_pair_product", spy)
    return calls


PASSING_SAMPLES = {
    "r6": lambda: family_grid((-1, 0, 1)),
    "r10": lambda: dihedral_members(5),
    "r10-box2": lambda: idempotent_pool("r10-box2")[2],
}


@pytest.mark.parametrize("name,k", [("r6", 2), ("r6", 10), ("r6", 57), ("r10", 10), ("r10", 60),
                                    ("r10-box2", 500)])
def test_idempotent_set_check_makes_a_few_products_whatever_k(name, k, monkeypatch, request):
    # every member acts as a basis element, which its gathered basis
    # images show, so the set is settled with no product at all
    q = request.getfixturevalue(name.split("-")[0])
    sample = PASSING_SAMPLES[name]()[:k]
    assert len(sample) == k
    calls = pair_products(monkeypatch)
    assert idempotent_quandle_check(sample, q).passed
    assert calls == []


def dihedral_members(n):
    out, seen = [], set()
    for j in range(n):
        for beta, *alphas in itertools.product((-1, 0, 1), repeat=n - 1):
            u = dihedral_even_family(n, j, beta, alphas)
            if u not in seen:
                seen.add(u)
                out.append(u)
    return out


def assert_each_needed_pair_multiplied_once(table, sample, report, calls, reduce):
    """The calls multiply each ordered pair of vectors that the check
    needs exactly once: those of S.S, the nonzero P[i][j] squared for j in
    F, and P[i][j] u_l and P[i][l] P[j][l] for l in F.  So there are at
    most k^2 + k|F| + 2 k^2 |F| <= 2k^3 + 2k^2 of them."""
    def pairs(vec):
        return tuple((x, c) for x, c in enumerate(vec) if c)

    k, n = len(sample), len(table)
    vecs = [[u.coeff(x) for x in range(n)] for u in sample]
    p = [[product_vector(table, a, b, reduce) for b in vecs] for a in vecs]
    f = [e["indices"][0] for e in report.failures if e["check"] == "right_mult_is_basis_action"]
    needed = {(pairs(a), pairs(b)) for a in vecs for b in vecs}
    needed |= {(pairs(p[i][j]),) * 2 for i in range(k) for j in f if any(p[i][j])}
    for i, j, l in itertools.product(range(k), range(k), f):
        needed |= {(pairs(p[i][j]), pairs(vecs[l])), (pairs(p[i][l]), pairs(p[j][l]))}
    assert len(calls) == len(set(calls))
    assert set(calls) == needed
    assert len(calls) <= k * k + k * len(f) + 2 * k * k * len(f) <= 2 * k**3 + 2 * k**2
    return f


def test_idempotent_set_check_worst_case_stays_within_the_old_row_count(p6, monkeypatch):
    # every idempotent of Z/7[pairs6], most acting as no basis element (F):
    # the products repeat, 43k distinct ones, each made once
    sample = enumerate_mod_p(p6, 7).idempotents
    calls = pair_products(monkeypatch)
    report = idempotent_quandle_check(sample, p6)  # its failures: the oracle test above
    f = assert_each_needed_pair_multiplied_once(p6.table, sample, report, calls, 7)
    assert 0 < len(f) < len(sample)


def test_idempotent_set_check_multiplies_the_distinct_rows_of_a_failing_set(r6, monkeypatch):
    # all 95 idempotents of Z/5[R_6], 20 of them acting as no basis element:
    # P = S.S has 9,025 entries but 96 distinct vectors
    sample = enumerate_mod_p(r6, 5).idempotents
    vecs = [[u.coeff(x) for x in range(r6.order)] for u in sample]
    calls = pair_products(monkeypatch)
    report = idempotent_quandle_check(sample, r6)
    assert report.failures == oracle_failures_reduce_to_basis_action(r6.table, vecs, reduce=5)
    f = assert_each_needed_pair_multiplied_once(r6.table, sample, report, calls, 5)
    assert len(f) == 20
