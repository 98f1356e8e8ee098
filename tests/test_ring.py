"""Coefficient rings, ring elements, products, matrices, annihilators."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    QQ,
    ZZ,
    CarrierMismatchError,
    CompositeModulusError,
    IntegersMod,
    InvalidParamsError,
    MagmaTable,
    RingElement,
    RingMismatchError,
    SquareMatrix,
    augmentation,
    basis,
    dense_product,
    dihedral_even_family,
    element_from_json,
    element_to_json,
    has_nontrivial_right_annihilator,
    is_idempotent,
    is_ring_endomorphism,
    kernel_vector,
    mul,
    orbit_sum,
    perm_cycles,
    right_mult_matrix,
    ring_from_tag,
    scalar_mul,
    trivial_quandle,
    zero,
)
from quandlekit import ring as ring_module


from conftest import load_fixture
from oracles import naive_is_ring_endomorphism, product_vector, square_vector


def elem(ring, pairs):
    return RingElement(ring, pairs)


# ---------------------------------------------------------------------------
# coefficient rings


def test_composite_modulus_rejected():
    with pytest.raises(CompositeModulusError) as exc:
        IntegersMod(4)
    assert exc.value.modulus == 4


@pytest.mark.parametrize("build, message", [
    (lambda: ring_module.CoeffRing("R"), "unknown coefficient ring kind 'R'"),
    (lambda: ZZ.coerce(1.5), "cannot coerce 1.5 into Z"),
    (lambda: IntegersMod(5).coerce([1]), r"cannot coerce \[1\] into Zmod:5"),
    (lambda: element_from_json([[0, "1"]]), "element document must be an object, got list"),
], ids=["unknown-kind", "float-scalar", "list-scalar", "list-document"])
def test_malformed_rings_scalars_and_documents_are_refused(build, message):
    with pytest.raises(InvalidParamsError, match=message):
        build()


def test_composite_modulus_forced_is_not_a_domain():
    r = IntegersMod(4, force=True)
    assert not r.is_domain
    assert r.characteristic == 4
    assert IntegersMod(5).is_domain
    assert ZZ.is_domain and QQ.is_domain


def test_primality_is_decided_once_per_ring(monkeypatch):
    calls = []
    real = ring_module._is_prime
    monkeypatch.setattr(ring_module, "_is_prime", lambda m: calls.append(m) or real(m))
    prime, forced = IntegersMod(2147483659), IntegersMod(4, force=True)
    for _ in range(3):
        assert prime.is_domain and not forced.is_domain
    assert calls == [2147483659, 4]
    assert prime == IntegersMod(2147483659) and hash(prime) == hash(IntegersMod(2147483659))
    assert calls == [2147483659, 4, 2147483659, 2147483659]


def test_ring_tags_round_trip():
    for ring in (ZZ, QQ, IntegersMod(7)):
        assert ring_from_tag(ring.tag) == ring
    assert ring_from_tag("Zmod:4", force=True).modulus == 4
    with pytest.raises(CompositeModulusError):
        ring_from_tag("Zmod:4")
    with pytest.raises(InvalidParamsError):
        ring_from_tag("GF:8")


def test_coercion_rules():
    assert IntegersMod(3).coerce(7) == 1
    assert QQ.coerce("1/2") == Fraction(1, 2)
    assert ZZ.coerce(Fraction(6, 3)) == 2
    with pytest.raises(InvalidParamsError):
        ZZ.coerce(Fraction(1, 2))


def test_invertibility():
    assert ZZ.invertible(-1) and not ZZ.invertible(2)
    assert QQ.invertible(2) and not QQ.invertible(0)
    z6 = IntegersMod(6, force=True)
    assert z6.invertible(5) and not z6.invertible(3)


# ---------------------------------------------------------------------------
# elements


def test_element_merges_and_prunes():
    u = elem(ZZ, [(0, 2), (1, 3), (0, -2)])
    assert u.coeffs == ((1, 3),)
    assert u.coeff(0) == 0
    assert u.support == (1,)


def test_element_sorts_support():
    u = elem(ZZ, [(4, 1), (0, 1), (2, 1)])
    assert u.support == (0, 2, 4)


def test_element_is_immutable():
    u = basis(ZZ, 0)
    with pytest.raises(AttributeError):
        u.coeffs = ()


@pytest.mark.parametrize("copier", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_element_survives_pickle_and_copy(copier):
    # the immutable slots are rebuilt through the constructor
    for u in (elem(ZZ, [(0, 2), (3, -1)]), elem(QQ, [(1, Fraction(1, 2))]),
              elem(IntegersMod(7), [(2, 5)]), zero(ZZ)):
        v = copier(u)
        assert v == u and hash(v) == hash(u)
        assert (v.ring, v.coeffs) == (u.ring, u.coeffs)


def test_add_sub_scale_mod_3():
    r = IntegersMod(3)
    u = elem(r, [(0, 1), (1, 2)])
    v = elem(r, [(1, 1), (2, 1)])
    assert (u + v).coeffs == ((0, 1), (2, 1))  # the e1 terms cancel mod 3
    assert (u - v).coeffs == ((0, 1), (1, 1), (2, 2))
    assert scalar_mul(2, u).coeffs == ((0, 2), (1, 1))
    assert u.scale(3).is_zero()


def test_add_rejects_ring_mismatch():
    with pytest.raises(RingMismatchError):
        basis(ZZ, 0) + basis(QQ, 0)


def test_mul_rejects_ring_mismatch(r3):
    with pytest.raises(RingMismatchError):
        mul(basis(ZZ, 0), basis(QQ, 1), r3)


def test_zero_and_repr():
    assert zero(ZZ).is_zero()
    assert repr(zero(ZZ)) == "0"
    assert repr(elem(ZZ, [(0, 2), (3, -1)])) == "2*e[0] - 1*e[3]"
    assert repr(elem(ZZ, [(1, 1)])) == "e[1]"


# ---------------------------------------------------------------------------
# products


def test_basis_product_follows_table(r3):
    assert mul(basis(ZZ, 0), basis(ZZ, 1), r3) == basis(ZZ, 2)
    for x, y in itertools.product(range(3), repeat=2):
        assert mul(basis(ZZ, x), basis(ZZ, y), r3) == basis(ZZ, r3.op(x, y))


def test_mul_rejects_foreign_basis_key(r3):
    with pytest.raises(CarrierMismatchError):
        mul(basis(ZZ, 7), basis(ZZ, 0), r3)


def test_mul_is_bilinear(r6, rng):
    def rand_elem():
        return elem(ZZ, [(k, rng.randrange(-3, 4)) for k in range(6)])

    for _ in range(50):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert mul(u + v, w, r6) == mul(u, w, r6) + mul(v, w, r6)
        assert mul(w, u + v, r6) == mul(w, u, r6) + mul(w, v, r6)
        c = rng.randrange(-3, 4)
        assert mul(u.scale(c), v, r6) == mul(u, v, r6).scale(c)


def test_quandle_identity_fails_inside_the_ring(p6):
    # (uv)w = (uw)(vw) holds on basis vectors but not on sums: the
    # order-6 example with u = e0, v = e3, w = 2e4 - e5 separates them
    u, v = basis(ZZ, 0), basis(ZZ, 3)
    w = elem(ZZ, [(4, 2), (5, -1)])
    uv_w = mul(mul(u, v, p6), w, p6)
    uw_vw = mul(mul(u, w, p6), mul(v, w, p6), p6)
    assert uv_w == basis(ZZ, 5)
    assert uw_vw == elem(ZZ, [(4, -4), (5, 5)])
    assert uv_w != uw_vw


def test_deformed_pair_products_by_weight(p6):
    # w_a = a*e4 + (1-a)*e5 for integer a: (e0 w_a)(e3 w_a) lands on
    # {e4, e5} with coefficients (2a - 2a^2, 2a^2 - 2a + 1)
    u, v = basis(ZZ, 0), basis(ZZ, 3)
    for a in range(-3, 4):
        w = elem(ZZ, [(4, a), (5, 1 - a)])
        got = mul(mul(u, w, p6), mul(v, w, p6), p6)
        want = elem(ZZ, [(4, 2 * a - 2 * a * a), (5, 2 * a * a - 2 * a + 1)])
        assert got == want


def test_augmentation_values_and_multiplicativity(r6, rng):
    assert augmentation(elem(ZZ, [(0, 3), (1, -2)])) == 1
    assert augmentation(zero(QQ)) == 0
    for _ in range(40):
        u = elem(ZZ, [(k, rng.randrange(-3, 4)) for k in range(6)])
        v = elem(ZZ, [(k, rng.randrange(-3, 4)) for k in range(6)])
        assert augmentation(mul(u, v, r6)) == augmentation(u) * augmentation(v)


def test_is_idempotent_basics(r3, p6):
    assert is_idempotent(basis(ZZ, 1), r3)
    assert not is_idempotent(zero(ZZ), r3)
    assert not is_idempotent(elem(ZZ, [(0, 2)]), r3)
    assert is_idempotent(elem(QQ, [(0, "1/2"), (1, "1/2")]), p6)


def test_pair_families_are_idempotent(p6):
    # on each trivially acting pair {a, b}, a*e_a + (1-a)*e_b squares
    # to itself for every integer weight
    for a_idx, b_idx in [(0, 1), (2, 3), (4, 5)]:
        for a in range(-4, 5):
            u = elem(ZZ, [(a_idx, a), (b_idx, 1 - a)])
            assert is_idempotent(u, p6)


def test_orbit_sum_values(r6, t2):
    assert orbit_sum(3, 0, r6) == elem(ZZ, [(3, 2)])
    assert orbit_sum(1, 0, r6) == elem(ZZ, [(1, 1), (5, 1)])
    assert orbit_sum(0, 1, t2) == basis(ZZ, 0)
    with pytest.raises(InvalidParamsError):
        orbit_sum(0, 6, r6)


def test_orbit_sum_fixed_by_its_translation(r6, r5):
    # the n_y-fold orbit sum absorbs one more right multiplication by e_y
    for q in (r6, r5):
        for x in range(q.order):
            for y in range(q.order):
                u = orbit_sum(x, y, q)
                assert mul(u, basis(ZZ, y), q) == u


# ---------------------------------------------------------------------------
# matrices


def test_right_mult_matrix_of_basis_is_permutation(r6):
    m = right_mult_matrix(basis(ZZ, 0), r6)
    n = r6.order
    for z in range(n):
        for k in range(n):
            assert m.entries[z][k] == (1 if r6.op(k, 0) == z else 0)


def test_right_mult_matrix_agrees_with_products(r6, rng):
    u = elem(ZZ, [(k, rng.randrange(-2, 3)) for k in range(6)])
    m = right_mult_matrix(u, r6)
    for _ in range(20):
        w = elem(ZZ, [(k, rng.randrange(-2, 3)) for k in range(6)])
        vec = tuple(w.coeff(k) for k in range(6))
        out = m.apply(vec)
        assert RingElement(ZZ, list(enumerate(out))) == mul(w, u, r6)


def test_halved_pair_annihilates_the_other_pair_difference(p6):
    u = elem(QQ, [(0, "1/2"), (1, "1/2")])
    m = right_mult_matrix(u, p6)
    diff = (0, 0, 1, -1, 0, 0)
    assert m.apply(diff) == (Fraction(0),) * 6
    assert mul(elem(QQ, [(2, 1), (3, -1)]), u, p6).is_zero()


def test_equal_column_difference_gives_zero_matrix(r6):
    # indices 0 and 3 share a right multiplication, so e0 - e3 kills
    # everything from the right
    assert right_mult_matrix(elem(ZZ, [(0, 1), (3, -1)]), r6).is_zero()


def test_matrix_shape_checks():
    with pytest.raises(InvalidParamsError):
        SquareMatrix(ZZ, [[1, 2], [3]])
    m = SquareMatrix(ZZ, [[1, 0], [0, 1]])
    with pytest.raises(InvalidParamsError):
        m.apply((1, 2, 3))
    assert m.to_json() == {"ring": "Z", "entries": [["1", "0"], ["0", "1"]]}


def test_right_mult_matrix_rejects_foreign_key(r3):
    with pytest.raises(CarrierMismatchError):
        right_mult_matrix(basis(ZZ, 5), r3)


# ---------------------------------------------------------------------------
# kernels and annihilators


def test_kernel_vector_exact_integer():
    m = SquareMatrix(ZZ, [[2, 4, 0], [1, 2, 0], [0, 0, 1]])
    k = kernel_vector(m)
    assert k is not None and any(k)
    assert m.apply(k) == (0, 0, 0)
    # primitive: content 1, first nonzero entry positive
    assert k == (2, -1, 0)


def test_kernel_vector_rational():
    m = SquareMatrix(QQ, [["1/2", "1/3"], ["3/2", "1"]])
    k = kernel_vector(m)
    assert k is not None
    assert m.apply(k) == (Fraction(0), Fraction(0))


def test_kernel_vector_mod_p():
    m = SquareMatrix(IntegersMod(5), [[1, 2], [3, 6]])
    k = kernel_vector(m)
    assert k is not None
    assert m.apply(k) == (0, 0)


def test_kernel_vector_none_when_invertible():
    assert kernel_vector(SquareMatrix(ZZ, [[1, 1], [0, 1]])) is None
    assert kernel_vector(SquareMatrix(IntegersMod(7), [[1, 1], [0, 1]])) is None


def test_kernel_over_non_domain_rejected():
    m = SquareMatrix(IntegersMod(6, force=True), [[2, 0], [0, 3]])
    with pytest.raises(InvalidParamsError):
        kernel_vector(m)


# (matrix, kernel vector) pairs recorded from the Bareiss and mod-p
# eliminations that the single Gauss-Jordan routine replaced
PINNED_KERNELS = [
    ("z-dim1", ZZ, [[2, 4, -6], [1, 3, 5], [3, 7, -1]], (19, -8, 1)),
    ("z-dim2", ZZ, [[2, 3, 1, 5], [4, 6, 3, 7], [6, 9, 4, 12], [2, 3, 2, 2]], (3, -2, 0, 0)),
    ("q-fractions", QQ, [["1/2", "1/3", "-5/6"], ["3/4", "1/2", "-5/4"], ["1", "2/3", "-5/3"]],
     (Fraction(2), Fraction(-3), Fraction(0))),
    ("z2", IntegersMod(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 1, 1)),
    ("z3", IntegersMod(3), [[1, 2, 0], [2, 1, 0], [0, 0, 1]], (1, 1, 0)),
    ("z5", IntegersMod(5), [[1, 2, 3], [2, 4, 1], [3, 1, 4]], (3, 1, 0)),
    ("z7", IntegersMod(7), [[3, 1, 4, 1], [5, 2, 6, 5], [1, 0, 6, 4], [6, 5, 2, 4]], (3, 4, 0, 1)),
]


@pytest.mark.parametrize("ring,entries,expected", [c[1:] for c in PINNED_KERNELS],
                         ids=[c[0] for c in PINNED_KERNELS])
def test_kernel_vector_pinned(ring, entries, expected):
    k = kernel_vector(SquareMatrix(ring, entries))
    assert k == expected
    assert [type(v) for v in k] == [type(v) for v in expected]


def test_kernel_vector_pinned_r6_annihilator(r6):
    m = right_mult_matrix(elem(ZZ, [(0, 1), (1, 1), (2, 1)]), r6)
    assert kernel_vector(m) == (1, 0, -1, 0, 0, 0)


@st.composite
def rank_deficient_matrices(draw):
    """A square matrix of rank below its size: each row is a small integer
    combination of fewer than n random rows."""
    ring = draw(st.sampled_from([ZZ, QQ] + [IntegersMod(p) for p in (2, 3, 5, 7, 11)]))
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n - 1))
    if ring == QQ:
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    else:
        scalar = st.integers(-4, 4)
    gens = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=rank, max_size=rank))
    rows = []
    for _ in range(n):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), 0) for j in range(n)])
    return SquareMatrix(ring, rows)


def _column_rank(m: SquareMatrix, cols: int) -> int:
    """Rank of the first `cols` columns, by sympy's own elimination."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain = sympy.GF(m.ring.modulus) if m.ring.kind == "Zmod" else sympy.QQ
    return DomainMatrix.from_list([row[:cols] for row in m.entries], domain).rank()


@settings(max_examples=150, deadline=None)
@given(m=rank_deficient_matrices())
def test_kernel_vector_property(m):
    k = kernel_vector(m)
    assert k is not None and any(k)
    assert all(v == 0 for v in m.apply(k))
    # the last nonzero entry sits at the first free column: the columns
    # before it are independent
    free = max(j for j, v in enumerate(k) if v)
    assert free == 0 or _column_rank(m, free) == free
    if m.ring.kind == "Zmod":
        assert k[free] == 1
    else:
        assert all(Fraction(v).denominator == 1 for v in k)
        assert math.gcd(*(int(v) for v in k)) == 1
        assert next(v for v in k if v) > 0


def test_coeff_ring_div():
    assert ZZ.div(6, 3) == 2 and ZZ.div(-6, 4) is None and ZZ.div(0, 0) is None
    assert QQ.div(Fraction(1, 2), 3) == Fraction(1, 6) and QQ.div(Fraction(1), 0) is None
    assert IntegersMod(7).div(1, 3) == 5 and IntegersMod(7).div(3, 7) is None
    assert IntegersMod(6, force=True).div(2, 2) is None


@pytest.mark.parametrize("ring, values, expected", [
    (ZZ, [3, -5, 4], 2),
    (ZZ, [], 0),
    (QQ, [Fraction(1, 2), Fraction(1, 3), 1], Fraction(11, 6)),
    (QQ, [2, 3], Fraction(5)),
    (QQ, [], Fraction(0)),
    (IntegersMod(5), [3, 4, 4], 1),
    (IntegersMod(7), [-1, -1], 5),
    (IntegersMod(6, force=True), [4, 2], 0),
    (IntegersMod(5), [], 0),
], ids=["Z", "Z-empty", "Q", "Q-ints", "Q-empty", "Z5", "Z7-negative", "Z6-forced", "Z5-empty"])
def test_coeff_ring_sum_is_reduced_once(ring, values, expected):
    total = ring.sum(iter(values))
    assert total == expected and type(total) is type(expected)


def test_right_annihilator_witness(r6):
    found, witness = has_nontrivial_right_annihilator(elem(ZZ, [(0, 1), (3, -1)]), r6)
    assert found
    assert not witness.is_zero()
    assert mul(witness, elem(ZZ, [(0, 1), (3, -1)]), r6).is_zero()


def test_right_annihilator_absent_for_unit(r3):
    found, witness = has_nontrivial_right_annihilator(basis(ZZ, 0), r3)
    assert not found and witness is None


def test_fiber_differences_annihilate(r6):
    for a, b in [(0, 3), (1, 4), (2, 5)]:
        found, _ = has_nontrivial_right_annihilator(elem(ZZ, [(a, 1), (b, -1)]), r6)
        assert found


def test_basis_elements_are_ring_endomorphisms(r6):
    for y in range(6):
        assert is_ring_endomorphism(basis(ZZ, y), r6)


def test_non_endomorphism_detected(p6):
    assert not is_ring_endomorphism(elem(ZZ, [(0, 2), (1, -1)]), p6)


def test_endomorphism_check_on_a_one_element_quandle():
    # the basis action of e_0 is the one-entry sigma (0,), whose row compare
    # would meet a scalar where a tuple is expected
    one = trivial_quandle(1)
    for ring in (ZZ, IntegersMod(5)):
        assert is_ring_endomorphism(basis(ring, 0), one)
        for c in (2, -1, 3):
            vec = [ring.coerce(c)]
            expected = naive_is_ring_endomorphism(one.table, vec, ring.modulus or None)
            assert is_ring_endomorphism(elem(ring, [(0, c)]), one) == expected


# ---------------------------------------------------------------------------
# serialization


def test_element_json_round_trip_integer():
    u = elem(ZZ, [(0, 2), (3, -1)])
    doc = element_to_json(u)
    assert doc == {"ring": "Z", "coeffs": [[0, "2"], [3, "-1"]]}
    assert element_from_json(doc) == u


def test_element_json_round_trip_rational():
    u = elem(QQ, [(1, Fraction(1, 2)), (2, Fraction(1, 2))])
    doc = element_to_json(u)
    assert doc["coeffs"] == [[1, "1/2"], [2, "1/2"]]
    assert element_from_json(doc) == u


def test_element_json_round_trip_mod_p():
    u = elem(IntegersMod(5), [(0, 3), (1, 3)])
    assert element_from_json(element_to_json(u)) == u


def test_element_json_rejects_string_keys_without_parser():
    with pytest.raises(InvalidParamsError):
        element_from_json({"ring": "Z", "coeffs": [["x0", "1"]]})


# ---------------------------------------------------------------------------
# dense products on table carriers against the list oracle

DENSE_TABLES = {name: load_fixture(f"{name}.json") for name in ("r6", "pairs6", "r10", "t3")}
# S_1 = S_2 (both constant 0), so a e_1 + (1 - a) e_2 has theta_S class
# sums 0 and 1 and sends every e_k to e_0; but 0 = 0*0 fails, so no such
# element is an endomorphism of this magma
DENSE_TABLES["magma3"] = MagmaTable([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
DENSE_RINGS = [ZZ, QQ, IntegersMod(2), IntegersMod(5), IntegersMod(7)]


def _same_columns(q):
    """The pairs y != y' with S_y = S_y', read from the table's columns."""
    columns = list(zip(*q.table))
    return [(y, z) for y, z in itertools.permutations(range(q.order), 2) if columns[y] == columns[z]]


def _planted(draw, name, q, ring):
    """An element whose theta_S class sums are 1 on one class and 0 on the
    others: a basis element, a dihedral family member on R_6 and R_10, a
    weighted pair on pairs6, any element summing to 1 on T_3 (on the
    quandles, all idempotents), and a e_1 + (1 - a) e_2 on the magma."""
    if draw(st.booleans()):
        return basis(ring, draw(st.integers(0, q.order - 1)))
    small = st.integers(-2, 2)
    if name in ("pairs6", "magma3"):
        a_idx = 2 * draw(st.integers(0, 2)) if name == "pairs6" else 1
        a = draw(small)
        return elem(ring, [(a_idx, a), (a_idx + 1, 1 - a)])
    if name == "t3":
        a, b = draw(small), draw(small)
        return elem(ring, [(0, a), (1, b), (2, 1 - a - b)])
    half = q.order // 2
    width = (half - 1) // 2 + 1
    alphas = draw(st.lists(small, min_size=width, max_size=width))
    return dihedral_even_family(half, draw(st.integers(0, half - 1)), draw(small), alphas, ring=ring)


@st.composite
def table_elements(draw):
    """(table name, element): random small supports, planted elements,
    planted ones with one coefficient moved, planted ones plus
    a (e_y - e_y') with S_y = S_y' (class sums kept, so no family member
    in general), and keys outside the table."""
    name = draw(st.sampled_from(sorted(DENSE_TABLES)))
    q = DENSE_TABLES[name]
    ring = draw(st.sampled_from(DENSE_RINGS))
    if ring == QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        scalar = st.integers(-3, 3)
    kind = draw(st.sampled_from(["random", "planted", "moved", "classed", "foreign"]))
    if kind in ("planted", "moved", "classed"):
        u = _planted(draw, name, q, ring)
        if kind == "moved":
            u = u + elem(ring, [(draw(st.integers(0, q.order - 1)), draw(scalar))])
        same = _same_columns(q)
        if kind == "classed" and same:
            a = draw(scalar)
            for y, z in draw(st.lists(st.sampled_from(same), min_size=1, max_size=2)):
                u = u + elem(ring, [(y, a), (z, -a)])
        return name, u
    keys = st.integers(0, q.order - 1)
    pairs = draw(st.lists(st.tuples(keys, scalar), min_size=0, max_size=4))
    if kind == "foreign":
        pairs.append((draw(st.sampled_from([-1, q.order, q.order + 3])), 1))
    return name, elem(ring, pairs)


def _vector(u, n):
    vec = [0] * n
    for k, c in u.coeffs:
        vec[k] = c
    return vec


@settings(max_examples=300, deadline=None)
@given(case=table_elements())
def test_dense_checks_agree_with_the_list_oracle(case):
    name, u = case
    q = DENSE_TABLES[name]
    n = q.order
    if any(not 0 <= k < n for k in u.support):
        with pytest.raises(CarrierMismatchError):
            is_ring_endomorphism(u, q)
        with pytest.raises(CarrierMismatchError):
            is_idempotent(u, q)
        return
    reduce = u.ring.modulus or None
    vec = _vector(u, n)
    assert is_idempotent(u, q) == (any(vec) and square_vector(q.table, vec, reduce) == vec)
    assert is_ring_endomorphism(u, q) == naive_is_ring_endomorphism(q.table, vec, reduce)
    assert dense_product(vec, vec, q.table, u.ring) == product_vector(q.table, vec, vec, reduce)


def test_dense_checks_see_both_answers(r6, r10):
    # the property above is not vacuous: each check says yes and no
    member = dihedral_even_family(5, 1, 2, [1, -1, 0])
    assert is_idempotent(member, r10) and is_ring_endomorphism(member, r10)
    assert not is_ring_endomorphism(elem(ZZ, [(0, 1), (1, 1)]), r10)
    assert is_idempotent(elem(ZZ, [(0, 2), (3, -1)]), r6)
    assert not is_idempotent(elem(IntegersMod(5), [(0, 2)]), r6)
    half = elem(QQ, [(0, "1/2"), (3, "1/2")])
    assert is_idempotent(half, r6) and is_ring_endomorphism(half, r6)


@pytest.mark.parametrize("ring", [ZZ, QQ, IntegersMod(5)], ids=["Z", "Q", "Zmod5"])
def test_endomorphism_check_reads_a_unit_on_one_class_only(ring):
    # theta_S class sums decide w -> w*u in a quandle only when one class
    # sums to 1 and every other to 0, and never on a magma
    r6, t3, magma3 = DENSE_TABLES["r6"], DENSE_TABLES["t3"], DENSE_TABLES["magma3"]
    cases = [
        (r6, [(0, 2), (3, -1), (1, 4), (4, -4)], True),  # sums 1, 0, 0
        (r6, [(0, 1), (4, -1), (5, 1)], False),  # sums 1, -1, 1
        (r6, [(0, 2), (3, -1), (4, 1), (5, -1)], False),  # sums 1, 1, -1
        (t3, [(0, 2), (1, -1)], True),  # one class: every S_y is the identity
        (t3, [(0, 2)], False),
        (magma3, [(1, 2), (2, -1)], False),  # sums 0 and 1, but not a quandle
    ]
    for q, pairs, expected in cases:
        u = elem(ring, pairs)
        vec = _vector(u, q.order)
        assert naive_is_ring_endomorphism(q.table, vec, ring.modulus or None) is expected
        assert is_ring_endomorphism(u, q) is expected, (q, u)


def test_endomorphism_check_decides_basis_images_on_a_magma(magma8):
    # each e_x of quasigroup8 sends every basis element to a basis element,
    # but the table is not right distributive: the integer compare of basis
    # images must still say no
    for ring in (ZZ, QQ, IntegersMod(2), IntegersMod(5)):
        for x in range(magma8.order):
            u = basis(ring, x)
            vec = _vector(u, 8)
            for k in range(8):
                assert product_vector(magma8.table, _vector(basis(ZZ, k), 8), vec) == _vector(
                    basis(ZZ, magma8.table[k][x]), 8)
            expected = naive_is_ring_endomorphism(magma8.table, vec, ring.modulus or None)
            assert is_ring_endomorphism(u, magma8) is expected is False


def _basis_image_elements(r6, r10, ring):
    """(table, element) pairs where the element is no basis element but
    every e_k u is one: 2e_0 - e_3 on r6 (columns 0 and 3 of r6 agree),
    the non-basis r10 family members, and 2e_0 - e_1 on a magma whose
    equal columns 0 and 1 send k to k + 1 mod 3, a map that column 2
    (constant 0) keeps from being a hom."""
    magma = MagmaTable([[1, 1, 0], [2, 2, 0], [0, 0, 0]])
    cases = [(r6, elem(ring, [(0, 2), (3, -1)])), (magma, elem(ring, [(0, 2), (1, -1)]))]
    seen = set()
    for j, beta in itertools.product(range(5), (-1, 0, 2)):
        for alphas in itertools.product((-1, 0, 1), repeat=3):
            u = dihedral_even_family(5, j, beta, list(alphas), ring=ring)
            if len(u.coeffs) > 1 and u not in seen:
                seen.add(u)
                cases.append((r10, u))
    return cases


@pytest.mark.parametrize("ring", [ZZ, QQ, IntegersMod(5)], ids=["Z", "Q", "Zmod5"])
def test_endomorphism_check_compares_sigma_rows_for_non_basis_elements(r6, r10, ring, monkeypatch):
    cases = _basis_image_elements(r6, r10, ring)
    reduce = ring.modulus or None
    expected = []
    for q, u in cases:
        vec = _vector(u, q.order)
        images = [product_vector(q.table, _vector(basis(ZZ, k), q.order), vec, reduce)
                  for k in range(q.order)]
        assert all(sorted(img) == [0] * (q.order - 1) + [1] for img in images)
        expected.append(naive_is_ring_endomorphism(q.table, vec, reduce))
    assert expected[:2] == [True, False] and all(expected[2:]) and len(cases) > 100

    def no_pair_products(*args):
        raise AssertionError("every image is a basis element: no pair is multiplied out")

    monkeypatch.setattr(ring_module, "_pair_product", no_pair_products)
    assert [is_ring_endomorphism(u, q) for q, u in cases] == expected


def test_right_mult_orders_are_cached_permutation_orders(r6, r10, p6):
    for q in (r6, r10, p6):
        for perm, order in zip(q.right_mults, q.right_mult_orders):
            power, k = perm, 1
            while power != tuple(range(q.order)):
                power, k = tuple(perm[i] for i in power), k + 1
            assert order == k
        assert q.right_mult_orders is q.right_mult_orders
        assert q.right_mult_cycles == tuple(tuple(perm_cycles(p)) for p in q.right_mults)
        assert q.right_mult_cycles is q.right_mult_cycles
