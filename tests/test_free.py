"""Free quandle normal forms, expressions, enumeration, bounded search."""

import copy
import hashlib
import itertools
import json
import math
import pickle

import pytest

from quandlekit import (
    BudgetExceededError,
    CarrierMismatchError,
    FreeQuandle,
    FreeQuandleElement,
    IndexOutOfRangeError,
    InvalidParamsError,
    LeftAssocExpr,
    ZZ,
    basis,
    canonicalize_expr,
    enumerate_elements,
    eval_expr,
    fq_idempotent_search,
    fq_op,
    generator,
    left_assoc_product,
    length,
    mul,
    parse_element,
    parse_expr,
    products_stay_long,
    reduce_word,
    render_expr,
    word_inv,
    word_mul,
)
from quandlekit import free

from oracles import (
    eval_tree,
    expand_syllables,
    oracle_full_word,
    oracle_op,
    random_rewrite,
    random_tree,
    w_inv,
    w_reduce,
)

X, Y, Z = generator(0), generator(1), generator(2)


# ---------------------------------------------------------------------------
# words


@pytest.mark.parametrize("rank", [0, -1])
def test_free_quandle_of_rank_below_one_is_refused(rank):
    with pytest.raises(InvalidParamsError, match="rank must be >= 1"):
        FreeQuandle(rank)


def test_reduce_word_merges_and_cancels():
    assert reduce_word([(0, 1), (0, 1)]) == ((0, 2),)
    assert reduce_word([(0, 1), (0, -1)]) == ()
    assert reduce_word([(0, 2), (1, 1), (1, -1), (0, -2)]) == ()
    assert reduce_word([(0, 1), (1, 0), (0, 1)]) == ((0, 2),)


def test_word_mul_inv():
    a = ((0, 1), (1, -2))
    assert word_mul(a, word_inv(a)) == ()
    assert word_inv(a) == ((1, 2), (0, -1))


def test_element_normal_form_strips_trailing_base_power():
    assert FreeQuandleElement(0, [(0, 3)]) == X
    assert FreeQuandleElement(1, [(0, 1), (1, 2)]) == FreeQuandleElement(1, [(0, 1)])


def test_element_coerces_the_base_before_stripping():
    # the trailing x_0^2 commutes past the base x_0, given as "0" too
    got = FreeQuandleElement("0", ((1, 1), (0, 2)))
    assert got == FreeQuandleElement(0, ((1, 1), (0, 2))) == FreeQuandleElement(0, ((1, 1),))
    assert got.base == 0 and got.conjugator == ((1, 1),)
    assert hash(got) == hash(FreeQuandleElement(0, ((1, 1),)))


def test_element_is_immutable():
    with pytest.raises(AttributeError):
        X.base = 1


@pytest.mark.parametrize("copier", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_elements_survive_pickle_and_copy(copier):
    # the immutable slots are rebuilt through the constructor
    elems = [X, fq_op(Y, X), fq_op(fq_op(X, Y, -1), Z), FreeQuandleElement(2, [(0, 2), (1, -1)])]
    for a in elems:
        b = copier(a)
        assert b == a and hash(b) == hash(a)
        assert (b.base, b.conjugator) == (a.base, a.conjugator)
    u = basis(ZZ, elems[1]) + basis(ZZ, elems[2]).scale(-3)
    v = copier(u)
    assert v == u and hash(v) == hash(u)
    assert v.support == u.support and mul(v, v, FreeQuandle(3)) == mul(u, u, FreeQuandle(3))


# ---------------------------------------------------------------------------
# the operation


def test_op_is_idempotent_on_everything():
    for a in enumerate_elements(2, 3):
        assert fq_op(a, a) == a


def test_op_signs_are_inverse_actions(rng):
    elems = enumerate_elements(2, 3)
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        assert fq_op(fq_op(a, b), b, -1) == a
        assert fq_op(fq_op(a, b, -1), b) == a


def test_op_rejects_bad_sign():
    with pytest.raises(InvalidParamsError):
        fq_op(X, Y, 2)


def test_op_frozen_conjugate():
    got = fq_op(fq_op(X, Y), fq_op(Y, X))
    assert str(got) == "g0*g1*g0^-1*g1*g0"
    assert got.base == 0
    assert got.conjugator == ((0, 1), (1, 1), (0, -1), (1, 1))


def test_op_right_distributes(rng):
    elems = enumerate_elements(2, 3)
    for _ in range(300):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert fq_op(fq_op(a, b), c) == fq_op(fq_op(a, c), fq_op(b, c))


def test_op_matches_letter_level_oracle(rng):
    for _ in range(300):
        a = eval_tree(random_tree(rng, 2, 3), 2)
        b = eval_tree(random_tree(rng, 2, 3), 2)
        sign = rng.choice((1, -1))
        got = oracle_full_word(fq_op(a, b, sign))
        assert got == oracle_op(oracle_full_word(a), oracle_full_word(b), sign)


def _check_canonical_product(a, b, sign):
    got = fq_op(a, b, sign)
    w = b.full_word() if sign > 0 else word_inv(b.full_word())
    # built publicly from the unreduced concatenation, an extra base power at its end
    public = FreeQuandleElement(a.base, w + a.conjugator + ((a.base, 2),))
    again = FreeQuandleElement(got.base, got.conjugator)
    assert (again.base, again.conjugator) == (got.base, got.conjugator) == (public.base, public.conjugator)
    assert hash(got) == hash(public) == hash(again)
    assert oracle_full_word(got) == oracle_op(oracle_full_word(a), oracle_full_word(b), sign)
    return got


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_op_products_are_in_normal_form(rng, rank):
    # conjugators of up to 5 letters; besides random pairs, a's conjugator
    # is the inverse of a suffix of b's word, so the junction cancels all of it
    elems = enumerate_elements(rank, 6)
    cancelled = bare = 0
    for _ in range(150):
        a, b, sign = rng.choice(elems), rng.choice(elems), rng.choice((1, -1))
        _check_canonical_product(a, b, sign)
        w = expand_syllables(b.full_word())
        if sign < 0:
            w = w_inv(w)
        for k in range(1, len(w) + 1):
            u = reduce_word(w_inv(w[-k:]))
            for base in range(rank):
                a = FreeQuandleElement(base, u)
                u_letters = expand_syllables(a.conjugator)
                assert len(w_reduce(w + u_letters)) == len(w) - len(u_letters)
                got = _check_canonical_product(a, b, sign)
                cancelled += a.conjugator != ()
                bare += a.conjugator != () and got.conjugator == ()
    if rank > 1:
        assert cancelled and bare


def test_full_word_is_reduced_conjugate():
    a = fq_op(X, Y)
    assert a.full_word() == ((1, 1), (0, 1), (1, -1))
    assert w_reduce(expand_syllables(a.full_word())) == oracle_full_word(a)


def test_lengths():
    assert length(X) == 1
    assert length(fq_op(X, Y)) == 2
    assert length(eval_expr(parse_expr("g0*g1*g2"), 3)) == 3
    assert length(eval_expr(parse_expr("g0*g1*g1"), 2)) == 3


def test_length_subadditive():
    elems = enumerate_elements(2, 3)
    for a in elems:
        for b in elems:
            for sign in (1, -1):
                assert length(fq_op(a, b, sign)) <= length(a) + 2 * length(b) - 1


def test_right_translation_is_bijective():
    elems = enumerate_elements(2, 3)
    for a in elems:
        images = {fq_op(b, a) for b in elems}
        assert len(images) == len(elems)


def test_left_multiplication_is_injective():
    elems = enumerate_elements(2, 3)
    for a in elems:
        images = {fq_op(a, b) for b in elems}
        assert len(images) == len(elems)


# ---------------------------------------------------------------------------
# expressions


def test_parse_render_round_trip():
    for text in ("g0", "g0*g1", "g0*g1^-1*g2", "g3*g0*g0"):
        assert render_expr(parse_expr(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(InvalidParamsError):
        parse_expr("")
    with pytest.raises(InvalidParamsError):
        parse_expr("h3*g1")
    with pytest.raises(InvalidParamsError):
        parse_expr("g0^-1*g1")


def test_eval_expr_examples():
    assert eval_expr(parse_expr("g0*g1^-1"), 2).conjugator == ((1, -1),)
    assert eval_expr(parse_expr("g0*g1*g1"), 2).conjugator == ((1, 2),)
    assert eval_expr(parse_expr("g0*g1*g1^-1"), 2) == X


def test_eval_expr_checks_rank():
    with pytest.raises(IndexOutOfRangeError):
        eval_expr(parse_expr("g0*g3"), 2)
    with pytest.raises(IndexOutOfRangeError):
        parse_element("g5", 2)


def test_parse_element_matches_op():
    assert parse_element("g0*g1", 2) == fq_op(X, Y)
    assert parse_element("g1*g0^-1", 2) == fq_op(Y, X, -1)


def test_canonicalize_cancels_and_strips():
    assert canonicalize_expr(parse_expr("g0*g1*g1^-1*g2")).tail == ((2, 1),)
    assert canonicalize_expr(parse_expr("g0*g0*g1")).tail == ((1, 1),)
    assert canonicalize_expr(parse_expr("g0*g0^-1*g0*g0^-1")).tail == ()


def test_canonicalize_preserves_value_and_is_stable(rng):
    for _ in range(200):
        tail = tuple(
            (rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(6))
        )
        expr = LeftAssocExpr(rng.randrange(3), tail)
        canon = canonicalize_expr(expr)
        assert eval_expr(canon, 3) == eval_expr(expr, 3)
        assert canonicalize_expr(canon) == canon


# ---------------------------------------------------------------------------
# left-associated products


def test_left_assoc_product_frozen():
    assert render_expr(left_assoc_product(parse_expr("g0"), parse_expr("g1"))) == "g0*g1"
    assert (
        render_expr(left_assoc_product(parse_expr("g0"), parse_expr("g1*g2^-1")))
        == "g0*g2*g1*g2^-1"
    )
    assert (
        render_expr(left_assoc_product(parse_expr("g0*g1"), parse_expr("g1*g0")))
        == "g0*g1*g0^-1*g1*g0"
    )
    assert (
        render_expr(left_assoc_product(parse_expr("g0"), parse_expr("g1"), mu0=-1))
        == "g0*g1^-1"
    )


def test_left_assoc_product_agrees_with_op(rng):
    for _ in range(1000):
        ta = random_tree(rng, 3, 3)
        tb = random_tree(rng, 3, 3)
        a, b = eval_tree(ta, 3), eval_tree(tb, 3)
        mu0 = rng.choice((1, -1))
        out = left_assoc_product(a.to_expr(), b.to_expr(), mu0)
        assert eval_expr(out, 3) == fq_op(a, b, mu0)


def test_left_assoc_product_rejects_bad_sign():
    with pytest.raises(InvalidParamsError):
        left_assoc_product(parse_expr("g0"), parse_expr("g1"), mu0=0)


def test_rewrites_preserve_value(rng):
    for _ in range(400):
        tree = random_tree(rng, 3, 4)
        value = eval_tree(tree, 3)
        assert eval_tree(random_rewrite(rng, tree), 3) == value


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_counts():
    assert len(enumerate_elements(2, 1)) == 2
    assert len(enumerate_elements(2, 2)) == 6
    assert len(enumerate_elements(2, 3)) == 18
    assert len(enumerate_elements(1, 4)) == 1
    assert len(enumerate_elements(3, 2)) == 15


def test_enumerate_ordering():
    got = [str(e) for e in enumerate_elements(2, 2)]
    assert got == ["g0", "g1", "g0*g1^-1", "g0*g1", "g1*g0^-1", "g1*g0"]


def test_enumerate_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        enumerate_elements(0, 2)
    with pytest.raises(InvalidParamsError):
        enumerate_elements(2, 0)


def test_enumerate_no_duplicates():
    elems = enumerate_elements(3, 3)
    assert len(set(elems)) == len(elems)
    assert all(length(e) <= 3 for e in elems)


# ---------------------------------------------------------------------------
# long products


def test_products_stay_long():
    assert products_stay_long([fq_op(X, Y), fq_op(Y, X)], 2)
    assert products_stay_long([fq_op(X, Y)], 2)
    assert not products_stay_long([fq_op(X, Y), Y], 2)  # Y*Y is a generator
    assert not products_stay_long([X, X], 2)


# ---------------------------------------------------------------------------
# ring arithmetic over the free basis


def test_free_carrier_ring_product():
    fq = FreeQuandle(2)
    u = basis(ZZ, X) - basis(ZZ, Y)
    sq = mul(u, u, fq)
    assert sq.coeff(X) == 1 and sq.coeff(Y) == 1
    assert sq.coeff(fq_op(X, Y)) == -1 and sq.coeff(fq_op(Y, X)) == -1


def test_free_carrier_rejects_foreign_rank():
    fq = FreeQuandle(2)
    with pytest.raises(CarrierMismatchError):
        mul(basis(ZZ, Z), basis(ZZ, X), fq)


# ---------------------------------------------------------------------------
# bounded idempotent search


def test_fq_search_rank_one():
    report = fq_idempotent_search(1, 2, 2, 1)
    assert [u.coeffs for u in report.idempotents] == [((X, 1),)]
    assert report.quandle == "free(1)"
    assert report.order is None
    assert report.exhaustive


def test_fq_search_small_window_only_generators():
    report = fq_idempotent_search(2, 2, 2, 1)
    assert len(report.idempotents) == 6
    for u in report.idempotents:
        assert len(u.coeffs) == 1
        assert u.coeffs[0][1] == 1
    assert {u.coeffs[0][0] for u in report.idempotents} == set(enumerate_elements(2, 2))


def test_fq_search_support_one_is_trivial():
    report = fq_idempotent_search(2, 3, 1, 2)
    assert {u.coeffs[0][0] for u in report.idempotents} == set(enumerate_elements(2, 3))


def test_fq_search_length_four_window_holds_only_the_basis():
    # evidence beyond the length-3 window, scoped: length <= 4, support <= 3, |c| <= 3
    report = fq_idempotent_search(2, 4, 3, 3)
    window = enumerate_elements(2, 4)
    assert len(window) == 54
    assert [u.coeffs for u in report.idempotents] == [((w, 1),) for w in window]
    assert report.candidates_tested == 54 * 6 + 1431 * 6**2 + 24804 * 6**3 == 5_409_504


@pytest.mark.parametrize("max_len,max_support,size,tested", [
    (5, 3, 162, 44_722_584),
    (4, 4, 54, 82_570_824),
])
def test_fq_search_wider_windows_hold_only_the_basis(max_len, max_support, size, tested):
    # rank 2, |c| <= 2: length <= 5 with support <= 3, length <= 4 with support <= 4
    report = fq_idempotent_search(2, max_len, max_support, 2)
    window = enumerate_elements(2, max_len)
    assert len(window) == size
    assert [u.coeffs for u in report.idempotents] == [((w, 1),) for w in window]
    declared = sum(math.comb(size, k) * 4**k for k in range(1, max_support + 1))
    assert report.candidates_tested == declared == tested


@pytest.mark.parametrize("args,tested,digest", [
    ((2, 3, 3, 3), 181_872, "e2b149d06af8fce0f7b31d08abc95d72108723afeb5f68ffbeb994df246aee13"),
    ((2, 4, 2, 1), 5_832, "081f95a359625709c65c0efc869257747d89175f37829952025e51d72f8c8180"),
    ((2, 4, 3, 1), 204_264, "ca12969eeef7a2cc35177ec359bbfc28a06c9559c2af38d1f380b8fa87cea07e"),
    ((3, 3, 2, 2), 44_700, "c099d3ac0e655055109271d0a2ea479a928d7701481a455aff4b70b339711194"),
], ids=["2-3-3-3", "2-4-2-1", "2-4-3-1", "3-3-2-2"])
def test_fq_search_reports_are_pinned(args, tested, digest):
    # SHA-256 of the JSON report (timing serialized as 0), as the search
    # gave it when every product was reduced in full and memoized
    report = fq_idempotent_search(*args)
    window = enumerate_elements(*args[:2])
    assert [u.coeffs for u in report.idempotents] == [((w, 1),) for w in window]
    assert report.candidates_tested == tested
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
def test_window_size_counts_the_enumerated_elements(rank, max_len):
    assert free._window_size(rank, max_len) == len(enumerate_elements(rank, max_len))


def test_fq_search_budget():
    with pytest.raises(BudgetExceededError):
        fq_idempotent_search(2, 3, 3, 2, budget=100)


def test_fq_search_refuses_before_enumerating(monkeypatch):
    calls = []
    monkeypatch.setattr(free, "enumerate_elements", lambda *args: calls.append(args))
    with pytest.raises(BudgetExceededError) as info:
        fq_idempotent_search(3, 12, 1, 1, budget=10)
    assert info.value.needed == 2 * 3 * 5**11
    assert calls == []


def test_fq_search_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        fq_idempotent_search(2, 2, 0, 1)
