"""End-to-end acceptance checks, one test per contract item.

Each test prints exactly one verdict line (bypassing capture so the line
survives a plain ``pytest -v`` run) and enforces its runtime ceiling.
All comparisons are bit-exact; nothing is rounded or sampled down.
"""

import contextlib
import itertools
import json
import time
from fractions import Fraction

import pytest

from conftest import family_grid
from oracles import eval_tree, random_rewrite, random_tree

from quandlekit import (
    QQ,
    ZZ,
    NotRightDistributiveError,
    RingElement,
    augmentation,
    basis,
    core_three_support_check,
    covering_family_verify,
    dihedral_quandle,
    enumerate_boxed_Z,
    enumerate_elements,
    eval_expr,
    fq_idempotent_search,
    fq_op,
    idempotent_quandle_check,
    is_idempotent,
    is_ring_endomorphism,
    left_assoc_product,
    mul,
    right_mult_matrix,
    right_zero_divisor_from_fiber,
    trivial_subquandles,
    twisted_union_classify,
    union_cross_check,
    union_idempotents,
    union_quandle,
    validate_table,
    zero,
)
from quandlekit import _search_kernel

LIMITS_S = {
    1: 1, 2: 5, 3: 5, 4: 1, 5: 1, 6: 1, 7: 5,
    8: 5, 9: 1, 10: 5, 11: 30, 12: 5, 13: 60, 14: None,
}


@pytest.fixture
def criterion(capfd):
    """Context manager enforcing a runtime ceiling and printing the verdict live."""

    @contextlib.contextmanager
    def watcher(num: int):
        start = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - start
            limit = LIMITS_S[num]
            if limit is not None:
                assert elapsed < limit, f"took {elapsed:.2f}s, ceiling {limit}s"
        except BaseException:
            with capfd.disabled():
                print(f"criterion {num:02d}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"criterion {num:02d}: PASS", flush=True)

    return watcher


def test_criterion_01_smallest_dihedral_box_is_trivial(r3, criterion):
    with criterion(1):
        report = enumerate_boxed_Z(r3, 3)
        assert report.exhaustive
        assert set(report.idempotents) == {basis(ZZ, x) for x in range(3)}


def test_criterion_02_order_five_box_is_trivial(r5, criterion):
    with criterion(2):
        report = enumerate_boxed_Z(r5, 2)
        assert report.exhaustive
        assert set(report.idempotents) == {basis(ZZ, x) for x in range(5)}


def test_criterion_03_order_six_box_equals_family(r6, cov63, criterion):
    with criterion(3):
        report = enumerate_boxed_Z(r6, 2)
        assert report.exhaustive
        # The sweep range is wide enough that dropping out-of-box members
        # is the only filtering; equality against the exhaustive box run
        # proves the family generates everything found there.
        family = {
            u for u in family_grid(range(-3, 4))
            if all(abs(int(c)) <= 2 for _, c in u.coeffs)
        }
        assert len(family) == 60
        assert set(report.idempotents) == family

        verify = covering_family_verify(cov63)
        assert verify.verified
        assert verify.failures == []
        assert verify.structures == 42


def test_criterion_04_listed_trivial_subquandles_and_spreads(p6, b12, criterion):
    with criterion(4):
        pairs = trivial_subquandles(p6, 2)
        assert pairs == [(0, 1), (2, 3), (4, 5)]

        sets37 = trivial_subquandles(b12, 4)
        assert len(sets37) == 33
        blocks = [s for s in sets37 if len(s) == 4]
        assert blocks == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
        for s in sets37:
            assert any(set(s) <= set(b) for b in blocks)

        # mass 1 spread over any listed trivial subquandle stays idempotent
        for q, listed in ((p6, pairs), (b12, sets37)):
            for s in listed:
                for x, y in itertools.permutations(s, 2):
                    for alpha in range(-2, 3):
                        u = RingElement(ZZ, [(x, alpha), (y, 1 - alpha)])
                        assert is_idempotent(u, q)
        for b in blocks:
            for alpha in range(-2, 3):
                u = RingElement(
                    ZZ, [(b[0], alpha), (b[1], 1 - alpha), (b[2], alpha), (b[3], -alpha)]
                )
                assert is_idempotent(u, b12)


def test_criterion_05_magma_mode_idempotent_and_failed_axiom(magma8, criterion):
    with criterion(5):
        u = RingElement(ZZ, [(1, 1), (2, -1), (5, -1), (6, 1)])
        assert augmentation(u) == 0
        assert mul(u, u, magma8) == u

        with pytest.raises(NotRightDistributiveError) as exc:
            validate_table(magma8.table)
        assert exc.value.indices == (0, 1, 0)


def test_criterion_06_rational_annihilation_and_broken_identity(p6, criterion):
    with criterion(6):
        half = Fraction(1, 2)
        h = RingElement(QQ, [(0, half), (1, half)])
        diff = RingElement(QQ, [(2, 1), (3, -1)])
        m = right_mult_matrix(h, p6)
        assert m.apply((0, 0, 1, -1, 0, 0)) == (0,) * 6
        assert mul(diff, h, p6) == zero(QQ)

        u, v = basis(QQ, 0), basis(QQ, 3)
        w = RingElement(QQ, [(4, 2), (5, -1)])
        uv_w = mul(mul(u, v, p6), w, p6)
        uw_vw = mul(mul(u, w, p6), mul(v, w, p6), p6)
        assert uv_w == basis(QQ, 5)
        assert uw_vw == RingElement(QQ, [(4, -4), (5, 5)])
        assert uv_w != uw_vw


def test_criterion_07_right_mult_by_idempotents_is_endomorphism(r6, criterion):
    with criterion(7):
        for q in (dihedral_quandle(4), r6):
            report = enumerate_boxed_Z(q, 2)
            assert report.idempotents
            for u in report.idempotents:
                assert is_ring_endomorphism(u, q)


def test_criterion_08_family_sample_forms_idempotent_quandle(r6, criterion):
    with criterion(8):
        sample = family_grid((-1, 0, 1))
        assert len(sample) == 57
        report = idempotent_quandle_check(sample, r6)
        assert report.passed
        assert report.failures == []
        assert report.size == 57


def test_criterion_09_fiber_difference_kills_the_whole_ring(r6, cov63, criterion):
    with criterion(9):
        u = RingElement(ZZ, [(0, 1), (3, -1)])
        m = right_mult_matrix(u, r6)
        assert all(v == 0 for row in m.entries for v in row)

        witness = right_zero_divisor_from_fiber(cov63, 0, [1, -1])
        assert witness["verified"] is True


def test_criterion_10_free_quandle_window_is_trivial(criterion):
    with criterion(10):
        report = fq_idempotent_search(2, 3, 3, 2)
        assert report.exhaustive
        window = enumerate_elements(2, 3)
        assert len(window) == 18
        assert set(report.idempotents) == {RingElement(ZZ, [(w, 1)]) for w in window}


def test_criterion_11_union_generators_and_twisted_cross_check(r3, r6, t2, t3, criterion):
    with criterion(11):
        u = union_idempotents(
            [t2, r3], "weighted_idempotents",
            weights=(2, -1), elements=(basis(ZZ, 0), basis(ZZ, 2)),
        )
        assert u == RingElement(ZZ, [(0, 2), (4, -1)])
        assert is_idempotent(u, union_quandle([t2, r3]))

        v = union_idempotents(
            [r6, t2], "nilpotent_perturbation",
            elements=(RingElement(ZZ, [(0, 1), (3, -1)]), basis(ZZ, 0)),
            unit_index=1,
        )
        assert v == RingElement(ZZ, [(0, 1), (3, -1), (6, 1)])
        assert is_idempotent(v, union_quandle([r6, t2]))

        w = union_idempotents([t2, r3], "component_mass", weights=(-1, 1))
        assert is_idempotent(w, union_quandle([t2, r3]))

        accounting = union_cross_check([t2, t3], bound=1)
        explained = sum(accounting["explained"].values())
        assert accounting["total"] == explained + len(accounting["observed_gaps"])

        classified = twisted_union_classify(t2, t3, [1, 0], [1, 2, 0], modulus=7)
        assert classified["cross_check"] is True
        assert classified["missing"] == []
        assert classified["extra"] == []


def test_criterion_12_three_support_core_search_finds_nothing(criterion):
    with criterion(12):
        first = core_three_support_check([5], 3)
        assert first["nontrivial"] == []
        assert first["trivial_found"] == 5

        second = core_three_support_check([7], 2)
        assert second["nontrivial"] == []
        assert second["trivial_found"] == 7


def test_criterion_13_free_word_property_suites(rng, criterion):
    with criterion(13):
        for _ in range(2000):
            a = eval_tree(random_tree(rng, 3, 3), 3)
            b = eval_tree(random_tree(rng, 3, 3), 3)
            c = eval_tree(random_tree(rng, 3, 3), 3)
            assert fq_op(fq_op(a, b), c) == fq_op(fq_op(a, c), fq_op(b, c))

        for _ in range(2000):
            tree = random_tree(rng, 3, 4)
            assert eval_tree(random_rewrite(rng, tree), 3) == eval_tree(tree, 3)

        for _ in range(10_000):
            a = eval_tree(random_tree(rng, 3, 3), 3)
            b = eval_tree(random_tree(rng, 3, 3), 3)
            mu0 = rng.choice((1, -1))
            out = left_assoc_product(a.to_expr(), b.to_expr(), mu0)
            assert eval_expr(out, 3) == fq_op(a, b, mu0)


def test_criterion_14_reports_do_not_depend_on_worker_count(r3, r5, r6, criterion, monkeypatch):
    # these spaces are below the pool threshold; lower it so jobs=4 really forks
    monkeypatch.setattr(_search_kernel, "POOL_MIN_SPACE", 0)
    with criterion(14):
        for q, bound in ((r3, 3), (r5, 2), (r6, 2)):
            serial = enumerate_boxed_Z(q, bound, jobs=1)
            parallel = enumerate_boxed_Z(q, bound, jobs=4)
            assert json.dumps(serial.to_json(), indent=2, sort_keys=True) == json.dumps(
                parallel.to_json(), indent=2, sort_keys=True
            )
