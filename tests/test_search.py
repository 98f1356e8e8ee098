"""Exhaustive idempotent enumeration: completeness, soundness, determinism."""

import concurrent.futures
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy  # noqa: F401  (loaded, so int64-safe plans here run the numpy evaluator)
import pytest
from hypothesis import assume, given, settings, strategies as st

from quandlekit import (
    BudgetExceededError,
    CompositeModulusError,
    FiniteQuandle,
    FreeQuandle,
    IntegersMod,
    InternalCheckError,
    InvalidParamsError,
    MagmaTable,
    SearchSpec,
    ZZ,
    augmentation,
    core_quandle,
    dihedral_quandle,
    enumerate_boxed_Z,
    enumerate_elements,
    element_to_json,
    enumerate_mod_p,
    fq_idempotent_search,
    is_idempotent,
    make,
    trivial_quandle,
    twisted_union_quandle,
    union_quandle,
)
from quandlekit import _search_kernel, idempotents

from conftest import ROOT, load_fixture
from oracles import (
    naive_idempotents_boxed,
    naive_idempotents_mod_p,
    naive_support_search,
    oracle_full_word,
    oracle_op,
    report_vectors,
    square_vector,
)


# ---------------------------------------------------------------------------
# completeness against the naive full-space oracle


MOD_P_CASES = [
    ("r3", 3),
    ("r3", 5),
    ("t2", 2),
    ("t3", 3),
    ("r4", 3),
    ("r5", 3),
    ("r5", 5),
    ("r6", 3),
    ("r6", 5),
    ("p6", 5),
]


def _quandle(name, request):
    if name == "r4":
        return make("dihedral", 4)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name,p", MOD_P_CASES)
def test_mod_p_matches_naive_oracle(name, p, request):
    q = _quandle(name, request)
    report = enumerate_mod_p(q, p)
    assert report.exhaustive
    got = report_vectors(report, q.order)
    assert got == naive_idempotents_mod_p(q.table, p)


def test_mod_5_order_6_contains_split_pair(p6):
    # 3 + 3 = 6 = 1 mod 5, so weight 3 on both halves of a trivially
    # acting pair is an idempotent
    vecs = report_vectors(enumerate_mod_p(p6, 5), 6)
    assert (3, 3, 0, 0, 0, 0) in vecs


BOXED_CASES = [
    ("r3", 3),
    ("r5", 2),
    ("t2", 2),
    ("p6", 2),
    ("r6", 2),
]


@pytest.mark.parametrize("name,bound", BOXED_CASES)
def test_boxed_matches_naive_oracle(name, bound, request):
    q = _quandle(name, request)
    report = enumerate_boxed_Z(q, bound)
    got = report_vectors(report, q.order)
    assert got == naive_idempotents_boxed(q.table, bound)


def test_boxed_support_cap_matches_oracle(p6):
    report = enumerate_boxed_Z(p6, 2, max_support=2)
    got = report_vectors(report, 6)
    assert got == naive_idempotents_boxed(p6.table, 2, max_support=2)
    assert f"support limited to <= 2 basis elements" in report.flags
    # every pair weighting a*e_x + (1-a)*e_y inside the box shows up
    for a in range(-1, 3):
        for x, y in [(0, 1), (2, 3), (4, 5)]:
            vec = [0] * 6
            vec[x], vec[y] = a, 1 - a
            assert tuple(vec) in got


def test_every_reported_idempotent_re_verifies(r6, p6):
    for q, report in [
        (r6, enumerate_boxed_Z(r6, 2)),
        (p6, enumerate_boxed_Z(p6, 2)),
        (p6, enumerate_mod_p(p6, 5)),
    ]:
        assert report.idempotents
        for u in report.idempotents:
            assert is_idempotent(u, q)
            if u.ring.is_domain:
                assert augmentation(u) in (u.ring.zero, u.ring.one)


# ---------------------------------------------------------------------------
# counters, flags, spec serialization


def test_candidate_counter_counts_in_box_completions(r3):
    # candidates whose forced last coordinate falls outside the box are
    # never materialized: 37 in the zero stratum plus 36 in the unit one
    report = enumerate_boxed_Z(r3, 3)
    assert report.candidates_tested == 73
    assert report_vectors(report, 3) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_box_scope_flag(r5):
    report = enumerate_boxed_Z(r5, 2)
    assert "complete within |coefficient| <= 2; nothing claimed outside the box" in report.flags
    assert report.exhaustive


def test_order_invertibility_flag(r6):
    assert "|X| invertible in k" in enumerate_mod_p(r6, 5).flags
    assert "|X| invertible in k" not in enumerate_mod_p(r6, 3).flags


def test_two_element_ring_flag(t2):
    report = enumerate_mod_p(t2, 2)
    assert "two-element coefficient ring" in report.flags
    assert report_vectors(report, 2) == {(1, 0), (0, 1)}


def test_non_quandle_flag(magma8):
    report = enumerate_mod_p(magma8, 2)
    assert "not a quandle" in report.flags


def test_composite_modulus_needs_force(t2):
    with pytest.raises(CompositeModulusError):
        enumerate_mod_p(t2, 4)


def test_forced_composite_search_is_exhaustive(r6):
    # mod 6 the augmentation takes the idempotents 0, 1, 3 and 4 of Z/6,
    # so a sweep of the strata 0 and 1 alone would find 384 of the 587
    report = enumerate_mod_p(r6, 6, force=True)
    assert "non-domain coefficients" in report.flags
    assert report.exhaustive
    assert report.spec["augmentation"] == "any"
    assert len(report.idempotents) == 587
    assert report_vectors(report, 6) == naive_idempotents_mod_p(r6.table, 6)


def test_forced_composite_full_sweep_matches_oracle(t2):
    report = enumerate_mod_p(t2, 4, force=True)
    assert report.exhaustive
    assert report_vectors(report, 2) == naive_idempotents_mod_p(t2.table, 4)


def test_bad_bound_rejected(r3):
    with pytest.raises(InvalidParamsError):
        enumerate_boxed_Z(r3, 0)


@pytest.mark.parametrize("max_support", [0, -1])
def test_support_cap_below_one_rejected(r3, max_support):
    with pytest.raises(InvalidParamsError, match="max_support must be >= 1"):
        enumerate_mod_p(r3, 5, max_support=max_support)
    with pytest.raises(InvalidParamsError, match="max_support must be >= 1"):
        enumerate_boxed_Z(r3, 1, max_support=max_support)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 40), bound=st.integers(1, 5), max_support=st.integers(0, 45))
def test_support_tuples_matches_the_binomial_sum(n, bound, max_support):
    expected = sum(math.comb(n, k) * (2 * bound) ** k for k in range(1, min(max_support, n) + 1))
    assert _search_kernel._support_tuples(n, bound, max_support) == expected


def test_budget_error_keeps_printable_counts_exact():
    err = BudgetExceededError(10**4000, 7)
    assert err.payload()["needed"] == 10**4000 and err.budget == 7
    huge = BudgetExceededError(3**13122, 10)
    assert huge.payload()["needed"] == "~10^6260"
    assert str(huge) == "search needs ~10^6260 candidates, budget is 10"


def test_budget_precheck(r6):
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_boxed_Z(r6, 3, budget=100)
    err = exc.value
    assert err.exit_code == 2
    assert err.budget == 100
    # the coefficient sum pins the final coordinate, so each stratum
    # sweeps only the first five
    assert err.needed == 2 * 7**5


def test_index_space_beyond_int64_is_refused_up_front():
    # 201^9 indices per stratum fit the budget but not the kernel's int64
    started = time.monotonic()
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_boxed_Z(make("dihedral", 10), 100, budget=10**40)
    assert time.monotonic() - started < 5
    err = exc.value
    assert err.exit_code == 2
    assert err.needed == 201**9
    assert err.budget == 2**63 - 1
    assert err.payload()["error"] == "BudgetExceeded"


def test_search_spec_json_spellings():
    # a composite modulus declares every stratum
    spec = SearchSpec(IntegersMod(6, force=True), box_bound=None, max_support=None)
    assert spec.to_json() == {
        "ring": "Zmod:6",
        "box_bound": None,
        "max_support": "all",
        "augmentation": "any",
    }
    spec2 = SearchSpec(ZZ, box_bound=1, max_support=3)
    assert spec2.to_json() == {"ring": "Z", "box_bound": 1, "max_support": 3, "augmentation": [0, 1]}


@pytest.mark.parametrize("spec,scope", [
    (SearchSpec(ZZ, 2, 3), ("zbox", 2, (0, 1))),
    (SearchSpec(IntegersMod(5), None, None), ("zp", 5, (0, 1))),
    (SearchSpec(IntegersMod(6, force=True), None, None), ("zp", 6, None)),
])
def test_search_spec_derives_its_scope(spec, scope):
    # the kernel mode, its parameter and the declared strata come from the ring and the box
    assert (spec.mode, spec.param, spec.augmentation) == scope


# ---------------------------------------------------------------------------
# determinism


def test_single_and_multi_worker_reports_are_byte_identical(r3, r6, r10, b12, monkeypatch):
    monkeypatch.setattr(_search_kernel, "POOL_MIN_SPACE", 0)
    cases = [
        lambda jobs: enumerate_boxed_Z(r3, 3, jobs=jobs),
        lambda jobs: enumerate_boxed_Z(r6, 2, jobs=jobs),
        lambda jobs: enumerate_mod_p(r6, 5, jobs=jobs),
        # twelve targets through r10 -> R_5, one per Inn(R_5)-orbit swept,
        # each sweep split across the workers and its hits mapped to the
        # other members of its orbit
        lambda jobs: enumerate_mod_p(r10, 3, jobs=jobs),
        lambda jobs: enumerate_boxed_Z(r10, 2, jobs=jobs),
        lambda jobs: enumerate_mod_p(r10, 5, jobs=jobs),
        lambda jobs: enumerate_mod_p(b12, 3, jobs=jobs),
    ]
    for run in cases:
        one = json.dumps(run(1).to_json(), sort_keys=True)
        for jobs in (2, 4):
            assert json.dumps(run(jobs).to_json(), sort_keys=True) == one


def test_timing_zeroed_unless_requested(r3):
    report = enumerate_boxed_Z(r3, 2)
    assert report.to_json()["elapsed_ms"] == 0
    assert report.to_json(include_timing=True)["elapsed_ms"] >= 0


# ---------------------------------------------------------------------------
# coefficients too large for int64: only plain Python evaluates them (the
# "object path" tests name the scopes that numpy once ran on object arrays)


def test_order_one_large_scopes_run_in_plain_python(monkeypatch):
    # numpy is imported here, so every int64-safe plan would go to it
    assert "numpy" in sys.modules
    evaluators = []
    real = _search_kernel.evaluate_chunk

    def spy(args):
        evaluators.append(args[8])
        return real(args)

    monkeypatch.setattr(_search_kernel, "evaluate_chunk", spy)
    q = trivial_quandle(1)
    p = 2147483659
    assert not _search_kernel._int64_safe(1, p)
    assert not _search_kernel._int64_safe(1, 2**40)
    for report in (enumerate_mod_p(q, p), enumerate_boxed_Z(q, 2**40)):
        assert [u.coeffs for u in report.idempotents] == [((0, 1),)]
        assert report.candidates_tested == 2
    assert evaluators and set(evaluators) == {"python"}
    evaluators.clear()
    enumerate_mod_p(q, 5)
    assert set(evaluators) == {"numpy"}


def test_numpy_evaluator_refuses_a_plan_past_int64():
    table = dihedral_quandle(3).table
    for mode, param in (("zp", 3000000019), ("zbox", 1_500_000_000)):
        with pytest.raises(InternalCheckError, match="unsafe plan"):
            _search_kernel.evaluate_chunk((table, 3, mode, param, (), 0, 40, 3, "numpy"))


def _one_block(n, stratum):
    """The fibers argument of an augmentation stratum, or of no stratum."""
    return () if stratum is None else ((tuple(range(n)), stratum),)


def _decode(index, n, p, stratum):
    free = n if stratum is None else n - 1
    digits = []
    for _ in range(free):
        digits.append(index % p)
        index //= p
    digits.reverse()
    if stratum is not None:
        digits.append((stratum - sum(digits)) % p)
    return tuple(digits)


# both kernel evaluators run every direct kernel test below, except on
# plans past int64, which only plain Python takes
EVALUATORS = ("python", "numpy")


@pytest.mark.parametrize("p", [800000011, 3000000019])
def test_object_path_slices_agree_with_oracle(p):
    # 9 p^2 > 2^62 keeps both primes in plain Python; at the larger one
    # the centroid idempotent (e0 + e1 + e2) / 3 has squares past 2^63
    q = dihedral_quandle(3)
    assert not _search_kernel._int64_safe(3, p)
    third = pow(3, -1, p)
    centroid_index = third * p + third  # stratum 1: digits (third, third)
    slices = [(s, 0) for s in (0, p * p // 2, p * p - 40)]
    slices += [(s, 1) for s in (0, centroid_index - 20, p * p - 40)]
    slices += [(s, None) for s in (0, p * p // 2)]
    found = set()
    for start, stratum in slices:
        hits, tested = _search_kernel.evaluate_chunk(
            (q.table, 3, "zp", p, _one_block(3, stratum), start, start + 40, 3, "python")
        )
        assert tested == 40
        vecs = [_decode(i, 3, p, stratum) for i in range(start, start + 40)]
        expected = [
            v for v in vecs if any(v) and list(v) == square_vector(q.table, v, reduce=p)
        ]
        assert hits == expected
        found.update(hits)
    assert (third, third, third) in found


@pytest.mark.parametrize("bound", [800_000_000, 1_500_000_000])
def test_object_path_box_slices_agree_with_oracle(bound):
    # 9 B^2 > 2^62 keeps both boxes in plain Python, while a stratum's
    # (2B + 1)^2 indices still fit in int64; the slice from the corner
    # (B, -B, 0) squares coefficients of size B
    q = dihedral_quandle(3)
    assert not _search_kernel._int64_safe(3, bound)
    base = 2 * bound + 1
    e1 = bound * base + bound + 1  # stratum 1: free coefficients (0, 1)
    slices = [(0, 1), (e1 - 20, 1), (base * base // 2, 0), (base * base - 40, 1), (0, 0),
              (2 * bound * base, 0)]
    found = set()
    for start, stratum in slices:
        hits, tested = _search_kernel.evaluate_chunk(
            (q.table, 3, "zbox", bound, _one_block(3, stratum), start, start + 40, 3, "python")
        )
        vecs = []
        for i in range(start, start + 40):
            vec = [i // base - bound, i % base - bound]
            vec.append(stratum - sum(vec))
            if abs(vec[-1]) <= bound:
                vecs.append(tuple(vec))
        assert tested == len(vecs)
        assert hits == [v for v in vecs if any(v) and list(v) == square_vector(q.table, v)]
        found.update(hits)
    assert {(0, 1, 0), (0, 0, 1)} <= found


# ---------------------------------------------------------------------------
# the kernel against the naive oracles


def _alexander_table(m, t):
    return [[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)]


ALEXANDER = [(m, t) for m in range(1, 6) for t in range(1, max(m, 2)) if math.gcd(m, t) == 1]


@st.composite
def kernel_cases(draw):
    if draw(st.booleans()):
        m, t = draw(st.sampled_from(ALEXANDER))
        table = _alexander_table(m, t)
    else:
        n = draw(st.integers(1, 3))
        table = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n,
        ))
    n = len(table)
    mode, param = draw(st.sampled_from([("zp", 2), ("zp", 3), ("zp", 5), ("zbox", 1), ("zbox", 2)]))
    stratum = draw(st.sampled_from([None, 0, 1]))
    max_support = draw(st.integers(1, n))
    return table, n, mode, param, _one_block(n, stratum), max_support


def _target(draw, size, mode, param):
    """A fiber-sum target for a block of `size` keys, possibly unreachable."""
    span = param - 1 if mode == "zp" else size * param + 1
    return draw(st.integers(-span if mode == "zbox" else 0, span))


def _blocks(draw, keys, mode, param):
    """A random partition of the keys, in order, into blocks with targets."""
    fibers = []
    rest = list(keys)
    while rest:
        size = draw(st.integers(1, len(rest)))
        block, rest = tuple(rest[:size]), rest[size:]
        fibers.append((block, _target(draw, size, mode, param)))
    return fibers


@st.composite
def fiber_cases(draw):
    """Kernel cases over a random partial partition of the keys, each
    block with a random (possibly unreachable) fiber-sum target."""
    table, n, mode, param, _, max_support = draw(kernel_cases())
    keys = draw(st.permutations(range(n)))
    fibers = _blocks(draw, keys[:draw(st.integers(0, n))], mode, param)
    return table, n, mode, param, tuple(fibers), max_support


def _oracle_chunk(table, n, mode, param, fibers, max_support):
    """(hits in index order, tested) of a whole-space chunk, from the oracles."""
    def on_target(vec):
        sums = [(sum(vec[k] for k in keys), target) for keys, target in fibers]
        if mode == "zp":
            return all((s - t) % param == 0 for s, t in sums)
        return all(s == t for s, t in sums)

    if mode == "zp":
        found = naive_idempotents_mod_p(table, param)
        grid = range(param)
    else:
        found = naive_idempotents_boxed(table, param)
        grid = range(-param, param + 1)
    found = {v for v in found if on_target(v) and sum(1 for c in v if c) <= max_support}
    tested = sum(1 for vec in itertools.product(grid, repeat=n) if on_target(vec))
    # indices run over the undetermined keys in ascending order, and
    # their digits grow with the coefficients
    determined = {keys[-1] for keys, _ in fibers}
    digits = [k for k in range(n) if k not in determined]
    return sorted(found, key=lambda v: [v[k] for k in digits]), tested


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(kernel_cases(), fiber_cases()))
def test_evaluate_chunk_matches_the_naive_oracles(case):
    table, n, mode, param, fibers, max_support = case
    space = _search_kernel.space_size(n, mode, param, len(fibers))
    expected = _oracle_chunk(*case)
    for evaluator in EVALUATORS:
        task = (table, n, mode, param, fibers, 0, space, max_support, evaluator)
        assert _search_kernel.evaluate_chunk(task) == expected


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(kernel_cases(), fiber_cases()), data=st.data())
def test_chunks_split_anywhere_concatenate_to_the_whole(case, data):
    table, n, mode, param, fibers, max_support = case
    space = _search_kernel.space_size(n, mode, param, len(fibers))
    cuts = sorted(data.draw(st.lists(st.integers(0, space), max_size=6)))
    bounds = [0, *cuts, space]
    for evaluator in EVALUATORS:
        hits, tested = [], 0
        for a, b in zip(bounds, bounds[1:]):
            h, t = _search_kernel.evaluate_chunk(
                (table, n, mode, param, fibers, a, b, max_support, evaluator)
            )
            hits += h
            tested += t
        whole = _search_kernel.evaluate_chunk(
            (table, n, mode, param, fibers, 0, space, max_support, evaluator)
        )
        assert (hits, tested) == whole


# The plain-Python evaluator solves the equation of key 0 along the
# innermost free digit x, which moves the determined key of its block
# with it.  Each plan below puts x, that key or key 0 somewhere the
# solver treats apart.
SOLVER_PLANS = [
    "random", "no-blocks", "no-free-digit", "innermost-in-no-block", "key0-determined",
    "key0-innermost", "key0-no-pairs", "key0-all-pairs",
]


@st.composite
def solver_cases(draw, plan):
    if plan == "key0-all-pairs":
        n = draw(st.integers(1, 4))
        table = [[0] * n for _ in range(n)]
    elif plan == "key0-no-pairs":
        n = draw(st.integers(2, 4))
        table = draw(st.lists(
            st.lists(st.integers(1, n - 1), min_size=n, max_size=n), min_size=n, max_size=n,
        ))
    elif draw(st.booleans()):
        table = _alexander_table(*draw(st.sampled_from([(m, t) for m, t in ALEXANDER if m < 5])))
        n = len(table)
    else:
        n = draw(st.integers(1, 4))
        table = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n,
        ))
    mode, param = draw(st.sampled_from(
        [("zp", p) for p in range(2, 8)] + [("zbox", b) for b in (1, 2, 3)]
    ))
    keys = list(draw(st.permutations(range(n))))
    if plan == "no-blocks":
        fibers = []
    elif plan == "no-free-digit":
        fibers = [((k,), _target(draw, 1, mode, param)) for k in keys]
    elif plan == "innermost-in-no-block":
        # n - 1, free and in no block, is the innermost digit
        fibers = _blocks(draw, [k for k in keys if k != n - 1][:draw(st.integers(0, n - 1))],
                         mode, param)
    elif plan == "key0-determined":
        fibers = _blocks(draw, [k for k in keys if k] + [0], mode, param)
    elif plan == "key0-innermost":
        # every other key is determined; key 0 may share a block with one
        partner = draw(st.sampled_from([None, *range(1, n)]))
        fibers = [((k,), _target(draw, 1, mode, param)) for k in range(1, n) if k != partner]
        if partner is not None:
            fibers.append(((0, partner), _target(draw, 2, mode, param)))
    else:
        fibers = _blocks(draw, keys[:draw(st.integers(0, n))], mode, param)
    fibers = draw(st.permutations(fibers))
    return table, n, mode, param, tuple(fibers), draw(st.integers(1, n))


@pytest.mark.parametrize("plan", SOLVER_PLANS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_python_evaluator_matches_the_oracles_and_numpy(plan, data):
    case = data.draw(solver_cases(plan))
    table, n, mode, param, fibers, max_support = case
    space = _search_kernel.space_size(n, mode, param, len(fibers))
    free = n - len(fibers)
    # cuts anywhere, and one inside a run of the innermost digit
    cuts = data.draw(st.lists(st.integers(0, space), max_size=4))
    width = param if mode == "zp" else 2 * param + 1
    if free and width > 1:
        cuts.append(data.draw(st.integers(0, space // width - 1)) * width
                    + data.draw(st.integers(1, width - 1)))
    bounds = [0, *sorted(cuts), space]
    hits, tested = [], 0
    for a, b in zip(bounds, bounds[1:]):
        task = (table, n, mode, param, fibers, a, b, max_support)
        got = _search_kernel.evaluate_chunk((*task, "python"))
        assert got == _search_kernel.evaluate_chunk((*task, "numpy"))
        hits += got[0]
        tested += got[1]
    assert (hits, tested) == _oracle_chunk(*case)


# plain Python takes about 6 s on the two large strata, all four sweeps
# together; no plan that large reaches it (_search_kernel.NUMPY_MIN_INDICES)
@pytest.mark.parametrize("mode,param,hits,tested,evaluators", [
    pytest.param("zbox", 2, 500, 1_694_045, ("numpy",), id="zbox-2-500-1694045"),
    pytest.param("zp", 5, 625, 3_906_250, ("numpy",), id="zp-5-625-3906250"),
    pytest.param("zp", 3, 183, 39_366, EVALUATORS, id="zp-3-183-39366"),
])
def test_r10_kernel_counts_are_pinned(r10, mode, param, hits, tested, evaluators):
    space = _search_kernel.space_size(10, mode, param, 1)
    for evaluator in evaluators:
        results = [
            _search_kernel.evaluate_chunk(
                (r10.table, 10, mode, param, _one_block(10, s), 0, space, 10, evaluator)
            )
            for s in (0, 1)
        ]
        assert sum(len(h) for h, _ in results) == hits
        assert sum(t for _, t in results) == tested
        assert all(square_vector(r10.table, v, reduce=param if mode == "zp" else None) == list(v)
                   for h, _ in results for v in h)


# ---------------------------------------------------------------------------
# quotient-stratified search against the naive oracles


def _outer_plans(monkeypatch):
    """Block counts of every sweep plan made, the outermost search last."""
    blocks = []
    real = idempotents._sweep_plan

    def spy(*args):
        plan = real(*args)
        blocks.append(len(plan[0]) if plan else None)
        return plan

    monkeypatch.setattr(idempotents, "_sweep_plan", spy)
    return blocks


def _search(q, mode, param, max_support):
    if mode == "zp":
        return enumerate_mod_p(q, param, max_support, force=param == 4)
    return enumerate_boxed_Z(q, param, max_support)


def _strata(mode, param):
    """The strata a search declares: every one over the composite Z/4,
    which keeps the all-strata plan covered, and 0 and 1 elsewhere."""
    return None if (mode, param) == ("zp", 4) else (0, 1)


def _expected(table, mode, param, strata, max_support):
    """(idempotent vectors, in-box candidates) of a declared scope, from the oracles."""
    n = len(table)
    chunks = [
        _oracle_chunk(table, n, mode, param, _one_block(n, s), max_support or n)
        for s in (strata or [None])
    ]
    return {v for hits, _ in chunks for v in hits}, sum(tested for _, tested in chunks)


SCOPES = [("zbox", 1), ("zbox", 2), ("zp", 2), ("zp", 3), ("zp", 4), ("zp", 5)]


def test_quotient_search_matches_the_naive_oracles(r6, t2, t3, monkeypatch):
    tables = [
        r6,
        union_quandle([t2, t3]),
        twisted_union_quandle(t2, t3, (1, 0), (1, 2, 0)),
    ]
    blocks = _outer_plans(monkeypatch)
    for q in tables:
        outer = []
        for mode, param in SCOPES:
            found, tested = _expected(q.table, mode, param, _strata(mode, param), None)
            for max_support in (None, 2):
                cap = max_support or q.order
                capped = {v for v in found if sum(1 for c in v if c) <= cap}
                # a zero call cost takes every quotient whose own search fits
                for cost in (0, idempotents.SWEEP_COST):
                    monkeypatch.setattr(idempotents, "SWEEP_COST", cost)
                    blocks.clear()
                    report = _search(q, mode, param, max_support)
                    got = report_vectors(report, q.order)
                    assert (got, report.candidates_tested) == (capped, tested)
                    # support <= 2 over Z walks supports and makes no plan
                    if blocks:
                        outer.append(blocks[-1])
        assert max(outer) > 1, "no scope swept through a proper quotient"


@pytest.mark.parametrize("mode,param,max_support,count,tested", [
    ("zbox", 2, None, 500, 1_694_045),
    ("zbox", 2, 3, 20, 1_694_045),
    ("zp", 5, None, 625, 3_906_250),
    ("zp", 3, None, 183, 39_366),
])
def test_r10_quotient_search_keeps_the_pinned_counts(
    r10, monkeypatch, mode, param, max_support, count, tested
):
    # the pins count the whole box with the naive oracles; every reported
    # idempotent is rechecked exactly, so equal counts mean equal sets
    blocks = _outer_plans(monkeypatch)
    report = _search(r10, mode, param, max_support)
    if max_support is None:
        assert blocks[-1] == 5, "r10 swept through r10 -> R_5"
    else:
        assert blocks == [], "support <= 3 walks supports and makes no sweep plan"
    assert len(report.idempotents) == count
    assert report.candidates_tested == tested


# ---------------------------------------------------------------------------
# one sweep per Inn(X)-orbit of quotient targets


def _inner_group(q):
    """Every element of Inn(q): the right multiplications closed under composition."""
    identity = tuple(range(q.order))
    group, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for h in q.right_mults:
            hg = tuple(h[x] for x in g)
            if hg not in group:
                group.add(hg)
                frontier.append(hg)
    return group


def _plans_and_sweeps(monkeypatch):
    """The plan of every search and the distinct fibers every kernel run
    swept, the outermost search last in each list."""
    plans, swept = [], []
    real_plan, real_run = idempotents._sweep_plan, _search_kernel.run

    def plan_spy(*args):
        plans.append(real_plan(*args))
        return plans[-1]

    def run_spy(table, mode, param, max_support, sweeps, jobs):
        swept.append(list(sweeps))
        return real_run(table, mode, param, max_support, sweeps, jobs)

    monkeypatch.setattr(idempotents, "_sweep_plan", plan_spy)
    monkeypatch.setattr(_search_kernel, "run", run_spy)
    return plans, swept


def _check_one_sweep_per_orbit(q, plan, swept):
    """Inn(q) maps the plan onto itself, and exactly one entry of each of
    its orbits is swept."""
    def image(g, entry):
        return frozenset((frozenset(g[x] for x in keys), target) for keys, target in entry)

    group = _inner_group(q)
    entries = {image(range(q.order), entry) for entry in plan}
    orbits = {frozenset(image(g, entry) for g in group) for entry in plan}
    assert all(orbit <= entries for orbit in orbits)
    swept = [image(range(q.order), entry) for entry in swept]
    assert len(swept) == len(orbits)
    assert all(sum(entry in orbit for entry in swept) == 1 for orbit in orbits)


ORBIT_SCOPES = [("zbox", 1), ("zbox", 2), ("zp", 3), ("zp", 5)]


def _orbit_tables(r6, p6, t2, t3, r3):
    return [
        r6,
        p6,
        make("dihedral", 4),
        make("product", r3, t2),
        make("product", t2, r3),
        twisted_union_quandle(t2, t3, (1, 0), (1, 2, 0)),
        twisted_union_quandle(t3, t3, (1, 2, 0), (2, 0, 1)),
        twisted_union_quandle(t2, trivial_quandle(4), (1, 0), (1, 2, 3, 0)),
    ]


def test_orbit_sweeps_match_the_naive_oracles(r6, p6, t2, t3, r3, monkeypatch):
    plans, swept = _plans_and_sweeps(monkeypatch)
    for q in _orbit_tables(r6, p6, t2, t3, r3):
        reduced = False
        for mode, param in ORBIT_SCOPES:
            if mode == "zp":
                expected = naive_idempotents_mod_p(q.table, param)
            else:
                expected = naive_idempotents_boxed(q.table, param)
            # a zero call cost takes every quotient whose own search fits
            for cost in (0, idempotents.SWEEP_COST):
                monkeypatch.setattr(idempotents, "SWEEP_COST", cost)
                report = _search(q, mode, param, None)
                assert report_vectors(report, q.order) == expected
                _check_one_sweep_per_orbit(q, plans[-1], swept[-1])
                reduced |= len(swept[-1]) < len(plans[-1])
        assert reduced, f"{q.name}: no scope swept fewer targets than its plan"


@pytest.mark.parametrize("name", ["r10", "b12"])
def test_orbit_sweeps_match_the_unreduced_search(name, request, monkeypatch):
    # past the naive oracles' reach: the same search with no generators
    # sweeps every target of the same plan
    q = request.getfixturevalue(name)
    plans, swept = _plans_and_sweeps(monkeypatch)
    for mode, param in ORBIT_SCOPES:
        for max_support in (None, 3):
            # support <= 3 over Z walks supports, by orbits or plainly, with no plan
            walks = mode == "zbox" and max_support is not None
            plans.clear()
            reduced = _search(q, mode, param, max_support).to_json()
            if walks:
                assert plans == []
            else:
                _check_one_sweep_per_orbit(q, plans[-1], swept[-1])
                assert len(swept[-1]) < len(plans[-1])
            with monkeypatch.context() as mp:
                mp.setattr(idempotents, "inner_generators", lambda carrier: ())
                unreduced = _search(q, mode, param, max_support).to_json()
            if not walks:
                assert swept[-1] == plans[-1]
            assert json.dumps(reduced, sort_keys=True) == json.dumps(unreduced, sort_keys=True)


@pytest.mark.parametrize("mode,param,targets,orbits", [
    ("zbox", 2, 6, 2),
    ("zp", 5, 6, 2),
    ("zp", 3, 12, 4),
])
def test_r10_sweeps_one_target_per_orbit(r10, monkeypatch, mode, param, targets, orbits):
    # the lifts of 0 and of the idempotents of R_5; Inn(R_5) fixes 0 and
    # moves each other target onto one of orbits - 1 representatives
    plans, swept = _plans_and_sweeps(monkeypatch)
    _search(r10, mode, param, None)
    assert (len(plans[-1]), len(swept[-1])) == (targets, orbits)


def test_target_orbits_refuse_a_plan_an_automorphism_leaves():
    # swapping 0 and 1 maps the target (1 on {0}, 0 on {1}) to (0 on {0}, 1 on {1})
    plan = [(((0,), 1), ((1,), 0))]
    assert idempotents._target_orbits(plan, (), 2) == [(plan[0], [(plan[0], (0, 1))])]
    with pytest.raises(InternalCheckError, match="outside the plan"):
        idempotents._target_orbits(plan, ((1, 0),), 2)


def test_quotients_of_a_quandle_are_searched_as_quandles(b12, monkeypatch):
    # blocks12 B = 2 goes through an order-6 quotient, and that one through
    # an order-2 quotient; each quotient of a quandle is a quandle, so its
    # own search sweeps one of its targets per Inn-orbit: 2 of the 4
    plans, swept = _plans_and_sweeps(monkeypatch)
    carriers = []
    real = idempotents._enumerate_table

    def spy(carrier, *args, **kwargs):
        carriers.append(type(carrier))
        return real(carrier, *args, **kwargs)

    monkeypatch.setattr(idempotents, "_enumerate_table", spy)
    report = enumerate_boxed_Z(b12, 2)
    assert carriers == [FiniteQuandle] * 3
    assert [len(plan) for plan in plans] == [2, 4, 25]
    assert [len(entries) for entries in swept] == [2, 2, 5]
    # a magma table's quotients stay magma tables, with every target swept
    carriers.clear()
    magma = enumerate_boxed_Z(MagmaTable(b12.table, name=b12.name), 2)
    assert carriers == [MagmaTable] * 3
    assert [len(entries) for entries in swept[3:]] == [2, 4, 25]
    assert magma.idempotents == report.idempotents


@st.composite
def inflated_tables(draw):
    """A random magma Y with each point blown up into a block, in random
    positions.  A product lands anywhere in the block of the product in
    Y, so the blocks form a congruence."""
    m = draw(st.integers(1, 3))
    base = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=m, max_size=m), min_size=m, max_size=m,
    ))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m).filter(lambda s: sum(s) <= 5))
    keys = draw(st.permutations(range(sum(sizes))))
    blocks = [keys[sum(sizes[:y]):sum(sizes[:y + 1])] for y in range(m)]
    owner = {x: y for y, block in enumerate(blocks) for x in block}
    return [
        [draw(st.sampled_from(blocks[base[owner[x]][owner[z]]])) for z in range(len(keys))]
        for x in range(len(keys))
    ]


@settings(max_examples=60, deadline=None)
@given(table=inflated_tables(), scope=st.sampled_from(SCOPES), data=st.data())
def test_quotient_search_on_inflated_magmas_matches_the_naive_oracles(table, scope, data):
    mode, param = scope
    max_support = data.draw(st.sampled_from([None, *range(1, len(table) + 1)]))
    cost = data.draw(st.sampled_from([0, idempotents.SWEEP_COST]))
    q = MagmaTable(table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idempotents, "SWEEP_COST", cost)
        report = _search(q, mode, param, max_support)
    got = report_vectors(report, q.order)
    expected = _expected(table, mode, param, _strata(mode, param), max_support)
    assert (got, report.candidates_tested) == expected


def test_kernel_hit_off_its_fiber_target_is_an_internal_error(r6, monkeypatch):
    # e_0 is an idempotent, so only the fiber-sum check can catch it
    # among the lifts of 0
    real = _search_kernel.evaluate_chunk
    hit = (1, 0, 0, 0, 0, 0)

    def lying_kernel(args):
        hits, tested = real(args)
        if args[1] == 6 and all(target == 0 for _, target in args[4]):
            hits = hits + [hit]
        return hits, tested

    monkeypatch.setattr(_search_kernel, "evaluate_chunk", lying_kernel)
    with pytest.raises(InternalCheckError, match="fiber-sum target") as info:
        enumerate_boxed_Z(r6, 2)
    assert info.value.payload()["vector"] == list(hit)


@pytest.mark.parametrize("search", [lambda q: enumerate_boxed_Z(q, 2), lambda q: enumerate_mod_p(q, 3)],
                         ids=["zbox", "zp3"])
def test_kernel_hit_that_is_not_idempotent_fails_the_exact_recheck(r6, monkeypatch, search):
    # 2 e_0 squares to 4 e_0, which is not 2 e_0 over Z nor mod 3
    real = _search_kernel.evaluate_chunk
    hit = (2, 0, 0, 0, 0, 0)

    def lying_kernel(args):
        hits, tested = real(args)
        return (hits + [hit] if args[1] == 6 else hits), tested

    monkeypatch.setattr(_search_kernel, "evaluate_chunk", lying_kernel)
    with pytest.raises(InternalCheckError, match="fails exact recheck") as info:
        search(r6)
    assert info.value.payload()["vector"] == list(hit)


def _kernel_orders(monkeypatch):
    """The table order of every kernel call, in call order."""
    orders = []
    real = _search_kernel.evaluate_chunk

    def spy(args):
        orders.append(args[1])
        return real(args)

    monkeypatch.setattr(_search_kernel, "evaluate_chunk", spy)
    return orders


@pytest.mark.parametrize("mode,param", [("zp", 2), ("zp", 3), ("zbox", 1)])
def test_trivial_tables_sweep_no_quotient(monkeypatch, mode, param):
    # every vector of augmentation 1 on T_n is idempotent, so each quotient
    # has more targets than the direct sweep has room for: it is dropped
    # before its search, and every kernel call is on T_n itself
    orders = _kernel_orders(monkeypatch)
    for n in range(2, 9):
        orders.clear()
        report = _search(trivial_quandle(n), mode, param, None)
        assert set(orders) == {n}
        ones = param ** (n - 1) if mode == "zp" else idempotents._box_sum_count(n, param, 1)
        assert len(report.idempotents) == ones


def test_quotient_search_is_abandoned_before_any_recheck(r6, monkeypatch):
    # mod 5 the quotient r6 -> R_3 has too many targets; the kernel finds
    # them on R_3, and the search stops there with no R_3 hit rechecked
    orders = _kernel_orders(monkeypatch)
    rechecked = []
    real = idempotents.is_idempotent

    def spy(u, carrier):
        rechecked.append(carrier.order)
        return real(u, carrier)

    monkeypatch.setattr(idempotents, "is_idempotent", spy)
    report = enumerate_mod_p(r6, 5)
    assert 3 in orders
    assert rechecked == [6] * len(report.idempotents)


def test_max_hits_abandons_a_search_only_past_it(r6):
    spec = SearchSpec(ZZ, 2, None)
    count = len(enumerate_boxed_Z(r6, 2).idempotents)
    assert idempotents._enumerate_table(r6, spec, 10**8, 1, max_hits=count - 1) is None
    report = idempotents._enumerate_table(r6, spec, 10**8, 1, max_hits=count)
    assert len(report.idempotents) == count


@settings(max_examples=60, deadline=None)
@given(table=inflated_tables(), scope=st.sampled_from(SCOPES), data=st.data())
def test_known_idempotents_are_a_lower_bound(table, scope, data):
    mode, param = scope
    max_support = data.draw(st.sampled_from([None, *range(1, len(table) + 1)]))
    found, _ = _expected(table, mode, param, (1,), max_support)
    spec = (SearchSpec(IntegersMod(param, force=True), None, max_support) if mode == "zp"
            else SearchSpec(ZZ, param, max_support))
    assert idempotents._known_idempotents(table, spec) <= len(found)


# ---------------------------------------------------------------------------
# the support enumerator (core3, free-quandle search) against the naive oracle


def _plant_idempotent(draw, table, support):
    """Rewrite table on support x support so that u = sum c_s e_s, for
    drawn c of sum 1, is idempotent and its square cancels.

    Left projections a*b = a square u to aug(u) u = u.  Two moves keep u^2:
    sending two pairs that share a target and cancel to any other id, and
    then, at times, swapping the target of one of them with a pair of
    equal product.  They leave ids reached by several pairs, outside the
    support or by squares x*x, which the pruning rule and the covering
    step must see through.
    """
    head = draw(st.lists(st.sampled_from([-2, -1, 1, 2]),
                         min_size=len(support) - 1, max_size=len(support) - 1))
    assume(0 < abs(1 - sum(head)) <= 2)
    c = dict(zip(support, head + [1 - sum(head)]))
    pairs = [(a, b) for a in support for b in support]
    for a, b in pairs:
        table[a][b] = a
    product = lambda p: c[p[0]] * c[p[1]]
    for _ in range(draw(st.integers(1, 4))):
        merges = [(p, q) for p, q in itertools.combinations(pairs, 2)
                  if table[p[0]][p[1]] == table[q[0]][q[1]] and product(p) == -product(q)]
        if not merges:
            break
        p, q = draw(st.sampled_from(merges))
        if draw(st.booleans()):
            p, q = q, p
        t = table[p[0]][p[1]] = table[q[0]][q[1]] = draw(st.integers(0, len(table) + 1))
        swaps = [r for r in pairs if product(r) == product(q) and table[r[0]][r[1]] != t]
        if swaps and draw(st.booleans()):
            r = draw(st.sampled_from(swaps))
            table[q[0]][q[1]], table[r[0]][r[1]] = table[r[0]][r[1]], t


@st.composite
def support_windows(draw, source):
    """(keys, op, oracle keys, oracle op, planted) of one window of basis
    keys; planted is the size of the planted support, or None.

    magma: a random table whose entries may lie outside its keys, and a
    random subset of its keys in random order as the window, so products
    land outside the window and squares x*x outside a support.  About half
    the entries are a*b = a, as in a trivial quandle, where every vector of
    coefficient sum 1 is idempotent, and one idempotent is planted on two
    to four keys of the window.  core: the whole of core(5), core(6) or
    core(7); core(6) has non-basis idempotents on two keys.  free: a
    window of rank 1-2 and length <= 3, or of rank 3 and length <= 2,
    where the oracle multiplies flat letter words.
    """
    if source == "magma":
        n = draw(st.integers(1, 6))
        cells = draw(st.lists(st.none() | st.integers(0, n + 1), min_size=n * n, max_size=n * n))
        table = [[a if c is None else c for c in cells[a * n:(a + 1) * n]] for a in range(n)]
        keys = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        planted = None
        if len(keys) > 1:
            support = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=4, unique=True))
            _plant_idempotent(draw, table, support)
            planted = len(support)
        op = lambda a, b: table[a][b]
        return keys, op, keys, op, planted
    if source == "core":
        m = draw(st.sampled_from([5, 6, 7]))
        return range(m), core_quandle([m]).op, range(m), lambda a, b: (2 * b - a) % m, None
    rank = draw(st.integers(1, 3))
    max_len = draw(st.integers(1, 3 if rank < 3 else 2))
    keys = enumerate_elements(rank, max_len)
    return keys, FreeQuandle(rank).op, [oracle_full_word(e) for e in keys], oracle_op, None


ORACLE_TUPLES = 60_000  # the naive loop squares each tuple in full


@pytest.mark.parametrize("source", ["magma", "core", "free"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), bound=st.integers(1, 2))
def test_support_search_matches_the_naive_oracle(source, data, bound):
    keys, op, naive_keys, naive_op, planted = data.draw(support_windows(source))
    n = len(naive_keys)
    # supports of up to four keys, as far as the oracle's loop stays small
    top = max(k for k in range(1, 5)
              if sum(math.comb(n, j) * (2 * bound) ** j for j in range(1, k + 1)) <= ORACLE_TUPLES)
    sizes = st.integers(1, top)
    if planted:
        # the covering step extends the planted support by its last key
        sizes |= st.just(planted)
    max_support = data.draw(sizes)
    word = dict(zip(keys, naive_keys))
    found = _search_kernel._support_search(keys, op, bound, max_support)
    naive_tested, naive_found = naive_support_search(naive_keys, naive_op, bound, max_support)
    assert _search_kernel._support_tuples(len(keys), bound, max_support) == naive_tested
    assert [{word[keys[x]]: c for x, c in u} for u in found] == [dict(u) for u in naive_found]


@pytest.mark.parametrize("keys", list(itertools.permutations(range(3))))
def test_support_search_covers_by_squares_and_ids_outside_the_support(keys):
    # a*b = a except 0*1 = 2*2 = 3 and 2*1 = 0: u = e0 - e1 + e2 is
    # idempotent, 3 cancels between 0*1 and the square 2*2.  In the order
    # (0, 1, 2) only the square of 2 covers 3.  In (2, 0, 1) the support
    # {2, 0} reaches 3 once, outside it, and 2 once, inside it; 2 has
    # fewer pairs in the table, but only 3 says which keys may follow.
    table = [[0, 3, 0], [1, 1, 1], [2, 0, 3]]
    op = lambda a, b: table[a][b]
    for max_support in (3, 4):
        found = _search_kernel._support_search(keys, op, 1, max_support)
        naive_tested, naive_found = naive_support_search(keys, op, 1, max_support)
        assert _search_kernel._support_tuples(len(keys), 1, max_support) == naive_tested
        found = [{keys[x]: c for x, c in u} for u in found]
        assert found == [dict(u) for u in naive_found]
        assert {0: 1, 1: -1, 2: 1} in found


@st.composite
def inner_windows(draw):
    """A quandle, often not connected, with its distinct right
    multiplications, and a support window on it."""
    kind = draw(st.sampled_from(["fixture", "dihedral", "trivial", "union", "twisted-union"]))
    if kind == "fixture":
        q = load_fixture(draw(st.sampled_from(
            ["r3.json", "r6.json", "r10.json", "t3.json", "pairs6.json", "blocks12.json"])))
    elif kind in ("dihedral", "trivial"):
        q = make(kind, draw(st.integers(1, 8)))
    elif kind == "union":
        q = make("union", make("trivial", draw(st.integers(1, 3))),
                 make("dihedral", draw(st.integers(1, 5))))
    else:
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        q = make("twisted-union", make("trivial", a), make("trivial", b),
                 draw(st.permutations(range(a))), draw(st.permutations(range(b))))
    return q, tuple(dict.fromkeys(q.right_mults)), draw(st.integers(1, 2)), draw(st.integers(2, 3))


@settings(max_examples=80, deadline=None)
@given(window=inner_windows())
def test_support_search_by_orbits_matches_the_plain_walk(window):
    # the orbit walk returns the plain walk's list, element for element
    q, gens, bound, max_support = window
    plain = _search_kernel._support_search(range(q.order), q.op, bound, max_support)
    by_orbits = _search_kernel._support_search(range(q.order), q.op, bound, max_support, gens=gens)
    assert by_orbits == plain


@pytest.mark.parametrize("name,bound,found,non_basis", [
    ("t3.json", 2, 18, 15),
    ("blocks12.json", 2, 156, 144),
    ("r10.json", 2, 20, 10),
])
def test_support_search_by_orbits_closes_what_it_finds(name, bound, found, non_basis):
    # a table with one orbit per point (t3) and two with several points per
    # orbit, where most idempotents of the window lie off the walked supports
    # and come from the closure
    q = load_fixture(name)
    gens = tuple(dict.fromkeys(q.right_mults))
    out = _search_kernel._support_search(range(q.order), q.op, bound, 3, gens=gens)
    assert len(out) == found
    assert sum(1 for u in out if len(u) > 1) == non_basis
    assert out == sorted(out, key=lambda u: (len(u), [x for x, _ in u], [c for _, c in u]))


def test_support_search_by_orbits_needs_products_inside_the_keys():
    # the automorphisms permute keys; a product outside them has no image
    table = [[0, 2], [1, 1]]
    op = lambda a, b: table[a][b]
    assert _search_kernel._support_search(range(2), op, 1, 2) == [((0, 1),), ((1, 1),)]
    assert _search_kernel._support_tuples(2, 1, 2) == 2 * 2 + 4
    with pytest.raises(InternalCheckError, match="leaves the keys"):
        _search_kernel._support_search(range(2), op, 1, 2, gens=((0, 1),))


def test_core3_walks_by_inner_automorphisms(monkeypatch):
    calls = []
    real = _search_kernel._support_search

    def spy(keys, op, bound, max_support, gens=()):
        calls.append(gens)
        return real(keys, op, bound, max_support, gens=gens)

    monkeypatch.setattr(_search_kernel, "_support_search", spy)
    out = idempotents.core_three_support_check([5], 2)
    assert calls == [tuple(dict.fromkeys(core_quandle([5]).right_mults))]
    assert out["trivial_found"] == 5 and out["nontrivial"] == []


# ---------------------------------------------------------------------------
# support-capped table searches over Z walk supports


@st.composite
def capped_box_searches(draw):
    """A quandle or magma table of order <= 7 with a box bound and a support
    cap: small caps fall on the walk's side of the rule, larger ones on the
    kernel's."""
    kind = draw(st.sampled_from(["dihedral", "trivial", "union", "twisted-union", "magma"]))
    if kind in ("dihedral", "trivial"):
        q = make(kind, draw(st.integers(1, 7)))
    elif kind == "union":
        q = make("union", make("trivial", draw(st.integers(1, 3))),
                 make("dihedral", draw(st.integers(1, 4))))
    elif kind == "twisted-union":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        q = make("twisted-union", make("trivial", a), make("trivial", b),
                 draw(st.permutations(range(a))), draw(st.permutations(range(b))))
    else:
        n = draw(st.integers(1, 7))
        q = MagmaTable(draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                                     min_size=n, max_size=n)))
    return q, draw(st.integers(1, 2)), draw(st.integers(1, q.order))


@settings(max_examples=80, deadline=None)
@given(case=capped_box_searches())
def test_capped_box_search_matches_the_naive_oracle(case):
    q, bound, max_support = case
    report = enumerate_boxed_Z(q, bound, max_support)
    assert report_vectors(report, q.order) == naive_idempotents_boxed(q.table, bound, max_support)
    box = itertools.product(range(-bound, bound + 1), repeat=q.order)
    assert report.candidates_tested == sum(1 for v in box if sum(v) in (0, 1))


def _search_paths(monkeypatch):
    """(order, gens) of every support walk and the order of every sweep plan made."""
    walks, plans = [], []
    real_walk, real_plan = _search_kernel._support_search, idempotents._sweep_plan

    def walk_spy(keys, op, bound, max_support, gens=()):
        walks.append((len(keys), gens))
        return real_walk(keys, op, bound, max_support, gens=gens)

    def plan_spy(carrier, *args):
        plans.append(carrier.order)
        return real_plan(carrier, *args)

    monkeypatch.setattr(_search_kernel, "_support_search", walk_spy)
    monkeypatch.setattr(idempotents, "_sweep_plan", plan_spy)
    return walks, plans


def _path_carrier(name, request):
    if name == "r13":
        return make("dihedral", 13)
    if name == "magma10":
        return MagmaTable(request.getfixturevalue("r10").table)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name,bound,max_support,count", [
    # 8,440 declared tuples against 2 * 5^9 indices; R_13: 2,626 against 2 * 3^12
    ("r10", 2, 3, 20),
    ("r13", 1, 3, 13),
    ("magma10", 2, 3, 20),
])
def test_small_support_caps_walk_supports(name, bound, max_support, count, request, monkeypatch):
    q = _path_carrier(name, request)
    walks, plans = _search_paths(monkeypatch)
    report = enumerate_boxed_Z(q, bound, max_support)
    # Inn(X) for a quandle; a magma table's translations need not be automorphisms
    gens = tuple(dict.fromkeys(q.right_mults)) if q.is_quandle else ()
    assert (walks, plans) == ([(q.order, gens)], [])
    assert len(report.idempotents) == count


@pytest.mark.parametrize("name,mode,param,max_support", [
    # the walk would declare more tuples than the box sweep has indices
    ("r10", "zbox", 2, 9),
    ("b12", "zbox", 2, 11),
    # uncapped
    ("r10", "zbox", 2, None),
    ("p6", "zbox", 1, None),
    # the walk's rule needs an integral domain and the Z strata
    ("r10", "zp", 5, 1),
    ("r10", "zp", 3, 3),
    ("b12", "zp", 3, 2),
    ("p6", "zp", 5, 1),
])
def test_other_searches_sweep_the_box(name, mode, param, max_support, request, monkeypatch):
    q = _path_carrier(name, request)
    walks, plans = _search_paths(monkeypatch)
    _search(q, mode, param, max_support)
    assert plans[0] == q.order
    assert q.order not in [order for order, _ in walks]


def _force_walk(spec, *rest):
    return spec.mode == "zbox" and spec.max_support is not None


@pytest.mark.parametrize("name,bound,max_support", [
    ("r10", 1, 2), ("r10", 1, 7), ("r10", 2, 3), ("r10", 2, 5),
    ("b12", 1, 3), ("b12", 2, 3), ("b12", 1, 5),
    ("p6", 1, 2), ("p6", 2, 4), ("p6", 2, 5),
])
def test_walk_and_sweep_give_the_same_report(name, bound, max_support, request, monkeypatch):
    q = request.getfixturevalue(name)
    reports = []
    for rule in (_force_walk, lambda *args: False):
        walks, plans = _search_paths(monkeypatch)
        monkeypatch.setattr(idempotents, "_walks_supports", rule)
        reports.append(json.dumps(enumerate_boxed_Z(q, bound, max_support).to_json()))
        assert bool(walks) != bool(plans)
    assert reports[0] == reports[1]


def test_walk_hit_failing_the_exact_recheck_is_an_internal_error(r10, monkeypatch):
    # augmentation 1, so only the idempotency recheck can catch it
    lie = ((0, 2), (1, -1))
    real = _search_kernel._support_search

    def lying_walk(*args, **kwargs):
        return real(*args, **kwargs) + [lie]

    monkeypatch.setattr(_search_kernel, "_support_search", lying_walk)
    with pytest.raises(InternalCheckError, match="fails exact recheck") as info:
        enumerate_boxed_Z(r10, 2, max_support=3)
    assert info.value.payload()["vector"] == [2, -1] + [0] * 8


@pytest.mark.parametrize("search", [
    lambda: idempotents.core_three_support_check([5], 2),
    lambda: fq_idempotent_search(2, 2, 2, 1),
], ids=["core3", "fq-search"])
def test_walk_result_failing_the_exact_recheck_is_an_internal_error(search, monkeypatch):
    # augmentation 1, so only the idempotency recheck can catch it
    lies = []
    real = _search_kernel._support_search

    def lying_walk(keys, *args, **kwargs):
        keys = list(keys)
        lies.append(element_to_json(idempotents.RingElement(ZZ, [(keys[0], 2), (keys[1], -1)])))
        return real(keys, *args, **kwargs) + [((0, 2), (1, -1))]

    monkeypatch.setattr(_search_kernel, "_support_search", lying_walk)
    with pytest.raises(InternalCheckError, match="fails exact recheck") as info:
        search()
    assert info.value.payload()["element"] == lies[0]


def test_walk_keeps_max_hits(r10):
    # a quotient base search that walks is abandoned past max_hits, as one that sweeps
    spec = SearchSpec(ZZ, 2, 3)
    run = lambda max_hits: idempotents._enumerate_table(r10, spec, 10**8, 1, max_hits)
    assert len(run(20).idempotents) == 20
    assert run(19) is None


# ---------------------------------------------------------------------------
# process pool dispatch


def test_pool_starts_only_from_the_threshold_space(r6, monkeypatch):
    cases = [
        # r6 mod 5: the quotient r6 -> R_3 costs more than the direct
        # sweep, two strata of 5^5 indices
        (lambda jobs: enumerate_mod_p(r6, 5, jobs=jobs), 2 * 5**5, 2),
        # r6 in the box 2: the plan lifts 0 and the three basis
        # idempotents of R_3, 5^(6 - 3) indices each.  Inn(R_3) fixes 0
        # and is transitive on the three basis elements, so one sweep per
        # orbit: the lift of 0 and that of e_0, 2 * 5^3 indices
        (lambda jobs: enumerate_boxed_Z(r6, 2, jobs=jobs), 2 * 5**3, 2),
    ]
    # each run as (indices, chunks, workers); a run that starts no pool has one worker
    runs, pools = [], []
    real_run, real_pool = _search_kernel.run, concurrent.futures.ProcessPoolExecutor

    def pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    def spy(table, mode, param, max_support, sweeps, jobs):
        pools.clear()
        chunks = list(real_run(table, mode, param, max_support, sweeps, jobs))
        indices = sum(_search_kernel.space_size(len(table), mode, param, len(fibers))
                      for fibers in sweeps)
        runs.append((indices, len(chunks), pools[0] if pools else 1))
        return iter(chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(_search_kernel, "run", spy)
    for search, evaluated, sweeps in cases:
        monkeypatch.setattr(_search_kernel, "POOL_MIN_SPACE", evaluated + 1)
        runs.clear()
        serial = search(2)
        assert runs[-1] == (evaluated, sweeps, 1)
        monkeypatch.setattr(_search_kernel, "POOL_MIN_SPACE", evaluated)
        runs.clear()
        pooled = search(2)
        assert runs[-1] == (evaluated, 2 * sweeps, 2)
        # the base search on R_3 is smaller and stays serial
        assert all(jobs == 1 for _, _, jobs in runs[:-1])
        assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(
            pooled.to_json(), sort_keys=True
        )


def test_one_worker_runs_each_chunk_only_when_it_is_read(monkeypatch):
    # so a search abandoned past max_hits runs no further chunk
    ran = []
    monkeypatch.setattr(_search_kernel, "evaluate_chunk", lambda task: ran.append(task[4]) or ([], 0))
    table = dihedral_quandle(3).table
    sweeps = [(((0, 1, 2), s),) for s in range(3)]
    chunks = _search_kernel.run(table, "zp", 3, 3, sweeps, 1)
    assert ran == []
    next(chunks)
    assert ran == [sweeps[0]]


def test_pool_workers_are_capped_at_the_cpu_count(r6, monkeypatch):
    # a pool forks all its workers at its first submit, so a huge --jobs
    # must not ask for that many processes; the stub runs map serially
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(_search_kernel, "POOL_MIN_SPACE", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    capped = enumerate_boxed_Z(r6, 2, jobs=10**6)
    assert asked and set(asked) == {3}
    assert json.dumps(capped.to_json(), sort_keys=True) == json.dumps(
        enumerate_boxed_Z(r6, 2, jobs=1).to_json(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# the choice of kernel evaluator


def test_searches_import_numpy_only_past_the_break_even(checkout_env):
    # a fresh process: r3 mod 5 stays in plain Python, then r10 in the box
    # 2 runs until plain Python's indices would pass NUMPY_MIN_INDICES;
    # numpy takes over there and keeps every later plan
    code = (
        "import json, sys\n"
        "from quandlekit import _search_kernel, enumerate_boxed_Z, enumerate_mod_p\n"
        "from quandlekit import load_quandle\n"
        "r3, r10 = (load_quandle(path) for path in sys.argv[1:])\n"
        "calls = []\n"
        "real = _search_kernel.evaluate_chunk\n"
        "def spy(args):\n"
        "    calls.append((args[8], args[6] - args[5]))\n"
        "    return real(args)\n"
        "_search_kernel.evaluate_chunk = spy\n"
        "steps = []\n"
        "def run(search):\n"
        "    calls.clear()\n"
        "    report = json.dumps(search().to_json())\n"
        "    steps.append([list(calls), 'numpy' in sys.modules, report])\n"
        "run(lambda: enumerate_mod_p(r3, 5))\n"
        "while 'numpy' not in sys.modules and len(steps) < 64:\n"
        "    run(lambda: enumerate_boxed_Z(r10, 2))\n"
        "run(lambda: enumerate_boxed_Z(r10, 2))\n"
        "run(lambda: enumerate_mod_p(r3, 5))\n"
        "print(json.dumps([_search_kernel.NUMPY_MIN_INDICES, steps]))\n"
    )
    paths = [str(ROOT / "fixtures" / f"{name}.json") for name in ("r3", "r10")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *paths], env=checkout_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    limit, steps = json.loads(proc.stdout)
    sizes = [sum(size for _, size in calls) for calls, _, _ in steps]
    evaluators = [{e for e, _ in calls} for calls, _, _ in steps]
    # the r10 searches that fit below the limit after r3's, all in plain Python
    before = (limit - sizes[0]) // sizes[1]
    assert len(steps) == before + 4
    assert [imported for _, imported, _ in steps] == [False] * (before + 1) + [True] * 3
    assert evaluators[:before + 1] == [{"python"}] * (before + 1)
    assert "numpy" in evaluators[before + 1] and evaluators[-2:] == [{"numpy"}] * 2
    # plain Python stops before the indices it ran would pass the limit
    python = sum(size for calls, _, _ in steps for e, size in calls if e == "python")
    assert python <= limit < python + sizes[1]
    assert steps[0][2] == steps[-1][2]
    assert len({report for _, _, report in steps[1:-1]}) == 1


def test_support_walks_never_import_numpy(checkout_env):
    # a fresh process: support-capped box searches that walk supports run
    # no kernel chunk, so numpy stays out however large the box
    code = (
        "import json, sys\n"
        "from quandlekit import enumerate_boxed_Z, load_quandle, make\n"
        "r10 = load_quandle(sys.argv[1])\n"
        "counts = [len(enumerate_boxed_Z(r10, 2, max_support=3).idempotents),\n"
        "          len(enumerate_boxed_Z(make('dihedral', 13), 1, max_support=3).idempotents)]\n"
        "print(json.dumps([counts, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "fixtures" / "r10.json")],
        env=checkout_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[20, 13], False]


def test_numpy_break_even_sits_below_the_pool_threshold():
    # a plan big enough for the pool runs numpy, which the workers inherit
    assert _search_kernel.NUMPY_MIN_INDICES < _search_kernel.POOL_MIN_SPACE


def test_kernel_hit_failing_the_exact_recheck_is_an_internal_error(r3, monkeypatch):
    # augmentation 6 = 1 mod 5, so only the idempotency recheck can catch it
    hit = (1, 1, 4)

    def lying_kernel(args):
        return [hit], 1

    monkeypatch.setattr(_search_kernel, "evaluate_chunk", lying_kernel)
    with pytest.raises(InternalCheckError, match="fails exact recheck") as info:
        enumerate_mod_p(r3, 5)
    assert info.value.payload()["error"] == "InternalCheck"
    assert info.value.payload()["vector"] == list(hit)
