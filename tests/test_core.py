"""Tables, constructions, structural invariants, homs and coverings."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from quandlekit import (
    BudgetExceededError,
    CocycleData,
    Covering,
    CoveringConditionError,
    FiniteQuandle,
    InternalCheckError,
    InvalidParamsError,
    MagmaTable,
    NotIdempotentError,
    NotPermutationError,
    NotRightDistributiveError,
    NotSurjectiveError,
    QuandleHom,
    QuandleKitError,
    SearchBudgetExceededError,
    check_covering,
    cocycle_extension,
    find_coverings,
    fixed_points,
    from_right_mults,
    inner_orbits,
    make,
    perm_cycles,
    perm_inverse,
    perm_order,
    product_quandle,
    properties,
    quandle_from_json,
    trivial_subquandles,
    union_quandle,
    validate_cocycle,
    validate_table,
)

from quandlekit import core
from quandlekit.core import congruences, principal_congruence, quotient_table

from conftest import load_fixture
from oracles import (
    brute_force_coverings,
    naive_congruences,
    naive_first_axiom_failure,
    naive_orbits,
)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_dihedral_3():
    table = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    assert validate_table(table) == ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def test_validate_accepts_trivial_2():
    assert validate_table([[0, 0], [1, 1]]) == ((0, 0), (1, 1))


@pytest.mark.parametrize("build, message", [
    (lambda r3: MagmaTable([[0, 0], [1]]), "row 1 has length 1, expected 2"),
    (lambda r3: MagmaTable([[0, 2], [1, 1]]), r"entry 2 in row 0 is outside \[0, 2\)"),
    (lambda r3: MagmaTable([[0, 0], [1, 1]], labels="ab"), "labels must be a list"),
    (lambda r3: MagmaTable([[0, 0], [1, 1]], labels=["a"]), "labels length differs"),
    # 0 is an identity, but (1*1)*2 = 0 and 1*(1*2) = 1
    (lambda r3: make("conj", [[0, 1, 2], [1, 1, 0], [2, 0, 2]]), "not associative at"),
    (lambda r3: QuandleHom(r3, r3, [0, 1, 3]), "image index out of range"),
], ids=["ragged-row", "entry-out-of-range", "labels-not-a-list", "labels-wrong-length",
        "group-not-associative", "hom-image-out-of-range"])
def test_malformed_tables_labels_groups_and_homs_are_refused(build, message, r3):
    with pytest.raises(InvalidParamsError, match=message):
        build(r3)


def test_validate_rejects_bad_column_first():
    # column 0 is (0, 0); the diagonal is also broken but the column
    # check must fire first
    with pytest.raises(NotPermutationError) as exc:
        validate_table([[0, 1], [0, 1]])
    assert exc.value.column == 0


def test_validate_rejects_broken_diagonal():
    with pytest.raises(NotIdempotentError) as exc:
        validate_table([[1, 1], [0, 0]])
    assert exc.value.index == 0


def test_validate_rejects_non_distributive_quasigroup(magma8):
    # idempotent quasigroup whose columns are permutations: only the
    # third axiom can fail, at the lexicographically first witness
    with pytest.raises(NotRightDistributiveError) as exc:
        validate_table(magma8.table)
    assert exc.value.indices == (0, 1, 0)


@st.composite
def near_quandle_tables(draw):
    """A random table whose columns are permutations fixing the diagonal,
    most of them not right distributive; sometimes one entry is then
    overwritten, which may break a column or the diagonal too."""
    n = draw(st.integers(1, 6))
    cols = []
    for j in range(n):
        rest = draw(st.permutations([x for x in range(n) if x != j]))
        cols.append(rest[:j] + [j] + rest[j:])
    table = [[cols[j][i] for j in range(n)] for i in range(n)]
    if draw(st.integers(0, 4)) == 0:
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return table


@settings(max_examples=300, deadline=None)
@given(table=near_quandle_tables())
def test_validate_raises_the_naive_first_failure(table):
    expected = naive_first_axiom_failure(table)
    if expected is None:
        assert validate_table(table) == tuple(map(tuple, table))
        return
    cls, args = expected
    with pytest.raises(QuandleKitError) as exc:
        validate_table(table)
    assert type(exc.value) is cls
    assert exc.value.payload() == cls(*args).payload()


def test_right_distributivity_holds_on_validated(r6, p6, b12):
    for q in (r6, p6, b12):
        t = q.table
        n = q.order
        for x, y, z in itertools.product(range(n), repeat=3):
            assert t[t[x][y]][z] == t[t[x][z]][t[y][z]]


def _perturbed(q, rng):
    """q's table with two entries off the diagonal of one column swapped:
    the columns stay permutations and the diagonal stays fixed."""
    table = [list(row) for row in q.table]
    c = rng.randrange(q.order)
    i, j = rng.sample([x for x in range(q.order) if x != c], 2)
    table[i][c], table[j][c] = table[j][c], table[i][c]
    return table


# real quandles of order 8 to 27, connected or not, with small and large
# generating sets
PERTURBED = {
    "T_8": lambda: make("trivial", 8),
    "R_8": lambda: make("dihedral", 8),
    "R_3+R_5": lambda: union_quandle([make("dihedral", 3), make("dihedral", 5)]),
    "T_3+R_5": lambda: union_quandle([make("trivial", 3), make("dihedral", 5)]),
    "R_3xT_3": lambda: product_quandle(make("dihedral", 3), make("trivial", 3)),
    "core(3,3)": lambda: make("core", [3, 3]),
    "R_10": lambda: load_fixture("r10.json"),
    "R_11": lambda: make("dihedral", 11),
    "blocks12": lambda: load_fixture("blocks12.json"),
    "R_6xT_2": lambda: product_quandle(make("dihedral", 6), make("trivial", 2)),
    "R_16": lambda: make("dihedral", 16),
    "core(5,5)": lambda: make("core", [5, 5]),
    "core(3,3,3)": lambda: make("core", [3, 3, 3]),
}


@pytest.mark.parametrize("name", list(PERTURBED))
def test_validate_raises_the_naive_first_failure_on_perturbed_quandles(name):
    # the generating-set check passes the quandle itself; after a swap it
    # must pass or raise exactly what the full naive loop finds
    q = PERTURBED[name]()
    assert validate_table(q.table) == q.table
    rng = random.Random(f"perturbed {name}")
    for _ in range(25):
        table = _perturbed(q, rng)
        expected = naive_first_axiom_failure(table)
        if expected is None:
            assert validate_table(table) == tuple(map(tuple, table))
            continue
        cls, args = expected
        with pytest.raises(QuandleKitError) as exc:
            validate_table(table)
        assert type(exc.value) is cls
        assert exc.value.payload() == cls(*args).payload()


@pytest.mark.parametrize("build, gens", [
    (lambda: load_fixture("r6.json"), [0, 1]),
    (lambda: load_fixture("r10.json"), [0, 1]),
    (lambda: make("dihedral", 7), [0, 1]),
    (lambda: load_fixture("pairs6.json"), [0, 1, 2]),
    (lambda: load_fixture("blocks12.json"), [0, 1, 2, 3, 4]),
    (lambda: make("core", [5, 5]), [0, 1, 5]),
    (lambda: make("core", [3] * 5), [0, 1, 3, 9, 27, 81]),
], ids=["r6", "r10", "R_7", "pairs6", "blocks12", "core(5,5)", "core(3^5)"])
def test_generating_set_pins(build, gens):
    q = build()
    assert core._generating_set(q.table, q.right_mults) == gens


def _closure(table, keys) -> set:
    """keys closed under the table's product, by squaring the set until it stops growing."""
    members = set(keys)
    while True:
        more = {table[a][b] for a in members for b in members} - members
        if not more:
            return members
        members |= more


@st.composite
def idempotent_tables(draw):
    """A random table with a fixed diagonal; about half the other entries
    are a*b = a, so keys often generate small closures."""
    n = draw(st.integers(1, 9))
    cells = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    return [[a if a == b or c is None else c for b, c in enumerate(cells[a * n:(a + 1) * n])]
            for a in range(n)]


@settings(max_examples=200, deadline=None)
@given(table=idempotent_tables())
def test_generating_set_is_each_least_key_outside_the_earlier_closure(table):
    rows = tuple(map(tuple, table))
    gens = core._generating_set(rows, list(zip(*rows)))
    keys = set(range(len(table)))
    assert _closure(table, gens) == keys
    for i, g in enumerate(gens):
        assert g == min(keys - _closure(table, gens[:i]))


def test_tables_are_normalized_once_per_construction(monkeypatch, r6):
    calls = []
    real = core._normalize_table
    monkeypatch.setattr(core, "_normalize_table", lambda t: calls.append(t) or real(t))
    table = [list(row) for row in r6.table]
    assert FiniteQuandle(table).table == r6.table
    assert len(calls) == 1
    assert MagmaTable(table).table == r6.table
    assert len(calls) == 2


def test_magma_table_skips_validation(magma8):
    assert isinstance(magma8, MagmaTable)
    assert not magma8.is_quandle
    assert magma8.op(0, 1) == 2


def test_json_round_trip_keeps_labels(p6):
    doc = p6.to_json()
    assert doc["labels"] == [str(i) for i in range(1, 7)]
    again = quandle_from_json(doc)
    assert again.table == p6.table
    assert again.labels == p6.labels


def test_json_order_mismatch_rejected():
    with pytest.raises(InvalidParamsError):
        quandle_from_json({"order": 3, "table": [[0, 0], [1, 1]]})


def test_load_names_by_file_stem(r6, b12):
    assert r6.name == "r6"
    assert b12.name == "blocks12"


# ---------------------------------------------------------------------------
# constructions


def test_from_right_mults_identity_gives_trivial():
    q = from_right_mults([(0, 1, 2)] * 3)
    assert q.table == make("trivial", 3).table


def test_from_right_mults_matches_fixture(p6):
    perms = [p6.right_mult(j) for j in range(6)]
    assert from_right_mults(perms).table == p6.table


def test_from_right_mults_rejects_non_permutation():
    with pytest.raises(NotPermutationError):
        from_right_mults([(0, 0, 1), (0, 1, 2), (0, 1, 2)])


def test_dihedral_6_right_mults(r6):
    assert make("dihedral", 6).table == r6.table
    assert r6.right_mult(0) == (0, 5, 4, 3, 2, 1)
    assert r6.right_mult(3) == (0, 5, 4, 3, 2, 1)


def test_core_single_factor_is_dihedral(r5):
    assert make("core", [5]).table == r5.table


def test_core_two_factors_componentwise():
    q = make("core", [2, 2])
    # 2y - x = -x = x mod 2 componentwise, so the operation is trivial
    assert q.table == make("trivial", 4).table


def test_conj_on_symmetric_group_table():
    # multiplication table of the order-6 symmetric group on 3 letters,
    # elements indexed e, (12), (13), (23), (123), (132)
    mul = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 4, 5, 2, 3],
        [2, 5, 0, 4, 3, 1],
        [3, 4, 5, 0, 1, 2],
        [4, 3, 1, 2, 5, 0],
        [5, 2, 3, 1, 0, 4],
    ]
    q = make("conj", mul)
    # conjugation fixes the identity and preserves cycle type
    assert q.right_mult(0) == (0, 1, 2, 3, 4, 5)
    transpositions = {1, 2, 3}
    for x in transpositions:
        for y in range(6):
            assert q.op(x, y) in transpositions


def test_conj_rejects_non_group():
    with pytest.raises(InvalidParamsError):
        make("conj", [[0, 1], [1, 1]])


def test_product_indexing_first_factor_major(r3, t2):
    q = product_quandle(r3, t2)
    assert q.order == 6
    assert q.name == "product(r3,t2)"
    assert product_quandle(make("dihedral", 3), make("trivial", 2)).name == (
        "product(dihedral(3),trivial(2))"
    )
    for a, s, b, t in itertools.product(range(3), range(2), range(3), range(2)):
        assert q.op(a * 2 + s, b * 2 + t) == r3.op(a, b) * 2 + t2.op(s, t)


def test_union_blocks_and_cross_action(t2, r3):
    q = union_quandle([t2, r3])
    assert q.order == 5
    # inside the second block the operation is dihedral shifted by 2
    assert q.op(2, 3) == r3.op(0, 1) + 2
    # across blocks x*y = x
    assert q.op(0, 4) == 0
    assert q.op(4, 0) == 4


def test_union_needs_two_parts(r3):
    with pytest.raises(InvalidParamsError):
        union_quandle([r3])


def test_twisted_union_applies_f_and_g(t2, t3):
    q = make("twisted-union", t2, t3, [1, 0], [1, 2, 0])
    assert q.order == 5
    for i in range(2):
        for j in range(2, 5):
            assert q.op(i, j) == [1, 0][i]
    for i in range(2, 5):
        for j in range(2):
            assert q.op(i, j) == [1, 2, 0][i - 2] + 2
    # inside each block the operation stays trivial
    for i in range(5):
        for j in range(5):
            if (i < 2) == (j < 2):
                assert q.op(i, j) == i


def test_twisted_union_rejects_nontrivial_part(r3, t2):
    with pytest.raises(InvalidParamsError):
        make("twisted-union", r3, t2, [0, 1, 2], [0, 1])


def test_twisted_union_rejects_bad_perm(t2, t3):
    with pytest.raises(InvalidParamsError):
        make("twisted-union", t2, t3, [1, 1], [0, 1, 2])


def test_make_rejects_unknown_kind():
    with pytest.raises(InvalidParamsError):
        make("octonion", 8)


# ---------------------------------------------------------------------------
# permutation helpers


def test_perm_order():
    assert perm_order((0, 1, 2)) == 1
    assert perm_order((1, 0, 3, 2)) == 2
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 2, 3, 0, 5, 4)) == 4


def test_perm_cycles():
    assert perm_cycles(()) == []
    assert perm_cycles((2, 0, 1, 3)) == [(0, 2, 1), (3,)]
    assert perm_cycles((1, 0, 4, 3, 2)) == [(0, 1), (2, 4), (3,)]


@settings(max_examples=200, deadline=None)
@given(perm=st.integers(0, 9).flatmap(lambda n: st.permutations(range(n))))
def test_perm_cycles_partition_and_order(perm):
    cycles = perm_cycles(perm)
    assert sorted(p for c in cycles for p in c) == list(range(len(perm)))
    for cycle in cycles:
        assert cycle[0] == min(cycle)
        assert [perm[p] for p in cycle] == list(cycle[1:] + cycle[:1])
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
    assert perm_order(perm) == math.lcm(*(len(c) for c in cycles))
    # and it is the least power of perm that is the identity
    power, k = tuple(perm), 1
    while power != tuple(range(len(perm))):
        power, k = tuple(perm[p] for p in power), k + 1
    assert perm_order(perm) == k


def test_perm_inverse():
    assert perm_inverse((2, 0, 1)) == (1, 2, 0)
    p = (3, 1, 4, 0, 2)
    inv = perm_inverse(p)
    assert tuple(p[inv[i]] for i in range(5)) == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# orbits, properties, fixed points


def test_inner_orbits_dihedral_4_splits_by_parity():
    assert inner_orbits(make("dihedral", 4)) == [(0, 2), (1, 3)]


def test_inner_orbits_connected(r3, r5):
    assert inner_orbits(r3) == [(0, 1, 2)]
    assert inner_orbits(r5) == [(0, 1, 2, 3, 4)]


def test_inner_orbits_of_union(t2, r3):
    assert inner_orbits(union_quandle([t2, r3])) == [(0,), (1,), (2, 3, 4)]


def test_properties_dihedral_3(r3):
    assert properties(r3).to_json() == {
        "connected": True,
        "latin": True,
        "medial": True,
        "faithful": True,
        "involutory": True,
        "finite_type_orders": [2, 2, 2],
    }


def test_properties_example_order_6(p6):
    assert properties(p6).to_json() == {
        "connected": True,
        "latin": False,
        "medial": False,
        "faithful": True,
        "involutory": True,
        "finite_type_orders": [2, 2, 2, 2, 2, 2],
    }


def test_properties_example_order_12(b12):
    props = properties(b12)
    assert props.connected
    assert props.faithful
    assert not props.involutory
    assert props.finite_type_orders == (4,) * 12


def test_properties_trivial(t3):
    props = properties(t3)
    assert not props.connected
    assert not props.latin
    assert props.medial
    assert not props.faithful
    assert props.involutory
    assert props.finite_type_orders == (1, 1, 1)


def test_fixed_points_dihedral(r6, r5):
    assert fixed_points(r6, 0) == (0, 3)
    assert fixed_points(r6, 1) == (1, 4)
    assert fixed_points(r5, 2) == (2,)


def test_fixed_points_range_check(r3):
    with pytest.raises(InvalidParamsError):
        fixed_points(r3, 3)


def test_faithful_quandles_have_symmetric_fixing(r3, r5, p6, b12):
    # in a faithful quandle x*y = x forces y*x = y
    for q in (r3, r5, p6, b12):
        assert properties(q).faithful
        for x in range(q.order):
            for y in range(q.order):
                if q.op(x, y) == x:
                    assert q.op(y, x) == y


# ---------------------------------------------------------------------------
# trivial subquandles


def test_trivial_subquandles_order_6_pairs(p6):
    pairs = trivial_subquandles(p6, 2)
    assert pairs == [(0, 1), (2, 3), (4, 5)]
    # no larger trivial subquandle exists, so raising the cap changes nothing
    assert trivial_subquandles(p6, 3) == pairs
    assert trivial_subquandles(p6, 6) == pairs


def test_trivial_subquandles_order_12(b12):
    sets = trivial_subquandles(b12, 4)
    assert len(sets) == 33
    blocks = [set(range(0, 4)), set(range(4, 8)), set(range(8, 12))]
    for s in sets:
        assert any(set(s) <= b for b in blocks)
    quads = [s for s in sets if len(s) == 4]
    assert quads == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]


def test_trivial_subquandles_none_in_connected_latin(r3, r5):
    assert trivial_subquandles(r3, 3) == []
    assert trivial_subquandles(r5, 5) == []


def test_trivial_subquandles_cap(b12):
    # 33 subsets: a cap of 33 lists them all, one less refuses the listing
    assert len(trivial_subquandles(b12, 4, cap=33)) == 33
    with pytest.raises(BudgetExceededError) as info:
        trivial_subquandles(b12, 4, cap=32)
    assert info.value.payload()["budget"] == 32


@pytest.mark.parametrize("order", [12, 21], ids=["blocks12", "trivial21"])
def test_trivial_subquandles_refuse_before_listing(order, b12, monkeypatch):
    # b12's 33 subsets are counted by the walk, T_21's 2^21 - 22 in closed
    # form; past a cap of 32 neither lists a single clique
    q = b12 if order == 12 else core.trivial_quandle(21)
    listed = []
    monkeypatch.setattr(core, "_cliques", lambda *args: listed.append(args) or iter(()))
    with pytest.raises(BudgetExceededError) as info:
        trivial_subquandles(q, order, cap=32)
    assert info.value.payload()["needed"] == "more than 32"
    assert listed == []


# ---------------------------------------------------------------------------
# cocycle extensions


def test_zero_cocycle_is_valid_and_compatible(r3):
    data = CocycleData.from_parts(r3, 2, [[0] * 3] * 3)
    report = validate_cocycle(data)
    assert report.valid
    assert report.involutory_compatible
    assert report.to_json()["violation"] is None


def test_cocycle_normalization_violation(r3):
    data = CocycleData.from_parts(r3, 2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    report = validate_cocycle(data)
    assert not report.valid
    assert report.violation == {"kind": "normalization", "x": 0}


def test_cocycle_extension_covers_base(r3):
    ext = cocycle_extension(CocycleData.from_parts(r3, 2, [[0] * 3] * 3))
    assert ext.order == 6
    cov = check_covering(QuandleHom(ext, r3, [i // 2 for i in range(6)]))
    assert cov.nontrivial
    assert cov.fiber(1) == (2, 3)


def test_cocycle_extension_rejects_invalid(r3):
    data = CocycleData.from_parts(r3, 2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidParamsError):
        cocycle_extension(data)


def test_some_nonzero_mod_2_cocycle_exists(r3):
    """Exhaustive sweep of all 2^9 candidate tables over the three-element
    dihedral quandle with fiber group of order 2.  At least one nonzero
    table passes, and compatibility controls whether the extension stays
    involutory."""
    nonzero_valid = []
    for bits in itertools.product((0, 1), repeat=9):
        alpha = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
        data = CocycleData.from_parts(r3, 2, alpha)
        report = validate_cocycle(data)
        if report.valid and any(bits):
            nonzero_valid.append((data, report))
    assert nonzero_valid
    for data, report in nonzero_valid:
        ext = cocycle_extension(data)
        assert properties(ext).involutory == report.involutory_compatible


def test_cocycle_from_parts_validates_shape(r3):
    with pytest.raises(InvalidParamsError):
        CocycleData.from_parts(r3, 2, [[0, 0], [0, 0]])
    with pytest.raises(InvalidParamsError):
        CocycleData.from_parts(r3, 0, [[0] * 3] * 3)


# ---------------------------------------------------------------------------
# homs and coverings


def test_hom_rejects_non_homomorphism(r6, r3):
    with pytest.raises(InvalidParamsError, match="not a homomorphism"):
        QuandleHom(r6, r3, [0, 1, 2, 0, 1, 0])


def test_hom_rejects_wrong_length(r6, r3):
    with pytest.raises(InvalidParamsError):
        QuandleHom(r6, r3, [0, 1, 2])


def test_reduction_mod_3_is_nontrivial_covering(cov63):
    assert isinstance(cov63, Covering)
    assert cov63.nontrivial
    assert cov63.fiber(0) == (0, 3)
    assert cov63.fiber(1) == (1, 4)
    assert cov63.to_json() == {
        "images": [0, 1, 2, 0, 1, 2],
        "fibers": {"0": [0, 3], "1": [1, 4], "2": [2, 5]},
        "nontrivial": True,
    }


def test_identity_covering_is_trivial(r3):
    cov = check_covering(QuandleHom(r3, r3, [0, 1, 2]))
    assert not cov.nontrivial


def test_product_projection_is_covering(r3, t2):
    q = product_quandle(r3, t2)
    cov = check_covering(QuandleHom(q, r3, [i // 2 for i in range(6)]))
    assert cov.nontrivial
    assert cov.fiber(2) == (4, 5)


def test_parity_map_fails_covering_condition(r6, t2):
    # a perfectly good hom whose fibers do not act identically
    hom = QuandleHom(r6, t2, [0, 1, 0, 1, 0, 1])
    with pytest.raises(CoveringConditionError) as exc:
        check_covering(hom)
    assert exc.value.pair == (0, 2)


def test_constant_hom_not_surjective(r3):
    with pytest.raises(NotSurjectiveError):
        check_covering(QuandleHom(r3, r3, [0, 0, 0]))


def test_equal_homs_and_coverings_have_equal_reprs(r6, r3):
    homs = [QuandleHom(make("dihedral", 6), make("dihedral", 3), [0, 1, 2, 0, 1, 2]) for _ in "ab"]
    assert homs[0] == homs[1] and homs[0] is not homs[1]
    assert repr(homs[0]) == repr(homs[1]) == (
        "QuandleHom(FiniteQuandle(dihedral(6)), FiniteQuandle(dihedral(3)), [0, 1, 2, 0, 1, 2])")
    covs = [check_covering(h) for h in homs]
    assert repr(covs[0]) == repr(covs[1]) == f"Covering({homs[0]!r},)"
    assert "0x" not in repr(covs[0])
    assert repr(QuandleHom(r6, r3, [0, 1, 2, 0, 1, 2])).startswith("QuandleHom(FiniteQuandle(r6), ")


def test_covering_fiber_lookup_range(cov63):
    with pytest.raises(InvalidParamsError):
        cov63.fiber(7)


def test_inner_automorphisms_permute_fibers(cov63, r6, r3):
    # S_y sends the fiber over b onto the fiber over b * f(y)
    f = cov63.hom.images
    for y in range(r6.order):
        for b in range(r3.order):
            moved = sorted(r6.table[x][y] for x in cov63.fiber(b))
            assert tuple(moved) == cov63.fiber(r3.table[b][f[y]])


def test_find_coverings_matches_brute_force(r6, r3):
    found = find_coverings(r6, r3)
    assert [c.hom.images for c in found] == brute_force_coverings(r6.table, r3.table)
    assert len(found) == 6
    assert (0, 1, 2, 0, 1, 2) in {c.hom.images for c in found}
    assert all(c.nontrivial for c in found)


def test_find_coverings_self_count(r3):
    found = find_coverings(r3, r3)
    assert [c.hom.images for c in found] == brute_force_coverings(r3.table, r3.table)
    assert len(found) == 6


def test_find_coverings_none_upward(r3, r6):
    assert find_coverings(r3, r6) == []


def test_find_coverings_budget(r6, r3):
    with pytest.raises(SearchBudgetExceededError) as exc:
        find_coverings(r6, r3, budget=10)
    assert exc.value.exit_code == 2
    assert exc.value.budget == 10


def test_fixture_table_matches_construction(r3, r5, r6, r10, t2, t3):
    assert r3.table == make("dihedral", 3).table
    assert r5.table == make("dihedral", 5).table
    assert r6.table == make("dihedral", 6).table
    assert r10.table == make("dihedral", 10).table
    assert t2.table == make("trivial", 2).table
    assert t3.table == make("trivial", 3).table


def test_order_6_fixture_right_mults(p6):
    # frozen column permutations of the six-element example; elements
    # pair off as {0,1}, {2,3}, {4,5}
    assert [p6.right_mult(j) for j in range(6)] == [
        (0, 1, 4, 5, 2, 3),
        (0, 1, 5, 4, 3, 2),
        (4, 5, 2, 3, 0, 1),
        (5, 4, 2, 3, 1, 0),
        (2, 3, 0, 1, 4, 5),
        (3, 2, 1, 0, 4, 5),
    ]


def test_order_12_fixture_block_action(b12):
    # within a block the operation is trivial; across blocks each right
    # multiplication is a product of two 4-cycles
    blocks = [range(0, 4), range(4, 8), range(8, 12)]
    for bi in blocks:
        for x in bi:
            for y in bi:
                assert b12.op(x, y) == x
    for j in range(12):
        assert perm_order(b12.right_mult(j)) == 4


# ---------------------------------------------------------------------------
# congruences


def _refines(fine, coarse):
    return all(any(set(f) <= set(c) for c in coarse) for f in fine)


def _check_principal_congruences(q):
    """Each principal congruence is the finest oracle congruence holding
    its pair, and congruences() lists exactly the distinct ones.  Returns
    every oracle congruence."""
    every = naive_congruences(q.table)
    principal = set()
    for a, b in itertools.combinations(range(q.order), 2):
        holding = [c for c in every if any(a in block and b in block for block in c)]
        finest = max(holding, key=len)
        assert all(_refines(finest, c) for c in holding)
        assert principal_congruence(q, a, b) == finest
        principal.add(finest)
    assert congruences(q) == sorted(principal)
    return every


def test_principal_congruences_match_the_oracle(r6, t3, p6, magma8):
    for q in (r6, t3, p6, magma8):
        _check_principal_congruences(q)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_principal_congruences_of_random_magmas_match_the_oracle(data):
    n = data.draw(st.integers(1, 5))
    table = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    _check_principal_congruences(MagmaTable(table))


@st.composite
def small_quandles(draw):
    """A dihedral, core, product, union or twisted-union quandle of order
    at most 7, where the oracle's Bell(n) partitions stay few.  Unlike a
    magma table these have right multiplications, so congruences() walks
    the pairs in orbits."""
    def piece(most):
        kind = draw(st.sampled_from(["trivial", "dihedral"]))
        return make(kind, draw(st.integers(1, most)))

    kind = draw(st.sampled_from(["dihedral", "core", "product", "union", "twisted-union"]))
    if kind == "dihedral":
        return make("dihedral", draw(st.integers(1, 7)))
    if kind == "core":
        return make("core", draw(st.sampled_from([[2, 2], [2, 3], [3, 2], [5], [7]])))
    if kind == "product":
        x = piece(3)
        return make("product", x, piece(7 // x.order))
    if kind == "union":
        x = piece(5)
        y = piece(6 - x.order)
        rest = 7 - x.order - y.order
        return make("union", x, y, *([piece(rest)] if rest and draw(st.booleans()) else []))
    a = draw(st.integers(1, 5))
    b = draw(st.integers(1, 7 - a))
    f = draw(st.permutations(range(a)))
    g = draw(st.permutations(range(b)))
    return make("twisted-union", make("trivial", a), make("trivial", b), f, g)


@settings(max_examples=100, deadline=None)
@given(q=small_quandles())
def test_principal_congruences_of_random_quandles_match_the_oracle(q):
    every = _check_principal_congruences(q)
    # each right multiplication fixes every congruence, so the pairs of
    # one Inn(q)-orbit generate the same one
    for partition in every:
        for g in q.right_mults:
            image = tuple(sorted(tuple(sorted(g[x] for x in block)) for block in partition))
            assert image == partition


def _check_orbits(q):
    """core.orbits on Inn(q) gives the oracle's orbits in the same order;
    each g carries the orbit's first point to its point and is a table
    automorphism, and the first points share one identity tuple."""
    n, table = q.order, q.table
    gens = tuple(dict.fromkeys(q.right_mults))
    found = core.orbits(range(n), gens, n)
    assert [tuple(sorted(x for x, _ in orbit)) for orbit in found] == naive_orbits(n, gens)
    assert all(orbit[0][0] == min(x for x, _ in orbit) for orbit in found)
    assert len({id(orbit[0][1]) for orbit in found}) == 1
    assert found[0][0][1] == tuple(range(n))
    for orbit in found:
        first = orbit[0][0]
        for x, g in orbit:
            assert g[first] == x
            assert all(table[g[a]][g[b]] == g[table[a][b]] for a in range(n) for b in range(n))


@settings(max_examples=60, deadline=None)
@given(q=small_quandles())
def test_orbits_of_random_quandles_match_the_oracle(q):
    _check_orbits(q)


@pytest.mark.parametrize("name", ["r10", "b12"])
def test_orbits_of_fixture_quandles_match_the_oracle(name, request):
    _check_orbits(request.getfixturevalue(name))


def test_orbits_without_generators_are_single_points():
    identity = tuple(range(4))
    assert core.orbits(range(4), (), 4) == [[(x, identity)] for x in range(4)]


def test_dihedral_10_folds_onto_dihedral_5(r10, r5):
    halves = tuple((i, i + 5) for i in range(5))
    assert halves in congruences(r10)
    assert quotient_table(r10, halves) == r5.table
    # R_5 is simple: every pair generates the one-block congruence
    assert congruences(r5) == [(tuple(range(5)),)]


def test_quotient_table_rejects_a_partition_that_is_no_congruence(r6):
    with pytest.raises(InternalCheckError):
        quotient_table(r6, ((0, 1), (2, 3), (4, 5)))
