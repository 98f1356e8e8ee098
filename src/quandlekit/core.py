"""Finite quandles as explicit multiplication tables.

A table T encodes the binary operation x*y = T[x][y] on {0, ..., n-1}.
Validation pins down the three axioms in order: every column is a
permutation, the diagonal is fixed, and the operation is right
distributive.  Right multiplication by y (the column map S_y) is cached
on construction since almost everything downstream consumes it; the
order of each S_y is computed once, on first use.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from functools import cached_property

from .errors import (
    BudgetExceededError,
    CoveringConditionError,
    InternalCheckError,
    InvalidParamsError,
    NotIdempotentError,
    NotPermutationError,
    NotRightDistributiveError,
    NotSurjectiveError,
    SearchBudgetExceededError,
)

Table = tuple[tuple[int, ...], ...]


def doc_int(value, what: str) -> int:
    """value as an int: a Python or numpy integer, never a bool, float or string."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParamsError(f"{what} must be an integer, got {type(value).__name__}")
    return int(value)


class Record:
    """A plain record: `==` compares and repr shows `_args()`, and a
    mutable record has no hash.  `__slots__` lists the constructor's
    parameters in order and `_args()` reads them back; a record whose
    slots hold anything else, or that has none, overrides `_args()`.
    Records are written by hand rather than with `dataclasses`, which
    costs a CLI process about 4.5 ms to import and compiles each class's
    methods at start-up."""

    __slots__ = ()
    __hash__ = None

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __repr__(self):
        return f"{type(self).__name__}{self._args()!r}"


class Frozen(Record):
    """An immutable record: __init__ sets each field once through
    object.__setattr__, and assignment and deletion raise.  Hash, pickle
    and copy go through `_args()`: `__reduce__` rebuilds a record as
    `type(self)(*self._args())`, since the default slot restore would
    assign through __setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()


def fields_json(record) -> dict:
    """A record's fields by slot name, for a record whose JSON is its
    fields: a nested record as its to_json, a tuple or list as a new
    list, anything else as it is."""
    doc = {}
    for name in record.__slots__:
        value = getattr(record, name)
        if isinstance(value, Record):
            value = value.to_json()
        elif isinstance(value, (tuple, list)):
            value = list(value)
        doc[name] = value
    return doc


def _normalize_table(table) -> Table:
    try:
        rows = tuple(tuple(doc_int(v, "a table entry") for v in row) for row in table)
    except TypeError:
        raise InvalidParamsError("table must be a list of rows of integers") from None
    n = len(rows)
    if n == 0:
        raise InvalidParamsError("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidParamsError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise InvalidParamsError(f"entry {v} in row {i} is outside [0, {n})")
    return rows


def validate_table(table) -> Table:
    """Check the quandle axioms, raising on the first violation found.

    Column permutation failures are reported before diagonal failures,
    which are reported before right-distributivity failures; within each
    axiom the first offending index tuple (lexicographically) is raised.

    Right distributivity (i*j)*k = (i*k)*(j*k) for all i says that the
    column maps compose as S_k S_j = S_{j*k} S_k, so it is checked as
    2n^2 compositions of column tuples.  The least failing i of each
    failing (j, k) is its first differing entry; the least triple over
    those is raised.
    """
    rows = _normalize_table(table)
    n = len(rows)
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        if len(set(col)) != n:
            raise NotPermutationError(j)
    for j in range(n):
        if rows[j][j] != j:
            raise NotIdempotentError(j)
    # itemgetter(*col) composes col before another column; with n == 1 both
    # sides are single entries instead of tuples, and still compare
    gets = [operator.itemgetter(*col) for col in cols]
    failures = []
    for j in range(n):
        for k in range(n):
            left, right = gets[j](cols[k]), gets[k](cols[rows[j][k]])
            if left != right:
                i = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
                failures.append((i, j, k))
    if failures:
        raise NotRightDistributiveError(*min(failures))
    return rows


class MagmaTable:
    """A finite binary operation with no axioms assumed.

    Useful for running ring arithmetic over tables that fail quandle
    validation on purpose.
    """

    is_quandle = False

    def __init__(self, table, labels=None, name: str | None = None):
        self.table: Table = self._rows(table)
        self.order: int = len(self.table)
        self.labels: tuple[str, ...] | None = None
        if labels is not None:
            if not isinstance(labels, (list, tuple)):
                raise InvalidParamsError("labels must be a list of strings")
            labels = tuple(str(s) for s in labels)
            if len(labels) != self.order:
                raise InvalidParamsError("labels length differs from order")
            self.labels = labels
        self.name = name

    @staticmethod
    def _rows(table) -> Table:
        """The table as rows of ints, normalized once per construction."""
        return _normalize_table(table)

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def contains_key(self, key) -> bool:
        return isinstance(key, int) and 0 <= key < self.order

    def right_mult(self, j: int) -> tuple[int, ...]:
        return tuple(self.table[i][j] for i in range(self.order))

    def __eq__(self, other):
        return type(self) is type(other) and self.table == other.table

    def __hash__(self):
        return hash((type(self).__name__, self.table))

    def __repr__(self):
        tag = self.name or f"order {self.order}"
        return f"{type(self).__name__}({tag})"

    def to_json(self) -> dict:
        doc: dict = {"order": self.order, "table": [list(row) for row in self.table]}
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc


class FiniteQuandle(MagmaTable):
    """A validated finite quandle; construction runs validate_table."""

    is_quandle = True

    def __init__(self, table, labels=None, name: str | None = None):
        super().__init__(table, labels=labels, name=name)
        self.right_mults: tuple[tuple[int, ...], ...] = tuple(
            self.right_mult(j) for j in range(self.order)
        )

    @staticmethod
    def _rows(table) -> Table:
        return validate_table(table)

    @cached_property
    def right_mult_cycles(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The cycles of each right multiplication S_y, as perm_cycles lists them."""
        return tuple(tuple(perm_cycles(p)) for p in self.right_mults)

    @cached_property
    def right_mult_orders(self) -> tuple[int, ...]:
        """The order of each right multiplication S_y."""
        return tuple(math.lcm(*map(len, cycles)) for cycles in self.right_mult_cycles)

    @cached_property
    def right_mult_classes(self) -> tuple[int, ...]:
        """For each key y, the least key y' with S_y' = S_y: the classes of
        the congruence theta_S, read from the table's own columns.

        e_k u = sum_y c_y e_{k*y} depends on u only through its coefficient
        sums over these classes, since k*y = k*y' whenever S_y = S_y'.  So
        when those sums are 1 on the class of t and 0 on every other class,
        w -> w u is S_t, an automorphism.  This is why the covering-family
        idempotents form a quandle (the paper: "the set of all these
        idempotents forms a quandle in itself")."""
        least: dict = {}
        return tuple(least.setdefault(p, y) for y, p in enumerate(self.right_mults))


def quandle_from_json(doc: dict, as_magma: bool = False) -> FiniteQuandle | MagmaTable:
    if not isinstance(doc, dict) or "table" not in doc:
        raise InvalidParamsError("quandle JSON needs a 'table' field")
    cls = MagmaTable if as_magma else FiniteQuandle
    q = cls(doc["table"], labels=doc.get("labels"))
    if "order" in doc and doc_int(doc["order"], "'order'") != q.order:
        raise InvalidParamsError("'order' disagrees with table size")
    return q


def read_json(path):
    """The JSON document in path.  An integer literal past Python's limit
    on int-str conversion (4300 digits) is malformed input, not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as err:
            raise InvalidParamsError(f"{path}: {err}") from None


def load_quandle(path, as_magma: bool = False) -> FiniteQuandle | MagmaTable:
    q = quandle_from_json(read_json(path), as_magma=as_magma)
    stem = str(path).rsplit("/", 1)[-1]
    q.name = stem.removesuffix(".json")
    return q


# ---------------------------------------------------------------------------
# constructions


def from_right_mults(perms) -> FiniteQuandle:
    """Build the table whose column j is the given permutation perms[j]."""
    perms = [tuple(p) for p in perms]
    n = len(perms)
    for j, p in enumerate(perms):
        if len(p) != n or sorted(p) != list(range(n)):
            raise NotPermutationError(j)
    return FiniteQuandle(tuple(tuple(perms[j][i] for j in range(n)) for i in range(n)))


# Building a table of order n and checking its axioms costs n^3 steps
# (about 0.1 us each, so 10 s at the budget); a larger construction is
# refused before its table is allocated.
CONSTRUCTION_BUDGET = 10**8


def _check_order(n: int) -> None:
    if n < 1:
        raise InvalidParamsError("order must be >= 1")
    if n**3 > CONSTRUCTION_BUDGET:
        raise BudgetExceededError(
            n**3, CONSTRUCTION_BUDGET, what="axiom checks", work=f"a table of order {n}"
        )


def trivial_quandle(n: int) -> FiniteQuandle:
    _check_order(n)
    return FiniteQuandle(tuple(tuple(i for _ in range(n)) for i in range(n)), name=f"trivial({n})")


def dihedral_quandle(n: int) -> FiniteQuandle:
    """i*j = 2j - i mod n."""
    _check_order(n)
    return FiniteQuandle(tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)),
                         name=f"dihedral({n})")


def core_quandle(factors) -> FiniteQuandle:
    """x*y = 2y - x on the product of cyclic groups of the given orders."""
    factors = [int(a) for a in factors]
    if not factors or any(a < 1 for a in factors):
        raise InvalidParamsError("factors must be positive integers")
    _check_order(math.prod(factors))
    # elements in mixed radix, the last factor fastest (itertools.product
    # order): the index of (i, s) is i * a + s, so the table over the first
    # factors combines with the next factor's own table entry by entry
    table: list[tuple[int, ...]] = [(0,)]
    for a in factors:
        own = [[(2 * y - x) % a for y in range(a)] for x in range(a)]
        table = [tuple(v * a + w for v in row for w in own_row) for row in table for own_row in own]
    return FiniteQuandle(table, name=f"core({','.join(map(str, factors))})")


def _group_inverses(g: Table) -> tuple[int, list[int]]:
    """Validate a group multiplication table; return (identity, inverses)."""
    n = len(g)
    identity = None
    for e in range(n):
        if all(g[e][j] == j for j in range(n)) and all(g[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise InvalidParamsError("group table has no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g[g[i][j]][k] != g[i][g[j][k]]:
                    raise InvalidParamsError(f"group table not associative at ({i}, {j}, {k})")
    inv = [-1] * n
    for i in range(n):
        for j in range(n):
            if g[i][j] == identity:
                inv[i] = j
                break
        if inv[i] < 0:
            raise InvalidParamsError(f"group element {i} has no inverse")
    return identity, inv


def conj_quandle(group_table) -> FiniteQuandle:
    """x*y = y x y^{-1} on a group given by its multiplication table."""
    g = _normalize_table(group_table)
    _, inv = _group_inverses(g)
    n = len(g)
    table = tuple(tuple(g[g[y][x]][inv[y]] for y in range(n)) for x in range(n))
    return FiniteQuandle(table, name=f"conj(order {n} group)")


def product_quandle(x: FiniteQuandle, y: FiniteQuandle) -> FiniteQuandle:
    """Componentwise operation on pairs, indexed with the first factor major."""
    nx, ny = x.order, y.order
    table = []
    for a in range(nx):
        for s in range(ny):
            row = []
            for b in range(nx):
                for t in range(ny):
                    row.append(x.table[a][b] * ny + y.table[s][t])
            table.append(row)
    labels = None
    if x.labels and y.labels:
        labels = [f"({lx},{ly})" for lx in x.labels for ly in y.labels]
    return FiniteQuandle(table, labels=labels, name=f"product({x.name or nx},{y.name or ny})")


def union_quandle(parts) -> FiniteQuandle:
    """Disjoint union: within a block the block's operation, across blocks x*y = x."""
    parts = list(parts)
    if len(parts) < 2:
        raise InvalidParamsError("union needs at least two parts")
    offsets = union_offsets(parts)
    total = offsets[-1] + parts[-1].order
    table = [[i] * total for i in range(total)]
    for p, off in zip(parts, offsets):
        for a in range(p.order):
            for b in range(p.order):
                table[off + a][off + b] = off + p.table[a][b]
    labels = None
    if all(p.labels for p in parts):
        labels = [s for p in parts for s in p.labels]
    return FiniteQuandle(table, labels=labels,
                         name="union(" + ",".join(p.name or str(p.order) for p in parts) + ")")


def union_offsets(parts) -> list[int]:
    """The index of each part's first element in their disjoint union."""
    return list(itertools.accumulate((p.order for p in parts[:-1]), initial=0))


def _check_perm(perm, n: int, what: str) -> tuple[int, ...]:
    perm = tuple(int(v) for v in perm)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise InvalidParamsError(f"{what} is not a permutation of 0..{n - 1}")
    return perm


def _is_trivial(q: MagmaTable) -> bool:
    return all(q.table[i][j] == i for i in range(q.order) for j in range(q.order))


def twisted_union_quandle(x: FiniteQuandle, y: FiniteQuandle, f, g) -> FiniteQuandle:
    """Union of two trivial quandles where the cross action applies f or g.

    a*b = f(a) for a in the first block and b in the second; b*a = g(b)
    the other way around; inside a block the operation stays trivial.
    """
    if not _is_trivial(x) or not _is_trivial(y):
        raise InvalidParamsError("twisted union requires both parts trivial")
    nx, ny = x.order, y.order
    f = _check_perm(f, nx, "f")
    g = _check_perm(g, ny, "g")
    total = nx + ny
    table = [[0] * total for _ in range(total)]
    for i in range(total):
        for j in range(total):
            if i < nx and j < nx:
                table[i][j] = i
            elif i < nx:
                table[i][j] = f[i]
            elif j < nx:
                table[i][j] = nx + g[i - nx]
            else:
                table[i][j] = i
    return FiniteQuandle(table, name=f"twisted_union({nx},{ny})")


class CocycleData(Frozen):
    """A base quandle with a cyclic-group 2-cocycle written additively.

    alpha[x][y] lives in Z_a; the extension multiplies as
    (x, s) * (y, t) = (x*y, s + alpha[x][y]).
    """

    __slots__ = ("base", "group_order", "alpha")

    def __init__(self, base: FiniteQuandle, group_order: int, alpha: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "alpha", alpha)

    @staticmethod
    def from_parts(base: FiniteQuandle, group_order: int, alpha) -> "CocycleData":
        a = int(group_order)
        if a < 1:
            raise InvalidParamsError("group order must be >= 1")
        try:
            rows = tuple(tuple(doc_int(v, "alpha") % a for v in row) for row in alpha)
        except (TypeError, InvalidParamsError):
            raise InvalidParamsError("alpha must be an order x order array of integers") from None
        n = base.order
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidParamsError("alpha must be an order x order array")
        return CocycleData(base, a, rows)


class CocycleReport(Frozen):
    __slots__ = ("valid", "violation", "involutory_compatible", "involutory_violation")

    def __init__(self, valid: bool, violation: dict | None, involutory_compatible: bool,
                 involutory_violation: dict | None):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "violation", violation)
        object.__setattr__(self, "involutory_compatible", involutory_compatible)
        object.__setattr__(self, "involutory_violation", involutory_violation)

    to_json = fields_json


def validate_cocycle(data: CocycleData) -> CocycleReport:
    """Check normalization and the cocycle identity; also report whether
    the stronger condition alpha[x*y][y] = -alpha[x][y] holds throughout."""
    q, a, al = data.base, data.group_order, data.alpha
    n = q.order
    violation = None
    for x in range(n):
        if al[x][x] % a != 0:
            violation = {"kind": "normalization", "x": x}
            break
    if violation is None:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    lhs = (al[x][y] + al[q.table[x][y]][z]) % a
                    rhs = (al[x][z] + al[q.table[x][z]][q.table[y][z]]) % a
                    if lhs != rhs:
                        violation = {"kind": "cocycle", "x": x, "y": y, "z": z}
                        break
                if violation:
                    break
            if violation:
                break
    inv_violation = None
    for x in range(n):
        for y in range(n):
            if (al[q.table[x][y]][y] + al[x][y]) % a != 0:
                inv_violation = {"x": x, "y": y}
                break
        if inv_violation:
            break
    return CocycleReport(violation is None, violation, inv_violation is None, inv_violation)


def cocycle_extension(data: CocycleData) -> FiniteQuandle:
    """Extension with pairs (x, s) indexed x-major: index = x * a + s."""
    report = validate_cocycle(data)
    if not report.valid:
        raise InvalidParamsError(f"not a cocycle: {report.violation}")
    q, a, al = data.base, data.group_order, data.alpha
    n = q.order
    table = [[0] * (n * a) for _ in range(n * a)]
    for x in range(n):
        for s in range(a):
            for y in range(n):
                for t in range(a):
                    table[x * a + s][y * a + t] = q.table[x][y] * a + (s + al[x][y]) % a
    labels = None
    if q.labels:
        labels = [f"({lx},{s})" for lx in q.labels for s in range(a)]
    return FiniteQuandle(table, labels=labels, name=f"extension({q.name or n},{a})")


def make(kind: str, *args) -> FiniteQuandle:
    """Dispatch constructor used by the CLI; kinds are named by behavior."""
    builders = {
        "trivial": trivial_quandle,
        "dihedral": dihedral_quandle,
        "core": core_quandle,
        "conj": conj_quandle,
        "product": product_quandle,
        "union": lambda *qs: union_quandle(qs),
        "twisted-union": twisted_union_quandle,
        "cocycle": cocycle_extension,
    }
    if kind not in builders:
        raise InvalidParamsError(f"unknown construction '{kind}'")
    return builders[kind](*args)


# ---------------------------------------------------------------------------
# permutation helpers


def perm_cycles(perm) -> list[tuple[int, ...]]:
    """The cycles of a permutation of range(n), each listed from its least
    point, ordered by least point."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        cycles.append(tuple(cycle))
    return cycles


def perm_order(perm) -> int:
    return math.lcm(*map(len, perm_cycles(perm)))


def perm_inverse(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def orbits(points, gens, n: int, act=operator.getitem) -> list[list[tuple]]:
    """The orbits of the group that gens generate on points, in the order
    of each orbit's first point.

    gens are permutations of range(n) and act(g, point) is the image of a
    point under g.  Each orbit is a list of (point, g), g a product of
    gens that carries the orbit's first point to point; the first points
    share one identity tuple.  The group is finite, so the closure under
    the gens alone is the whole orbit.  An image need not be one of
    points: it joins the orbit it is reached from.
    """
    identity = tuple(range(n))
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit = [(start, identity)]
        for point, g in orbit:
            for h in gens:
                image = act(h, point)
                if image not in seen:
                    seen.add(image)
                    orbit.append((image, tuple(map(h.__getitem__, g))))
        out.append(orbit)
    return out


# ---------------------------------------------------------------------------
# properties


class QuandleProperties(Frozen):
    __slots__ = ("connected", "latin", "medial", "faithful", "involutory", "finite_type_orders")

    def __init__(self, connected: bool, latin: bool, medial: bool, faithful: bool,
                 involutory: bool, finite_type_orders: tuple[int, ...]):
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "latin", latin)
        object.__setattr__(self, "medial", medial)
        object.__setattr__(self, "faithful", faithful)
        object.__setattr__(self, "involutory", involutory)
        object.__setattr__(self, "finite_type_orders", finite_type_orders)

    to_json = fields_json


def inner_orbits(q: FiniteQuandle) -> list[tuple[int, ...]]:
    """Orbits of Inn(q), the group generated by the right multiplications,
    sorted by least element, each orbit as a sorted tuple."""
    return [tuple(sorted(x for x, _ in orbit))
            for orbit in orbits(range(q.order), inner_generators(q), q.order)]


def properties(q: FiniteQuandle) -> QuandleProperties:
    n = q.order
    t = q.table
    medial = True
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    if t[t[x][y]][t[z][w]] != t[t[x][z]][t[y][w]]:
                        medial = False
                        break
                if not medial:
                    break
            if not medial:
                break
        if not medial:
            break
    orders = q.right_mult_orders
    return QuandleProperties(
        connected=len(inner_orbits(q)) == 1,
        latin=all(len(set(t[x])) == n for x in range(n)),
        medial=medial,
        faithful=len(set(q.right_mults)) == n,
        involutory=all(o <= 2 for o in orders),
        finite_type_orders=orders,
    )


def fixed_points(q: FiniteQuandle, x: int) -> tuple[int, ...]:
    """Elements y with y*x = y, i.e. the fixed points of S_x."""
    if not 0 <= x < q.order:
        raise InvalidParamsError(f"index {x} out of range")
    return tuple(y for y in range(q.order) if q.table[y][x] == y)


def trivial_subquandles(q: FiniteQuandle, max_size: int, cap: int = 10**6) -> list[tuple[int, ...]]:
    """All subsets of size 2..max_size on which the operation restricts to
    the trivial quandle: every pair acts trivially both ways.

    Equivalent to enumerating cliques in the graph with an edge x~y when
    x*y = x and y*x = y.  Output is every clique as a sorted tuple, in
    lexicographic order.  More than cap cliques raise BudgetExceededError
    before any is listed: the cliques are counted first, up to cap + 1.
    """
    n = q.order
    if max_size < 2:
        return []
    adj = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if q.table[x][y] == x and q.table[y][x] == y:
                adj[x].add(y)
                adj[y].add(x)
    if _count_cliques(adj, max_size, cap, 0, list(range(n))) > cap:
        raise BudgetExceededError(f"more than {cap}", cap, what="trivial subquandles",
                                  work="listing")
    return list(_cliques(adj, max_size, (), list(range(n))))


def _count_cliques(adj, max_size: int, cap: int, size: int, candidates: list[int]) -> int:
    """Cliques of 2..max_size points that extend a clique of `size` points
    by some of `candidates`, each adjacent to all of it; the count stops
    once it passes cap.  Candidates adjacent to one another (a trivial
    block) extend it by every subset, counted in closed form."""
    top = min(max_size - size, len(candidates))
    if all(v in adj[u] for u, v in itertools.combinations(candidates, 2)):
        return sum(math.comb(len(candidates), j) for j in range(max(1, 2 - size), top + 1))
    total = 0
    for i, v in enumerate(candidates):
        total += size >= 1
        if top > 1:
            rest = [u for u in candidates[i + 1:] if u in adj[v]]
            total += _count_cliques(adj, max_size, cap - total, size + 1, rest)
        if total > cap:
            break
    return total


def _cliques(adj, max_size: int, clique: tuple[int, ...], candidates):
    """The cliques _count_cliques counts, as sorted tuples in lexicographic order."""
    for i, v in enumerate(candidates):
        new = clique + (v,)
        if len(new) >= 2:
            yield new
        if len(new) < max_size:
            yield from _cliques(adj, max_size, new, [u for u in candidates[i + 1:] if u in adj[v]])


# ---------------------------------------------------------------------------
# congruences

Partition = tuple[tuple[int, ...], ...]


def principal_congruence(q: MagmaTable, a: int, b: int) -> Partition:
    """The finest congruence of q's table that identifies a and b.

    Union-find closure: each merge of x and y queues x*z ~ y*z and
    z*x ~ z*y for every z, which makes the relation compatible with the
    operation on both sides without using any quandle axiom.  Blocks are
    sorted and listed by least element.
    """
    table = q.table
    parent = list(range(q.order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        for z in range(q.order):
            pending.append((table[x][z], table[y][z]))
            pending.append((table[z][x], table[z][y]))
    blocks: dict[int, list[int]] = {}
    for x in range(q.order):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(block) for block in blocks.values())


def inner_generators(q: MagmaTable) -> tuple[tuple[int, ...], ...]:
    """Generators of Inn(q), the right multiplications of a quandle, each an
    automorphism by right distributivity; none for a magma table, whose
    translations need not be automorphisms."""
    return tuple(dict.fromkeys(q.right_mults)) if q.is_quandle else ()


def congruences(q: MagmaTable) -> list[Partition]:
    """The distinct principal congruences of q, sorted.

    An automorphism g maps the congruence generated by {a, b} to the one
    generated by {g(a), g(b)}.  A right multiplication S_z of a quandle is
    an automorphism that also maps each block of a congruence into a
    block (x ~ y gives x*z ~ y*z), so it fixes every congruence: all the
    pairs of one orbit under inner_generators(q) generate the same one.
    The unordered pairs are walked in those orbits (orbits), one closure
    per orbit.  A magma table has no generators: every pair is its own
    orbit.
    """
    def act(g, pair):
        a, b = g[pair[0]], g[pair[1]]
        return (a, b) if a < b else (b, a)

    pairs = itertools.combinations(range(q.order), 2)
    return sorted({principal_congruence(q, *orbit[0][0])
                   for orbit in orbits(pairs, inner_generators(q), q.order, act)})


def quotient_table(q: MagmaTable, partition: Partition) -> Table:
    """The operation q induces on the blocks of a congruence, by block index."""
    block_of = {x: i for i, block in enumerate(partition) for x in block}
    quotient = tuple(
        tuple(block_of[q.table[f[0]][g[0]]] for g in partition) for f in partition
    )
    for x in range(q.order):
        for y in range(q.order):
            if block_of[q.table[x][y]] != quotient[block_of[x]][block_of[y]]:
                raise InternalCheckError(
                    f"partition is not a congruence at ({x}, {y})", pair=[x, y]
                )
    return quotient


# ---------------------------------------------------------------------------
# homomorphisms and coverings


class QuandleHom:
    """A map of quandles given by the image of every domain index."""

    def __init__(self, domain: FiniteQuandle, codomain: FiniteQuandle, images):
        if not isinstance(images, (list, tuple)):
            raise InvalidParamsError("images must be a list of integers")
        images = tuple(doc_int(v, "an image") for v in images)
        if len(images) != domain.order:
            raise InvalidParamsError("images length differs from domain order")
        if any(not 0 <= v < codomain.order for v in images):
            raise InvalidParamsError("image index out of range")
        for i in range(domain.order):
            for j in range(domain.order):
                if images[domain.table[i][j]] != codomain.table[images[i]][images[j]]:
                    raise InvalidParamsError(
                        f"not a homomorphism: images[{i}*{j}] != images[{i}]*images[{j}]"
                    )
        self.domain = domain
        self.codomain = codomain
        self.images = images

    def __eq__(self, other):
        return (
            isinstance(other, QuandleHom)
            and self.images == other.images
            and self.domain == other.domain
            and self.codomain == other.codomain
        )

    def __hash__(self):
        return hash(self.images)

    def to_json(self) -> dict:
        return {"images": list(self.images)}


class Covering(Frozen):
    """A surjective hom whose fibers act identically on the domain.

    Not slotted: `orbit_plans` is cached in the instance's __dict__."""

    def __init__(self, hom: QuandleHom, fibers: dict, nontrivial: bool):
        object.__setattr__(self, "hom", hom)
        # codomain index -> sorted tuple of domain indices
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "nontrivial", nontrivial)

    def _args(self) -> tuple:
        return self.hom, self.fibers, self.nontrivial

    def fiber(self, y: int) -> tuple[int, ...]:
        if y not in self.fibers:
            raise InvalidParamsError(f"no fiber over {y}")
        return self.fibers[y]

    @cached_property
    def orbit_plans(self) -> tuple[tuple[tuple[tuple[int, ...], int, int, int], ...], ...]:
        """Per base point x0, one entry per cycle of sigma = S_x0 outside
        x0's fiber: (cycle, n_sigma // its length, fiber class,
        representative).

        sigma induces S_{images[x0]} on the codomain, since the hom sends
        t*x0 to images[t]*images[x0]; it fixes images[x0], so a cycle lies
        inside x0's fiber or outside it.  A cycle's fiber class is the
        least point of the induced cycle through its image, and its
        representative the least point of the cycle over that class."""
        domain, codomain, images = self.hom.domain, self.hom.codomain, self.hom.images
        plans = []
        for x0, cycles in enumerate(domain.right_mult_cycles):
            n_sigma = domain.right_mult_orders[x0]
            fiber_class = {z: cycle[0] for cycle in codomain.right_mult_cycles[images[x0]]
                           for z in cycle}
            plan = []
            for cycle in (c for c in cycles if images[c[0]] != images[x0]):
                y_star = fiber_class[images[cycle[0]]]
                rep = min(t for t in cycle if images[t] == y_star)
                plan.append((cycle, n_sigma // len(cycle), y_star, rep))
            plans.append(tuple(plan))
        return tuple(plans)

    def to_json(self) -> dict:
        return {
            "images": list(self.hom.images),
            "fibers": {str(y): list(f) for y, f in sorted(self.fibers.items())},
            "nontrivial": self.nontrivial,
        }


def check_covering(hom: QuandleHom) -> Covering:
    """Promote a hom to a covering, or raise.

    Needs surjectivity and that any two points with the same image have
    the same right multiplication.  `nontrivial` records whether some
    whole connected component of the codomain has all fibers of size >= 2.
    """
    x_q, y_q = hom.domain, hom.codomain
    fibers: dict[int, list[int]] = {y: [] for y in range(y_q.order)}
    for i, y in enumerate(hom.images):
        fibers[y].append(i)
    missing = [y for y, f in fibers.items() if not f]
    if missing:
        raise NotSurjectiveError(f"no preimage for codomain index {missing[0]}")
    for y, fiber in fibers.items():
        first = fiber[0]
        for other in fiber[1:]:
            if x_q.right_mults[first] != x_q.right_mults[other]:
                raise CoveringConditionError(first, other)
    # fibers are trivial subquandles: if R_a = R_b then a*b = R_b(a) = R_a(a) = a*a = a
    nontrivial = any(
        all(len(fibers[y]) >= 2 for y in component) for component in inner_orbits(y_q)
    )
    return Covering(hom, {y: tuple(f) for y, f in fibers.items()}, nontrivial)


def find_coverings(x_q: FiniteQuandle, y_q: FiniteQuandle, budget: int = 10**7) -> list[Covering]:
    """Backtracking search for every covering from x_q onto y_q.

    Partial assignments are pruned on the hom law as soon as all three
    indices of a constraint are assigned, and on the covering condition
    as soon as two assigned points share an image.  Results are sorted
    by image tuple.  Raises SearchBudgetExceeded past `budget` nodes.
    """
    n = x_q.order
    # constraints (i, j) checkable once positions i, j, x_q.table[i][j] are all assigned
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            by_last[max(i, j, x_q.table[i][j])].append((i, j))
    images = [-1] * n
    found: list[Covering] = []
    nodes = 0

    def assign(k: int):
        nonlocal nodes
        if k == n:
            if len(set(images)) == y_q.order:
                found.append(check_covering(QuandleHom(x_q, y_q, images)))
            return
        for v in range(y_q.order):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceededError(budget)
            images[k] = v
            ok = True
            for j in range(k):
                if images[j] == v and x_q.right_mults[j] != x_q.right_mults[k]:
                    ok = False
                    break
            if ok:
                for (i, j) in by_last[k]:
                    if images[x_q.table[i][j]] != y_q.table[images[i]][images[j]]:
                        ok = False
                        break
            if ok:
                assign(k + 1)
        images[k] = -1

    assign(0)
    found.sort(key=lambda c: c.hom.images)
    return found
