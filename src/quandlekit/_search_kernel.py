"""Both enumerators: the batched sweep of a coefficient grid, and the support walk.

A sweep is constrained by fiber sums: a partition of some of the keys
into blocks, each with a target for the sum of its coefficients.  The
last key of each block is determined by its target; every other key is
a free digit.  Indices run lexicographically over the free digits in
ascending key order (the lowest key most significant), so the index
space has base^(n - blocks) points.  The augmentation stratum s is the
one-block partition ((all keys, s),); the whole space is no blocks, ().
Chunks are contiguous index ranges, so multi-worker runs partition the
space deterministically and merge by construction.

`run` takes a whole plan, one fiber tuple per sweep, and owns how it
runs: it splits each sweep into chunks, one per worker, and runs them in
process or, from POOL_MIN_SPACE indices on, on a pool of as many workers
as the job count and the CPUs allow.  There are two evaluators behind
one entry point, `evaluate_chunk`, with the same contract: the same hits
in the same index order, and the same count of tested candidates.  `run`
picks one per plan and carries its name in the task, so every chunk
passes through `evaluate_chunk` whichever runs:

- "python" runs in plain Python ints and solves the first equation,
  that of key 0, instead of testing it index by index.  With every other
  free digit fixed, the innermost digit x and the determined key of its
  block are the only coefficients that move, so the coefficient of e_0
  in u^2 - u is a quadratic in x.  Over Z the box clips x to one
  interval and the roots are exact (`math.isqrt`); mod p the roots of
  each quadratic are found once and remembered.  Only the roots go on to
  the support cap and the other keys.  On a 2-core host it cost 0.8-1.2
  us per index on direct sweeps of R_7 to R_13, and 0.7-2.7 us on the
  r10 sweeps through R_5 (the most mod 3, where about a third of the
  indices solve key 0 and go on); it costs nothing to start.
- "numpy" evaluates batches of BATCH indices as int64 arrays, and
  refuses a plan that `_int64_safe` does not pass.  It costs a fraction
  of a microsecond per index, but importing numpy takes about 0.1 s.

The rule (NUMPY_MIN_INDICES) takes numpy once it is imported, or once
plain Python would have evaluated more indices in this process than the
import costs; a plan past int64 (a huge modulus or box) always runs in
plain Python.  Callers refuse index spaces of 2^63 or more.  The driver
re-verifies every hit with exact arithmetic.

Both square a candidate one key at a time: the coefficient of e_k in
u^2 is the sum of c_i c_j over the pairs with i*j = k, and only the
candidates whose coefficient matches c_k go on to the next key.  Nearly
every candidate fails on the first key, so it costs about n products
instead of n^2; the Python evaluator pays those n products once per run
of the innermost digit instead.  The numpy evaluator holds a batch
coefficient-major, one row per basis key.

numpy serves this evaluator only.  It is imported inside
`_evaluate_numpy`, and by `run` before it forks pool workers, so
commands that never search, and searches that stay in plain Python, do
not pay for importing it.
"""

from __future__ import annotations

import itertools
import os
import sys
from math import isqrt

from .core import orbits
from .errors import InternalCheckError

BATCH = 1 << 15
INDEX_LIMIT = 2**63  # indices are int64

# A process evaluates at most this many kernel indices in plain Python,
# all plans together; a plan that would take it past them, and every plan
# once numpy is imported, runs the numpy evaluator.  This is the
# ski-rental rule (Karlin, Manasse, Rudolph and Sleator, "Competitive
# snoopy caching", 1988): pay per index until the total would cover the
# one-off import, the import cost divided by the saving per index.  On a
# 2-core host, importing numpy took 78-124 ms.  On direct sweeps of R_7 to
# R_13 (32,768-index chunks) plain Python took 0.8-1.2 us per index and
# numpy 0.1-0.4 us, a saving of 0.6-0.9 us, so the two break even between
# 0.9 and 2.1 * 10^5 indices.  It stays below POOL_MIN_SPACE, so a pool
# always runs numpy.
NUMPY_MIN_INDICES = 1 << 17
_python_indices = 0  # per process, like the import it stands in for

# Fewer indices than this, all sweeps of a plan together, run serially
# whatever the job count: below it starting a process pool costs more than
# the second worker saves (break-even measured on a 2-core host).
POOL_MIN_SPACE = 1 << 21


def space_size(order: int, mode: str, param: int, blocks: int) -> int:
    """Indices of a sweep whose keys carry `blocks` fiber-sum constraints."""
    base = param if mode == "zp" else 2 * param + 1
    return base ** (order - blocks)


def _int64_safe(order: int, param: int) -> bool:
    """True when no sum of order^2 coefficient products can overflow int64."""
    return order * order * param * param < 2**62


def _layout(n: int, mode: str, param: int, fibers) -> tuple[int, int, list[int]]:
    """A sweep's digits: the base, the lowest coefficient, and the free
    keys (those no block determines) in ascending order."""
    base = param if mode == "zp" else 2 * param + 1
    low = 0 if mode == "zp" else -param
    determined = {keys[-1] for keys, _ in fibers}
    return base, low, [k for k in range(n) if k not in determined]


def _pairs(table, n: int) -> list[list[tuple[int, int]]]:
    """The pairs (i, j) with i*j = k, for each key k: n of them in a
    quandle, anywhere from 0 to n^2 in a magma table."""
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            pairs[k].append((i, j))
    return pairs


def _chunk_ranges(space: int, pieces: int) -> list[tuple[int, int]]:
    pieces = max(1, min(pieces, space))
    step = (space + pieces - 1) // pieces
    return [(s, min(space, s + step)) for s in range(0, space, step)]


def run(table, mode: str, param: int, max_support: int, sweeps, jobs: int):
    """The hits of one plan on table, sweeps a list of fiber tuples: one
    (sweep index, hits) per chunk, in plan and index order.  The plan runs
    with min(jobs, CPUs) workers from POOL_MIN_SPACE indices on, else one,
    each sweep split into a chunk per worker, all by the evaluator the rule
    at NUMPY_MIN_INDICES picks: with one worker lazily, so an abandoned
    search runs no further chunk, else on a pool."""
    global _python_indices
    n = len(table)
    spaces = [space_size(n, mode, param, len(fibers)) for fibers in sweeps]
    indices = sum(spaces)
    # a pool forks all its workers at once, so never more than the CPUs
    workers = min(jobs, os.cpu_count() or 1) if indices >= POOL_MIN_SPACE else 1
    use_numpy = _int64_safe(n, param) and (
        "numpy" in sys.modules or _python_indices + indices > NUMPY_MIN_INDICES)
    if not use_numpy:
        _python_indices += indices
    evaluator = "numpy" if use_numpy else "python"
    chunks = [(i, (table, n, mode, param, fibers, a, b, max_support, evaluator))
              for i, (fibers, space) in enumerate(zip(sweeps, spaces))
              for a, b in _chunk_ranges(space, workers)]
    if workers <= 1 or len(chunks) <= 1:
        return ((i, evaluate_chunk(task)[0]) for i, task in chunks)
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit numpy instead of each importing it again
    import numpy  # noqa: F401

    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(evaluate_chunk, [task for _, task in chunks]))
    return [(i, hits) for (i, _), (hits, _) in zip(chunks, done)]


def evaluate_chunk(args) -> tuple[list[tuple[int, ...]], int]:
    """Evaluate candidate indices [start, stop); return (hits, tested).

    args = (table, n, mode, param, fibers, start, stop, max_support,
    evaluator) with mode "zp" (coefficients 0..p-1 mod p) or "zbox"
    (coefficients -B..B over the integers), fibers a tuple of (keys,
    target) pairs: the coefficients on keys sum to target (mod p in
    "zp"), and evaluator "python" or "numpy".  tested counts the
    candidates whose determined coefficients fall in the box.
    """
    evaluate = _evaluate_numpy if args[8] == "numpy" else _evaluate_python
    return evaluate(*args[:8])


def _integer_roots(a: int, b: int, e: int, lo: int, hi: int):
    """The integers x in [lo, hi] with a x^2 + b x + e = 0, ascending."""
    if a:
        disc = b * b - 4 * a * e
        if disc < 0:
            return ()
        s = isqrt(disc)
        if s * s != disc:
            return ()
        roots = sorted({r // (2 * a) for r in (-b - s, -b + s) if r % (2 * a) == 0})
    elif b:
        roots = [-e // b] if e % b == 0 else []
    else:
        return range(lo, hi + 1) if e == 0 else ()
    return [r for r in roots if lo <= r <= hi]


def _modular_roots(a: int, b: int, e: int, p: int, lo: int, hi: int, memo: dict):
    """The x in [lo, hi] with a x^2 + b x + e = 0 mod p, ascending.  The
    roots over the whole of 0..p-1 are kept in memo, by b and e mod p."""
    if hi - lo + 1 < p:
        return [r for r in range(lo, hi + 1) if (a * r * r + b * r + e) % p == 0]
    b %= p
    e %= p
    roots = memo.get((b, e))
    if roots is None:
        roots = memo[b, e] = [r for r in range(p) if (a * r * r + b * r + e) % p == 0]
    return roots


def _evaluate_python(table, n, mode, param, fibers, start, stop, max_support):
    pairs = _pairs(table, n)
    zp = mode == "zp"
    base, low, digits = _layout(n, mode, param, fibers)
    high = low + base - 1
    # x, the innermost digit, and the determined key d of its block (if
    # any) are the only coefficients that move between consecutive
    # indices of one outer state: c_x = x and c_d = K - x.  Write
    # c_k = u_k + v_k x, with u the coefficients at x = 0, v_x = 1,
    # v_d = -1 and v_k = 0 elsewhere.  Then the first equation
    #   E_0(x) = sum_{i*j=0} c_i c_j - c_0 = a x^2 + b x + e
    # has a = sum v_i v_j, b = sum_k w_k u_k - v_0 with w_k the sum of v
    # over the partners of k in key 0's pairs, and e = E_0 at u.
    x = digits[-1] if digits else None
    width = base if digits else 1
    d = xkeys = xtarget = None
    blocks = []
    for keys, target in fibers:
        if x in keys:
            d, xkeys, xtarget = keys[-1], [k for k in keys[:-1] if k != x], target
        else:
            blocks.append((keys[:-1], keys[-1], target))
    v = [0] * n
    if x is not None:
        v[x] = 1
    if d is not None:
        v[d] = -1
    a = 0
    w = [0] * n
    for i, j in pairs[0]:
        a += v[i] * v[j]
        w[i] += v[j]
        w[j] += v[i]
    weights = [(k, wk) for k, wk in enumerate(w) if wk]
    pairs0, v0 = pairs[0], v[0]
    rest = list(enumerate(pairs))[1:]
    # the outer coefficients of index `start`; the lowest key is the most
    # significant digit, so the odometer below turns the highest key first
    outer = digits[:-1]
    coeffs = [0] * n
    q, first = divmod(start, width)
    for key in reversed(outer):
        q, r = divmod(q, base)
        coeffs[key] = low + r
    odometer = outer[::-1]
    memo: dict = {}
    hits: list[tuple[int, ...]] = []
    tested = 0
    left = stop - start
    while left > 0:
        # this outer state's slice of the chunk: x in [lo, hi]
        lo = low + first
        hi = lo + min(width - first, left) - 1
        left -= hi - lo + 1
        first = 0
        in_box = True
        for keys, last, target in blocks:
            c = target
            for k in keys:
                c -= coeffs[k]
            if zp:
                c %= param
            elif not -param <= c <= param:
                in_box = False
                break
            coeffs[last] = c
        if in_box and d is not None:
            K = xtarget
            for k in xkeys:
                K -= coeffs[k]
            coeffs[d] = K
            if not zp:
                # the box clips c_d = K - x as well as x
                lo = max(lo, K - param)
                hi = min(hi, K + param)
        if in_box and lo <= hi:
            tested += hi - lo + 1
            if x is not None:
                coeffs[x] = 0
            b = -v0
            for k, wk in weights:
                b += wk * coeffs[k]
            e = -coeffs[0]
            for i, j in pairs0:
                e += coeffs[i] * coeffs[j]
            if zp:
                roots = _modular_roots(a, b, e, param, lo, hi, memo)
            else:
                roots = _integer_roots(a, b, e, lo, hi)
            for r in roots:
                if x is not None:
                    coeffs[x] = r
                if d is not None:
                    coeffs[d] = (K - r) % param if zp else K - r
                if not 1 <= n - coeffs.count(0) <= max_support:
                    continue
                # square key by key, stopping at the first coefficient that differs
                for k, key_pairs in rest:
                    s = 0
                    for i, j in key_pairs:
                        s += coeffs[i] * coeffs[j]
                    if zp:
                        s %= param
                    if s != coeffs[k]:
                        break
                else:
                    hits.append(tuple(coeffs))
        for key in odometer:
            if coeffs[key] < high:
                coeffs[key] += 1
                break
            coeffs[key] = low
    return hits, tested


def _evaluate_numpy(table, n, mode, param, fibers, start, stop, max_support):
    if not _int64_safe(n, param):
        raise InternalCheckError(f"int64 evaluator given an unsafe plan: order {n}, {mode} {param}")
    import numpy as np

    pairs = _pairs(table, n)
    base, low, digits = _layout(n, mode, param, fibers)
    weights = [base**k for k in range(len(digits) - 1, -1, -1)]
    hits: list[tuple[int, ...]] = []
    tested = 0
    idx0 = start
    while idx0 < stop:
        m = min(BATCH, stop - idx0)
        idx = np.arange(idx0, idx0 + m, dtype=np.int64)
        # coefficient-major: row k holds coefficient k of every candidate
        full = np.empty((n, m), dtype=np.int64)
        for key, w in zip(digits, weights):
            full[key] = (idx // w) % base + low
        in_box = np.ones(m, dtype=bool)
        for keys, target in fibers:
            last = target - full[list(keys[:-1])].sum(axis=0)
            if mode == "zp":
                last %= param
            else:
                in_box &= np.abs(last) <= param
            full[keys[-1]] = last
        if not in_box.all():
            full = full.compress(in_box, axis=1)
        tested += int(full.shape[1])
        support = np.count_nonzero(full, axis=0)
        full = full.compress((support >= 1) & (support <= max_support), axis=1)
        # square key by key, keeping only the candidates that still match
        for k, key_pairs in enumerate(pairs):
            if not full.shape[1]:
                break
            coeff = np.zeros(full.shape[1], dtype=np.int64)
            for i, j in key_pairs:
                coeff += full[i] * full[j]
            if mode == "zp":
                coeff %= param
            full = full.compress(coeff == full[k], axis=1)
        for vec in full.T:
            hits.append(tuple(int(v) for v in vec))
        idx0 += m
    return hits, tested


def _support_tuples(n: int, bound: int, max_support: int, limit: int | None = None) -> int:
    """(support, coefficient tuple) pairs with at most max_support of n
    keys and nonzero entries in [-bound, bound]: sum of C(n, k) (2 bound)^k.

    Term by term, C(n, k) (2 bound)^k = C(n, k - 1) (2 bound)^(k - 1) *
    (n - k + 1) 2 bound / k exactly, so no binomial is computed afresh.
    With a limit the sum stops once it passes it, and is then only a
    lower bound."""
    total, term = 0, 1
    for k in range(1, min(max_support, n) + 1):
        term = term * (n - k + 1) * 2 * bound // k
        total += term
        if limit is not None and total > limit:
            break
    return total


def _product_table(keys, op) -> list[list[int]]:
    """op on keys as the walk's product table: op(a, b) is computed once
    per pair of keys and interned as an int, keys get 0..n-1 in order and
    products outside keys get fresh ids from n on.  Keys must be
    distinct."""
    keys = list(keys)
    ids = {key: i for i, key in enumerate(keys)}
    return [[ids.setdefault(op(a, b), len(ids)) for b in keys] for a in keys]


def _support_search(table, bound: int, max_support: int,
                    gens=()) -> list[tuple[tuple[int, int], ...]]:
    """Every integer idempotent supported on at most max_support keys.

    It serves core_three_support_check, fq_idempotent_search and the
    support-capped table searches over Z (_walks_supports).  table is a
    product table: its rows are the keys 0..n-1, and table[a][b] is the
    id of a*b, a key or an id from n on for a product outside the keys.
    A quandle's or magma's own table is one, and _product_table makes
    one from any operation.  Walks each support S (combinations of keys
    in order) and each tuple of nonzero coefficients in [-bound, bound]
    on S.

    A support is ruled out without evaluating any tuple on it when some id
    outside S is reached by exactly one ordered pair (a, b) of S, a == b
    included (the non-cancellation step of the free-quandle argument):
    u^2 then carries c_a * c_b at that id and u carries 0.  That product
    is nonzero only because Z is an integral domain and the coefficients
    are nonzero; over a composite Z/m (2 * 3 = 0 mod 6) the rule is
    unsound, so this search runs over Z only.  On the other supports a
    tuple whose coefficient sum is not 0 or 1 is skipped (an integer
    idempotent's augmentation squares to itself) and the rest are squared.

    gens are permutations of the keys, each an automorphism of the table
    (the right multiplications of a quandle, by right distributivity);
    the table must then keep the keys closed.  Extended linearly,
    an automorphism g maps an idempotent on S to one on g(S), with the
    same size and coefficients, so the idempotents of the window are
    closed under the group G the gens generate.  The orbits (core.orbits)
    are taken in the order of their least points.  If O is the first
    orbit a support S meets, some g in G maps a point of S in O to the
    least point x of O, and g(S) meets the same orbits as S.  So only the
    supports whose least point is the least point of its orbit, with no
    point of an earlier orbit, are walked: x is pushed first and larger
    keys of later orbits are grown after it.  The orbit gives each of its
    points y one element t_y of G with t_y(x) = y.  The walked idempotents
    on supports least at x are closed under the stabilizer of x (h(S) is
    again least at x and meets the same orbits), and every g in G is t_y h
    with y = g(x) and h fixing x.  So the closure under G is the images
    t_y(u), one per point of the orbit, not a search over every
    generator.  With no gens every point is its own orbit, and the walk
    is the plain one.

    Supports grow one key at a time, depth first, and nothing is carried
    from one support to the next.  Each visited support S groups its
    ordered pairs (a, b), a == b included, by the id of their product,
    once.  That grouping is S's own system of idempotency equations, and
    it feeds both the rule (an id outside S with a single pair) and the
    square.  A support of max_support - 1 keys with such an id t is
    extended only by keys that cover t: t itself, or x with (x, s),
    (s, x) or (x, x) reaching t.  Any other x leaves t reached once,
    outside the support.  A square is checked target by target, the ids
    outside S (sum 0) first, and stops at the first that fails.  Many
    supports share one system up to the names of their keys (a support
    and its translates in a core quandle, say): the tuples that solve a
    system are found once per call, keyed by its checks, each target's
    position in S (or |S| for an id outside S) with its pairs of positions,
    and reused for every support with the same checks.

    Returns the idempotents as sorted (key index, coefficient) tuples in
    the order the naive loop finds them: by support size, then support,
    then tuple.  Callers build the ring elements and declare the window's
    count, _support_tuples: every (support, coefficient tuple) pair, the
    tuples ruled out, not walked or skipped by the sum filter included.
    """
    n = len(table)
    size = max([n - 1, *map(max, table)]) + 1  # keys and the ids outside them
    if gens and size > n:
        raise InternalCheckError("a product leaves the keys that automorphisms permute")
    covers = _pairs(table, size)  # the pairs reaching each id
    width = [len(pairs) for pairs in covers]
    top = min(max_support, n)
    nonzero = [c for c in range(-bound, bound + 1) if c != 0]
    tuples = [[c for c in itertools.product(nonzero, repeat=k) if sum(c) in (0, 1)]
              for k in range(top + 1)]
    found: set[tuple[tuple[int, int], ...]] = set()  # sorted (index, coefficient) pairs
    walked = [False] * n  # points of the orbits whose supports are done
    support: list[int] = []
    solved: dict[tuple, list[tuple[int, ...]]] = {}  # checks -> the tuples solving them

    def evaluate(groups):
        k = len(support)
        # outside targets first; their sums must be 0, the entry at position k
        checks = tuple([(k, tuple(pairs)) for t, pairs in groups.items() if t not in support]
                       + [(i, tuple(groups.get(x, ()))) for i, x in enumerate(support)])
        solutions = solved.get(checks)
        if solutions is None:
            solutions = solved[checks] = []
            for coeffs in tuples[k]:
                want = coeffs + (0,)
                for target, pairs in checks:
                    total = 0
                    for i, j in pairs:
                        total += coeffs[i] * coeffs[j]
                    if total != want[target]:
                        break
                else:
                    solutions.append(coeffs)
        for coeffs in solutions:
            found.add(tuple(sorted(zip(support, coeffs))))

    def visit(x, start):
        support.append(x)
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, a in enumerate(support):
            row = table[a]
            for j, b in enumerate(support):
                groups.setdefault(row[b], []).append((i, j))
        # ids outside the support reached by exactly one ordered pair
        once = [t for t, pairs in groups.items() if len(pairs) == 1 and t not in support]
        if not once:
            evaluate(groups)
        if len(support) < top:
            if once and len(support) == top - 1:
                t = min(once, key=width.__getitem__)
                cover = {t} if t < n else set()
                for a, b in covers[t]:
                    if a == b or b in support:
                        cover.add(a)
                    elif a in support:
                        cover.add(b)
                candidates = sorted(y for y in cover if y >= start)
            else:
                candidates = range(start, n)
            for y in candidates:
                if not walked[y]:
                    visit(y, y + 1)
        support.pop()

    # per orbit, keyed by its least point x: one group element t with t(x) = y per point y
    moves: dict[int, list[tuple[int, ...]]] = {}
    for orbit in orbits(range(n), gens, n) if top > 0 else ():
        # x is the least point of its orbit: walk the supports it is least in
        x = orbit[0][0]
        visit(x, x + 1)
        for y, _ in orbit:
            walked[y] = True
        moves[x] = [t for _, t in orbit[1:]]
    # close under G; t keeps support size and coefficients
    for u in list(found):
        for t in moves[u[0][0]]:
            found.add(tuple(sorted((t[x], c) for x, c in u)))
    return sorted(found, key=lambda u: (len(u), [x for x, _ in u], [c for _, c in u]))
