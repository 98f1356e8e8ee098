"""Batched evaluation of idempotency over a coefficient grid.

A sweep is constrained by fiber sums: a partition of some of the keys
into blocks, each with a target for the sum of its coefficients.  The
last key of each block is determined by its target; every other key is
a free digit.  Indices run lexicographically over the free digits in
ascending key order (the lowest key most significant), so the index
space has base^(n - blocks) points.  The augmentation stratum s is the
one-block partition ((all keys, s),); the whole space is no blocks, ().
Chunks are contiguous index ranges, so multi-worker runs partition the
space deterministically and merge by construction.

There are two evaluators behind one entry point, `evaluate_chunk`,
with the same contract: the same hits in the same index order, and the
same count of tested candidates.  The caller picks one per plan and
carries its name in the task, so every chunk passes through
`evaluate_chunk` whichever runs:

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
- "numpy" evaluates batches of BATCH indices as arrays.  It costs a
  fraction of a microsecond per index, but importing numpy takes about
  0.1 s.  Indices and digits are always int64 (callers refuse spaces of
  2^63 or more); a magnitude guard then picks the coefficient dtype:
  int64 when no square entry can overflow it, numpy object arrays of
  Python ints otherwise, so large moduli and boxes run the same code
  path in exact arithmetic.

The caller's rule (`idempotents.NUMPY_MIN_INDICES`) takes numpy once it
is imported, or once plain Python would have evaluated more indices in
this process than the import costs.  The driver re-verifies every hit
with exact arbitrary-precision arithmetic.

Both square a candidate one key at a time: the coefficient of e_k in
u^2 is the sum of c_i c_j over the pairs with i*j = k, and only the
candidates whose coefficient matches c_k go on to the next key.  Nearly
every candidate fails on the first key, so it costs about n products
instead of n^2; the Python evaluator pays those n products once per run
of the innermost digit instead.  The numpy evaluator holds a batch
coefficient-major, one row per basis key.

`table_product` multiplies whole stacks of coefficient vectors under
e_x e_y = e_{x*y}; the batched checks on idempotent sets use it.

numpy is imported inside the functions, so commands that never search,
and searches that stay in plain Python, do not pay for importing it.
"""

from __future__ import annotations

from math import isqrt

BATCH = 1 << 15
INDEX_LIMIT = 2**63  # indices are int64


def space_size(order: int, mode: str, param: int, blocks: int) -> int:
    """Indices of a sweep whose keys carry `blocks` fiber-sum constraints."""
    base = param if mode == "zp" else 2 * param + 1
    return base ** (order - blocks)


def _int64_safe(order: int, param: int) -> bool:
    """True when no sum of order^2 coefficient products can overflow int64."""
    return order * order * param * param < 2**62


def table_product(u, v, table):
    """Products of coefficient vectors under e_x e_y = e_{x*y}.

    u and v are arrays of shape (..., n) that broadcast against each
    other; table is the n x n operation table.  The result has the
    broadcast shape and the common dtype of u and v: int64 arithmetic
    wraps, so callers pick object dtype when a guard says it must.
    """
    import numpy as np

    tbl = np.asarray(table, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v))
    for i in range(tbl.shape[0]):
        ci = u[..., i]
        row = tbl[i]
        for j in range(tbl.shape[0]):
            out[..., row[j]] += ci * v[..., j]
    return out


def _pairs(table, n: int) -> list[list[tuple[int, int]]]:
    """The pairs (i, j) with i*j = k, for each key k: n of them in a
    quandle, anywhere from 0 to n^2 in a magma table."""
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            pairs[k].append((i, j))
    return pairs


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
    base = param if zp else 2 * param + 1
    low = 0 if zp else -param
    high = low + base - 1
    determined = {keys[-1] for keys, _ in fibers}
    digits = [k for k in range(n) if k not in determined]
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
    import numpy as np

    dtype = np.int64 if _int64_safe(n, param) else object
    pairs = _pairs(table, n)
    base = param if mode == "zp" else 2 * param + 1
    offset = param if mode == "zbox" else 0
    determined = {keys[-1] for keys, _ in fibers}
    digits = [k for k in range(n) if k not in determined]
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
            full[key] = (idx // w) % base - offset
        full = full.astype(dtype, copy=False)
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
            coeff = np.zeros(full.shape[1], dtype=dtype)
            for i, j in key_pairs:
                coeff += full[i] * full[j]
            if mode == "zp":
                coeff %= param
            full = full.compress(coeff == full[k], axis=1)
        for vec in full.T:
            hits.append(tuple(int(v) for v in vec))
        idx0 += m
    return hits, tested
