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

There is one evaluator.  Indices and digits are always int64 (callers
refuse spaces of 2^63 or more); a magnitude guard then picks the
coefficient dtype: int64 when no square entry can overflow it, numpy
object arrays of Python ints otherwise, so large moduli and boxes run
the same code path in exact arithmetic.  The driver re-verifies every
hit with exact arbitrary-precision arithmetic.

A batch is held coefficient-major, one row per basis key, and squared
one key at a time: the coefficient of e_k in u^2 is the sum of c_i c_j
over the pairs with i*j = k, and only the candidates whose coefficient
matches c_k go on to the next key.  Nearly every candidate fails on the
first key, so it costs about n products instead of n^2.

`table_product` multiplies whole stacks of coefficient vectors under
e_x e_y = e_{x*y}; the batched checks on idempotent sets use it.

numpy is imported inside the functions, so commands that never search
do not pay for importing it.
"""

from __future__ import annotations

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


def evaluate_chunk(args) -> tuple[list[tuple[int, ...]], int]:
    """Evaluate candidate indices [start, stop); return (hits, tested).

    args = (table, n, mode, param, fibers, start, stop, max_support)
    with mode "zp" (coefficients 0..p-1 mod p) or "zbox" (coefficients
    -B..B over the integers) and fibers a tuple of (keys, target) pairs:
    the coefficients on keys sum to target (mod p in "zp").  tested
    counts the candidates whose determined coefficients fall in the box.
    """
    import numpy as np

    table, n, mode, param, fibers, start, stop, max_support = args
    dtype = np.int64 if _int64_safe(n, param) else object
    # the pairs (i, j) with i*j = k, for each key k: n of them in a
    # quandle, anywhere from 0 to n^2 in a magma table
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            pairs[k].append((i, j))
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
