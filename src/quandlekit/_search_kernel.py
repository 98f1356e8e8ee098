"""Batched evaluation of idempotency over a coefficient grid.

The candidate space is indexed lexicographically: with an augmentation
stratum fixed, the first n-1 coefficients are free digits (index 0 most
significant) and the last coefficient is determined by the stratum; with
no stratum all n digits are free.  Chunks are contiguous index ranges,
so multi-worker runs partition the space deterministically and merge by
construction.

There is one evaluator.  Indices and digits are always int64 (callers
refuse spaces of 2^63 or more); a magnitude guard then picks the
coefficient dtype: int64 when no square entry can overflow it, numpy
object arrays of Python ints otherwise, so large moduli and boxes run
the same code path in exact arithmetic.  The driver re-verifies every
hit with exact arbitrary-precision arithmetic.

`table_product` is the dense product itself: it multiplies stacks of
coefficient vectors under e_x e_y = e_{x*y}, broadcasting over leading
axes and keeping the dtype, so the squaring loop here and the batched
checks on idempotent sets share one implementation.
"""

from __future__ import annotations

import numpy as np

BATCH = 1 << 15
INDEX_LIMIT = 2**63  # indices are int64


def space_size(order: int, mode: str, param: int, stratified: bool) -> int:
    base = param if mode == "zp" else 2 * param + 1
    return base ** (order - 1 if stratified else order)


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

    args = (table, n, mode, param, stratum, start, stop, max_support)
    with mode "zp" (coefficients 0..p-1 mod p) or "zbox" (coefficients
    -B..B over the integers), stratum an int coefficient-sum target or
    None for the whole space.
    """
    table, n, mode, param, stratum, start, stop, max_support = args
    dtype = np.int64 if _int64_safe(n, param) else object
    tbl = np.array(table, dtype=np.int64)
    base = param if mode == "zp" else 2 * param + 1
    free = n if stratum is None else n - 1
    hits: list[tuple[int, ...]] = []
    tested = 0
    pos_weights = [base**k for k in range(free - 1, -1, -1)]
    idx0 = start
    while idx0 < stop:
        m = min(BATCH, stop - idx0)
        idx = np.arange(idx0, idx0 + m, dtype=np.int64)
        digits = np.empty((m, free), dtype=np.int64)
        for pos, w in enumerate(pos_weights):
            digits[:, pos] = (idx // w) % base
        digits = digits.astype(dtype, copy=False)
        coeffs = digits if mode == "zp" else digits - param
        if stratum is None:
            full = coeffs
            valid = np.ones(m, dtype=bool)
        else:
            last = stratum - coeffs.sum(axis=1)
            if mode == "zp":
                last %= param
                valid = np.ones(m, dtype=bool)
            else:
                valid = np.abs(last) <= param
            full = np.concatenate([coeffs, last[:, None]], axis=1)
        full = full[valid]
        tested += int(full.shape[0])
        support = (full != 0).sum(axis=1)
        keep = (support >= 1) & (support <= max_support)
        full = full[keep]
        if full.shape[0]:
            sq = table_product(full, full, tbl)
            if mode == "zp":
                sq %= param
            ok = (sq == full).all(axis=1)
            for vec in full[ok]:
                hits.append(tuple(int(v) for v in vec))
        idx0 += m
    return hits, tested
