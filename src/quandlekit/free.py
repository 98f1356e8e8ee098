"""Normal forms for free quandles on finitely many generators.

An element is a conjugate u x_b u^{-1} of a generator inside the free
group, stored as the pair (base b, conjugator u) with u a reduced word
that does not end in a power of x_b.  That representation is unique, so
equality, hashing and ordering are all syntactic.

Words are tuples of syllables (generator, nonzero exponent) with
adjacent generators distinct.  The quandle operation conjugates:
a * b = b^ a b^{-1} where b^ is the full word of b, and the inverse
operation conjugates the other way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce as _fold

from .errors import (
    BudgetExceededError,
    IndexOutOfRangeError,
    InternalCheckError,
    InvalidParamsError,
)
from .reports import IdempotentReport
from .idempotents import _support_search, _support_tuples

Word = tuple[tuple[int, int], ...]


def reduce_word(syllables) -> Word:
    """Merge adjacent same-generator syllables and drop zero exponents."""
    stack: list[tuple[int, int]] = []
    for g, e in syllables:
        g, e = int(g), int(e)
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = stack[-1][1] + e
            stack.pop()
            if merged:
                stack.append((g, merged))
        else:
            stack.append((g, e))
    return tuple(stack)


def word_mul(a: Word, b: Word) -> Word:
    return reduce_word(tuple(a) + tuple(b))


def word_inv(a: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(a))


def letter_count(a: Word) -> int:
    return sum(abs(e) for _, e in a)


def letters(a: Word) -> tuple[tuple[int, int], ...]:
    """Flatten syllables into single letters (generator, +1 or -1)."""
    out = []
    for g, e in a:
        sign = 1 if e > 0 else -1
        out.extend((g, sign) for _ in range(abs(e)))
    return tuple(out)


class FreeQuandleElement:
    """Conjugate of a generator, in canonical (base, conjugator) form.

    Invariant: the conjugator is a reduced word that does not end in a
    power of the base.  The constructor brings any (base, conjugator)
    pair into that form; _canonical builds an element from a pair that is
    already in it, which is how fq_op returns its products.  The hash is
    computed once, when the element is built.
    """

    __slots__ = ("base", "conjugator", "_hash")

    def __init__(self, base: int, conjugator=()):
        base = int(base)
        conj = reduce_word(conjugator)
        # a trailing power of the base commutes past it and cancels
        if conj and conj[-1][0] == base:
            conj = conj[:-1]
        _set_base(self, base)
        _set_conjugator(self, conj)
        _set_hash(self, hash((base, conj)))

    def __setattr__(self, *_):
        raise AttributeError("FreeQuandleElement is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not the slots
        return FreeQuandleElement, (self.base, self.conjugator)

    def full_word(self) -> Word:
        return self.conjugator + ((self.base, 1),) + word_inv(self.conjugator)

    def __eq__(self, other):
        return (
            isinstance(other, FreeQuandleElement)
            and self.base == other.base
            and self.conjugator == other.conjugator
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (length(self), self.base, letters(self.conjugator))

    def to_expr(self) -> "LeftAssocExpr":
        return LeftAssocExpr(self.base, tuple(reversed(letters(self.conjugator))))

    def __str__(self):
        return render_expr(self.to_expr())

    def __repr__(self):
        return f"<{self}>"


_set_base = FreeQuandleElement.base.__set__
_set_conjugator = FreeQuandleElement.conjugator.__set__
_set_hash = FreeQuandleElement._hash.__set__


def _canonical(base: int, conj: Word) -> FreeQuandleElement:
    """The element (base, conj), for a pair already in normal form."""
    elem = object.__new__(FreeQuandleElement)
    _set_base(elem, base)
    _set_conjugator(elem, conj)
    _set_hash(elem, hash((base, conj)))
    return elem


def generator(i: int) -> FreeQuandleElement:
    return FreeQuandleElement(i)


def length(elem: FreeQuandleElement) -> int:
    """1 plus the letter count of the canonical conjugator."""
    return 1 + letter_count(elem.conjugator)


def fq_op(a: FreeQuandleElement, b: FreeQuandleElement, sign: int = 1) -> FreeQuandleElement:
    """a * b (sign +1) or a *^{-1} b (sign -1): conjugation by b's word.

    The product is u' x_a u'^{-1} with u' = w u, for w = v x_c^sign v^{-1}
    the word of b (or of its inverse) and u the conjugator of a.  By the
    normal-form invariant v does not end in a power of c, so w is reduced,
    and u is reduced: in w u only the junction can merge or cancel.  It is
    reduced as a stack, the end of w against the start of u, until two
    syllables on distinct generators meet or one merged syllable is left.
    u' ends in a power of a's base only when all of u cancels, and then in
    one syllable, since a reduced word has no two adjacent syllables on
    one generator: one strip restores the normal form.
    """
    if sign not in (1, -1):
        raise InvalidParamsError("sign must be +1 or -1")
    v = b.conjugator
    w = [*v, (b.base, sign), *word_inv(v)]
    u = a.conjugator
    j = 0
    for g, e in u:
        if not w or w[-1][0] != g:
            break
        j += 1
        e += w.pop()[1]
        if e:
            w.append((g, e))
            break
    conj = (*w, *u[j:])
    base = a.base
    if conj and conj[-1][0] == base:
        conj = conj[:-1]
    return _canonical(base, conj)


def products_stay_long(words, rank: int) -> bool:
    """True when no product of the given words collapses to a generator.

    Checks every w_k * w_l for k != l and every w_k * x over the
    generators x: all must have length at least 2.  A bare generator in
    the list fails through w * w with itself as x.
    """
    words = list(words)
    gens = [generator(i) for i in range(rank)]
    for k, a in enumerate(words):
        for l, b in enumerate(words):
            if k != l and length(fq_op(a, b)) < 2:
                return False
        for x in gens:
            if length(fq_op(a, x)) < 2:
                return False
    return True


class FreeQuandle:
    """Carrier object for ring arithmetic over a free quandle basis.

    op is fq_op, unmemoized: every element is kept in normal form, so a
    product costs one junction reduction, and the searches ask each pair
    of keys once.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise InvalidParamsError("rank must be >= 1")
        self.rank = rank

    def contains_key(self, key) -> bool:
        return (
            isinstance(key, FreeQuandleElement)
            and 0 <= key.base < self.rank
            and all(0 <= g < self.rank for g, _ in key.conjugator)
        )

    def op(self, a: FreeQuandleElement, b: FreeQuandleElement) -> FreeQuandleElement:
        return fq_op(a, b)


# ---------------------------------------------------------------------------
# left-associated expressions


@dataclass(frozen=True)
class LeftAssocExpr:
    """head *^{s_1} g_1 *^{s_2} g_2 ... applied left to right."""

    head: int
    tail: tuple[tuple[int, int], ...]


def canonicalize_expr(expr: LeftAssocExpr) -> LeftAssocExpr:
    """Cancel adjacent inverse pairs, then strip leading self-actions.

    Both rewrites preserve the value: acting by y then by y the other way
    is the identity, and any generator acting on itself fixes it.  The
    result has head distinct from the first tail letter and equal
    adjacent tail generators carrying equal signs.
    """
    stack: list[tuple[int, int]] = []
    for g, s in expr.tail:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    while stack and stack[0][0] == expr.head:
        stack.pop(0)
    return LeftAssocExpr(expr.head, tuple(stack))


def render_expr(expr: LeftAssocExpr) -> str:
    parts = [f"g{expr.head}"]
    for g, s in expr.tail:
        parts.append(f"g{g}" + ("^-1" if s < 0 else ""))
    return "*".join(parts)


def parse_expr(text: str) -> LeftAssocExpr:
    items = text.strip().split("*")
    if not items or not items[0]:
        raise InvalidParamsError(f"cannot parse expression {text!r}")

    def gen_of(tok: str) -> tuple[int, int]:
        sign = 1
        if tok.endswith("^-1"):
            sign = -1
            tok = tok[:-3]
        if not tok.startswith("g") or not tok[1:].isdigit():
            raise InvalidParamsError(f"bad generator token {tok!r}")
        return int(tok[1:]), sign

    head, head_sign = gen_of(items[0])
    if head_sign != 1:
        raise InvalidParamsError("expression head cannot carry an inverse")
    return LeftAssocExpr(head, tuple(gen_of(tok) for tok in items[1:]))


def eval_expr(expr: LeftAssocExpr, rank: int) -> FreeQuandleElement:
    """Fold the expression through fq_op, checking generator indices."""
    if not 0 <= expr.head < rank:
        raise IndexOutOfRangeError(f"generator g{expr.head} outside rank {rank}")
    for g, _ in expr.tail:
        if not 0 <= g < rank:
            raise IndexOutOfRangeError(f"generator g{g} outside rank {rank}")
    return _fold(lambda acc, gs: fq_op(acc, generator(gs[0]), gs[1]), expr.tail, generator(expr.head))


def parse_element(text: str, rank: int) -> FreeQuandleElement:
    return eval_expr(parse_expr(text), rank)


def left_assoc_product(expr_a: LeftAssocExpr, expr_b: LeftAssocExpr, mu0: int = 1) -> LeftAssocExpr:
    """Left-associated form of (value of A) *^{mu0} (value of B).

    The second factor's action unwraps into the tail: undo B's tail
    right to left, act by B's head, then redo the tail.  The output is
    recanonicalized, and its value is checked against the direct product.
    """
    if mu0 not in (1, -1):
        raise InvalidParamsError("mu0 must be +1 or -1")
    tail = list(expr_a.tail)
    tail.extend((g, -s) for g, s in reversed(expr_b.tail))
    tail.append((expr_b.head, mu0))
    tail.extend(expr_b.tail)
    out = canonicalize_expr(LeftAssocExpr(expr_a.head, tuple(tail)))
    rank = 1 + max(
        [expr_a.head, expr_b.head]
        + [g for g, _ in expr_a.tail]
        + [g for g, _ in expr_b.tail]
    )
    if eval_expr(out, rank) != fq_op(eval_expr(expr_a, rank), eval_expr(expr_b, rank), mu0):
        raise InternalCheckError(
            "left-associated product differs from the direct product",
            head=out.head, tail=[list(t) for t in out.tail],
        )
    return out


# ---------------------------------------------------------------------------
# enumeration and bounded idempotent search


def enumerate_elements(rank: int, max_len: int) -> list[FreeQuandleElement]:
    """All elements of length <= max_len, sorted by (length, base, word)."""
    if rank < 1 or max_len < 1:
        raise InvalidParamsError("rank and max_len must be >= 1")
    sequences: list[list[tuple[int, int]]] = [[]]
    frontier: list[list[tuple[int, int]]] = [[]]
    for _ in range(max_len - 1):
        nxt = []
        for seq in frontier:
            for g in range(rank):
                for s in (1, -1):
                    if seq and seq[-1] == (g, -s):
                        continue
                    nxt.append(seq + [(g, s)])
        sequences.extend(nxt)
        frontier = nxt
    out = []
    for base in range(rank):
        for seq in sequences:
            if seq and seq[-1][0] == base:
                continue
            out.append(FreeQuandleElement(base, tuple(seq)))
    out.sort(key=lambda e: e.sort_key())
    return out


# Candidate counts of fq-search are computed up to 2^COUNT_BITS.  Any
# window past that is refused whatever the budget: no window that large
# could be enumerated, and the CLI reads budgets of at most 4300 digits.
COUNT_BITS = 1 << 16


def _window_size(rank: int, max_len: int) -> int:
    """len(enumerate_elements(rank, max_len)) without enumerating.

    Each of the rank bases takes the empty conjugator and, for 1 <= m <
    max_len, the (2 rank - 2) (2 rank - 1)^(m - 1) reduced words of m
    letters that do not end in a power of the base; the sum telescopes.
    """
    return rank * (2 * rank - 1) ** (max_len - 1)


def fq_idempotent_search(
    rank: int,
    max_len: int,
    max_support: int,
    bound: int,
    budget: int = 10**8,
) -> IdempotentReport:
    """Exhaustive idempotent search over a bounded window of Z[free quandle].

    Candidates are supported on at most max_support elements of length
    <= max_len with nonzero coefficients in [-bound, bound].  Products of
    candidates may leave the window; the arithmetic is exact over the
    infinite basis, only the support of candidates is restricted.
    Candidates whose coefficient sum is not 0 or 1 cannot square to
    themselves over the integers and are skipped.

    This is the support enumerator (idempotents._support_search), not
    the table kernel in _search_kernel.  candidates_tested counts every
    (support, coefficient tuple) pair, including the tuples on supports
    that the non-cancellation rule rules out without evaluating them and
    those the coefficient-sum filter skips.  The budget is checked on that
    count, from the window size in closed form, before any element of the
    window is built.
    """
    if max_support < 1 or bound < 1:
        raise InvalidParamsError("max_support and bound must be >= 1")
    if rank < 1 or max_len < 1:
        raise InvalidParamsError("rank and max_len must be >= 1")
    start = time.monotonic()
    # the window has at least 2^((max_len - 1) (bits of 2 rank - 1, less
    # one)) elements; past COUNT_BITS it is refused uncounted, since
    # counting it takes time and memory linear in max_len
    total = None
    if (max_len - 1) * ((2 * rank - 1).bit_length() - 1) <= COUNT_BITS:
        u_count = _window_size(rank, max_len)
        total = _support_tuples(u_count, bound, max_support, limit=1 << COUNT_BITS)
    if total is None or total > 1 << COUNT_BITS:
        raise BudgetExceededError(f"more than 2^{COUNT_BITS}", budget)
    if total > budget:
        raise BudgetExceededError(total, budget)
    universe = enumerate_elements(rank, max_len)
    tested, found = _support_search(universe, FreeQuandle(rank).op, bound, max_support)
    elapsed = int((time.monotonic() - start) * 1000)
    spec = {
        "ring": "Z",
        "rank": rank,
        "max_len": max_len,
        "max_support": max_support,
        "box_bound": bound,
    }
    flags = [
        f"complete for supports inside the {u_count} elements of length <= {max_len}",
        f"coefficients limited to |c| <= {bound}",
    ]
    return IdempotentReport(
        quandle=f"free({rank})",
        order=None,
        spec=spec,
        idempotents=found,
        exhaustive=True,
        flags=flags,
        candidates_tested=tested,
        elapsed_ms=elapsed,
    )
