"""Slow, literal reference computations the tests compare against.

Everything here recomputes answers in the most direct way available:
full product spaces instead of stratified sweeps, raw letter-by-letter
free-group words instead of normal forms, exhaustive map search instead
of constraint scheduling.  The only package imports are the value types
needed to phrase comparisons.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from quandlekit import (
    NotIdempotentError,
    NotPermutationError,
    NotRightDistributiveError,
    fq_op,
    generator,
)


# ---------------------------------------------------------------------------
# table axioms


def naive_first_axiom_failure(table):
    """(error class, constructor arguments) of the first quandle axiom the
    table breaks, or None: a column that is not a permutation, then a
    diagonal entry, then the lexicographically least (i, j, k) with
    (i*j)*k != (i*k)*(j*k), each by a plain loop."""
    n = len(table)
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return NotPermutationError, (j,)
    for j in range(n):
        if table[j][j] != j:
            return NotIdempotentError, (j,)
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[table[i][k]][table[j][k]]:
            return NotRightDistributiveError, (i, j, k)
    return None

# ---------------------------------------------------------------------------
# idempotent enumeration over a raw table


def product_vector(table, u, v, reduce=None):
    """Coefficient vector of (sum a_x e_x)(sum b_y e_y) under e_x e_y = e_{x*y}."""
    n = len(table)
    out = [0] * n
    for x, a in enumerate(u):
        if not a:
            continue
        for y, b in enumerate(v):
            if not b:
                continue
            out[table[x][y]] += a * b
    if reduce is not None:
        out = [c % reduce for c in out]
    return out


def square_vector(table, vec, reduce=None):
    """Coefficient vector of (sum a_x e_x)^2 under e_x e_y = e_{x*y}."""
    return product_vector(table, vec, vec, reduce)


def naive_is_ring_endomorphism(table, vec, reduce=None):
    """Whether w -> w*v preserves the product of every pair of basis
    elements: (e_k v)(e_l v) = e_{k*l} v for all k, l."""
    n = len(table)
    images = [product_vector(table, [int(i == k) for i in range(n)], vec, reduce) for k in range(n)]
    return all(
        product_vector(table, images[k], images[l], reduce) == images[table[k][l]]
        for k in range(n)
        for l in range(n)
    )


def naive_idempotent_set_failures(table, vecs, reduce=None):
    """Closure and self-distributivity failures of a set of idempotent
    coefficient vectors, in the order idempotent_quandle_check lists them:
    (i, j) with v_i v_j zero or not idempotent, then (i, j, l) with
    (v_i v_j) v_l != (v_i v_l)(v_j v_l).  Products are memoized on the
    vectors, since a set that is nearly closed repeats them."""
    memo = {}

    def prod(u, v):
        key = (tuple(u), tuple(v))
        if key not in memo:
            memo[key] = product_vector(table, u, v, reduce)
        return memo[key]

    k = len(vecs)
    pairs = [[prod(a, b) for b in vecs] for a in vecs]
    failures = []
    for i, j in itertools.product(range(k), repeat=2):
        p = pairs[i][j]
        if not any(p) or prod(p, p) != p:
            failures.append({"check": "closure", "indices": [i, j]})
    for i, j, l in itertools.product(range(k), repeat=3):
        if prod(pairs[i][j], vecs[l]) != prod(pairs[i][l], pairs[j][l]):
            failures.append({"check": "self_distributivity", "indices": [i, j, l]})
    return failures


def naive_basis_action_failures(table, vecs, reduce=None):
    """The right_mult_is_basis_action failures of a set of coefficient
    vectors: i such that no basis element t has e_x v_i = e_{x*t} for
    every x."""
    n = len(table)
    unit = [[int(x == y) for y in range(n)] for x in range(n)]
    failures = []
    for i, vec in enumerate(vecs):
        images = [product_vector(table, unit[x], vec, reduce) for x in range(n)]
        if not any(images == [unit[table[x][t]] for x in range(n)] for t in range(n)):
            failures.append({"check": "right_mult_is_basis_action", "indices": [i]})
    return failures


def naive_idempotents_mod_p(table, p):
    """All nonzero vectors over Z/p with v^2 = v, as coefficient tuples."""
    n = len(table)
    out = set()
    for vec in itertools.product(range(p), repeat=n):
        if not any(vec):
            continue
        if list(vec) == square_vector(table, vec, reduce=p):
            out.add(vec)
    return out


def naive_idempotents_boxed(table, bound, max_support=None):
    """All nonzero integer vectors with entries in [-bound, bound] and
    v^2 = v, optionally capped at max_support nonzero entries."""
    n = len(table)
    out = set()
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        nonzero = sum(1 for c in vec if c)
        if nonzero == 0:
            continue
        if max_support is not None and nonzero > max_support:
            continue
        if list(vec) == square_vector(table, vec):
            out.add(vec)
    return out


def naive_support_search(keys, op, bound, max_support):
    """Every integer v with v^2 = v supported on at most max_support of
    keys, nonzero entries in [-bound, bound]: each support (combinations
    of keys in order) and each coefficient tuple on it, squared in full.
    Products op(a, b) may land outside keys.  Returns (tuples tried,
    idempotents as ((key, c), ...) in the order found)."""
    keys = list(keys)
    nonzero = [c for c in range(-bound, bound + 1) if c]
    tested = 0
    found = []
    for k in range(1, min(max_support, len(keys)) + 1):
        for support in itertools.combinations(keys, k):
            prods = {(a, b): op(a, b) for a in support for b in support}
            for coeffs in itertools.product(nonzero, repeat=k):
                tested += 1
                vec = dict(zip(support, coeffs))
                square = {}
                for (a, b), key in prods.items():
                    square[key] = square.get(key, 0) + vec[a] * vec[b]
                if {key: c for key, c in square.items() if c} == vec:
                    found.append(tuple(zip(support, coeffs)))
    return tested, found


def element_to_vector(u, n):
    vec = [0] * n
    for k, c in u.coeffs:
        vec[k] = int(c)
    return tuple(vec)


def report_vectors(report, n):
    return {element_to_vector(u, n) for u in report.idempotents}


# ---------------------------------------------------------------------------
# covering families over a raw table


def _perm_order_by_powers(perm):
    """Least k >= 1 with perm^k the identity, by composing perm with itself."""
    identity = list(range(len(perm)))
    power, k = list(perm), 1
    while power != identity:
        power = [perm[p] for p in power]
        k += 1
    return k


def naive_family_vector(table, images, params_doc):
    """Coefficient vector of the covering-family element a parameter
    document describes (the shape of CoveringFamilyParams.to_json()).

    The document is checked against the fibers of images first: unit
    coefficients lie over unit_fiber and sum to 1 with the base point
    among them, and each zero-sum group lies over its index and sums to
    0.  The element is the unit part plus, for each zero-sum coefficient
    c_x, c_x times the sum of the first ord(S_x0) points of the orbit of
    x under t -> t*x0, x0 the base point.  Coefficients are parsed from
    their strings: Fractions over Q, residues over Zmod:m."""
    tag = params_doc["ring"]
    modulus = int(tag.split(":")[1]) if tag.startswith("Zmod:") else None
    parse = Fraction if tag == "Q" else int

    def red(c):
        return c % modulus if modulus else c

    n = len(table)
    y0, x0 = params_doc["unit_fiber"], params_doc["base_point"]
    unit = {x: parse(c) for x, c in params_doc["unit_coeffs"]}
    assert x0 in unit and red(sum(unit.values())) == 1
    assert all(images[x] == y0 for x in unit)
    column = [table[t][x0] for t in range(n)]
    steps = _perm_order_by_powers(column)
    vec = [0] * n
    for x, c in unit.items():
        vec[x] += c
    for y, pairs in params_doc["zero_sum_coeffs"]:
        group = {x: parse(c) for x, c in pairs}
        assert red(sum(group.values())) == 0 and all(images[x] == y for x in group)
        for x, c in group.items():
            t = x
            for _ in range(steps):
                vec[t] += c
                t = column[t]
    return [red(c) for c in vec]


def naive_family_verify(table, images, tag, grid=(-1, 0, 1), max_j=2, modulus=None):
    """(structures, cases, failures) of the covering-family grid sweep,
    recomputed from the domain table and the image of each point.

    For every codomain subset J with |J| <= max_j (in combination order),
    unit fiber y0 and base point x0 in it, and every grid point, the
    case is the parameter document with the unit part on the fiber over
    y0 and, for each y in J, one coefficient per point over y.  The last
    coefficient of each group is fixed by its sum (1 on the unit fiber, 0
    on a fiber in J), coefficients are reduced mod modulus when one is
    given, and the element is built by naive_family_vector and squared
    with product_vector; a failure is its parameter document."""
    fibers = {}
    for x, y in enumerate(images):
        fibers.setdefault(y, []).append(x)
    codomain = sorted(fibers)

    def red(c):
        return c % modulus if modulus else c

    structures = cases = 0
    failures = []
    for size in range(max_j + 1):
        for j_set in itertools.combinations(codomain, size):
            for y0 in codomain:
                fiber0 = fibers[y0]
                for x0 in fiber0:
                    structures += 1
                    free = [(y, x) for y in j_set for x in fibers[y][:-1]]
                    for point in itertools.product(grid, repeat=len(free) + len(fiber0) - 1):
                        cases += 1
                        groups = {y: {} for y in j_set}
                        for (y, x), c in zip(free, point):
                            groups[y][x] = c
                        for y in j_set:
                            groups[y][fibers[y][-1]] = -sum(groups[y].values())
                        unit = dict(zip(fiber0[:-1], point[len(free):]))
                        unit[fiber0[-1]] = 1 - sum(unit.values())
                        doc = {
                            "ring": tag,
                            "unit_fiber": y0,
                            "base_point": x0,
                            "unit_coeffs": [[x, str(red(c))] for x, c in sorted(unit.items())],
                            "zero_sum_coeffs": [
                                [y, [[x, str(red(c))] for x, c in sorted(groups[y].items())]]
                                for y in j_set
                            ],
                        }
                        vec = naive_family_vector(table, images, doc)
                        if any(vec) and square_vector(table, vec, modulus) != vec:
                            failures.append(doc)
    return structures, cases, failures


# ---------------------------------------------------------------------------
# congruences over a raw table


def set_partitions(items):
    """Every partition of the list items into blocks, blocks kept in the
    items' order."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1:]


def naive_congruences(table):
    """Every congruence of the table, by testing all set partitions (Bell(n)
    of them, so n <= 8): x ~ y must give x*z ~ y*z and z*x ~ z*y for all z.
    Each partition is a sorted tuple of sorted blocks."""
    n = len(table)
    out = []
    for part in set_partitions(list(range(n))):
        label = {x: i for i, block in enumerate(part) for x in block}
        if all(
            label[table[x][z]] == label[table[y][z]] and label[table[z][x]] == label[table[z][y]]
            for block in part
            for x in block
            for y in block
            for z in range(n)
        ):
            out.append(tuple(sorted(part)))
    return sorted(out)


# ---------------------------------------------------------------------------
# orbits of a permutation group


def naive_orbits(n, gens):
    """The orbits of the group the permutations gens of range(n) generate,
    as sorted tuples ordered by least point: each point's set is closed
    under the gens and their inverses until no set grows."""
    moves = [list(g) for g in gens] + [[list(g).index(y) for y in range(n)] for g in gens]
    reach = [{x} for x in range(n)]
    grown = True
    while grown:
        grown = False
        for points in reach:
            images = {g[y] for g in moves for y in points}
            if not images <= points:
                points |= images
                grown = True
    return sorted({tuple(sorted(points)) for points in reach})


# ---------------------------------------------------------------------------
# covering search over raw tables


def _column(table, j):
    return tuple(row[j] for row in table)


def brute_force_coverings(total, base):
    """All image tuples f with f a surjective hom satisfying the covering
    condition, by checking every one of |base|^|total| maps."""
    n, m = len(total), len(base)
    found = []
    for f in itertools.product(range(m), repeat=n):
        if set(f) != set(range(m)):
            continue
        if not all(
            f[total[i][j]] == base[f[i]][f[j]] for i in range(n) for j in range(n)
        ):
            continue
        fibers = {}
        for x, y in enumerate(f):
            fibers.setdefault(y, []).append(x)
        if all(
            _column(total, a) == _column(total, b)
            for xs in fibers.values()
            for a in xs
            for b in xs
        ):
            found.append(f)
    return sorted(found)


# ---------------------------------------------------------------------------
# free-group words as flat letter strings

# a word is a tuple of (generator, +1|-1) letters, freely reduced


def w_reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def w_mul(a, b):
    return w_reduce(list(a) + list(b))


def w_inv(a):
    return tuple((g, -s) for g, s in reversed(a))


def expand_syllables(word):
    """Syllable form [(gen, exponent)] to flat letters."""
    out = []
    for g, e in word:
        step = 1 if e > 0 else -1
        out.extend((g, step) for _ in range(abs(e)))
    return tuple(out)


def oracle_full_word(elem):
    """Flat-letter word of u x u^-1 for a package element."""
    u = expand_syllables(elem.conjugator)
    return w_reduce(list(u) + [(elem.base, 1)] + list(w_inv(u)))


def oracle_op(a_word, b_word, sign=1):
    """Conjugation on flat words: a * b = b a b^-1, sign -1 inverts b."""
    w = b_word if sign > 0 else w_inv(b_word)
    return w_mul(w_mul(w, a_word), w_inv(w))


# ---------------------------------------------------------------------------
# expression trees and the left-association rewrite rule

# a tree is either a generator index (leaf) or (sign, left, right)


def random_tree(rng, rank, depth):
    if depth <= 0 or rng.random() < 0.35:
        return rng.randrange(rank)
    sign = rng.choice((1, -1))
    return (sign, random_tree(rng, rank, depth - 1), random_tree(rng, rank, depth - 1))


def eval_tree(node, rank):
    if isinstance(node, int):
        return generator(node)
    sign, left, right = node
    return fq_op(eval_tree(left, rank), eval_tree(right, rank), sign)


def tree_positions(node, path=()):
    yield path
    if not isinstance(node, int):
        _, left, right = node
        yield from tree_positions(left, path + (1,))
        yield from tree_positions(right, path + (2,))


def tree_at(node, path):
    for step in path:
        node = node[step]
    return node


def tree_replace(node, path, new):
    if not path:
        return new
    sign, left, right = node
    if path[0] == 1:
        return (sign, tree_replace(left, path[1:], new), right)
    return (sign, left, tree_replace(right, path[1:], new))


def rewrite_candidates(node):
    """Both directions of a *^e (b *^m c) = ((a *^-m c) *^e b) *^m c at the root."""
    out = []
    if isinstance(node, int):
        return out
    e, a, rest = node
    if not isinstance(rest, int):
        m, b, c = rest
        out.append((m, (e, (-m, a, c), b), c))
    if not isinstance(a, int):
        e_in, inner, b = a
        if not isinstance(inner, int):
            m_in, a2, c2 = inner
            # outer sign must undo the innermost one and conjugators must match
            if m_in == -e and c2 == rest:
                out.append((e_in, a2, (e, b, rest)))
    return out


def random_rewrite(rng, tree):
    """Apply the rewrite rule at a random applicable position, or return
    the tree unchanged if nowhere applies."""
    spots = []
    for path in tree_positions(tree):
        for cand in rewrite_candidates(tree_at(tree, path)):
            spots.append((path, cand))
    if not spots:
        return tree
    path, cand = rng.choice(spots)
    return tree_replace(tree, path, cand)


# ---------------------------------------------------------------------------
# polynomials of per-variable degree <= 2, for the grid-certification argument


def poly_eval(poly, point):
    total = 0
    for exps, c in poly.items():
        term = c
        for t, e in zip(point, exps):
            term *= t**e
        total += term
    return total


def poly_from_grid(values, nvars):
    """Reconstruct the coefficient dict from values on {-1,0,1}^nvars.

    One variable at a time: f = f(0)*(1 - t^2) + f(1)*t(t+1)/2 + f(-1)*t(t-1)/2,
    which is exact for per-variable degree <= 2.
    """
    if nvars == 0:
        return {(): Fraction(values[()])} if values[()] else {}
    out = {}
    # collapse the last variable first
    sub = {}
    for point, v in values.items():
        sub.setdefault(point[:-1], {})[point[-1]] = Fraction(v)
    collapsed = {}
    for head, by_t in sub.items():
        f0, f1, fm = by_t[0], by_t[1], by_t[-1]
        collapsed[head] = {
            0: f0,
            1: (f1 - fm) / 2,
            2: (f1 + fm) / 2 - f0,
        }
    if nvars == 1:
        return {(e,): c for by in [collapsed[()]] for e, c in by.items() if c}
    for last_exp in (0, 1, 2):
        slice_values = {head: by[last_exp] for head, by in collapsed.items()}
        for exps, c in poly_from_grid(slice_values, nvars - 1).items():
            if c:
                out[exps + (last_exp,)] = c
    return out
