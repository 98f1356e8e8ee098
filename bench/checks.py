"""Output checks that share no code with quandlekit.

Everything here is re-derived from the JSON the program prints: a plain
squarer for integer and mod-p table vectors, a flat-word evaluator for
free-quandle elements, and the pinned answers each workload must
reproduce.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import itertools
import json

# Pinned answers.  Each entry records how the value was obtained, once,
# by a method independent of the search that produces it.
PINS = {
    "r10_z_b2": {
        "idempotents": 500,
        "candidates_tested": 1694045,
        "how": "tests/oracles.py naive_idempotents_boxed(r10, 2) over all 5^10 vectors: "
        "500 nonzero idempotents, every one with coefficient sum 0 or 1; "
        "candidates = vectors of [-2,2]^10 with sum 0 or 1, counted by a sum DP",
    },
    "r10_zp3": {
        "idempotents": 183,
        "candidates_tested": 39366,
        "how": "tests/oracles.py naive_idempotents_mod_p(r10, 3) over all 3^10 vectors; "
        "candidates = 2 strata * 3^9",
    },
    "r10_zp5": {
        "idempotents": 625,
        "candidates_tested": 3906250,
        "how": "tests/oracles.py naive_idempotents_mod_p(r10, 5) over all 5^10 vectors; "
        "candidates = 2 strata * 5^9",
    },
    "r10_z_b2_s3": {
        "idempotents": 20,
        "candidates_tested": 1694045,
        "how": "tests/oracles.py naive_idempotents_boxed(r10, 2, max_support=3); the "
        "support cap filters after the box, so candidates equal the uncapped count",
    },
    "core3_5x5_b2": {
        "trivial_found": 25,
        "nontrivial": 0,
        "candidates_tested": 152100,
        "how": "oracle square_vector over every support of size <= 3 of core(5,5) with "
        "coefficients in {-2,-1,1,2}: 25*4 + C(25,2)*16 + C(25,3)*64 = 152100 "
        "candidates, only the 25 basis elements square to themselves",
    },
    "fq_2_3_3_3": {
        "idempotents": 18,
        "candidates_tested": 181872,
        "how": "acceptance criterion 10 (the 18 window generators at bound 2), the "
        "count 18*6 + C(18,2)*36 + C(18,3)*216 = 181872 at bound 3, and "
        "check_free_search below, which rebuilds the window on flat words",
    },
    "family_verify_r10_r5": {
        "verified": True,
        "structures": 160,
        "cases": 3180,
        "how": "sum over |J| <= 2 of C(5,|J|) * 5 fibers * 2 base points = 160 "
        "structures; cases = sum C(5,s) * 10 * 3^(s+1) = 3180",
    },
    "iqc_order6": {
        "passed": True,
        "size": 57,
        "how": "acceptance criterion 08",
    },
    "dihedral10_members": {
        "members": 304,
        "in_family": 304,
        "endomorphisms": 304,
        "how": "the 304 distinct vectors rebuilt from the family formula without quandlekit, "
        "each re-squared by square_table_vector and checked to make w -> w*u preserve "
        "all 100 basis products; every member comes from the family constructor, so "
        "each must classify into the family",
    },
}


# ---------------------------------------------------------------------------
# table vectors


def square_table_vector(table, vec, modulus=None):
    """Coefficients of (sum c_x e_x)^2 under e_x e_y = e_{x*y}."""
    sq = [0] * len(vec)
    nonzero = [(i, c) for i, c in enumerate(vec) if c]
    for i, a in nonzero:
        row = table[i]
        for j, b in nonzero:
            sq[row[j]] += a * b
    if modulus is not None:
        sq = [v % modulus for v in sq]
    return sq


def element_vector(doc, n):
    """Dense coefficient list of a table element document, or None if malformed."""
    vec = [0] * n
    try:
        for key, coeff in doc["coeffs"]:
            if not isinstance(key, int) or not 0 <= key < n or vec[key]:
                return None
            vec[key] = int(coeff)
    except (KeyError, TypeError, ValueError):
        return None
    return vec


def check_table_search(text, table, modulus=None, bound=None, max_support=None, pin=None):
    """Problems with a table search report: every idempotent re-squared,
    in scope and distinct, and the counts equal to the pin."""
    try:
        doc = json.loads(text)
    except ValueError as err:
        return [f"report is not JSON: {err}"]
    n = len(table)
    problems = []
    seen = set()
    for k, elem in enumerate(doc.get("idempotents", [])):
        vec = element_vector(elem, n)
        if vec is None:
            problems.append(f"idempotent {k}: malformed coefficients")
            continue
        if not any(vec):
            problems.append(f"idempotent {k}: zero element")
        if modulus is not None and not all(0 <= c < modulus for c in vec):
            problems.append(f"idempotent {k}: coefficient outside 0..{modulus - 1}")
        if bound is not None and not all(abs(c) <= bound for c in vec):
            problems.append(f"idempotent {k}: coefficient outside the box")
        if max_support is not None and sum(1 for c in vec if c) > max_support:
            problems.append(f"idempotent {k}: support above {max_support}")
        if square_table_vector(table, vec, modulus) != vec:
            problems.append(f"idempotent {k}: squares to a different element")
        if tuple(vec) in seen:
            problems.append(f"idempotent {k}: listed twice")
        seen.add(tuple(vec))
    if doc.get("exhaustive") is not True:
        problems.append("report does not claim exhaustive")
    if pin is not None:
        if len(seen) != pin["idempotents"]:
            problems.append(f"{len(seen)} distinct idempotents, pinned {pin['idempotents']}")
        if doc.get("candidates_tested") != pin["candidates_tested"]:
            problems.append(
                f"candidates_tested {doc.get('candidates_tested')}, pinned {pin['candidates_tested']}"
            )
    return problems


# ---------------------------------------------------------------------------
# free quandle elements as flat free-group words (letters (gen, +1|-1))


def _reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _inverse(word):
    return tuple((g, -s) for g, s in reversed(word))


def free_product(a, b):
    """a * b = b a b^-1 on full words."""
    return _reduce(b + a + _inverse(b))


def _letter(tok):
    sign = -1 if tok.endswith("^-1") else 1
    tok = tok[:-3] if sign < 0 else tok
    if not tok.startswith("g") or not tok[1:].isdigit():
        raise ValueError(f"bad generator {tok!r}")
    return int(tok[1:]), sign


def free_word(text):
    """Full word of a left-associated expression such as g0*g1^-1*g0."""
    toks = text.split("*")
    head, sign = _letter(toks[0])
    if sign != 1:
        raise ValueError(f"bad head in {text!r}")
    word = ((head, 1),)
    for tok in toks[1:]:
        word = free_product(word, (_letter(tok),))
    return word


def free_window(rank, max_len):
    """Full words u g u^-1 of every element of length <= max_len."""
    letters = [(g, s) for g in range(rank) for s in (1, -1)]
    out = set()
    for k in range(max_len):
        for conj in itertools.product(letters, repeat=k):
            if _reduce(conj) != conj:
                continue
            for g in range(rank):
                if conj and conj[-1][0] == g:
                    continue
                out.add(_reduce(conj + ((g, 1),) + _inverse(conj)))
    return out


def check_free_search(text, rank, max_len, pin):
    """Problems with a free-basis search report: every idempotent
    re-squared on flat words, and the found set equal to the window."""
    try:
        doc = json.loads(text)
    except ValueError as err:
        return [f"report is not JSON: {err}"]
    problems = []
    singles = set()
    for k, elem in enumerate(doc.get("idempotents", [])):
        try:
            terms = [(free_word(key), int(c)) for key, c in elem["coeffs"]]
        except (ValueError, TypeError, KeyError) as err:
            problems.append(f"idempotent {k}: {err}")
            continue
        vec = {}
        for w, c in terms:
            vec[w] = vec.get(w, 0) + c
        square = {}
        for (a, ca), (b, cb) in itertools.product(terms, repeat=2):
            w = free_product(a, b)
            square[w] = square.get(w, 0) + ca * cb
        if {w: c for w, c in square.items() if c} != {w: c for w, c in vec.items() if c}:
            problems.append(f"idempotent {k}: squares to a different element")
        if len(terms) == 1 and terms[0][1] == 1:
            singles.add(terms[0][0])
    found = len(doc.get("idempotents", []))
    if found != pin["idempotents"]:
        problems.append(f"{found} idempotents, pinned {pin['idempotents']}")
    if singles != free_window(rank, max_len):
        problems.append("basis idempotents differ from the window generators")
    if doc.get("candidates_tested") != pin["candidates_tested"]:
        problems.append(
            f"candidates_tested {doc.get('candidates_tested')}, pinned {pin['candidates_tested']}"
        )
    return problems


def check_fields(doc, expected):
    """Problems where doc differs from the expected field values."""
    return [f"{k} is {doc.get(k)!r}, pinned {v!r}" for k, v in expected.items() if doc.get(k) != v]
