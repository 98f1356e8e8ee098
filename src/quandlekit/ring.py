"""Exact linear algebra over quandle rings.

Elements are finitely supported maps from basis keys to scalars; scalars
are Python ints (integers, integers mod m) or Fractions (rationals).
There is no floating point anywhere in this module.  Multiplication is
bilinear over a carrier object exposing op(x, y); the carrier need not
satisfy the quandle axioms, which lets the same arithmetic run over raw
magma tables.

Each scalar job has one routine: CoeffRing owns exact division, and
kernel vectors come from one Gauss-Jordan elimination over a field
(residues for Z/p, Fractions for Z and Q, the latter scaled back to a
primitive integer vector).

Products have two routines.  Table carriers use `dense_product`, the
product on coefficient lists indexed by the keys 0..n-1: it loops over
the nonzero entries of each factor only, in the ring's own exact scalars
(ints, Fractions, or ints reduced mod m once at the end), and builds no
RingElement.  Every check on a table goes through it, or through its
form `_pair_product` on factors given as nonzero (key, coefficient)
pairs, such as an element's own coeffs: idempotency, nilpotency,
endomorphisms, annihilator witnesses, and the covering-family sweep,
classification and idempotent-set check in idempotents.  Right
multiplication by u needs no product.  In a quandle, `_class_action`
finds t with w*u = S_t(w) from u's coefficient sums over the theta_S
classes when they are 1 on one class and 0 on the others.  Otherwise
`_basis_images` gathers each e_k u from u's pairs, and `_basis_action`
reads off sigma when every image is a basis element e_sigma(k).  `mul`,
the sparse product on RingElements, serves the carriers that have no
table: free quandles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    CarrierMismatchError,
    CompositeModulusError,
    InternalCheckError,
    InvalidParamsError,
    RingMismatchError,
)
from .core import FiniteQuandle, Frozen, MagmaTable


# Miller-Rabin on the primes up to 41 is exact below _MR_LIMIT (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    """Whether m is prime.  A modulus from _MR_LIMIT up that no base shows
    composite is refused, since its primality is not decided."""
    if m < 2 or any(m % b == 0 for b in _MR_BASES):
        return m in _MR_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d 2^s with d odd
    for b in _MR_BASES:
        # b^d, b^(2d), ..., b^(2^(s-1) d) mod m
        powers = [pow(b, (m - 1) >> (s - i), m) for i in range(s)]
        if powers[0] != 1 and m - 1 not in powers:
            return False
    if m >= _MR_LIMIT:
        raise InvalidParamsError(f"cannot decide whether the modulus {m} is prime: "
                                 f"moduli below {_MR_LIMIT} are decided exactly")
    return True


class CoeffRing(Frozen):
    """Z, Z mod m, or Q.  Composite moduli are rejected unless forced.

    `==` and hash read kind, modulus and forced only; is_domain, tag,
    characteristic, zero and one follow from them and are computed once,
    since the exact loops read them on every product."""

    __slots__ = ("kind", "modulus", "forced", "is_domain", "tag", "characteristic",
                 "zero", "one", "_hash")

    def __init__(self, kind: str, modulus: int = 0, forced: bool = False):
        if kind not in ("Z", "Zmod", "Q"):
            raise InvalidParamsError(f"unknown coefficient ring kind {kind!r}")
        if kind == "Zmod" and modulus < 2:
            raise InvalidParamsError("modulus must be >= 2")
        is_domain = kind != "Zmod" or _is_prime(modulus)
        if not is_domain and not forced:
            raise CompositeModulusError(modulus)
        object.__setattr__(self, "kind", kind)  # "Z" | "Zmod" | "Q"
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "forced", forced)
        object.__setattr__(self, "is_domain", is_domain)
        object.__setattr__(self, "tag", f"Zmod:{modulus}" if kind == "Zmod" else kind)
        object.__setattr__(self, "characteristic", modulus if kind == "Zmod" else 0)
        object.__setattr__(self, "zero", Fraction(0) if kind == "Q" else 0)
        object.__setattr__(self, "one", Fraction(1) if kind == "Q" else 1)
        object.__setattr__(self, "_hash", hash((kind, modulus, forced)))

    def _args(self) -> tuple:
        return self.kind, self.modulus, self.forced

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not CoeffRing:
            return NotImplemented
        return (self.kind == other.kind and self.modulus == other.modulus
                and self.forced == other.forced)

    def __hash__(self):
        return self._hash

    def coerce(self, value):
        if self.kind == "Q":
            return Fraction(value)
        if type(value) is not int:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise InvalidParamsError(f"{value} is not integral")
                value = value.numerator
            if isinstance(value, str):
                value = int(value)
            if not isinstance(value, int):
                raise InvalidParamsError(f"cannot coerce {value!r} into {self.tag}")
        return value % self.modulus if self.kind == "Zmod" else value

    def sum(self, values):
        """The sum of scalars of this ring, reduced once."""
        return self.coerce(sum(values, self.zero))

    def add(self, a, b):
        c = a + b
        return c % self.modulus if self.kind == "Zmod" else c

    def mul(self, a, b):
        c = a * b
        return c % self.modulus if self.kind == "Zmod" else c

    def neg(self, a):
        return (-a) % self.modulus if self.kind == "Zmod" else -a

    def div(self, a, b):
        """The unique c with c * b = a, or None when there is none or several."""
        if self.kind == "Z":
            return a // b if b and a % b == 0 else None
        if not self.invertible(b):
            return None
        return self.mul(a, pow(b, -1, self.modulus)) if self.kind == "Zmod" else Fraction(a) / b

    def invertible(self, n) -> bool:
        """Whether the image of the integer n is a unit."""
        if self.kind == "Z":
            return n in (1, -1)
        if self.kind == "Q":
            return n != 0
        return math.gcd(int(n), self.modulus) == 1

    def scalar_str(self, a) -> str:
        return str(a)

    def scalar_parse(self, s: str):
        """The scalar written s: an integer, or over Q a fraction."""
        try:
            return Fraction(s) if self.kind == "Q" else self.coerce(int(s))
        except (ValueError, ZeroDivisionError):
            raise InvalidParamsError(f"coefficient {s!r} is not in {self.tag}") from None


ZZ = CoeffRing("Z")
QQ = CoeffRing("Q")


def IntegersMod(m: int, force: bool = False) -> CoeffRing:
    return CoeffRing("Zmod", modulus=int(m), forced=force)


def _key_order(key):
    return key if isinstance(key, int) else key.sort_key()


class RingElement(Frozen):
    """Immutable finitely supported coefficient vector over basis keys.

    Keys are either quandle indices (ints) or free-quandle elements; an
    element never stores a zero coefficient and keeps its support sorted.
    Its own `==` and hash skip the record's `_args()` tuple, since sets
    of elements and the searches compare them on hot paths.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs):
        acc: dict = {}
        for key, value in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            c = ring.coerce(value)
            if key in acc:
                c = ring.add(acc[key], c)
            acc[key] = c
        pruned = [(k, c) for k, c in acc.items() if c != 0]
        pruned.sort(key=lambda kc: _key_order(kc[0]))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(pruned))

    @property
    def support(self) -> tuple:
        return tuple(k for k, _ in self.coeffs)

    def coeff(self, key):
        for k, c in self.coeffs:
            if k == key:
                return c
        return self.ring.zero

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        return RingElement(self.ring, list(self.coeffs) + list(other.coeffs))

    def __neg__(self):
        return RingElement(self.ring, [(k, self.ring.neg(c)) for k, c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        c = self.ring.coerce(scalar)
        return RingElement(self.ring, [(k, self.ring.mul(c, v)) for k, v in self.coeffs])

    def sort_key(self):
        keys = tuple(_key_order(k) for k, _ in self.coeffs)
        return (len(self.coeffs), keys, tuple(c for _, c in self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.coeffs:
            label = f"e[{k}]"
            parts.append(f"{c}*{label}" if c != 1 else label)
        return " + ".join(parts).replace("+ -", "- ")


def basis(ring: CoeffRing, key) -> RingElement:
    return RingElement(ring, [(key, ring.one)])


def zero(ring: CoeffRing) -> RingElement:
    return RingElement(ring, [])


def scalar_mul(c, u: RingElement) -> RingElement:
    return u.scale(c)


def mul(u: RingElement, v: RingElement, carrier) -> RingElement:
    """Bilinear product: e_x e_y = e_{x*y} extended over both supports."""
    if u.ring != v.ring:
        raise RingMismatchError(f"{u.ring.tag} vs {v.ring.tag}")
    contains = getattr(carrier, "contains_key", None)
    if contains is not None:
        for k in list(u.support) + list(v.support):
            if not contains(k):
                raise CarrierMismatchError(f"basis key {k!r} is not in the carrier")
    ring = u.ring
    acc: dict = {}
    for x, a in u.coeffs:
        for y, b in v.coeffs:
            key = carrier.op(x, y)
            c = ring.mul(a, b)
            if key in acc:
                acc[key] = ring.add(acc[key], c)
            else:
                acc[key] = c
    return RingElement(ring, acc)


def dense_vector(u: RingElement, n: int) -> list:
    """Coefficient list of u over the keys 0..n-1."""
    vec = [u.ring.zero] * n
    for k, c in u.coeffs:
        if not (isinstance(k, int) and 0 <= k < n):
            raise CarrierMismatchError(f"basis key {k!r} is not in the carrier")
        vec[k] = c
    return vec


def dense_product(u: list, v: list, table, ring: CoeffRing) -> list:
    """Coefficient list of u*v under e_x e_y = e_{x*y}, for coefficient
    lists u and v over the keys of the n x n table."""
    left = _nonzero(u)
    return _pair_product(left, left if v is u else _nonzero(v), table, ring)


def _nonzero(vec: list) -> list:
    return [(k, c) for k, c in enumerate(vec) if c]


def _pair_product(left: list, right: list, table, ring: CoeffRing) -> list:
    """dense_product of two factors given as their nonzero (key, coefficient) pairs."""
    out = [ring.zero] * len(table)
    for x, a in left:
        row = table[x]
        for y, b in right:
            out[row[y]] += a * b
    m = ring.characteristic
    return [c % m for c in out] if m else out


def augmentation(u: RingElement):
    """Coefficient sum; a ring map onto the coefficients for any carrier."""
    return u.ring.sum(c for _, c in u.coeffs)


def is_idempotent(u: RingElement, carrier) -> bool:
    if u.is_zero():
        return False
    if not isinstance(carrier, MagmaTable):
        return mul(u, u, carrier) == u
    vec = dense_vector(u, carrier.order)
    return _pair_product(u.coeffs, u.coeffs, carrier.table, u.ring) == vec


def _checked(u: RingElement, carrier, what: str) -> RingElement:
    """u, after an exact square shows it idempotent; a constructed or
    walked element that is not is the program's fault."""
    if not is_idempotent(u, carrier):
        raise InternalCheckError(f"{what} fails exact recheck", element=element_to_json(u))
    return u


def orbit_sum(x: int, y: int, q: FiniteQuandle, ring: CoeffRing = ZZ) -> RingElement:
    """Sum of n_y repeated images of e_x under right multiplication by y.

    The sum always has n_y terms (n_y = order of S_y), so when the orbit
    of x is shorter the coefficients pile up.
    """
    if not (0 <= x < q.order and 0 <= y < q.order):
        raise InvalidParamsError("orbit_sum indices out of range")
    s_y = q.right_mults[y]
    n_y = q.right_mult_orders[y]
    acc: dict[int, object] = {}
    point = x
    for _ in range(n_y):
        acc[point] = ring.add(acc.get(point, ring.zero), ring.one)
        point = s_y[point]
    return RingElement(ring, acc)


# ---------------------------------------------------------------------------
# matrices


class SquareMatrix(Frozen):
    """Dense exact square matrix over a coefficient ring."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: CoeffRing, entries):
        rows = tuple(tuple(ring.coerce(v) for v in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidParamsError("matrix is not square")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def apply(self, vec) -> tuple:
        n = self.size
        if len(vec) != n:
            raise InvalidParamsError("vector length mismatch")
        out = []
        for i in range(n):
            total = self.ring.zero
            for j in range(n):
                total = self.ring.add(total, self.ring.mul(self.entries[i][j], vec[j]))
            out.append(total)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "entries": [[self.ring.scalar_str(v) for v in row] for row in self.entries],
        }


def _basis_images(u: RingElement, q: FiniteQuandle | MagmaTable) -> list:
    """e_k * u for every key k, as coefficient lists: row k of the table
    gathers the coefficients of u at the keys k*y."""
    n, zero, m = q.order, u.ring.zero, u.ring.characteristic
    dense_vector(u, n)  # refuses a key outside the carrier
    images = []
    for row in q.table:
        vec = [zero] * n
        for y, c in u.coeffs:
            vec[row[y]] += c
        images.append([c % m for c in vec] if m else vec)
    return images


def _basis_action(images: list, ring: CoeffRing) -> list | None:
    """sigma with image k = e_sigma(k) for every k, or None when some
    image is not a basis element with coefficient 1 (the scan stops at
    the first such image)."""
    zero, one = ring.zero, ring.one
    sigma = []
    for vec in images:
        if vec.count(zero) != len(vec) - 1 or one not in vec:
            return None
        sigma.append(vec.index(one))
    return sigma


def right_mult_matrix(u: RingElement, q: FiniteQuandle | MagmaTable) -> SquareMatrix:
    """Matrix of w -> w*u on the basis: column k holds e_k * u."""
    return SquareMatrix(u.ring, zip(*_basis_images(u, q)))


def _class_action(u: RingElement, q: FiniteQuandle) -> int | None:
    """t when the coefficient sums of u over the theta_S classes of the
    quandle q (`FiniteQuandle.right_mult_classes`) are 1 on the class of
    t and 0 on every other class, else None.  Then e_k u = e_{k*t} for
    every k, since e_k u depends on u only through those sums: w -> w*u
    is S_t, with no image built.  The keys of u must lie in q."""
    classes, m = q.right_mult_classes, u.ring.characteristic
    sums: dict = {}
    for y, c in u.coeffs:
        t = classes[y]
        sums[t] = sums.get(t, 0) + c
    found = None
    for t, s in sums.items():
        if m:
            s %= m
        if s:
            if found is not None or s != 1:
                return None
            found = t
    return found


def is_ring_endomorphism(u: RingElement, q: FiniteQuandle) -> bool:
    """Whether w -> w*u preserves products, checked on all basis pairs:
    (e_k u)(e_l u) = e_{k*l} u.  A key outside the carrier is refused
    first.  In a quandle, when the theta_S class sums of u are 1 on the
    class of some t and 0 on the others (_class_action), w -> w*u is S_t,
    an automorphism since (x*y)*t = (x*t)*(y*t).  This is why the
    covering-family idempotents form a quandle (the paper: "the set of
    all these idempotents forms a quandle in itself").  Otherwise, and
    on a magma table, the images e_k u are built once.  Where both
    e_k u = e_s and e_l u = e_t are basis elements the pair is the integer
    compare of sigma(k*l) with s*t, and only the pairs that touch another
    image are multiplied out."""
    dense_vector(u, q.order)  # refuses a key outside the carrier
    if q.is_quandle and _class_action(u, q) is not None:
        return True
    table = q.table
    image = _basis_images(u, q)
    one = u.ring.one
    nonzero = [_nonzero(vec) for vec in image]
    sigma = [pairs[0][0] if len(pairs) == 1 and pairs[0][1] == one else None for pairs in nonzero]
    for k, row in enumerate(table):
        s = sigma[k]
        for l, kl in enumerate(row):
            t = sigma[l]
            if s is not None and t is not None:
                if sigma[kl] != table[s][t]:
                    return False
            elif _pair_product(nonzero[k], nonzero[l], table, u.ring) != image[kl]:
                return False
    return True


def kernel_vector(m: SquareMatrix):
    """A nonzero vector in the kernel, exact, or None if the kernel is 0.

    Gauss-Jordan elimination over a field: Z/p on residues, Z and Q on
    Fractions.  The vector has 1 at the first free column and 0 at the
    other free columns; over Z and Q it is then scaled to a primitive
    integer vector whose first nonzero entry is positive.
    """
    ring = m.ring
    if not ring.is_domain:
        raise InvalidParamsError("kernel over a non-domain modulus is not supported")
    field = ring if ring.kind == "Zmod" else QQ
    rows = [[field.coerce(v) for v in row] for row in m.entries]
    n = m.size
    pivots: list[int] = []  # pivot column of each reduced row, in row order
    for col in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pr is None:
            continue
        pivot = rows[pr][col]
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [field.div(v, pivot) for v in rows[r]]
        for i in range(n):
            f = rows[i][col]
            if i != r and f != 0:
                rows[i] = [field.add(v, field.neg(field.mul(f, w)))
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    vec = [field.zero] * n
    vec[free] = field.one
    for row, col in enumerate(pivots):
        vec[col] = field.neg(rows[row][free])
    if ring.kind == "Zmod":
        return tuple(vec)
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(ring.coerce(v // g) for v in ints)


def has_nontrivial_right_annihilator(v: RingElement, q: FiniteQuandle | MagmaTable):
    """Decide whether some nonzero w satisfies w*v = 0; return (answer, witness).

    Over the integers the witness is scaled to a primitive integer vector.
    The witness is re-verified by an actual product before returning.
    """
    m = right_mult_matrix(v, q)
    vec = kernel_vector(m)
    if vec is None:
        return False, None
    witness = RingElement(v.ring, _nonzero(vec))
    if any(dense_product(vec, dense_vector(v, q.order), q.table, v.ring)):
        raise InternalCheckError(
            "annihilator witness does not annihilate", element=element_to_json(witness)
        )
    return True, witness


# ---------------------------------------------------------------------------
# serialization


def key_to_json(key):
    return key if isinstance(key, int) else str(key)


def element_to_json(u: RingElement) -> dict:
    return {
        "ring": u.ring.tag,
        "coeffs": [[key_to_json(k), u.ring.scalar_str(c)] for k, c in u.coeffs],
    }


def ring_from_tag(tag: str, force: bool = False) -> CoeffRing:
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and tag.startswith("Zmod:"):
        modulus = tag.split(":", 1)[1]
        try:
            return IntegersMod(int(modulus), force=force)
        except ValueError:
            raise InvalidParamsError(f"modulus must be an integer, got {modulus!r}") from None
    raise InvalidParamsError(f"unknown ring tag {tag!r}")


def element_from_json(doc: dict) -> RingElement:
    if not isinstance(doc, dict):
        raise InvalidParamsError(f"element document must be an object, got {type(doc).__name__}")
    ring = ring_from_tag(doc["ring"])
    coeffs = doc["coeffs"]
    if not isinstance(coeffs, (list, tuple)):
        raise InvalidParamsError(f"coeffs must be a list of [key, coefficient] pairs: {coeffs!r}")
    pairs = []
    for entry in coeffs:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidParamsError(f"expected a [key, coefficient] pair, got {entry!r}")
        key, coeff = entry
        if not isinstance(key, int) or isinstance(key, bool):
            raise InvalidParamsError(f"expected integer basis key, got {key!r}")
        pairs.append((key, ring.scalar_parse(str(coeff))))
    return RingElement(ring, pairs)
