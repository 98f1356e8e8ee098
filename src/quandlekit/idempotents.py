"""Idempotent searches, covering-derived families, and cross-checks.

Enumerations are exhaustive for a scope derived from the ring and the
bound: a modulus, or an integer coefficient box.  The augmentation
k[X] -> k is a ring map, so an idempotent's coefficient sum is an
idempotent of k: 0 or 1 over a domain, the only strata swept there; a
forced composite modulus sweeps every stratum.

The sweep goes through a quotient.  A congruence of the table gives a
surjective hom X -> Y whose linear extension k[X] -> k[Y] is a ring map
keeping the augmentation, so every idempotent in scope lies over 0 or
over an idempotent of k[Y] in the same strata.  The search finds those
on the quotient table first, then sweeps only the vectors whose sum over
each fiber matches one of them.  Augmentation strata are the quotient to
one point.  In a quandle every right multiplication is an automorphism:
it permutes the fibers, the targets and their lifts, so only one target
per orbit under the group they generate is swept.  A support-capped
search over Z whose support window is smaller than the box walks the
supports instead (_support_search), one per orbit under the same group.
candidates_tested still counts the in-box vectors of the declared scope,
not the vectors the sweep or the walk evaluates.  Both run in
_search_kernel; this module plans them and rechecks every result exactly.

Each family built from structure (coverings, of which the even dihedral
family is one, and unions) has one builder; membership is a round trip:
read the parameters off u, rebuild, compare.  Every element a public
builder returns is re-checked by exact multiplication.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

from . import _search_kernel
from .core import (
    Covering,
    FiniteQuandle,
    Frozen,
    MagmaTable,
    QuandleHom,
    Record,
    check_covering,
    congruences,
    core_quandle,
    dihedral_quandle,
    doc_int,
    fields_json,
    inner_generators,
    orbits,
    perm_cycles,
    perm_inverse,
    properties,
    quotient_table,
    union_quandle,
    twisted_union_quandle,
    union_offsets,
)
from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    ConstraintViolatedError,
    HypothesisFailedError,
    InternalCheckError,
    InvalidParamsError,
    NotIdempotentInputError,
    NotNilpotentError,
    QuandleKitError,
    RingMismatchError,
)
from .reports import IdempotentReport
from .ring import (
    CoeffRing,
    IntegersMod,
    RingElement,
    ZZ,
    _basis_action,
    _basis_images,
    _checked,
    _class_action,
    _pair_product,
    _squares_to_itself,
    _unit_class,
    augmentation,
    dense_product,
    dense_vector,
    element_to_json,
    is_idempotent,
    right_mult_matrix,
    ring_from_tag,
)


class SearchSpec(Frozen):
    """Scope of an enumeration: the ring, a coefficient box over Z (None:
    every residue of Z/p) and a support cap (None: unrestricted).  The
    declared strata follow from the ring: 0 and 1 over a domain, every
    one (None) otherwise; the kernel's mode and parameter from the box."""

    __slots__ = ("ring", "box_bound", "max_support")

    def __init__(self, ring: CoeffRing, box_bound: int | None = None,
                 max_support: int | None = None):
        if max_support is not None and max_support < 1:
            raise InvalidParamsError("max_support must be >= 1")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "box_bound", box_bound)
        object.__setattr__(self, "max_support", max_support)

    @property
    def augmentation(self) -> tuple[int, ...] | None:
        return (0, 1) if self.ring.is_domain else None

    @property
    def mode(self) -> str:
        return "zp" if self.box_bound is None else "zbox"

    @property
    def param(self) -> int:
        return self.ring.modulus if self.box_bound is None else self.box_bound

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "box_bound": self.box_bound,
            "max_support": "all" if self.max_support is None else self.max_support,
            "augmentation": "any" if self.augmentation is None else list(self.augmentation),
        }


# A kernel call costs about as much as this many indices on top of them
# (numpy's per-operation overhead on tiny batches, measured on the same
# host), so a quotient is not worth many small sweeps.
SWEEP_COST = 1 << 10


def _declared_count(n: int, spec: SearchSpec) -> int:
    """In-box vectors of the declared scope: those of the box, or of
    (Z/p)^n, whose coefficient sum lies in a stratum, counted per stratum."""
    strata, param = spec.augmentation, spec.param
    if strata is None:
        return _search_kernel.space_size(n, spec.mode, param, 0)
    if spec.mode == "zp":
        return len(strata) * param ** (n - 1)
    return sum(_box_sum_count(n, param, s) for s in strata)


def _box_sum_count(n: int, bound: int, s: int) -> int:
    """Vectors in [-bound, bound]^n with coefficient sum s.

    Shifted to coefficients in [0, 2 bound] the sum is s + n bound; count
    by stars and bars with inclusion-exclusion over the j coefficients
    forced past the top of the box.  Exact for any bound, where a DP over
    the sums would need n * 2 bound + 1 cells.
    """
    shifted = s + n * bound
    width = 2 * bound + 1
    total = 0
    for j in range(n + 1):
        rest = shifted - j * width
        if rest < 0:
            break
        total += (-1) ** j * math.comb(n, j) * math.comb(rest + n - 1, n - 1)
    return total


def _known_idempotents(table, spec: SearchSpec) -> int:
    """A lower bound, found without a search, on the nonzero idempotents of
    augmentation 1 in scope.

    On a trivial sub-magma S (s*t = s for all s, t in S) every vector of
    augmentation 1 is idempotent: u*u = sum_s u_s (sum_t u_t) e_s = u.
    S is grown greedily; the vectors on its first max_support keys count,
    and so does e_y for every other y with y*y = y.
    """
    n, max_support = len(table), spec.max_support
    block: list[int] = []
    for y in range(n):
        if table[y][y] == y and all(table[s][y] == s and table[y][s] == y for s in block):
            block.append(y)
    m = min(n if max_support is None else max_support, len(block))
    if m < 1:
        return 0
    on_block = spec.param ** (m - 1) if spec.mode == "zp" else _box_sum_count(m, spec.param, 1)
    return on_block + sum(1 for y in range(n) if table[y][y] == y) - m


def _sweep_plan(carrier, spec: SearchSpec, budget: int, jobs: int, direct: list,
                space: int) -> list:
    """The fiber-sum constraints to sweep: one tuple of (keys, target) pairs
    per sweep, in a fixed order.

    A congruence gives a surjective hom f: X -> Y, and its linear
    extension k[X] -> k[Y] is a ring map that keeps the augmentation.  So
    every idempotent u in scope maps to 0 or to an idempotent of k[Y] in
    the same strata, inside the box max|fiber| * B over Z; the same search
    on the quotient table finds those, and each one (0 first; every scope
    holds the strata 0 and 1) fixes the coefficient sum of u over every
    fiber.
    The quotient taken has the fewest free digits per target, ties broken
    by the sorted partition, among those whose own search is no larger
    than the direct sweep of `space` indices per entry of `direct`.  Its
    targets may cost no more than that sweep (SWEEP_COST per kernel
    call): the quotient is dropped, with no search, when the idempotents
    known without one are already too many, and its search is abandoned
    as soon as its kernel finds too many.  Then the direct sweep is kept.
    The caller sweeps one entry per orbit under Inn(X) (_target_orbits);
    the choice here still prices every entry of the plan.
    """
    n, mode, param = carrier.order, spec.mode, spec.param
    cost = len(direct) * (space + SWEEP_COST)
    proper = [c for c in congruences(carrier) if len(c) > 1]
    for partition in sorted(proper, key=lambda c: (-len(c), c)):
        k = len(partition)
        base_spec = spec if mode == "zp" else SearchSpec(
            spec.ring, param * max(map(len, partition)), spec.max_support)
        if _search_kernel.space_size(k, mode, base_spec.param, len(direct[0])) > space:
            continue
        # the quotient of a quandle is a quandle, so its own search gets generators
        quotient = (FiniteQuandle if carrier.is_quandle else MagmaTable)(
            quotient_table(carrier, partition))
        # the most nonzero targets whose sweeps still cost less than the direct one
        sweep = _search_kernel.space_size(n, mode, param, k)
        limit = cost // (sweep + SWEEP_COST) - 1
        if _known_idempotents(quotient.table, base_spec) > limit:
            break
        base = _enumerate_table(quotient, base_spec, budget, jobs, max_hits=limit)
        if base is None:
            break
        targets = [(0,) * k] + [tuple(u.coeff(y) for y in range(k)) for u in base.idempotents]
        return [tuple(zip(partition, v)) for v in targets]
    return direct


def _target_orbits(plan: list, gens, n: int) -> list:
    """The plan's entries in orbits under gens, permutations of the n keys:
    one (representative, members) pair per orbit, in plan order, members
    a list of (entry, inverse of g) for g a product of gens carrying the
    representative to the entry, the representative first.

    An automorphism g of the table maps the blocks of a congruence to
    blocks and, extended linearly, idempotents to idempotents with the
    same coefficients on the image keys.  So the idempotents over entry
    g(t) are the images under g of those over t, and one sweep per orbit
    finds them all.  With no gens every entry is its own orbit.
    """
    def act(h, entry):
        return tuple(sorted((tuple(sorted(h[x] for x in keys)), target) for keys, target in entry))

    plan_orbits = orbits(plan, gens, n, act)
    entries = set(plan)
    stray = [entry for orbit in plan_orbits for entry, _ in orbit if entry not in entries]
    if stray:
        raise InternalCheckError(
            f"a table automorphism maps a sweep target outside the plan: {stray[0]}"
        )
    return [(orbit[0][0], [(entry, perm_inverse(g)) for entry, g in orbit])
            for orbit in plan_orbits]


def _walks_supports(spec: SearchSpec, n: int, indices: int) -> bool:
    """Whether a table search walks supports (_support_search) instead of
    sweeping the box through the kernel.

    Only a support-capped search over Z can: the walk's non-cancellation
    rule needs an integral domain, and its coefficient-sum filter is the Z
    strata 0 and 1.  It does when the walk declares fewer (support,
    coefficient tuple) pairs (_support_tuples) than the direct sweep has
    `indices`: the two counts the two paths are priced by, with no
    constant between them.  The walk prunes most of its pairs and the
    kernel sweeps a quotient, so the rule is a proxy.  Measured on a
    2-core host (numpy loaded, best of 7 calls), it picks the faster path
    far from the crossover: with B = 2 and support <= 3, r10 walks in
    0.6 ms against 2.5 ms and blocks12 in 5 ms against 17 ms, and R_13
    with B = 1 in 0.4 ms against 141 ms; r10 with support <= 9 sweeps in
    12 ms against 893 ms, blocks12 with support <= 11 in 19 ms against
    18 s.  It loses near half the order: r10 B = 2 with support <= 5
    walks in 11 ms where the kernel takes 5.7 ms.
    """
    return (spec.mode == "zbox" and spec.max_support is not None
            and _search_kernel._support_tuples(n, spec.param, spec.max_support, limit=indices) < indices)


def _enumerate_table(
    carrier: FiniteQuandle | MagmaTable,
    spec: SearchSpec,
    budget: int,
    jobs: int,
    max_hits: int | None = None,
) -> IdempotentReport | None:
    """The report of one search; None, before any recheck, once more than
    max_hits idempotents are found.

    A worker count below 1 is refused first; then the budget and the
    kernel's index limit are checked on the direct sweep, whichever path
    then runs.  A support-capped search over Z that _walks_supports
    takes _support_search on the table, with the Inn(X) generators of a
    quandle (none for a magma table); every other search sweeps the
    quotient plan (_sweep_plan) through the kernel, one target per
    Inn(X)-orbit.  Both paths end in _checked_report.
    """
    if jobs < 1:
        raise InvalidParamsError(f"jobs must be >= 1, got {jobs}")
    start = time.monotonic()
    n, mode, param = carrier.order, spec.mode, spec.param
    # the direct sweep: one block of all keys per augmentation stratum
    strata = spec.augmentation
    direct = [()] if strata is None else [((tuple(range(n)), s),) for s in strata]
    space = _search_kernel.space_size(n, mode, param, len(direct[0]))
    if space * len(direct) > budget:
        raise BudgetExceededError(space * len(direct), budget)
    if space >= _search_kernel.INDEX_LIMIT:
        # kernel indices are int64; refuse before any chunk is built
        raise BudgetExceededError(space, _search_kernel.INDEX_LIMIT - 1, what="indices per stratum")
    max_support = n if spec.max_support is None else min(spec.max_support, n)
    if _walks_supports(spec, n, space * len(direct)):
        found = _search_kernel._support_search(carrier.table, param, max_support,
                                               gens=inner_generators(carrier))
        if max_hits is not None and len(found) > max_hits:
            return None
        # no fiber-sum targets: the walk sweeps no plan
        hits = {tuple(dict(u).get(x, 0) for x in range(n)): () for u in found}
        return _checked_report(carrier, spec, hits, start)
    plan = _sweep_plan(carrier, spec, budget, jobs, direct, space)
    # one sweep per orbit of the plan under Inn(X); its hits are mapped to the other members
    plan_orbits = _target_orbits(plan, inner_generators(carrier), n)
    # each distinct hit, with the fibers it lies over, in kernel order
    hits: dict[tuple[int, ...], tuple] = {}
    for i, vecs in _search_kernel.run(carrier.table, mode, param, max_support,
                                      [fibers for fibers, _ in plan_orbits], jobs):
        for vec in vecs:
            for fibers, g_inverse in plan_orbits[i][1]:
                hits.setdefault(tuple(map(vec.__getitem__, g_inverse)), fibers)
        if max_hits is not None and len(hits) > max_hits:
            return None
    return _checked_report(carrier, spec, hits, start)


def _checked_report(carrier, spec: SearchSpec, hits: dict, start: float) -> IdempotentReport:
    """The report of a search's hits, each vector mapped to the (keys,
    target) fiber sums it was swept on, after an exact recheck of every
    hit: idempotent, augmentation 0 or 1 where the strata are, and on its
    fiber-sum targets."""
    n, ring, mode, param = carrier.order, spec.ring, spec.mode, spec.param
    strata, max_support = spec.augmentation, spec.max_support
    found: list[RingElement] = []
    for vec, fibers in hits.items():
        u = RingElement(ring, list(enumerate(vec)))
        # exact re-verification of every hit
        if not is_idempotent(u, carrier):
            raise InternalCheckError(f"search hit fails exact recheck: {vec}", vector=list(vec))
        if strata is not None and augmentation(u) not in (ring.zero, ring.one):
            raise InternalCheckError(
                f"search hit has augmentation not 0 or 1: {vec}", vector=list(vec)
            )
        for keys, target in fibers:
            miss = sum(vec[k] for k in keys) - target
            if miss % param if mode == "zp" else miss:
                raise InternalCheckError(
                    f"kernel hit misses its fiber-sum target {target} on {list(keys)}: {vec}",
                    vector=list(vec),
                )
        found.append(u)
    flags = []
    if not carrier.is_quandle:
        flags.append("not a quandle")
    if mode == "zbox":
        flags.append(f"complete within |coefficient| <= {param}; nothing claimed outside the box")
    if ring.invertible(n):
        flags.append("|X| invertible in k")
    if ring.kind == "Zmod" and ring.modulus == 2:
        flags.append("two-element coefficient ring")
    if not ring.is_domain:
        flags.append("non-domain coefficients")
    if max_support is not None and max_support < n:
        flags.append(f"support limited to <= {max_support} basis elements")
    elapsed = int((time.monotonic() - start) * 1000)
    return IdempotentReport(
        quandle=carrier.name or f"order-{n}",
        order=n,
        spec=spec.to_json(),
        idempotents=found,
        exhaustive=True,
        flags=flags,
        candidates_tested=_declared_count(n, spec),
        elapsed_ms=elapsed,
    )


def enumerate_mod_p(
    carrier: FiniteQuandle | MagmaTable,
    p: int,
    max_support: int | None = None,
    *,
    budget: int = 10**8,
    jobs: int = 1,
    force: bool = False,
) -> IdempotentReport:
    """Every idempotent of the mod-p quandle ring; a composite p needs force."""
    ring = IntegersMod(p, force=force)
    return _enumerate_table(carrier, SearchSpec(ring, None, max_support), budget, jobs)


def enumerate_boxed_Z(
    carrier: FiniteQuandle | MagmaTable,
    bound: int,
    max_support: int | None = None,
    *,
    budget: int = 10**8,
    jobs: int = 1,
) -> IdempotentReport:
    """Every integer idempotent with all coefficients in [-bound, bound].

    With max_support, only those on at most that many basis elements.
    Such a search walks supports by Inn(X)-orbits (_support_search) when
    that declares fewer (support, coefficient tuple) pairs than the box
    sweep has kernel indices (_walks_supports), and sweeps the box
    otherwise; both give the same report.
    """
    if bound < 1:
        raise InvalidParamsError("bound must be >= 1")
    return _enumerate_table(carrier, SearchSpec(ZZ, bound, max_support), budget, jobs)


def _enumerate(carrier, modulus, bound, max_support, budget: int, jobs: int) -> IdempotentReport:
    """The search modulo `modulus` if it is given, else in the box `bound`."""
    if modulus is not None:
        return enumerate_mod_p(carrier, modulus, max_support, budget=budget, jobs=jobs)
    if bound is None:
        raise InvalidParamsError("need a modulus or a box bound")
    return enumerate_boxed_Z(carrier, bound, max_support, budget=budget, jobs=jobs)


# ---------------------------------------------------------------------------
# covering families


class CoveringFamilyParams(Frozen):
    """Structure data for one covering-derived idempotent.

    unit_coeffs assigns coefficients summing to 1 inside the fiber over
    unit_fiber; base_point is a member of that support whose right
    multiplication drives the orbit sums; zero_sum_coeffs assigns, per
    codomain index, fiber coefficients summing to 0.
    """

    __slots__ = ("ring", "unit_fiber", "base_point", "unit_coeffs", "zero_sum_coeffs")

    def __init__(self, ring: CoeffRing, unit_fiber: int, base_point: int,
                 unit_coeffs: tuple[tuple[int, object], ...],
                 zero_sum_coeffs: tuple[tuple[int, tuple[tuple[int, object], ...]], ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "unit_fiber", unit_fiber)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "unit_coeffs", unit_coeffs)
        object.__setattr__(self, "zero_sum_coeffs", zero_sum_coeffs)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "unit_fiber": self.unit_fiber,
            "base_point": self.base_point,
            "unit_coeffs": [[x, self.ring.scalar_str(c)] for x, c in self.unit_coeffs],
            "zero_sum_coeffs": [
                [y, [[x, self.ring.scalar_str(c)] for x, c in pairs]]
                for y, pairs in self.zero_sum_coeffs
            ],
        }


def covering_family_params(
    covering: Covering,
    ring: CoeffRing,
    unit_fiber: int,
    unit_coeffs: dict,
    base_point: int,
    zero_sum_coeffs: dict | None = None,
) -> CoveringFamilyParams:
    """Validate and freeze family parameters against the covering."""
    fibers = covering.fibers
    if unit_fiber not in fibers:
        raise ConstraintViolatedError(f"{unit_fiber} is not a codomain index")
    unit_pairs = tuple(sorted((int(x), ring.coerce(c)) for x, c in unit_coeffs.items()))
    if not unit_pairs:
        raise ConstraintViolatedError("unit part must be nonempty")
    for x, _ in unit_pairs:
        if x not in fibers[unit_fiber]:
            raise ConstraintViolatedError(f"{x} is not in the fiber over {unit_fiber}")
    total = ring.sum(c for _, c in unit_pairs)
    if total != ring.one:
        raise ConstraintViolatedError(f"unit coefficients sum to {total}, need 1")
    if base_point not in {x for x, _ in unit_pairs}:
        raise ConstraintViolatedError(f"base point {base_point} is outside the unit support")
    frozen = []
    for y, coeffs in sorted((zero_sum_coeffs or {}).items()):
        if y not in fibers:
            raise ConstraintViolatedError(f"{y} is not a codomain index")
        pairs = tuple(sorted((int(x), ring.coerce(c)) for x, c in coeffs.items()))
        for x, _ in pairs:
            if x not in fibers[y]:
                raise ConstraintViolatedError(f"{x} is not in the fiber over {y}")
        s = ring.sum(c for _, c in pairs)
        if s != ring.zero:
            raise ConstraintViolatedError(f"coefficients over {y} sum to {s}, need 0")
        if pairs:
            frozen.append((int(y), pairs))
    return CoveringFamilyParams(ring, int(unit_fiber), int(base_point), unit_pairs, tuple(frozen))


def family_params_from_json(covering: Covering, doc: dict) -> CoveringFamilyParams:
    ring = ring_from_tag(doc["ring"])

    def coeffs(pairs) -> dict:
        return {doc_int(x, "a point"): ring.scalar_parse(str(c)) for x, c in pairs}

    try:
        unit = coeffs(doc["unit_coeffs"])
        zs = {doc_int(y, "a fiber"): coeffs(pairs) for y, pairs in doc.get("zero_sum_coeffs", [])}
        unit_fiber, base_point = (doc_int(doc[k], k) for k in ("unit_fiber", "base_point"))
    except (TypeError, ValueError):
        raise InvalidParamsError(
            "family parameters need integer points and fibers, and [point, coefficient] pairs"
        ) from None
    return covering_family_params(covering, ring, unit_fiber, unit, base_point, zs)


def _family_vector(covering: Covering, params: CoveringFamilyParams) -> list:
    """Coefficient list of the family element: the unit part plus the
    scaled orbit sums."""
    domain = covering.hom.domain
    ring = params.ring
    vec = [ring.zero] * domain.order
    for x, c in params.unit_coeffs:
        vec[x] += c
    sigma = domain.right_mults[params.base_point]
    for _, pairs in params.zero_sum_coeffs:
        for x, a in pairs:
            for _ in range(domain.right_mult_orders[params.base_point]):
                vec[x] += a
                x = sigma[x]
    m = ring.characteristic
    return [c % m for c in vec] if m else vec


def covering_idempotent(covering: Covering, params: CoveringFamilyParams) -> RingElement:
    """Assemble the family element; the result is checked idempotent."""
    u = RingElement(params.ring, list(enumerate(_family_vector(covering, params))))
    return _checked(u, covering.hom.domain, "family element")


class FamilyVerifyReport(Record):
    __slots__ = ("verified", "structures", "cases", "failures", "notes")

    def __init__(self, verified: bool, structures: int, cases: int,
                 failures: list | None = None, notes: list | None = None):
        self.verified = verified
        self.structures = structures
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    to_json = fields_json


# the per-coefficient grid that the report's case count and note are taken over
_GRID = (-1, 0, 1)


def covering_family_verify(
    covering: Covering,
    ring: CoeffRing = ZZ,
    max_j: int = 2,
    budget: int = 10**6,
) -> FamilyVerifyReport:
    """Certify the family for every structural choice, linearly.

    Structural choices: every subset J of the codomain with |J| <= max_j,
    every unit fiber, every base point x0, full fibers throughout.  A case
    is u(a) = e + sum_t a_t d_t, e the unit fiber's last point and a_t on
    the grid _GRID: d_t is the orbit sum of t minus that of its fiber's
    last point, or e_t - e_last on the unit fiber.  The report counts the
    structures and the cases, and its note says what the grid shows.

    The counts come first, in closed form: a structure has g^(free
    slots) cases, g = len(_GRID), so summed over J and y0 they factor
    into elementary symmetric sums of the fiber weights g^(|y| - 1).

    u u = sum_C s_C S_C u over the theta_S classes C (x ~ y iff S_x =
    S_y), s the class sums of u.  So every u(a) is idempotent, for every
    value of a and over every ring, when e has class sums 1 on x0's class
    and 0 elsewhere, each d_t has zero class sums, and S_x0 fixes e and
    each d_t (_fixed_mass).  x0 enters only through S_x0, so the orbit
    verdicts are taken once per (fiber, theta_S class), and a fiber's
    unit verdict once, at the one class the fiber lies in.  On a covering
    every verdict holds, since S_x0 permutes the fibers; they are the
    function's exact self-check, and one that fails raises
    InternalCheckError naming its fiber and class.
    """
    if not isinstance(covering, Covering):
        raise TypeError("covering_family_verify needs a Covering, not a bare hom")
    if max_j < 0:
        raise InvalidParamsError("max_j must be >= 0")
    note = _grid_note(ring, _GRID)
    fibers = covering.fibers
    # count[s] and weight[s] are the elementary symmetric sums e_s of the
    # fiber weights 1 and g^(|y| - 1), each fiber added by a downward pass
    g = len(_GRID)
    count, weight = [1] + [0] * max_j, [1] + [0] * max_j
    for w in (g ** (len(f) - 1) for f in fibers.values()):
        for s in range(max_j, 0, -1):
            count[s] += count[s - 1]
            weight[s] += weight[s - 1] * w
    structures = sum(count) * sum(len(f) for f in fibers.values())
    cases = sum(weight) * sum(len(f) * g ** (len(f) - 1) for f in fibers.values())
    if cases > budget:
        raise BudgetExceededError(cases, budget)
    domain, images = covering.hom.domain, covering.hom.images
    cycles, orders = domain.right_mult_cycles, domain.right_mult_orders
    classes = domain.right_mult_classes
    m = ring.characteristic

    def orbit_sum(x: int, z: int) -> list:
        """The orbit sum of x under S_z minus that of its fiber's last point."""
        vec = [0] * domain.order
        for point, sign in ((x, 1), (fibers[images[x]][-1], -1)):
            cycle = next(c for c in cycles[z] if point in c)
            for k in cycle:
                vec[k] += sign * (orders[z] // len(cycle))
        return vec

    def unit_part(x: int, last: int) -> list:
        """e_x - e_last, or e = e_last when x is last."""
        vec = [0] * domain.order
        vec[x] += 1
        if x != last:
            vec[last] -= 1
        return vec

    # (fiber, class, [(direction, class-sum mass)]): the orbit directions
    # at every class, and e with the unit directions at the fiber's class
    verdicts = [(y, c, [(orbit_sum(x, c), 0) for x in fibers[y][:-1]])
                for y in sorted(fibers) for c in sorted(set(classes))] if max_j else []
    verdicts += [(y, classes[f[-1]], [(unit_part(x, f[-1]), int(x == f[-1])) for x in f])
                 for y, f in sorted(fibers.items())]
    for y, c, directions in verdicts:
        if not all(_fixed_mass(vec, c, domain, m, mass) for vec, mass in directions):
            raise InternalCheckError(f"the family over fiber {y} fails its certificate "
                                     f"at theta_S class {c}", fiber=y, theta_class=c)
    return FamilyVerifyReport(True, structures, cases, notes=[note])


def _fixed_mass(vec: list, x0: int, q: FiniteQuandle, m: int, mass: int) -> bool:
    """Whether S_x0 fixes the integer list vec and its sums over the
    theta_S classes are mass on the class of x0 and 0 on every other
    class, all mod m when m is nonzero."""
    if m:
        vec = [c % m for c in vec]
    classes = q.right_mult_classes
    sums = [0] * len(vec)
    for k, c in enumerate(vec):
        sums[classes[k]] += c
    sums[classes[x0]] -= mass
    invariant = [vec[k] for k in q.right_mults[x0]] == vec
    return invariant and not any(c % m if m else c for c in sums)


def _grid_note(ring: CoeffRing, grid) -> str:
    """What vanishing on the grid shows, by the degree argument: the
    defect u^2 - u has degree <= 2 in each free coefficient, so over a
    domain it vanishes for every value once it vanishes on 3 distinct
    values per coefficient, and a grid that takes every value of the ring
    shows the same directly.  The linear certificate of
    covering_family_verify holds for every value over every ring; this
    text stays as it is, since the CLI golden of family-verify pins it."""
    shown = "grid {" + ",".join(str(g) for g in grid) + "} per free coefficient"
    values = {ring.coerce(g) for g in grid}
    if ring.is_domain and len(values) >= 3:
        return (f"{shown} certifies all coefficient values: "
                "the idempotency defect is polynomial of degree <= 2 in each free coefficient")
    if ring.kind == "Zmod" and len(values) == ring.modulus:
        return f"{shown} certifies all coefficient values: it takes every value of {ring.tag}"
    return (f"{shown} checks only the grid points: certifying all coefficient values "
            "needs 3 distinct values over a domain or every value of the ring, "
            "since the defect has degree <= 2 in each free coefficient")


class ClassifyResult(Record):
    __slots__ = ("in_family", "params", "reason", "flags")

    def __init__(self, in_family: bool, params: CoveringFamilyParams | None = None,
                 reason: str | None = None, flags: list | None = None):
        self.in_family = in_family
        self.params = params
        self.reason = reason
        self.flags = [] if flags is None else flags

    to_json = fields_json


def covering_classify(u: RingElement, covering: Covering) -> ClassifyResult:
    """Decompose an idempotent into unit part plus orbit sums, if possible.

    One pass over u's pairs builds its coefficient list (refusing a key
    outside the domain), fiber sums and theta_S class sums; the class
    sums give is_idempotent's test.  u = v + w, w the part over the one
    unit-mass fiber y0 and x0 its first point; v is read off the cycles
    of S_x0 outside y0's fiber (covering.orbit_plans).

    v w = sum_C s_C S_C v over the theta_S classes C, s the class sums of
    w.  On a covering y0's fiber lies in x0's class, so u's class sums are
    1 there, and the idempotency test u u = S_x0 u = u shows u, and so v,
    S_x0-invariant, since S_x0 maps y0's fiber to itself (y0 y0 = y0).
    Then v w = S_x0 v = v and v is constant on each cycle of S_x0, and
    one coefficient per cycle is read.  Rebuilding u from the parameters
    (_family_vector) is their check.

    The family is a sublattice of the unit-mass idempotents: an orbit of
    S_x0 shorter than its order n_x0 carries multiples of n_x0 / |orbit|
    only.  On R_3 + T_2 over R_3 + T_1, e_0 + e_3 - e_4 is idempotent, but
    S_0 has order 2 and fixes 3, so the orbit multiplicity does not divide
    the orbit coefficient.
    """
    domain, images = covering.hom.domain, covering.hom.images
    ring, n, classes = u.ring, domain.order, domain.right_mult_classes
    zero, one, m = ring.zero, ring.one, ring.characteristic
    flags = ["codomain ring assumed, not certified, to have only trivial idempotents"]

    def refused(reason: str) -> ClassifyResult:
        return ClassifyResult(False, reason=reason, flags=flags)

    vec = [zero] * n
    fiber_sum = [zero] * covering.hom.codomain.order
    class_sum: dict = {}
    for x, c in u.coeffs:
        if not (isinstance(x, int) and 0 <= x < n):
            raise CarrierMismatchError(f"basis key {x!r} is not in the carrier")
        vec[x] = c
        fiber_sum[images[x]] += c
        class_sum[classes[x]] = class_sum.get(classes[x], 0) + c
    t = _unit_class(class_sum, m)
    if not _squares_to_itself(u, vec, t, domain):
        raise NotIdempotentInputError("element is not idempotent (its square differs)")
    if m:
        fiber_sum = [s % m for s in fiber_sum]
    if fiber_sum.count(zero) != len(fiber_sum) - 1 or one not in fiber_sum:
        return refused("fiber sums are not a single unit mass")
    y0 = fiber_sum.index(one)
    w = tuple([(x, vec[x]) for x in covering.fibers[y0] if vec[x]])
    x0 = w[0][0]
    groups: dict[int, dict[int, object]] = {}
    for orbit, multiplicity, y_star, rep in covering.orbit_plans[x0]:
        c = vec[orbit[0]]
        if c == zero:
            continue
        a = c if multiplicity == 1 else ring.div(c, multiplicity)
        if a is None:
            return refused("orbit multiplicity does not divide the orbit coefficient")
        groups.setdefault(y_star, {})[rep] = a
    zero_sums = []
    for y, reps in sorted(groups.items()):
        if ring.sum(reps.values()) != zero:
            return refused("orbit multipliers do not cancel over a fiber class")
        zero_sums.append((y, tuple(sorted(reps.items()))))
    # built by construction; the round trip to u proves the decomposition
    params = CoveringFamilyParams(ring, y0, x0, w, tuple(zero_sums))
    if _family_vector(covering, params) != vec:
        raise InternalCheckError("classification failed to round-trip", element=element_to_json(u))
    return ClassifyResult(True, params=params, flags=flags)


# ---------------------------------------------------------------------------
# even dihedral family


@functools.cache
def _dihedral_covering(n: int) -> Covering:
    """The covering R_2n -> R_n, x -> x mod n, built and validated once per n."""
    r2n = dihedral_quandle(2 * n)
    return check_covering(QuandleHom(r2n, dihedral_quandle(n), [x % n for x in range(2 * n)]))


def dihedral_even_family(n: int, j: int, beta, alphas, ring: CoeffRing = ZZ) -> RingElement:
    """The covering family of R_2n -> R_n, n odd, with unit fiber and
    base point j: beta e_j + (1 - beta) e_{n+j} plus, for i = 0..(n-1)/2,
    the zero sum alpha_i e_i - alpha_i e_{n+i}.  covering_idempotent's
    exact recheck is the check of these parameters.
    """
    if n < 1 or n % 2 == 0:
        raise InvalidParamsError("n must be odd")
    if not 0 <= j < n:
        raise InvalidParamsError(f"j must be in [0, {n})")
    alphas = list(alphas)
    if len(alphas) != (n + 1) // 2:
        raise InvalidParamsError(f"need {(n + 1) // 2} alpha values, got {len(alphas)}")
    beta = ring.coerce(beta)
    unit = ((j, beta), (n + j, ring.add(ring.one, ring.neg(beta))))
    zero_sums = tuple((i, ((i, a), (n + i, ring.neg(a)))) for i, a in enumerate(map(ring.coerce, alphas)))
    return covering_idempotent(_dihedral_covering(n), CoveringFamilyParams(ring, j, j, unit, zero_sums))


# ---------------------------------------------------------------------------
# unions


def _lift(u: RingElement, offset: int, ring: CoeffRing, scale=1) -> list:
    if u.ring != ring:  # as RingElement's + refuses
        raise RingMismatchError(f"{u.ring.tag} vs {ring.tag}")
    return [(k + offset, ring.mul(scale, c)) for k, c in u.coeffs]


def union_idempotents(
    parts,
    kind: str,
    weights=None,
    elements=None,
    unit_index: int | None = None,
    ring: CoeffRing = ZZ,
) -> RingElement:
    """Build an idempotent of the disjoint-union ring from per-part data.

    kind "weighted_idempotents": elements are per-part idempotents with
    coefficient sum 1; weights sum to 1; result is the weighted sum.
    kind "nilpotent_perturbation": the element at unit_index is an
    idempotent with coefficient sum 1, every other element squares to
    zero; result is the plain sum.
    kind "component_mass": weights only; sum of weight * block size must
    be 1; result spreads each weight uniformly over its block.
    """
    parts = list(parts)
    union_q = union_quandle(parts)
    out = _union_element(parts, union_offsets(parts), kind, ring, weights, elements, unit_index)
    return _checked(out, union_q, "union element")


def _union_element(parts, offsets, kind: str, ring: CoeffRing, weights=None, elements=None,
                   unit_index: int | None = None) -> RingElement:
    """union_idempotents' element before its exact recheck.  It refuses
    every argument that builds no member of the kind, so a rebuild needs
    no union table."""
    pairs: list = []
    if kind == "weighted_idempotents":
        if elements is None or weights is None or len(elements) != len(parts) or len(weights) != len(parts):
            raise InvalidParamsError("need one element and one weight per part")
        total = ring.zero
        for part, off, u, wgt in zip(parts, offsets, elements, weights):
            if not is_idempotent(u, part):
                raise NotIdempotentInputError(f"part element over block at {off} is not idempotent")
            if augmentation(u) != ring.one:
                raise ConstraintViolatedError("part idempotents must have coefficient sum 1")
            wgt = ring.coerce(wgt)
            total = ring.add(total, wgt)
            pairs += _lift(u, off, ring, wgt)
        if total != ring.one:
            raise ConstraintViolatedError(f"weights sum to {total}, need 1")
    elif kind == "nilpotent_perturbation":
        if elements is None or unit_index is None or len(elements) != len(parts):
            raise InvalidParamsError("need one element per part and a unit index")
        if unit_index not in range(len(parts)):
            raise InvalidParamsError(f"unit index {unit_index} is not a part index")
        for i, (part, off, u) in enumerate(zip(parts, offsets, elements)):
            if i == unit_index:
                if not is_idempotent(u, part):
                    raise NotIdempotentInputError("unit part element is not idempotent")
                if augmentation(u) != ring.one:
                    raise ConstraintViolatedError("unit part must have coefficient sum 1")
            elif any(_square(u, part)):
                raise NotNilpotentError(f"part element over block at {off} does not square to zero")
            pairs += _lift(u, off, ring)
    elif kind == "component_mass":
        if weights is None or len(weights) != len(parts):
            raise InvalidParamsError("need one weight per part")
        weights = [ring.coerce(wgt) for wgt in weights]
        pairs = [(off + x, wgt) for part, off, wgt in zip(parts, offsets, weights)
                 for x in range(part.order)]
        mass = ring.sum(wgt * part.order for part, wgt in zip(parts, weights))
        if mass != ring.one:
            raise ConstraintViolatedError(f"total weighted mass is {mass}, need 1")
    else:
        raise InvalidParamsError(f"unknown union family kind {kind!r}")
    return RingElement(ring, pairs)


def _square(u: RingElement, part: FiniteQuandle) -> list:
    vec = dense_vector(u, part.order)
    return dense_product(vec, vec, part.table, u.ring)


def _union_arguments(u: RingElement, parts, offsets):
    """Each union kind, in union_idempotents' order, with the arguments
    read off u's blocks that would build u: weighted, the block
    augmentations and each block divided by its own (e_0 for a zero
    block); nilpotent, the blocks, the unit the first block of
    augmentation 1 that is idempotent; mass, each block's first coefficient."""
    ring = u.ring
    blocks = [RingElement(ring, [(k - off, c) for k, c in u.coeffs if off <= k < off + part.order])
              for part, off in zip(parts, offsets)]
    weights = [augmentation(v) for v in blocks]
    quotients = [[(k, ring.div(c, a)) for k, c in v.coeffs] if v.coeffs else [(0, ring.one)]
                 for v, a in zip(blocks, weights)]
    # a block that is no multiple of its augmentation leaves no elements to pass
    elements = None if any(c is None for pairs in quotients for _, c in pairs) else [
        RingElement(ring, pairs) for pairs in quotients]
    yield "weighted_idempotents", dict(weights=weights, elements=elements)
    unit = next((i for i, (part, v) in enumerate(zip(parts, blocks))
                 if augmentation(v) == ring.one and is_idempotent(v, part)), None)
    yield "nilpotent_perturbation", dict(elements=blocks, unit_index=unit)
    yield "component_mass", dict(weights=[v.coeff(0) for v in blocks])


def _union_membership(u: RingElement, parts, offsets) -> str | None:
    """The first union kind whose builder rebuilds u from the arguments
    _union_arguments reads off u; None if none does.  Only the builder's
    refusals of the arguments mean "not this kind"; no InternalCheckError
    is caught."""
    for kind, kwargs in _union_arguments(u, parts, offsets):
        try:
            if _union_element(parts, offsets, kind, u.ring, **kwargs) == u:
                return kind
        except (InvalidParamsError, ConstraintViolatedError, NotIdempotentInputError,
                NotNilpotentError):
            continue
    return None


def union_cross_check(
    parts,
    modulus: int | None = None,
    bound: int | None = None,
    max_support: int | None = None,
    budget: int = 10**8,
    jobs: int = 1,
) -> dict:
    """Enumerate union idempotents and explain each by a union kind.

    Extras are reported as observed gaps, not failures: the kinds are
    generators, not a claimed classification.
    """
    parts = list(parts)
    union_q = union_quandle(parts)
    offsets = union_offsets(parts)
    report = _enumerate(union_q, modulus, bound, max_support, budget, jobs)
    counts = {"weighted_idempotents": 0, "nilpotent_perturbation": 0, "component_mass": 0}
    gaps = []
    for u in report.idempotents:
        kind = _union_membership(u, parts, offsets)
        if kind is None:
            gaps.append(u)
        else:
            counts[kind] += 1
    return {
        "quandle": union_q.name,
        "spec": report.spec,
        "total": len(report.idempotents),
        "explained": counts,
        "observed_gaps": [element_to_json(u) for u in gaps],
        "flags": report.flags + ["gaps are observations within the search scope"],
    }


# ---------------------------------------------------------------------------
# twisted unions


def twisted_union_classify(
    x: FiniteQuandle,
    y: FiniteQuandle,
    f,
    g,
    modulus: int | None = None,
    bound: int | None = None,
    budget: int = 10**8,
    jobs: int = 1,
) -> dict:
    """Three-part description of the twisted union's idempotents, cross-checked.

    Needs both parts trivial, both twists single cycles, and the
    coefficient characteristic coprime to both block sizes; otherwise
    the hypotheses fail.  The cross-check builds every family member in
    the enumeration scope and demands exact set equality.
    """
    q = twisted_union_quandle(x, y, f, g)  # validates triviality and the permutations
    nx, ny = x.order, y.order
    if len(perm_cycles([int(v) for v in f])) != 1:
        raise HypothesisFailedError("f must be a single cycle on the first block")
    if len(perm_cycles([int(v) for v in g])) != 1:
        raise HypothesisFailedError("g must be a single cycle on the second block")
    ring = ZZ if modulus is None else IntegersMod(modulus)
    if modulus is not None and math.gcd(modulus, nx * ny) != 1:
        raise HypothesisFailedError("characteristic must be coprime to both block sizes")
    # the search's budget bounds the expected set too: it declares at least
    # |alphabet|^(nx + ny - 1) vectors, the expected set |alphabet|^max(nx, ny)
    report = _enumerate(q, modulus, bound, None, budget, jobs)
    alphabet = range(-bound, bound + 1) if modulus is None else range(modulus)
    expected: set[RingElement] = set()
    for offset, size in ((0, nx), (nx, ny)):
        for vec in itertools.product(alphabet, repeat=size):
            if ring.coerce(sum(vec)) == ring.one:
                expected.add(RingElement(ring, [(offset + i, c) for i, c in enumerate(vec)]))
    for a in alphabet:
        # the one b, if any, with a*nx + b*ny = 1: the component-mass union member
        b = ring.div(ring.coerce(1 - a * nx), ny)
        if b is not None and b in alphabet:
            expected.add(_union_element([x, y], [0, nx], "component_mass", ring, weights=[a, b]))
    got = set(report.idempotents)
    missing = sorted(expected - got, key=lambda u: u.sort_key())
    extra = sorted(got - expected, key=lambda u: u.sort_key())
    classification = {
        "first_block": {
            "indices": list(range(nx)),
            "family": "every element supported on the block with coefficient sum 1",
        },
        "second_block": {
            "indices": list(range(nx, nx + ny)),
            "family": "every element supported on the block with coefficient sum 1",
        },
        "mixed": {
            "family": "alpha spread over the first block plus beta over the second, "
            f"with alpha*{nx} + beta*{ny} = 1",
        },
    }
    return {
        "quandle": q.name,
        "spec": report.spec,
        "classification": classification,
        "cross_check": not missing and not extra,
        "enumerated": len(got),
        "expected_in_scope": len(expected),
        "missing": [element_to_json(u) for u in missing],
        "extra": [element_to_json(u) for u in extra],
        "flags": report.flags,
    }


# ---------------------------------------------------------------------------
# structure checks on idempotent sets


class IdempotentSetReport(Record):
    __slots__ = ("passed", "size", "failures")

    def __init__(self, passed: bool, size: int, failures: list | None = None):
        self.passed = passed
        self.size = size
        self.failures = [] if failures is None else failures

    to_json = fields_json


def idempotent_quandle_check(sample, q: FiniteQuandle) -> IdempotentSetReport:
    """Check a set of idempotents under the ring product: closure into
    idempotents, self-distributivity on all triples, and that right
    multiplication by each member equals right multiplication by some
    basis element.  All failures are reported, not just the first, in
    index order.  The carrier must be a quandle.

    Member i acts as basis element t when every image e_x u_i is a basis
    element e_{x*t} with coefficient 1.  e_x u_i depends on u_i only
    through its coefficient sums over the theta_S classes
    (`FiniteQuandle.right_mult_classes`), so a member whose sums are 1 on
    the class of t and 0 on the others acts as t (_class_action): this is
    why the covering-family idempotents form a quandle (the paper: "the
    set of all these idempotents forms a quandle in itself").  For any
    other member the images are gathered from its pairs (_basis_images),
    with no product.  Let F be the members that act as no basis element.
    In a quandle (x*y)*t = (x*t)*(y*t) and x -> x*t is a bijection, so
    right multiplication R_t by e_t is a ring automorphism.  If u_j acts as t,
    then u_i u_j = R_t(u_i) is a nonzero idempotent; if u_l acts as t,
    then (u_i u_j) u_l = R_t(u_i) R_t(u_j) = (u_i u_l)(u_j u_l).  So closure
    can fail only at (i, j) with j in F, and self-distributivity only at
    (i, j, l) with l in F; a set with F empty is settled there.
    Otherwise vectors are interned by their nonzero (key, coefficient)
    pairs and each ordered pair of ids is multiplied once with
    _pair_product, in the ring's exact scalars: a failing set repeats
    its products, since R_t permutes the few idempotents it meets.
    P = S.S is a k x k grid of ids; closure squares P[i][j] for j in F,
    and self-distributivity compares the ids of P[i][j] u_l and
    P[i][l] P[j][l] for l in F.
    """
    if not q.is_quandle:
        raise InvalidParamsError("the carrier is not a quandle")
    sample = list(sample)
    if not sample:
        raise InvalidParamsError("sample is empty")
    ring = sample[0].ring
    for i, u in enumerate(sample):
        if u.ring != ring:
            raise RingMismatchError(f"sample element {i} uses {u.ring.tag}, expected {ring.tag}")
        if not is_idempotent(u, q):
            raise NotIdempotentInputError(f"sample element {i} is not idempotent")
    k, table = len(sample), q.table
    columns = set(zip(*table))  # x -> x*t for each t

    def acts(u) -> bool:
        if _class_action(u, q) is not None:
            return True
        sigma = _basis_action(_basis_images(u, q), ring)
        return sigma is not None and tuple(sigma) in columns

    f = [i for i, u in enumerate(sample) if not acts(u)]
    failures = []
    if f:
        ids: dict = {}
        vecs: list = []
        memo: dict = {}

        def intern(pairs) -> int:
            pairs = tuple(pairs)
            if pairs not in ids:
                ids[pairs] = len(vecs)
                vecs.append(pairs)
            return ids[pairs]

        def product(a: int, b: int) -> int:
            if (a, b) not in memo:
                out = _pair_product(vecs[a], vecs[b], table, ring)
                memo[a, b] = intern((x, c) for x, c in enumerate(out) if c)
            return memo[a, b]

        s = [intern(u.coeffs) for u in sample]
        p = [[product(a, b) for b in s] for a in s]
        for i, j in itertools.product(range(k), f):
            c = p[i][j]
            if not vecs[c] or product(c, c) != c:
                failures.append({"check": "closure", "indices": [i, j]})
        for i, j in itertools.product(range(k), repeat=2):
            c = p[i][j]
            for l in f:
                if product(c, s[l]) != product(p[i][l], p[j][l]):
                    failures.append({"check": "self_distributivity", "indices": [i, j, l]})
    for i in f:
        failures.append({"check": "right_mult_is_basis_action", "indices": [i]})
    return IdempotentSetReport(not failures, k, failures)


def right_zero_divisor_from_fiber(covering: Covering, y: int, alphas, ring: CoeffRing = ZZ) -> dict:
    """Zero-sum coefficients over one fiber kill every right product.

    Returns the element and the result of the full matrix check that
    w * element = 0 for every w.
    """
    fiber = covering.fiber(y)
    alphas = [ring.coerce(a) for a in alphas]
    if len(alphas) < 2 or len(alphas) > len(fiber):
        raise InvalidParamsError(
            f"need between 2 and {len(fiber)} coefficients for the fiber over {y}"
        )
    total = ring.sum(alphas)
    if total != ring.zero:
        raise ConstraintViolatedError(f"coefficients sum to {total}, need 0")
    v = RingElement(ring, list(zip(fiber, alphas)))
    if v.is_zero():
        raise ConstraintViolatedError("coefficients are all zero")
    matrix = right_mult_matrix(v, covering.hom.domain)
    return {"element": v, "verified": matrix.is_zero()}


def core_three_support_check(factors, bound: int, budget: int = 10**8) -> dict:
    """Exhaust small-support idempotents of a reflection table over an
    abelian group with orders coprime to 2 and 3; only basis elements are
    expected.  Supports run up to 3 distinct keys, nonzero coefficients
    in [-bound, bound].

    This is the support walk (_search_kernel._support_search), not the
    kernel's chunks.  The table is a validated quandle, so each right
    multiplication S_y is an automorphism (right distributivity) and
    extends to a ring automorphism of Z[X] that keeps support sizes and
    coefficients: the window's idempotents are closed under Inn(X), and
    the search walks one support per orbit and closes what it finds.
    Every result, the closure's images included, is squared again exactly.
    candidates_tested still counts every (support, coefficient tuple)
    pair of the declared window, including the tuples on supports that
    are not walked, those the non-cancellation rule rules out without
    evaluating them and those the coefficient-sum filter skips."""
    if bound < 1:
        raise InvalidParamsError("bound must be >= 1")
    factors = [int(a) for a in factors]
    order = math.prod(factors)
    if math.gcd(order, 6) != 1:
        raise HypothesisFailedError("group order must be coprime to 2 and 3")
    total = _search_kernel._support_tuples(order, bound, 3)  # counted before the table is built
    if total > budget:
        raise BudgetExceededError(total, budget)
    q = core_quandle(factors)
    walk = _search_kernel._support_search(q.table, bound, 3, gens=inner_generators(q))
    found = [_checked(RingElement(ZZ, u), q, "support walk result") for u in walk]
    nontrivial = [u for u in found if not (len(u.coeffs) == 1 and u.coeffs[0][1] == 1)]
    return {
        "quandle": q.name,
        "box_bound": bound,
        "max_support": 3,
        "candidates_tested": total,
        "trivial_found": len(found) - len(nontrivial),
        "nontrivial": [element_to_json(u) for u in nontrivial],
    }


def conjecture_scan(
    items,
    bound: int | None = None,
    moduli=(),
    max_support: int | None = None,
    budget: int = 10**8,
    jobs: int = 1,
) -> dict:
    """Scan a catalog for counterexamples to only-trivial-idempotent behavior.

    Items are (name, table) pairs.  Tables failing validation are
    reported as such; quandles that are not latin are skipped (the claim
    under test is about semi-latin tables, which for a finite table are
    exactly the latin ones); for the rest, boxed and mod-p enumerations
    run and any non-basis idempotent is reported as a counterexample.  Absence of counterexamples is always scoped to
    the search window: nothing here is a proof.
    """
    results = []
    for name, table in items:
        entry: dict = {"quandle": name}
        try:
            q = FiniteQuandle(table, name=name)
        except QuandleKitError as err:
            entry["status"] = "not_a_quandle"
            entry["error"] = err.payload()
            results.append(entry)
            continue
        props = properties(q)
        entry["latin"] = props.latin
        if not props.latin:
            entry["status"] = "skipped_not_latin"
            results.append(entry)
            continue
        counterexamples = []
        searches = []
        try:
            boxes = [] if bound is None else [(None, bound)]
            for modulus, box in boxes + [(p, None) for p in moduli]:
                report = _enumerate(q, modulus, box, max_support, budget, jobs)
                searches.append(report.spec)
                counterexamples.extend(_non_basis(report))
        except BudgetExceededError as err:
            entry["status"] = "budget_exceeded"
            entry["error"] = err.payload()
            results.append(entry)
            continue
        entry["searches"] = searches
        if counterexamples:
            entry["status"] = "counterexample_found"
            entry["counterexamples"] = [element_to_json(u) for u in counterexamples]
        else:
            entry["status"] = "no_counterexample_in_scope"
        results.append(entry)
    return {
        "items": results,
        "flags": [
            "results are limited to the searched scope; absence is not a proof",
            "semi-latin (injective left multiplication) equals latin for a finite table; "
            "the semi_latin field is dropped",
        ],
    }


def _non_basis(report: IdempotentReport) -> list[RingElement]:
    out = []
    for u in report.idempotents:
        if len(u.coeffs) == 1 and u.coeffs[0][1] == u.ring.one:
            continue
        out.append(u)
    return out
