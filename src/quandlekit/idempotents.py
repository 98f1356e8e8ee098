"""Idempotent searches, covering-derived families, and cross-checks.

Enumerations are exhaustive for a declared scope: a prime modulus, or an
integer coefficient box.  Over an integral domain the coefficient sum of
an idempotent is 0 or 1, so the scope is declared in augmentation strata;
a non-domain modulus (forced) widens to all strata on request and the
report says the claim is weaker.

The sweep goes through a quotient.  A congruence of the table gives a
surjective hom X -> Y whose linear extension k[X] -> k[Y] is a ring map
keeping the augmentation, so every idempotent in scope lies over 0 or
over an idempotent of k[Y] in the same strata.  The search finds those
on the quotient table first, then sweeps only the vectors whose sum over
each fiber matches one of them.  Augmentation strata are the quotient to
one point.  candidates_tested still counts the in-box vectors of the
declared scope, not the vectors the sweep evaluates.

Family constructors build idempotents from structure (coverings, even
dihedral tables, unions) and every construction is re-checked by exact
multiplication before it is returned.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field

from . import _search_kernel
from .core import (
    Covering,
    FiniteQuandle,
    MagmaTable,
    congruences,
    core_quandle,
    dihedral_quandle,
    perm_cycles,
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
    augmentation,
    basis,
    dense_product,
    element_to_json,
    is_idempotent,
    mul,
    orbit_sum,
    right_mult_matrix,
    ring_from_tag,
    zero,
)


@dataclass(frozen=True)
class SearchSpec:
    """Scope of an enumeration: ring, coefficient box, support cap, strata."""

    ring: CoeffRing
    box_bound: int | None = None
    max_support: int | None = None  # None = unrestricted
    augmentation: tuple[int, ...] | None = (0, 1)  # None = all strata

    def __post_init__(self):
        if self.max_support is not None and self.max_support < 1:
            raise InvalidParamsError("max_support must be >= 1")

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "box_bound": self.box_bound,
            "max_support": "all" if self.max_support is None else self.max_support,
            "augmentation": "any" if self.augmentation is None else list(self.augmentation),
        }


# Fewer candidates than this, all strata together, run serially whatever
# the job count: below it starting a process pool costs more than the
# second worker saves (break-even measured on a 2-core host).
POOL_MIN_SPACE = 1 << 21

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

# A kernel call costs about as much as this many indices on top of them
# (numpy's per-operation overhead on tiny batches, measured on the same
# host), so a quotient is not worth many small sweeps.
SWEEP_COST = 1 << 10


def _chunk_ranges(space: int, pieces: int) -> list[tuple[int, int]]:
    if space <= 0:
        return []
    pieces = max(1, min(pieces, space))
    step = (space + pieces - 1) // pieces
    return [(s, min(space, s + step)) for s in range(0, space, step)]


def _run_tasks(tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        # lazily, so a search that is abandoned runs no further chunks
        return map(_search_kernel.evaluate_chunk, tasks)
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit numpy instead of each importing it again
    import numpy  # noqa: F401

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_search_kernel.evaluate_chunk, tasks))


def _kernel_evaluator(indices: int) -> str:
    """The evaluator of a plan of `indices` kernel indices, by the rule at
    NUMPY_MIN_INDICES; a plan given to plain Python counts towards it."""
    global _python_indices
    if "numpy" in sys.modules or _python_indices + indices > NUMPY_MIN_INDICES:
        return "numpy"
    _python_indices += indices
    return "python"


def _declared_count(n: int, mode: str, param: int, strata) -> int:
    """In-box vectors of the declared scope: those of the box, or of
    (Z/p)^n, whose coefficient sum lies in a stratum, counted per stratum."""
    if strata is None:
        return _search_kernel.space_size(n, mode, param, 0)
    if mode == "zp":
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


def _known_idempotents(table, mode: str, param: int, max_support: int | None) -> int:
    """A lower bound, found without a search, on the nonzero idempotents of
    augmentation 1 in scope.

    On a trivial sub-magma S (s*t = s for all s, t in S) every vector of
    augmentation 1 is idempotent: u*u = sum_s u_s (sum_t u_t) e_s = u.
    S is grown greedily; the vectors on its first max_support keys count,
    and so does e_y for every other y with y*y = y.
    """
    n = len(table)
    block: list[int] = []
    for y in range(n):
        if table[y][y] == y and all(table[s][y] == s and table[y][s] == y for s in block):
            block.append(y)
    m = min(n if max_support is None else max_support, len(block))
    if m < 1:
        return 0
    on_block = param ** (m - 1) if mode == "zp" else _box_sum_count(m, param, 1)
    return on_block + sum(1 for y in range(n) if table[y][y] == y) - m


def _sweep_plan(carrier, spec: SearchSpec, mode: str, param: int, budget: int, jobs: int,
                direct: list, space: int) -> list:
    """The fiber-sum constraints to sweep: one tuple of (keys, target) pairs
    per sweep, in a fixed order.

    A congruence gives a surjective hom f: X -> Y, and its linear
    extension k[X] -> k[Y] is a ring map that keeps the augmentation.  So
    every idempotent u in scope maps to 0 or to an idempotent of k[Y] in
    the same strata, inside the box max|fiber| * B over Z; the same search
    on the quotient table finds those, and each one (0 first, when the
    strata admit it) fixes the coefficient sum of u over every fiber.
    The quotient taken has the fewest free digits per target, ties broken
    by the sorted partition, among those whose own search is no larger
    than the direct sweep of `space` indices per entry of `direct`.  Its
    targets may cost no more than that sweep (SWEEP_COST per kernel
    call): the quotient is dropped, with no search, when the idempotents
    known without one are already too many, and its search is abandoned
    as soon as its kernel finds too many.  Then the direct sweep is kept.
    """
    n = carrier.order
    ring = spec.ring

    def admits(c) -> bool:
        return spec.augmentation is None or any(ring.coerce(s) == c for s in spec.augmentation)

    cost = len(direct) * (space + SWEEP_COST)
    proper = [c for c in congruences(carrier) if len(c) > 1]
    for partition in sorted(proper, key=lambda c: (-len(c), c)):
        k = len(partition)
        base_param = param if mode == "zp" else param * max(map(len, partition))
        if _search_kernel.space_size(k, mode, base_param, len(direct[0])) > space:
            continue
        quotient = MagmaTable(quotient_table(carrier, partition))
        # the most nonzero targets whose sweeps still cost less than the direct one
        sweep = _search_kernel.space_size(n, mode, param, k)
        limit = cost // (sweep + SWEEP_COST) - admits(ring.zero)
        known = 0
        if admits(ring.one):
            known = _known_idempotents(quotient.table, mode, base_param, spec.max_support)
        if known > limit:
            break
        base_spec = SearchSpec(
            ring, None if mode == "zp" else base_param, spec.max_support, spec.augmentation
        )
        base = _enumerate_table(quotient, base_spec, mode, base_param, budget, jobs, max_hits=limit)
        if base is None:
            break
        targets = [tuple(u.coeff(y) for y in range(k)) for u in base.idempotents]
        if admits(ring.zero):
            targets.insert(0, (0,) * k)
        return [tuple(zip(partition, v)) for v in targets]
    return direct


def _enumerate_table(
    carrier: FiniteQuandle | MagmaTable,
    spec: SearchSpec,
    mode: str,
    param: int,
    budget: int,
    jobs: int,
    max_hits: int | None = None,
) -> IdempotentReport | None:
    """The report of one search; None, before any recheck, once the kernel
    has found more than max_hits idempotents."""
    start = time.monotonic()
    n = carrier.order
    strata = None if spec.augmentation is None else sorted(spec.augmentation)
    # the direct sweep: one block of all keys per augmentation stratum
    direct = [()] if strata is None else [((tuple(range(n)), s),) for s in strata]
    space = _search_kernel.space_size(n, mode, param, len(direct[0]))
    if space * len(direct) > budget:
        raise BudgetExceededError(space * len(direct), budget)
    if space >= _search_kernel.INDEX_LIMIT:
        # kernel indices are int64; refuse before any chunk is built
        raise BudgetExceededError(space, _search_kernel.INDEX_LIMIT - 1, what="indices per stratum")
    max_support = n if spec.max_support is None else min(spec.max_support, n)
    plan = _sweep_plan(carrier, spec, mode, param, budget, jobs, direct, space)
    sweeps = [_search_kernel.space_size(n, mode, param, len(fibers)) for fibers in plan]
    workers = jobs if sum(sweeps) >= POOL_MIN_SPACE else 1
    evaluator = _kernel_evaluator(sum(sweeps))
    tasks = [
        (carrier.table, n, mode, param, fibers, a, b, max_support, evaluator)
        for fibers, sweep in zip(plan, sweeps)
        for (a, b) in _chunk_ranges(sweep, workers)
    ]
    # each distinct hit, with the fibers it was swept under, in kernel order
    hits: dict[tuple[int, ...], tuple] = {}
    for task, (vecs, _) in zip(tasks, _run_tasks(tasks, workers)):
        for vec in vecs:
            hits.setdefault(vec, task[4])
        if max_hits is not None and len(hits) > max_hits:
            return None
    found: list[RingElement] = []
    for vec, fibers in hits.items():
        u = RingElement(spec.ring, list(enumerate(vec)))
        # exact re-verification of every kernel hit
        if not is_idempotent(u, carrier):
            raise InternalCheckError(f"kernel hit fails exact recheck: {vec}", vector=list(vec))
        if spec.ring.is_domain and augmentation(u) not in (spec.ring.zero, spec.ring.one):
            raise InternalCheckError(
                f"kernel hit has augmentation not 0 or 1: {vec}", vector=list(vec)
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
    exhaustive = True
    if not carrier.is_quandle:
        flags.append("not a quandle")
    if mode == "zbox":
        flags.append(f"complete within |coefficient| <= {param}; nothing claimed outside the box")
    if spec.ring.invertible(n):
        flags.append("|X| invertible in k")
    if spec.ring.kind == "Zmod" and spec.ring.modulus == 2:
        flags.append("two-element coefficient ring")
    if not spec.ring.is_domain:
        flags.append("non-domain coefficients")
        if strata is not None:
            flags.append("augmentation strata assume a domain; rerun with augmentation=any for completeness")
            exhaustive = False
    if max_support < n:
        flags.append(f"support limited to <= {max_support} basis elements")
    elapsed = int((time.monotonic() - start) * 1000)
    return IdempotentReport(
        quandle=carrier.name or f"order-{n}",
        order=n,
        spec=spec.to_json(),
        idempotents=sorted(found, key=lambda u: u.sort_key()),
        exhaustive=exhaustive,
        flags=flags,
        candidates_tested=_declared_count(n, mode, param, spec.augmentation),
        elapsed_ms=elapsed,
    )


def enumerate_mod_p(
    carrier: FiniteQuandle | MagmaTable,
    p: int,
    max_support: int | None = None,
    augmentation_filter: tuple[int, ...] | None = (0, 1),
    budget: int = 10**8,
    jobs: int = 1,
    force: bool = False,
) -> IdempotentReport:
    """Every idempotent of the mod-p quandle ring, stratified by coefficient sum."""
    ring = IntegersMod(p, force=force)
    spec = SearchSpec(ring, None, max_support, augmentation_filter)
    return _enumerate_table(carrier, spec, "zp", p, budget, jobs)


def enumerate_boxed_Z(
    carrier: FiniteQuandle | MagmaTable,
    bound: int,
    max_support: int | None = None,
    augmentation_filter: tuple[int, ...] | None = (0, 1),
    budget: int = 10**8,
    jobs: int = 1,
) -> IdempotentReport:
    """Every integer idempotent with all coefficients in [-bound, bound]."""
    if bound < 1:
        raise InvalidParamsError("bound must be >= 1")
    spec = SearchSpec(ZZ, bound, max_support, augmentation_filter)
    return _enumerate_table(carrier, spec, "zbox", bound, budget, jobs)


# ---------------------------------------------------------------------------
# covering families


@dataclass(frozen=True)
class CoveringFamilyParams:
    """Structure data for one covering-derived idempotent.

    unit_coeffs assigns coefficients summing to 1 inside the fiber over
    unit_fiber; base_point is a member of that support whose right
    multiplication drives the orbit sums; zero_sum_coeffs assigns, per
    codomain index, fiber coefficients summing to 0.
    """

    ring: CoeffRing
    unit_fiber: int
    base_point: int
    unit_coeffs: tuple[tuple[int, object], ...]
    zero_sum_coeffs: tuple[tuple[int, tuple[tuple[int, object], ...]], ...]

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
    total = ring.zero
    for _, c in unit_pairs:
        total = ring.add(total, c)
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
        s = ring.zero
        for _, c in pairs:
            s = ring.add(s, c)
        if s != ring.zero:
            raise ConstraintViolatedError(f"coefficients over {y} sum to {s}, need 0")
        if pairs:
            frozen.append((int(y), pairs))
    return CoveringFamilyParams(ring, int(unit_fiber), int(base_point), unit_pairs, tuple(frozen))


def family_params_from_json(covering: Covering, doc: dict) -> CoveringFamilyParams:
    ring = ring_from_tag(doc["ring"])
    try:
        unit = {int(x): ring.scalar_parse(str(c)) for x, c in doc["unit_coeffs"]}
        zs = {
            int(y): {int(x): ring.scalar_parse(str(c)) for x, c in pairs}
            for y, pairs in doc.get("zero_sum_coeffs", [])
        }
        unit_fiber, base_point = int(doc["unit_fiber"]), int(doc["base_point"])
    except (TypeError, ValueError):
        raise InvalidParamsError(
            "family parameters need integer points and fibers, and [point, coefficient] pairs"
        ) from None
    return covering_family_params(covering, ring, unit_fiber, unit, base_point, zs)


def _family_vector(covering: Covering, params: CoveringFamilyParams, orbits: dict) -> list:
    """Coefficient list of the family element: the unit part plus the
    scaled orbit sums.  orbits caches each (point, base point) orbit sum
    as its (key, multiplicity) pairs; a sweep passes one dict to all cases."""
    domain = covering.hom.domain
    ring = params.ring
    vec = [ring.zero] * domain.order
    for x, c in params.unit_coeffs:
        vec[x] += c
    for _, pairs in params.zero_sum_coeffs:
        for x, a in pairs:
            key = (x, params.base_point)
            if key not in orbits:
                orbits[key] = orbit_sum(x, params.base_point, domain, ring).coeffs
            for k, mult in orbits[key]:
                vec[k] += a * mult
    m = ring.characteristic
    return [c % m for c in vec] if m else vec


def _assemble_family_element(covering: Covering, params: CoveringFamilyParams) -> RingElement:
    return RingElement(params.ring, list(enumerate(_family_vector(covering, params, {}))))


def covering_idempotent(covering: Covering, params: CoveringFamilyParams) -> RingElement:
    """Assemble the family element; the result is checked idempotent."""
    u = _assemble_family_element(covering, params)
    if not is_idempotent(u, covering.hom.domain):
        raise InternalCheckError(
            "family element failed the idempotency check", element=element_to_json(u)
        )
    return u


@dataclass
class FamilyVerifyReport:
    verified: bool
    structures: int
    cases: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verified": self.verified,
            "structures": self.structures,
            "cases": self.cases,
            "failures": self.failures,
            "notes": list(self.notes),
        }


def covering_family_verify(
    covering: Covering,
    ring: CoeffRing = ZZ,
    grid: tuple[int, ...] = (-1, 0, 1),
    max_j: int = 2,
    budget: int = 10**6,
) -> FamilyVerifyReport:
    """Sweep the family's structural choices and certify idempotency on a grid.

    Structural choices: every subset J of the codomain with |J| <= max_j,
    every unit fiber, every base point, full fibers throughout.  Free
    coefficients run over the grid; the last coefficient of each group is
    determined by its sum constraint.  The idempotency defect has degree
    at most 2 in each free coefficient, so over a domain vanishing on three
    points per coefficient certifies every scalar value; the note says
    whether the grid used does that.  Each case is assembled and squared
    on coefficient lists (ring.dense_product).
    """
    if not isinstance(covering, Covering):
        raise TypeError("covering_family_verify needs a Covering, not a bare hom")
    if max_j < 0:
        raise InvalidParamsError("max_j must be >= 0")
    note = _grid_note(ring, grid)
    fibers = covering.fibers
    codomain = sorted(fibers)
    # count the sweep before running it
    structures = 0
    cases = 0
    for size in range(0, max_j + 1):
        for j_set in itertools.combinations(codomain, size):
            free = sum(len(fibers[y]) - 1 for y in j_set)
            for y0 in codomain:
                k0 = len(fibers[y0])
                structures += k0
                cases += k0 * len(grid) ** (free + k0 - 1)
    if cases > budget:
        raise BudgetExceededError(cases, budget)
    report = FamilyVerifyReport(True, structures, 0)
    table = covering.hom.domain.table
    orbits: dict = {}
    for size in range(0, max_j + 1):
        for j_set in itertools.combinations(codomain, size):
            for y0 in codomain:
                fiber0 = fibers[y0]
                for x0 in fiber0:
                    free_slots = [(y, x) for y in j_set for x in fibers[y][:-1]]
                    unit_slots = list(fiber0[:-1])
                    width = len(free_slots) + len(unit_slots)
                    for point in itertools.product(grid, repeat=width):
                        zs: dict[int, dict[int, object]] = {}
                        for (y, x), c in zip(free_slots, point):
                            zs.setdefault(y, {})[x] = c
                        for y in j_set:
                            rest = -sum(zs.get(y, {}).values())
                            zs.setdefault(y, {})[fibers[y][-1]] = rest
                        unit = dict(zip(unit_slots, point[len(free_slots):]))
                        unit[fiber0[-1]] = 1 - sum(unit.values())
                        params = covering_family_params(covering, ring, y0, unit, x0, zs)
                        u = _family_vector(covering, params, orbits)
                        report.cases += 1
                        # the unit part gives u augmentation 1, so u is never 0
                        if dense_product(u, u, table, ring) != u:
                            report.verified = False
                            report.failures.append(params.to_json())
    report.notes.append(note)
    return report


def _grid_note(ring: CoeffRing, grid) -> str:
    """What vanishing on the grid shows.  The defect u^2 - u has degree
    <= 2 in each free coefficient, so over a domain it vanishes for every
    value once it vanishes on 3 distinct values per coefficient; a grid
    that takes every value of the ring shows the same directly."""
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


@dataclass
class ClassifyResult:
    in_family: bool
    params: CoveringFamilyParams | None = None
    reason: str | None = None
    flags: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "in_family": self.in_family,
            "params": self.params.to_json() if self.params else None,
            "reason": self.reason,
            "flags": list(self.flags),
        }


def covering_classify(u: RingElement, covering: Covering) -> ClassifyResult:
    """Decompose an idempotent into unit part plus orbit sums, if possible.

    Splits u as v + w with w the fiber part over the unique unit-mass
    codomain index, then reconstructs v as a combination of orbit sums of
    the base point's right multiplication.  Works extensionally: only the
    element's own fiber sums and orbit structure matter, not a particular
    choice of representatives.
    """
    domain = covering.hom.domain
    ring = u.ring
    flags = ["codomain ring attested to have only trivial idempotents"]
    if not is_idempotent(u, domain):
        raise NotIdempotentInputError("element is not idempotent (its square differs)")
    images = covering.hom.images
    fiber_sum: dict[int, object] = {y: ring.zero for y in covering.fibers}
    for x, c in u.coeffs:
        fiber_sum[images[x]] = ring.add(fiber_sum[images[x]], c)
    units = [y for y, s in fiber_sum.items() if s == ring.one]
    rest = [y for y, s in fiber_sum.items() if s not in (ring.zero, ring.one)]
    if len(units) != 1 or rest:
        return ClassifyResult(False, reason="fiber sums are not a single unit mass", flags=flags)
    y0 = units[0]
    fiber0 = set(covering.fibers[y0])
    w = RingElement(ring, [(x, c) for x, c in u.coeffs if x in fiber0])
    v = u - w
    x0 = min(w.support)
    if v.is_zero():
        params = covering_family_params(
            covering, ring, y0, dict(w.coeffs), x0, {}
        )
        return ClassifyResult(True, params=params, flags=flags)
    if mul(v, w, domain) != v:
        return ClassifyResult(
            False, reason="orbit part is not stabilized by the unit part", flags=flags
        )
    sigma = domain.right_mults[x0]
    n_sigma = domain.right_mult_orders[x0]
    coeff = dict(v.coeffs)
    collected = []  # (orbit, multiplier)
    for orbit in perm_cycles(sigma):
        values = {coeff.get(t, ring.zero) for t in orbit}
        if len(values) > 1:
            return ClassifyResult(
                False, reason="coefficients are not constant on a right-multiplication orbit", flags=flags
            )
        c = values.pop()
        if c == ring.zero:
            continue
        m = ring.div(c, n_sigma // len(orbit))
        if m is None:
            return ClassifyResult(
                False,
                reason="orbit multiplicity does not divide the orbit coefficient",
                flags=flags,
            )
        collected.append((orbit, m))
    # sigma induces a permutation of the codomain; a point's class is its cycle's least point
    sigma_bar = [images[sigma[covering.fibers[y][0]]] for y in range(len(covering.fibers))]
    fiber_class = {z: cycle[0] for cycle in perm_cycles(sigma_bar) for z in cycle}
    groups: dict[int, dict[int, object]] = {}
    for orbit, m in collected:
        y_star = fiber_class[images[orbit[0]]]
        rep = min(t for t in orbit if images[t] == y_star)
        groups.setdefault(y_star, {})[rep] = m
    for y_star, reps in groups.items():
        total = ring.zero
        for m in reps.values():
            total = ring.add(total, m)
        if total != ring.zero:
            return ClassifyResult(
                False, reason="orbit multipliers do not cancel over a fiber class", flags=flags
            )
    params = covering_family_params(covering, ring, y0, dict(w.coeffs), x0, groups)
    if _assemble_family_element(covering, params) != u:
        raise InternalCheckError("classification failed to round-trip", element=element_to_json(u))
    return ClassifyResult(True, params=params, flags=flags)


# ---------------------------------------------------------------------------
# even dihedral family


def dihedral_even_family(n: int, j: int, beta, alphas, ring: CoeffRing = ZZ) -> RingElement:
    """Idempotent of the order-2n dihedral table built from its mod-n covering.

    n must be odd, j picks the unit fiber {j, n+j}, beta splits the unit
    mass over it, and alphas (one per index 0..(n-1)/2) weight the
    reflection-orbit differences.  Indices are mod 2n.
    """
    if n < 1 or n % 2 == 0:
        raise InvalidParamsError("n must be odd")
    if not 0 <= j < n:
        raise InvalidParamsError(f"j must be in [0, {n})")
    m = (n - 1) // 2
    alphas = list(alphas)
    if len(alphas) != m + 1:
        raise InvalidParamsError(f"need {m + 1} alpha values, got {len(alphas)}")
    beta = ring.coerce(beta)
    order = 2 * n
    pairs = [(j, beta), (n + j, ring.add(ring.one, ring.neg(beta)))]
    for i, a in enumerate(alphas):
        a = ring.coerce(a)
        pairs.append((i % order, a))
        pairs.append(((n + i) % order, ring.neg(a)))
        pairs.append(((2 * j - i) % order, a))
        pairs.append(((n + 2 * j - i) % order, ring.neg(a)))
    u = RingElement(ring, pairs)
    if not is_idempotent(u, dihedral_quandle(order)):
        raise InternalCheckError(
            "family element failed the idempotency check", element=element_to_json(u)
        )
    return u


# ---------------------------------------------------------------------------
# unions


def _lift(u: RingElement, offset: int) -> RingElement:
    return RingElement(u.ring, [(k + offset, c) for k, c in u.coeffs])


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
    offsets = union_offsets(parts)
    if kind == "weighted_idempotents":
        if elements is None or weights is None or len(elements) != len(parts) or len(weights) != len(parts):
            raise InvalidParamsError("need one element and one weight per part")
        total = ring.zero
        out = zero(ring)
        for part, off, u, wgt in zip(parts, offsets, elements, weights):
            if not is_idempotent(u, part):
                raise NotIdempotentInputError(f"part element over block at {off} is not idempotent")
            if augmentation(u) != ring.one:
                raise ConstraintViolatedError("part idempotents must have coefficient sum 1")
            wgt = ring.coerce(wgt)
            total = ring.add(total, wgt)
            out = out + _lift(u, off).scale(wgt)
        if total != ring.one:
            raise ConstraintViolatedError(f"weights sum to {total}, need 1")
    elif kind == "nilpotent_perturbation":
        if elements is None or unit_index is None or len(elements) != len(parts):
            raise InvalidParamsError("need one element per part and a unit index")
        out = zero(ring)
        for i, (part, off, u) in enumerate(zip(parts, offsets, elements)):
            if i == unit_index:
                if not is_idempotent(u, part):
                    raise NotIdempotentInputError("unit part element is not idempotent")
                if augmentation(u) != ring.one:
                    raise ConstraintViolatedError("unit part must have coefficient sum 1")
            elif not u.is_zero() and not mul(u, u, part).is_zero():
                raise NotNilpotentError(f"part element over block at {off} does not square to zero")
            out = out + _lift(u, off)
    elif kind == "component_mass":
        if weights is None or len(weights) != len(parts):
            raise InvalidParamsError("need one weight per part")
        mass = ring.zero
        out = zero(ring)
        for part, off, wgt in zip(parts, offsets, weights):
            wgt = ring.coerce(wgt)
            mass = ring.add(mass, ring.mul(wgt, ring.coerce(part.order)))
            out = out + RingElement(ring, [(off + x, wgt) for x in range(part.order)])
        if mass != ring.one:
            raise ConstraintViolatedError(f"total weighted mass is {mass}, need 1")
    else:
        raise InvalidParamsError(f"unknown union family kind {kind!r}")
    if not is_idempotent(out, union_q):
        raise InternalCheckError(
            "union element failed the idempotency check", element=element_to_json(out)
        )
    return out


def _union_membership(u: RingElement, parts, offsets) -> str | None:
    """Which union family clause explains u, or None."""
    ring = u.ring
    blocks = []
    for part, off in zip(parts, offsets):
        blocks.append(
            RingElement(ring, [(k - off, c) for k, c in u.coeffs if off <= k < off + part.order])
        )
    # weighted idempotents: each nonzero block is a scalar times a sum-1 idempotent
    def clause_weighted() -> bool:
        for part, v in zip(parts, blocks):
            if v.is_zero():
                continue
            a = augmentation(v)
            quotients = [(k, ring.div(c, a)) for k, c in v.coeffs]
            if any(c is None for _, c in quotients):
                return False
            if not is_idempotent(RingElement(ring, quotients), part):
                return False
        return True

    def clause_nilpotent() -> bool:
        unit = None
        for i, (part, v) in enumerate(zip(parts, blocks)):
            if v.is_zero():
                continue
            if augmentation(v) == ring.one and is_idempotent(v, part):
                if unit is None:
                    unit = i
                    continue
            if not mul(v, v, part).is_zero():
                return False
        return unit is not None

    def clause_mass() -> bool:
        for part, v in zip(parts, blocks):
            if v.is_zero():
                continue
            if len(v.coeffs) != part.order:
                return False
            if len({c for _, c in v.coeffs}) != 1:
                return False
        return True

    if clause_weighted():
        return "weighted_idempotents"
    if clause_nilpotent():
        return "nilpotent_perturbation"
    if clause_mass():
        return "component_mass"
    return None


def union_cross_check(
    parts,
    modulus: int | None = None,
    bound: int | None = None,
    max_support: int | None = None,
    budget: int = 10**8,
    jobs: int = 1,
) -> dict:
    """Enumerate union idempotents and explain each by a family clause.

    Extras are reported as observed gaps, not failures: the clauses are
    generators, not a claimed classification.
    """
    parts = list(parts)
    union_q = union_quandle(parts)
    offsets = union_offsets(parts)
    if modulus is not None:
        report = enumerate_mod_p(union_q, modulus, max_support, budget=budget, jobs=jobs)
    elif bound is not None:
        report = enumerate_boxed_Z(union_q, bound, max_support, budget=budget, jobs=jobs)
    else:
        raise InvalidParamsError("need a modulus or a box bound")
    counts = {"weighted_idempotents": 0, "nilpotent_perturbation": 0, "component_mass": 0}
    gaps = []
    for u in report.sorted_idempotents():
        clause = _union_membership(u, parts, offsets)
        if clause is None:
            gaps.append(u)
        else:
            counts[clause] += 1
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
    if modulus is not None:
        ring = IntegersMod(modulus)
        if math.gcd(modulus, nx) != 1 or math.gcd(modulus, ny) != 1:
            raise HypothesisFailedError(
                "characteristic must be coprime to both block sizes"
            )
        if modulus ** max(nx, ny) > budget:
            raise BudgetExceededError(modulus ** max(nx, ny), budget)
        report = enumerate_mod_p(q, modulus, budget=budget, jobs=jobs)
        scope_x = [
            vec
            for vec in itertools.product(range(modulus), repeat=nx)
            if sum(vec) % modulus == 1
        ]
        scope_y = [
            vec
            for vec in itertools.product(range(modulus), repeat=ny)
            if sum(vec) % modulus == 1
        ]
        mixed = []
        inv_ny = pow(ny, -1, modulus)
        for a in range(modulus):
            b = ((1 - a * nx) * inv_ny) % modulus
            mixed.append((a, b))
    elif bound is not None:
        ring = ZZ
        if (2 * bound + 1) ** max(nx, ny) > budget:
            raise BudgetExceededError((2 * bound + 1) ** max(nx, ny), budget)
        report = enumerate_boxed_Z(q, bound, budget=budget, jobs=jobs)
        rng = range(-bound, bound + 1)
        scope_x = [vec for vec in itertools.product(rng, repeat=nx) if sum(vec) == 1]
        scope_y = [vec for vec in itertools.product(rng, repeat=ny) if sum(vec) == 1]
        mixed = []
        for a in rng:
            num = 1 - a * nx
            if num % ny == 0 and abs(num // ny) <= bound:
                mixed.append((a, num // ny))
    else:
        raise InvalidParamsError("need a modulus or a box bound")
    expected: set[RingElement] = set()
    for vec in scope_x:
        expected.add(RingElement(ring, list(enumerate(vec))))
    for vec in scope_y:
        expected.add(RingElement(ring, [(nx + i, c) for i, c in enumerate(vec)]))
    for a, b in mixed:
        expected.add(
            RingElement(ring, [(i, a) for i in range(nx)] + [(nx + i, b) for i in range(ny)])
        )
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


@dataclass
class IdempotentSetReport:
    passed: bool
    size: int
    failures: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"passed": self.passed, "size": self.size, "failures": self.failures}


def _dense_sample(sample, q: FiniteQuandle, ring: CoeffRing):
    """The sample as a k x n integer array D*S, with its scale D.

    Over Q, D is the common denominator of all coefficients; over Z and
    Z/m it is 1.  Over Z and Q every entry and partial sum the check
    computes is bounded by L^4, L the largest l1 norm of a scaled row,
    because |uv|_1 <= |u|_1 |v|_1 and D <= L (a nonzero idempotent has
    l1 norm at least 1); int64 holds that when L^4 < 2^62.  Z/m reduces
    after every product, so the kernel's guard applies.  Otherwise the
    array holds Python ints.
    """
    import numpy as np

    n = q.order
    for i, u in enumerate(sample):
        for key in u.support:
            if not q.contains_key(key):
                raise CarrierMismatchError(f"sample element {i}: basis key {key!r} is not in the carrier")
    scale = 1
    if ring.kind == "Q":
        scale = math.lcm(*(c.denominator for u in sample for _, c in u.coeffs))
    if ring.kind == "Zmod":
        safe = _search_kernel._int64_safe(n, ring.modulus)
    else:
        norm = max(sum(abs(c) for _, c in u.coeffs) for u in sample) * scale
        safe = norm**4 < 2**62
    dense = np.zeros((len(sample), n), dtype=np.int64 if safe else object)
    for i, u in enumerate(sample):
        for key, c in u.coeffs:
            dense[i, key] = int(c * scale)
    return dense, scale


def idempotent_quandle_check(sample, q: FiniteQuandle) -> IdempotentSetReport:
    """Check a set of idempotents under the ring product: closure into
    idempotents, self-distributivity on all triples, and that right
    multiplication by each member equals right multiplication by some
    basis element.  All failures are reported, not just the first, in
    index order.

    The products run on dense integer arrays: P = S.S once, closure on
    all of P at once, then self-distributivity one first index at a
    time, so no step holds more than k^2 n entries.  With S scaled by D,
    P carries D^2, so closure compares PP with D^2 P and
    self-distributivity compares D (P S) with P P.
    """
    import numpy as np

    sample = list(sample)
    if not sample:
        raise InvalidParamsError("sample is empty")
    ring = sample[0].ring
    for i, u in enumerate(sample):
        if u.ring != ring:
            raise RingMismatchError(f"sample element {i} uses {u.ring.tag}, expected {ring.tag}")
        if not is_idempotent(u, q):
            raise NotIdempotentInputError(f"sample element {i} is not idempotent")
    k = len(sample)
    s, d = _dense_sample(sample, q, ring)

    def product(a, b):
        out = _search_kernel.table_product(a, b, q.table)
        return out % ring.modulus if ring.kind == "Zmod" else out

    p = product(s[:, None], s[None, :])
    failures = []
    not_idempotent = (p == 0).all(axis=-1) | (product(p, p) != d * d * p).any(axis=-1)
    for i, j in np.argwhere(not_idempotent):
        failures.append({"check": "closure", "indices": [int(i), int(j)]})
    for i in range(k):
        # (P[i,j] S[l])[x] != (P[i,l] P[j,l])[x] over all j, l
        broken = (d * product(p[i][:, None], s[None, :]) != product(p[i][None, :], p)).any(axis=-1)
        for j, l in np.argwhere(broken):
            failures.append({"check": "self_distributivity", "indices": [i, int(j), int(l)]})
    basis_matrices = [right_mult_matrix(basis(ring, t), q) for t in range(q.order)]
    for i, u in enumerate(sample):
        m = right_mult_matrix(u, q)
        if m not in basis_matrices:
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
    total = ring.zero
    for a in alphas:
        total = ring.add(total, a)
    if total != ring.zero:
        raise ConstraintViolatedError(f"coefficients sum to {total}, need 0")
    v = RingElement(ring, list(zip(fiber, alphas)))
    if v.is_zero():
        raise ConstraintViolatedError("coefficients are all zero")
    matrix = right_mult_matrix(v, covering.hom.domain)
    return {"element": v, "verified": matrix.is_zero()}


def _support_tuples(n: int, bound: int, max_support: int) -> int:
    """(support, coefficient tuple) pairs with at most max_support of n
    keys and nonzero entries in [-bound, bound]: sum of C(n, k) (2 bound)^k.

    Term by term, C(n, k) (2 bound)^k = C(n, k - 1) (2 bound)^(k - 1) *
    (n - k + 1) 2 bound / k exactly, so no binomial is computed afresh."""
    total, term = 0, 1
    for k in range(1, min(max_support, n) + 1):
        term = term * (n - k + 1) * 2 * bound // k
        total += term
    return total


def _support_search(keys, op, bound: int, max_support: int) -> tuple[int, list[RingElement]]:
    """Every integer idempotent supported on at most max_support of keys.

    Walks each support S (combinations of keys in order) and each tuple of
    nonzero coefficients in [-bound, bound] on S.  op(a, b) is computed
    once per pair of keys and interned as an int: keys get 0..n-1 in
    order, products outside keys get fresh ids.  Keys must be distinct.

    A support is ruled out without evaluating any tuple on it when some id
    outside S is reached by exactly one ordered pair (a, b) of S, a == b
    included (the non-cancellation step of the free-quandle argument):
    u^2 then carries c_a * c_b at that id and u carries 0.  That product
    is nonzero only because Z is an integral domain and the coefficients
    are nonzero; over a composite Z/m (2 * 3 = 0 mod 6) the rule is
    unsound, so this search runs over Z only.  On the other supports a
    tuple whose coefficient sum is not 0 or 1 is skipped (an integer
    idempotent's augmentation squares to itself) and the rest are squared.

    Supports grow one key at a time, depth first.  Adding x changes only
    the counts of the ids that (x, s), (s, x) and (x, x) reach, so the set
    of ids outside S reached exactly once is carried along.  A support of
    max_support - 1 keys with such an id t is extended only by keys that
    cover t: t itself, or x with (x, s), (s, x) or (x, x) reaching t.  Any
    other x leaves t reached once, outside the support.  A square is
    checked target by target, the ids outside S (sum 0) first, and stops
    at the first that fails.

    Returns (tested, idempotents), idempotents in the order the naive
    loop finds them: by support size, then support, then tuple.  tested
    counts every (support, coefficient tuple) pair, including the tuples
    on ruled-out supports and those the coefficient-sum filter skips.
    """
    keys = list(keys)
    n = len(keys)
    ids = {key: i for i, key in enumerate(keys)}
    table = [[ids.setdefault(op(a, b), len(ids)) for b in keys] for a in keys]
    covers: list[list[tuple[int, int]]] = [[] for _ in ids]
    for a, row in enumerate(table):
        for b, t in enumerate(row):
            covers[t].append((a, b))
    width = [len(pairs) for pairs in covers]
    top = min(max_support, n)
    nonzero = [c for c in range(-bound, bound + 1) if c != 0]
    tuples = [[c for c in itertools.product(nonzero, repeat=k) if sum(c) in (0, 1)]
              for k in range(top + 1)]
    found: list[list[RingElement]] = [[] for _ in tuples]
    count = [0] * len(ids)
    inside = [False] * len(ids)
    once: set[int] = set()  # ids outside the support reached exactly once
    support: list[int] = []

    def reached(x):
        row = table[x]
        return [row[s] for s in support] + [table[s][x] for s in support] + [row[x]]

    def push(x):
        inside[x] = True
        once.discard(x)
        for t in reached(x):
            count[t] += 1
            if count[t] == 1:
                if not inside[t]:
                    once.add(t)
            elif count[t] == 2:
                once.discard(t)
        support.append(x)

    def pop():
        x = support.pop()
        for t in reached(x):
            count[t] -= 1
            if count[t] == 1:
                if not inside[t]:
                    once.add(t)
            elif count[t] == 0:
                once.discard(t)
        inside[x] = False
        if count[x] == 1:
            once.add(x)

    def evaluate():
        k = len(support)
        groups: dict[int, list[tuple[int, int]]] = {}
        for i, a in enumerate(support):
            row = table[a]
            for j, b in enumerate(support):
                groups.setdefault(row[b], []).append((i, j))
        within = [(i, groups.pop(x, [])) for i, x in enumerate(support)]
        # outside targets first; their sums must be 0, the entry at position k
        checks = [(k, pairs) for pairs in groups.values()] + within
        for coeffs in tuples[k]:
            want = coeffs + (0,)
            for target, pairs in checks:
                total = 0
                for i, j in pairs:
                    total += coeffs[i] * coeffs[j]
                if total != want[target]:
                    break
            else:
                found[k].append(RingElement(ZZ, [(keys[x], c) for x, c in zip(support, coeffs)]))

    def grow(start):
        if once and len(support) == top - 1:
            t = min(once, key=width.__getitem__)
            cover = {t} if t < n else set()
            for a, b in covers[t]:
                if a == b or inside[b]:
                    cover.add(a)
                elif inside[a]:
                    cover.add(b)
            candidates = sorted(x for x in cover if x >= start)
        else:
            candidates = range(start, n)
        for x in candidates:
            push(x)
            if not once:
                evaluate()
            if len(support) < top:
                grow(x + 1)
            pop()

    if top > 0:
        grow(0)
    return _support_tuples(n, bound, max_support), [u for level in found for u in level]


def core_three_support_check(factors, bound: int, budget: int = 10**8) -> dict:
    """Exhaust small-support idempotents of a reflection table over an
    abelian group with orders coprime to 2 and 3; only basis elements are
    expected.  Supports run up to 3 distinct keys, nonzero coefficients
    in [-bound, bound].

    This is the support enumerator (_support_search), not the table
    kernel in _search_kernel.  candidates_tested counts every (support,
    coefficient tuple) pair, including the tuples on supports that the
    non-cancellation rule rules out without evaluating them and those the
    coefficient-sum filter skips."""
    if bound < 1:
        raise InvalidParamsError("bound must be >= 1")
    factors = [int(a) for a in factors]
    order = math.prod(factors)
    if math.gcd(order, 6) != 1:
        raise HypothesisFailedError("group order must be coprime to 2 and 3")
    q = core_quandle(factors)
    n = q.order
    total = _support_tuples(n, bound, 3)
    if total > budget:
        raise BudgetExceededError(total, budget)
    tested, found = _support_search(range(n), q.op, bound, 3)
    nontrivial = [u for u in found if not (len(u.coeffs) == 1 and u.coeffs[0][1] == 1)]
    return {
        "quandle": q.name,
        "box_bound": bound,
        "max_support": 3,
        "candidates_tested": tested,
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
            q = FiniteQuandle(table)
            q.name = name
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
            if bound is not None:
                report = enumerate_boxed_Z(q, bound, max_support, budget=budget, jobs=jobs)
                searches.append(report.spec)
                counterexamples.extend(_non_basis(report))
            for p in moduli:
                report = enumerate_mod_p(q, p, max_support, budget=budget, jobs=jobs)
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
    for u in report.sorted_idempotents():
        if len(u.coeffs) == 1 and u.coeffs[0][1] == u.ring.one:
            continue
        out.append(u)
    return out
