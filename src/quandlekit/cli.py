"""Command-line front end.

Three groups of subcommands: `quandle` (construction, validation,
properties), `covering` (checking, search, the derived idempotent
family), and `idem` (enumeration, family generators, cross-checks,
scans).  Reports are JSON on stdout, or written to the `-o` path with a
note on stderr.  Exit codes: 0 success, 1 domain error (a structured
payload is still printed), 2 budget exceeded.

Usage errors also exit 1: the code 2 is reserved for blown budgets.

Each call executes only the modules its subcommand uses: `quandle` and
`covering check|find` run on `core` alone; the other `covering` and
`idem` subcommands load `ring` and `idempotents`, and only `idem
fq-search` loads `free`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# the package binds free, idempotents and ring lazily: a name is read off
# its module when a subcommand runs, never imported from it here
from . import core, free, idempotents, ring
from .core import QuandleHom, check_covering, load_quandle, quandle_from_json, read_json
from .errors import InvalidParamsError, QuandleKitError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route through the domain-error path
    def error(self, message):
        raise InvalidParamsError(message)


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _int(text, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParamsError(f"{what} must be an integer, got {text!r}") from None


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise InvalidParamsError(f"expected comma separated integers, got {text!r}") from None


def _load_doc(path: str, key: str) -> dict:
    """The JSON object in path, which must have the field `key`."""
    doc = read_json(path)
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidParamsError(f"{path}: expected a JSON object with a {key!r} field")
    return doc


def _stem(path: str) -> str:
    return os.path.basename(path).removesuffix(".json")


def _scope(tag: str, bound) -> dict:
    """The search scope of --ring and --bound: {"bound": B} or {"modulus": P}."""
    tag = tag.lower()
    if tag == "z":
        if bound is None:
            raise InvalidParamsError("--ring z needs --bound")
        return {"bound": _int(bound, "--bound")}
    if tag.startswith("zp:"):
        if bound is not None:
            raise InvalidParamsError("--bound only applies to --ring z")
        return {"modulus": _int(tag.split(":", 1)[1], "modulus")}
    raise InvalidParamsError(f"unsupported ring {tag!r}; use z or zp:P")


def _scalar_ring(tag: str):
    """Coefficient ring for scalar flags: z, q, or zp:P."""
    tag = tag.lower()
    if tag in ("z", "q"):
        return ring.ring_from_tag(tag.upper())
    if tag.startswith("zp:"):
        return ring.ring_from_tag("Zmod:" + tag.split(":", 1)[1])
    raise InvalidParamsError(f"unsupported ring {tag!r}; use z, q, or zp:P")


# ---------------------------------------------------------------------------
# quandle group


def _cmd_quandle_check(args) -> dict:
    if args.as_magma:
        q = load_quandle(args.file, as_magma=True)
        doc = {"quandle": q.name, "order": q.order, "flags": []}
        try:
            core.validate_table(q.table)
            doc["valid"] = True
        except QuandleKitError as err:
            doc["valid"] = False
            doc["violation"] = err.payload()
            doc["flags"].append("not a quandle")
        return doc
    q = load_quandle(args.file)
    return {"quandle": q.name, "order": q.order, "valid": True, "flags": []}


def _cmd_quandle_make(args) -> dict:
    kind = args.kind
    params = args.params
    arity = {"trivial": 1, "dihedral": 1, "conj": 1, "product": 2, "twisted-union": 2, "cocycle": 2}
    if kind in arity and len(params) != arity[kind]:
        raise InvalidParamsError(f"{kind} takes {arity[kind]} parameter(s), got {len(params)}")
    if kind in ("core", "union") and not params:
        raise InvalidParamsError(f"{kind} needs at least one parameter")
    if kind in ("trivial", "dihedral"):
        q = core.make(kind, _int(params[0], "order"))
    elif kind == "core":
        q = core.make(kind, [_int(v, "factor") for v in params])
    elif kind == "conj":
        q = core.make(kind, _load_doc(params[0], "table")["table"])
    elif kind == "product":
        q = core.make(kind, load_quandle(params[0]), load_quandle(params[1]))
    elif kind == "union":
        if len(params) < 2:
            raise InvalidParamsError("union needs at least two quandle files")
        q = core.make(kind, *[load_quandle(p) for p in params])
    elif kind == "twisted-union":
        if args.f is None or args.g is None:
            raise InvalidParamsError("twisted-union needs --f and --g")
        q = core.make(
            kind,
            load_quandle(params[0]),
            load_quandle(params[1]),
            _csv_ints(args.f),
            _csv_ints(args.g),
        )
    elif kind == "cocycle":
        if args.alpha is None:
            raise InvalidParamsError("cocycle needs --alpha")
        alpha_doc = read_json(args.alpha)
        alpha = alpha_doc["alpha"] if isinstance(alpha_doc, dict) else alpha_doc
        data = core.CocycleData.from_parts(load_quandle(params[0]), _int(params[1], "group order"), alpha)
        q = core.make(kind, data)
    doc = q.to_json()
    doc["name"] = q.name
    return doc


def _cmd_quandle_props(args) -> dict:
    q = load_quandle(args.file)
    return {
        "quandle": q.name,
        "order": q.order,
        "properties": core.properties(q).to_json(),
    }


def _cmd_quandle_orbits(args) -> dict:
    q = load_quandle(args.file)
    orbits = core.inner_orbits(q)
    return {"quandle": q.name, "orbits": [list(o) for o in orbits], "count": len(orbits)}


def _cmd_quandle_subquandles(args) -> dict:
    q = load_quandle(args.file)
    subs = core.trivial_subquandles(q, args.max)
    return {
        "quandle": q.name,
        "max_size": args.max,
        "subquandles": [list(s) for s in subs],
        "count": len(subs),
    }


# ---------------------------------------------------------------------------
# covering group


def _covering_from_args(args):
    total = load_quandle(args.total)
    base = load_quandle(args.base)
    hom = QuandleHom(total, base, _csv_ints(args.map))
    return total, base, check_covering(hom)


def _covering_from_doc(doc: dict):
    total = quandle_from_json(doc["total"])
    total.name = doc["total"].get("name")
    base = quandle_from_json(doc["base"])
    base.name = doc["base"].get("name")
    hom = QuandleHom(total, base, doc["map"])
    return check_covering(hom)


def _cmd_covering_check(args) -> dict:
    total, base, cov = _covering_from_args(args)
    return {"total": total.name, "base": base.name, **cov.to_json()}


def _cmd_covering_find(args) -> dict:
    total = load_quandle(args.total)
    base = load_quandle(args.base)
    found = core.find_coverings(total, base, budget=args.budget)
    return {
        "total": total.name,
        "base": base.name,
        "count": len(found),
        "coverings": [c.to_json() for c in found],
    }


def _cmd_covering_family_verify(args) -> dict:
    total, base, cov = _covering_from_args(args)
    scalars = _scalar_ring(args.ring)
    report = idempotents.covering_family_verify(cov, ring=scalars, max_j=args.max_j, budget=args.budget)
    return {"total": total.name, "base": base.name, **report.to_json()}


def _cmd_covering_classify(args) -> dict:
    total, base, cov = _covering_from_args(args)
    u = ring.element_from_json(_load_doc(args.element, "coeffs"))
    result = idempotents.covering_classify(u, cov)
    return {
        "total": total.name,
        "base": base.name,
        "element": ring.element_to_json(u),
        **result.to_json(),
    }


def _cmd_covering_zero_divisor(args) -> dict:
    total, base, cov = _covering_from_args(args)
    scalars = _scalar_ring(args.ring)
    alphas = [scalars.scalar_parse(tok) for tok in args.alphas.split(",")]
    out = idempotents.right_zero_divisor_from_fiber(cov, args.fiber, alphas, scalars)
    return {
        "total": total.name,
        "base": base.name,
        "fiber": args.fiber,
        "element": ring.element_to_json(out["element"]),
        "verified": out["verified"],
    }


# ---------------------------------------------------------------------------
# idem group


def _cmd_idem_enumerate(args) -> dict:
    q = load_quandle(args.file, as_magma=args.as_magma)
    scope = _scope(args.ring, args.bound)
    search = dict(max_support=args.max_support, budget=args.budget, jobs=args.jobs)
    if "bound" in scope:
        report = idempotents.enumerate_boxed_Z(q, scope["bound"], **search)
    else:
        report = idempotents.enumerate_mod_p(q, scope["modulus"], force=args.force_composite, **search)
    return report.to_json(include_timing=args.timing)


def _cmd_idem_family(args) -> dict:
    cov = _covering_from_doc(_load_doc(args.covering, "total"))
    params = idempotents.family_params_from_json(cov, _load_doc(args.params, "unit_coeffs"))
    u = idempotents.covering_idempotent(cov, params)
    return {
        "element": ring.element_to_json(u),
        "idempotent": ring.is_idempotent(u, cov.hom.domain),
        "augmentation": params.ring.scalar_str(ring.augmentation(u)),
        "params": params.to_json(),
    }


def _cmd_idem_union(args) -> dict:
    parts = [load_quandle(p) for p in args.files]
    return idempotents.union_cross_check(
        parts, **_scope(args.ring, args.bound), max_support=args.max_support,
        budget=args.budget, jobs=args.jobs,
    )


def _cmd_idem_twisted_union(args) -> dict:
    x = load_quandle(args.files[0])
    y = load_quandle(args.files[1])
    f = _csv_ints(args.f)
    g = _csv_ints(args.g)
    return idempotents.twisted_union_classify(
        x, y, f, g, **_scope(args.ring, args.bound), budget=args.budget, jobs=args.jobs
    )


def _cmd_idem_scan(args) -> dict:
    items = []
    for path in args.files:
        items.append((_stem(path), _load_doc(path, "table")["table"]))
    moduli = _csv_ints(args.moduli) if args.moduli else []
    if args.bound is None and not moduli:
        raise InvalidParamsError("scan needs --bound and/or --moduli")
    return idempotents.conjecture_scan(
        items,
        bound=args.bound,
        moduli=moduli,
        max_support=args.max_support,
        budget=args.budget,
        jobs=args.jobs,
    )


def _cmd_idem_fq_search(args) -> dict:
    report = free.fq_idempotent_search(
        args.rank, args.max_len, args.max_support, args.bound, budget=args.budget
    )
    return report.to_json(include_timing=args.timing)


def _cmd_idem_core3(args) -> dict:
    factors = _csv_ints(args.factors)
    return idempotents.core_three_support_check(factors, args.bound, budget=args.budget)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="quandlekit", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, fn, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("-o", "--output", default=None, help="write the report here")
        return p

    quandle = top.add_parser("quandle", help="tables, constructions, properties")
    qsub = quandle.add_subparsers(dest="cmd", required=True)
    p = sub(qsub, "check", _cmd_quandle_check, help="validate a table file")
    p.add_argument("file")
    p.add_argument("--as-magma", action="store_true", help="tolerate non-quandle tables")
    p = sub(qsub, "make", _cmd_quandle_make, help="build a table from a construction")
    p.add_argument("kind", choices=[
        "trivial", "dihedral", "core", "conj", "product", "union", "twisted-union", "cocycle",
    ])
    p.add_argument("params", nargs="*", help="orders or input files, per kind")
    p.add_argument("--f", default=None, help="first twist permutation, comma separated")
    p.add_argument("--g", default=None, help="second twist permutation, comma separated")
    p.add_argument("--alpha", default=None, help="cocycle matrix JSON file")
    p = sub(qsub, "props", _cmd_quandle_props, help="structural properties")
    p.add_argument("file")
    p = sub(qsub, "orbits", _cmd_quandle_orbits, help="orbits of the inner group")
    p.add_argument("file")
    p = sub(qsub, "subquandles", _cmd_quandle_subquandles, help="trivial subquandles of 2 to --max points")
    p.add_argument("file")
    p.add_argument("--max", type=int, required=True, help="largest subset size to report")

    covering = top.add_parser("covering", help="coverings and their idempotents")
    csub = covering.add_subparsers(dest="cmd", required=True)

    def cov_flags(p, with_map=True):
        p.add_argument("--total", required=True, help="domain quandle file")
        p.add_argument("--base", required=True, help="codomain quandle file")
        if with_map:
            p.add_argument("--map", required=True, help="images, comma separated")

    p = sub(csub, "check", _cmd_covering_check, help="verify a covering map")
    cov_flags(p)
    p = sub(csub, "find", _cmd_covering_find, help="search for coverings")
    cov_flags(p, with_map=False)
    p.add_argument("--budget", type=int, default=10**7)
    p = sub(csub, "family-verify", _cmd_covering_family_verify,
            help="certify the derived idempotent family on a coefficient grid")
    cov_flags(p)
    p.add_argument("--ring", default="z", help="z, q or zp:P")
    p.add_argument("--max-j", type=int, default=2, help="largest orbit-part index set")
    p.add_argument("--budget", type=int, default=10**6)
    p = sub(csub, "classify", _cmd_covering_classify,
            help="decompose an idempotent into unit plus orbit sums")
    cov_flags(p)
    p.add_argument("--element", required=True, help="element JSON file")
    p = sub(csub, "zero-divisor", _cmd_covering_zero_divisor,
            help="zero-sum fiber combination annihilated by the whole ring")
    cov_flags(p)
    p.add_argument("--fiber", type=int, required=True)
    p.add_argument("--alphas", required=True, help="coefficients, comma separated, sum 0")
    p.add_argument("--ring", default="z", help="z, q or zp:P")

    idem = top.add_parser("idem", help="idempotent searches and families")
    isub = idem.add_subparsers(dest="cmd", required=True)

    def search_flags(p):
        p.add_argument("--budget", type=int, default=10**8)
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker count; reports do not depend on it")

    p = sub(isub, "enumerate", _cmd_idem_enumerate, help="exhaustive search in a declared scope")
    p.add_argument("file")
    p.add_argument("--ring", required=True, help="z (with --bound) or zp:P")
    p.add_argument("--bound", type=int, default=None, help="coefficient box for --ring z")
    p.add_argument("--force-composite", action="store_true",
                   help="allow a composite modulus (sweeps every augmentation stratum)")
    p.add_argument("--as-magma", action="store_true", help="tolerate non-quandle tables")
    p.add_argument("--timing", action="store_true", help="report real elapsed time")
    search_flags(p)
    p.add_argument("--max-support", type=int, default=None)
    p = sub(isub, "family", _cmd_idem_family, help="build one covering-family idempotent")
    p.add_argument("--covering", required=True, help="covering JSON file")
    p.add_argument("--params", required=True, help="family parameter JSON file")
    p = sub(isub, "union", _cmd_idem_union, help="enumerate a union and explain each idempotent "
            "by the first union kind that rebuilds it")
    p.add_argument("files", nargs="+", help="part quandle files")
    p.add_argument("--ring", required=True, help="z (with --bound) or zp:P")
    p.add_argument("--bound", type=int, default=None)
    search_flags(p)
    p.add_argument("--max-support", type=int, default=None)
    p = sub(isub, "twisted-union", _cmd_idem_twisted_union,
            help="classify twisted-union idempotents and cross-check")
    p.add_argument("files", nargs=2, help="the two trivial part files")
    p.add_argument("--f", required=True, help="first twist permutation, comma separated")
    p.add_argument("--g", required=True, help="second twist permutation, comma separated")
    p.add_argument("--ring", required=True, help="z (with --bound) or zp:P")
    p.add_argument("--bound", type=int, default=None)
    search_flags(p)
    p = sub(isub, "scan", _cmd_idem_scan, help="scan a catalog for nontrivial idempotents")
    p.add_argument("files", nargs="+", help="table files; non-quandles are reported, not fatal")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--moduli", default=None, help="primes, comma separated")
    search_flags(p)
    p.add_argument("--max-support", type=int, default=None)
    p = sub(isub, "fq-search", _cmd_idem_fq_search, help="bounded search in a free basis")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-support", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--timing", action="store_true")
    p = sub(isub, "core3", _cmd_idem_core3,
            help="small-support sweep over a reflection table")
    p.add_argument("--factors", required=True, help="cyclic orders, comma separated")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(args.func(args), args.output)
    except QuandleKitError as err:
        _emit(err.payload(), None)
        return err.exit_code
    except (OSError, json.JSONDecodeError, KeyError) as err:
        # bad paths, unwritable -o paths and malformed input files are
        # domain errors, not crashes
        _emit({"error": type(err).__name__, "message": str(err)}, None)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
