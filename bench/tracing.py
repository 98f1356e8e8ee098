"""Outside-in tracing of quandlekit's layers.

The program carries no spans of its own, so the benchmark wraps each
layer's entry points and patches the wrapped name into every quandlekit
module namespace that holds it.  Coarse calls become spans (name,
duration, parent) kept in memory; hot calls (ring.mul, RingElement
construction, fq_op, FreeQuandle.op, is_idempotent) only add a count and
their time to the innermost open span, because a span per call would
cost more than the call.  Kernel chunks that run in forked pool workers
append one JSON line per chunk to a sidecar file, since those processes
exit without running cleanup code.

`summary()` reduces the spans to the raw per-layer sums that
`layer_metrics` turns into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _jobs(args, kwargs):
    # enumerate_boxed_Z and enumerate_mod_p both take jobs sixth
    return kwargs.get("jobs", args[5] if len(args) > 5 else 1)


def _chunk_attrs(args, kwargs, out):
    task = args[0]
    return {"indices": task[6] - task[5], "candidates": out[1], "hits": len(out[0])}


# (span name, module, attribute, attrs(args, kwargs, result) or None)
SPANS = [
    ("cli.main", "quandlekit.cli", "main", None),
    ("cli.emit", "quandlekit.cli", "_emit", None),
    ("core.load", "quandlekit.core", "load_quandle", None),
    ("core.validate", "quandlekit.core", "validate_table", None),
    ("reports.to_json", "quandlekit.reports", "IdempotentReport.to_json", None),
    ("kernel.chunk", "quandlekit._search_kernel", "evaluate_chunk", _chunk_attrs),
    ("idempotents.search", "quandlekit.idempotents", "enumerate_boxed_Z",
     lambda a, k, out: {"jobs": _jobs(a, k)}),
    ("idempotents.search", "quandlekit.idempotents", "enumerate_mod_p",
     lambda a, k, out: {"jobs": _jobs(a, k)}),
    ("idempotents.iqc", "quandlekit.idempotents", "idempotent_quandle_check", None),
    ("idempotents.family_verify", "quandlekit.idempotents", "covering_family_verify",
     lambda a, k, out: {"cases": out.cases}),
    ("idempotents.classify", "quandlekit.idempotents", "covering_classify", None),
    ("idempotents.core3", "quandlekit.idempotents", "core_three_support_check",
     lambda a, k, out: {"candidates": out["candidates_tested"],
                        "found": out["trivial_found"] + len(out["nontrivial"])}),
    ("ring.endomorphism", "quandlekit.ring", "is_ring_endomorphism", None),
    ("free.search", "quandlekit.free", "fq_idempotent_search",
     lambda a, k, out: {"candidates": out.candidates_tested}),
    ("free.enumerate", "quandlekit.free", "enumerate_elements", None),
]

# (counter name, module, attribute)
HOT = [
    ("ring.mul", "quandlekit.ring", "mul"),
    ("ring.element", "quandlekit.ring", "RingElement.__init__"),
    ("ring.is_idempotent", "quandlekit.ring", "is_idempotent"),
    ("free.op", "quandlekit.free", "FreeQuandle.op"),
    ("free.fq_op", "quandlekit.free", "fq_op"),
]


def _resolve(module, attr):
    """(owner, name, current value) for 'func' or 'Class.method'."""
    owner = sys.modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans and hot-call counters for one process."""

    def __init__(self, sidecar: str | None = None):
        self.sidecar = sidecar
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.root_hot: dict = {}
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.root_hot.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = {"name": name, "parent": stack[-1] if stack else None, "hot": {}}
            stack.append(rec)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    rec.update(attrs(args, kwargs, out))
            finally:
                # a span that raised (a domain error the CLI reports) still counts
                rec["s"] = perf_counter() - t0
                stack.pop()
                if os.getpid() == tracer.pid:
                    tracer.spans.append(rec)
                elif tracer.sidecar is not None:
                    tracer._spill(rec)
            return out

        return wrapper

    def _hot(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack = tracer.stack
                bucket = stack[-1]["hot"] if stack else tracer.root_hot
                c = bucket.get(name)
                if c is None:
                    bucket[name] = [1, dt]
                else:
                    c[0] += 1
                    c[1] += dt

        return wrapper

    def _spill(self, rec):
        line = {k: v for k, v in rec.items() if k not in ("parent", "hot")}
        with open(f"{self.sidecar}.kernel-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, in every quandlekit namespace holding it."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "quandlekit" or n.startswith("quandlekit."))]
        # a library process never imports quandlekit.cli, so its spans are skipped
        wrapped = [(module, attr, self._span(name, _resolve(module, attr)[2], attrs))
                   for name, module, attr, attrs in SPANS if module in sys.modules]
        wrapped += [(module, attr, self._hot(name, _resolve(module, attr)[2]))
                    for name, module, attr in HOT if module in sys.modules]
        for module, attr, wrapper in wrapped:
            owner, leaf, orig = _resolve(module, attr)
            if "." in attr:
                # a method lives on its class, which every importer shares
                self._patches.append((owner, leaf, orig))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-layer sums for everything recorded since the last reset."""
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for bucket in [self.root_hot] + [rec["hot"] for rec in self.spans]:
            for name, (calls, secs) in bucket.items():
                add(f"{name}.calls", calls)
                add(f"{name}.s", secs)
        kernel_in_search: dict = {}
        for rec in self.spans:
            add(f"{rec['name']}.calls", 1)
            add(f"{rec['name']}.s", rec["s"])
            for key in ("indices", "candidates", "hits", "cases", "found"):
                if key in rec:
                    add(f"{rec['name']}.{key}", rec[key])
            parent = rec["parent"]
            if rec["name"] == "kernel.chunk" and parent is not None:
                kernel_in_search[id(parent)] = kernel_in_search.get(id(parent), 0.0) + rec["s"]
        for rec in self.spans:
            if rec["name"] != "idempotents.search":
                continue
            calls, secs = rec["hot"].get("ring.is_idempotent", (0, 0.0))
            add("recheck.calls", calls)
            add("recheck.s", secs)
            if rec["jobs"] <= 1:
                add("driver_self.s", rec["s"] - kernel_in_search.get(id(rec), 0.0) - secs)
        return out


def read_sidecars(prefix: str) -> dict:
    """Sum the kernel chunks that forked pool workers appended."""
    folder, stem = os.path.split(prefix)
    chunks = []
    for fname in sorted(os.listdir(folder)):
        if fname.startswith(stem + ".kernel-"):
            with open(os.path.join(folder, fname)) as fh:
                chunks += [json.loads(line) for line in fh]
    return merge(*[{"kernel.chunk.calls": 1, "kernel.chunk.s": c["s"],
                    **{f"kernel.chunk.{k}": c[k] for k in ("indices", "candidates", "hits")}}
                   for c in chunks])


def merge(*sums: dict) -> dict:
    out: dict = {}
    for s in sums:
        for k, v in s.items():
            out[k] = out.get(k, 0) + v
    return out


def _ratio(a, b):
    return a / b if b else 0.0


# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "cli.import_s": "s", "cli.process_s": "s", "cli.main_s": "s", "cli.emit_s": "s",
    "cli.bytes_out": "count",
    "core.load_calls": "count", "core.load_s": "s", "core.validate_s": "s",
    "reports.to_json_s": "s",
    "kernel.chunks": "count", "kernel.indices": "count", "kernel.candidates": "count",
    "kernel.hits": "count", "kernel.busy_s": "s", "kernel.ns_per_candidate": "ns",
    "kernel.in_box_ratio": "ratio", "kernel.hit_ratio": "ratio",
    "idempotents.search_s": "s", "idempotents.rechecks": "count",
    "idempotents.recheck_s": "s", "idempotents.driver_self_s": "s",
    "idempotents.parallel_efficiency": "ratio", "idempotents.pool_overhead_s": "s",
    "idempotents.iqc_s": "s", "idempotents.family_verify_s": "s",
    "idempotents.family_verify_cases": "count", "idempotents.classify_s": "s",
    "idempotents.core3_s": "s", "idempotents.core3_candidates": "count",
    "idempotents.core3_yield": "ratio",
    "ring.mul_calls": "count", "ring.mul_s": "s", "ring.mul_us": "us",
    "ring.elements_built": "count", "ring.endomorphism_s": "s",
    "free.search_s": "s", "free.candidates": "count", "free.enumerate_s": "s",
    "free.op_calls": "count", "free.op_memo_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics of one pass from its merged raw sums.

    Keys the caller measures itself (cli.import_s, cli.process_s,
    cli.bytes_out, idempotents.parallel_efficiency,
    idempotents.pool_overhead_s, trace.overhead_frac) pass through.
    A layer the pass never entered reads 0.
    """
    g = lambda k: raw.get(k, 0)  # noqa: E731
    m = {
        "cli.main_s": g("cli.main.s"),
        "cli.emit_s": g("cli.emit.s"),
        "core.load_calls": g("core.load.calls"),
        "core.load_s": g("core.load.s"),
        "core.validate_s": g("core.validate.s"),
        "reports.to_json_s": g("reports.to_json.s"),
        "kernel.chunks": g("kernel.chunk.calls"),
        "kernel.indices": g("kernel.chunk.indices"),
        "kernel.candidates": g("kernel.chunk.candidates"),
        "kernel.hits": g("kernel.chunk.hits"),
        "kernel.busy_s": g("kernel.chunk.s"),
        "kernel.ns_per_candidate": 1e9 * _ratio(g("kernel.chunk.s"), g("kernel.chunk.candidates")),
        "kernel.in_box_ratio": _ratio(g("kernel.chunk.candidates"), g("kernel.chunk.indices")),
        "kernel.hit_ratio": _ratio(g("kernel.chunk.hits"), g("kernel.chunk.candidates")),
        "idempotents.search_s": g("idempotents.search.s"),
        "idempotents.rechecks": g("recheck.calls"),
        "idempotents.recheck_s": g("recheck.s"),
        "idempotents.driver_self_s": g("driver_self.s"),
        "idempotents.iqc_s": g("idempotents.iqc.s"),
        "idempotents.family_verify_s": g("idempotents.family_verify.s"),
        "idempotents.family_verify_cases": g("idempotents.family_verify.cases"),
        "idempotents.classify_s": g("idempotents.classify.s"),
        "idempotents.core3_s": g("idempotents.core3.s"),
        "idempotents.core3_candidates": g("idempotents.core3.candidates"),
        "idempotents.core3_yield": _ratio(g("idempotents.core3.found"),
                                          g("idempotents.core3.candidates")),
        "ring.mul_calls": g("ring.mul.calls"),
        "ring.mul_s": g("ring.mul.s"),
        "ring.mul_us": 1e6 * _ratio(g("ring.mul.s"), g("ring.mul.calls")),
        "ring.elements_built": g("ring.element.calls"),
        "ring.endomorphism_s": g("ring.endomorphism.s"),
        "free.search_s": g("free.search.s"),
        "free.candidates": g("free.search.candidates"),
        "free.enumerate_s": g("free.enumerate.s"),
        "free.op_calls": g("free.op.calls"),
        "free.op_memo_hit_ratio": (1 - g("free.fq_op.calls") / g("free.op.calls"))
        if g("free.op.calls") else 0.0,
    }
    for key in ("cli.import_s", "cli.process_s", "cli.bytes_out",
                "idempotents.parallel_efficiency", "idempotents.pool_overhead_s",
                "trace.overhead_frac"):
        m[key] = raw.get(key, 0)
    return {k: m[k] for k in LAYER_UNITS}
