"""Library process for the exact_verify and support_sweep workloads.

    PYTHONPATH=src python3 bench/libworker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Sets up (imports quandlekit, loads tables, builds samples, makes one
untimed warm-up call per job kind), prints "ready", then runs passes of
the workload's jobs as one closed-loop client: each job starts when the
previous one returns, in an order drawn from SEED for every pass.  Passes
run until SECONDS have been measured.  With TRACE=1 passes alternate
untraced and traced, ending on a traced one.  The loop probe of
bench/probe.py runs between jobs and, sampled, during them.  The last
stdout line is a JSON document with every job's time, its probe times
and its serialized output; run.py checks the outputs and computes the
metrics.

Library entry points are looked up on the package at call time, so the
tracing wrappers installed between passes take effect.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import sys
from time import perf_counter


def _text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _exact_verify(qk):
    r6 = qk.load_quandle("fixtures/r6.json")
    r5 = qk.load_quandle("fixtures/r5.json")
    r10 = qk.load_quandle("fixtures/r10.json")
    sample, seen = [], set()
    for j in (0, 1, 2):
        for beta, a0, a1 in itertools.product((-1, 0, 1), repeat=3):
            u = qk.dihedral_even_family(3, j, beta, [a0, a1])
            if u not in seen:
                seen.add(u)
                sample.append(u)
    members, seen = [], set()
    for j in range(5):
        for beta in (-1, 0, 1, 2):
            for alphas in itertools.product((-1, 0, 1), repeat=3):
                u = qk.dihedral_even_family(5, j, beta, list(alphas))
                if u not in seen:
                    seen.add(u)
                    members.append(u)
    cov = qk.check_covering(qk.QuandleHom(r10, r5, [i % 5 for i in range(10)]))

    def classify():
        return sum(qk.covering_classify(u, cov).in_family for u in members)

    def endomorphisms():
        return sum(qk.is_ring_endomorphism(u, r10) for u in members)

    jobs = {
        "iqc": (lambda: qk.idempotent_quandle_check(sample, r6), lambda out: _text(out.to_json())),
        "family_verify": (lambda: qk.covering_family_verify(cov), lambda out: _text(out.to_json())),
        "classify": (classify, lambda out: _text({"members": len(members), "in_family": out})),
        "endomorphism": (endomorphisms,
                         lambda out: _text({"members": len(members), "endomorphisms": out})),
    }

    def warm_up():
        qk.idempotent_quandle_check(sample[:2], r6)
        qk.covering_family_verify(cov, max_j=0)
        qk.covering_classify(members[0], cov)
        qk.is_ring_endomorphism(members[0], r10)

    inputs = {
        "sample_r6": [qk.element_to_json(u) for u in sample],
        "members_r10": [qk.element_to_json(u) for u in members],
    }
    return jobs, warm_up, inputs


def _support_sweep(qk):
    r10 = qk.load_quandle("fixtures/r10.json")
    jobs = {
        "core3": (lambda: qk.core_three_support_check([5, 5], 2), _text),
        "fq_search": (lambda: qk.fq_idempotent_search(2, 3, 3, 3), lambda out: _text(out.to_json())),
        "boxed_support3": (lambda: qk.enumerate_boxed_Z(r10, 2, max_support=3),
                           lambda out: _text(out.to_json())),
    }

    def warm_up():
        qk.core_three_support_check([5], 1)
        qk.fq_idempotent_search(2, 2, 2, 1)
        qk.enumerate_boxed_Z(r10, 1, max_support=1)

    return jobs, warm_up, {}


SETUPS = {"exact_verify": _exact_verify, "support_sweep": _support_sweep}


def main() -> int:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    t0 = perf_counter()
    import quandlekit as qk
    import_s = perf_counter() - t0
    jobs, warm_up, inputs = SETUPS[workload](qk)
    warm_up()
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return 0

    from probe import Sampler, loop_probe
    from tracing import Tracer

    tracer = Tracer()
    rng = random.Random(seed)
    passes = []
    start = perf_counter()
    speed = loop_probe()
    with Sampler() as sampler:
        while True:
            traced = trace and len(passes) % 2 == 1
            order = rng.sample(sorted(jobs), len(jobs))
            if traced:
                tracer.reset()
                tracer.install()
            results = []
            try:
                for name in order:
                    n0, spent0 = len(sampler.samples), sampler.spent
                    sampler.resume()
                    j0 = perf_counter()
                    out = jobs[name][0]()
                    sampler.pause()
                    s = perf_counter() - j0 - (sampler.spent - spent0)
                    after = loop_probe()
                    results.append((name, s, [speed, *sampler.samples[n0:], after], out))
                    speed = after
            finally:
                tracer.uninstall()
            summary = tracer.summary() if traced else None
            if summary is not None:
                summary["import_s"] = import_s
            passes.append({
                "traced": traced,
                "jobs": [{"name": name, "s": s, "probes": probes, "output": jobs[name][1](out)}
                         for name, s, probes, out in results],
                "trace": summary,
            })
            done = perf_counter() - start >= seconds
            if done and not (trace and not traced):
                break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"import_s": import_s, "inputs": inputs, "passes": passes, "rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
