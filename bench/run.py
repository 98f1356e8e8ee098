#!/usr/bin/env python3
"""quandlekit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare BASE NEW

Run from the root of a source checkout; nothing needs to be installed.
Every CLI call is `python3 -m quandlekit.cli ...` with PYTHONPATH=src;
the library workloads run in one `bench/libworker.py` child process.

A run sets up three times (the median is setup_s), then measures whole
passes of the workload's jobs for S seconds as one closed-loop client,
checks every output against references the program did not produce
(bench/checks.py), writes a result file with an environment stamp to
.bench_out/, and prints one JSON line: the end-to-end metrics with
--trace 0, or the per-layer metrics with --trace 1.  A traced run
alternates untraced and traced passes to measure the tracing overhead.

--compare prints, per workload, each end-to-end metric's ratio between
two sets of result files (files or directories), with its base.

bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, strftime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from probe import LOOP_REFERENCE_S, SPAWN_REFERENCE_S, scaled, spawn_probe  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUPS = 3
CALL_TIMEOUT_S = 150
CLI = [sys.executable, "-m", "quandlekit.cli"]
LAUNCH = [sys.executable, str(HERE / "launch.py")]
WORKER = [sys.executable, str(HERE / "libworker.py")]
REQUIRED = ["src/quandlekit/cli.py", "tests/cli_cases.py", "tests/golden", "fixtures/r10.json"]

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "call_ms_p50": "ms", "call_ms_tail": "ms",
    "candidates_per_s": "1/s", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def load_table(name: str):
    with open(ROOT / "fixtures" / name) as fh:
        return json.load(fh)["table"]


def reported_candidates(text):
    """Elements a call tested, when it reports them: candidates_tested
    (searches), cases (family-verify) or members (classify, endomorphism)."""
    doc = json.loads(text)
    for key in ("candidates_tested", "cases", "members"):
        if key in doc:
            return doc[key]
    return None


class Job:
    """One CLI call with the check its stdout must pass."""

    def __init__(self, name, argv, check):
        self.name, self.argv, self.check = name, argv, check


def run_cli(job: Job, trace_file: str | None) -> dict:
    """Run one call; its own wait4 gives the peak RSS of it and its pool."""
    cmd = LAUNCH + [trace_file, "--"] + job.argv if trace_file else CLI + job.argv
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
        s = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    problems = []
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        problems.append(f"exit code {code}")
    if stderr:
        problems.append("stderr: " + stderr.decode(errors="replace")[-300:])
    if not problems:
        problems = job.check(stdout)
    candidates = reported_candidates(stdout) if not problems else None
    return {"name": job.name, "s": s, "problems": problems, "output": stdout,
            "candidates": candidates, "rss_kb": usage.ru_maxrss}


# ---------------------------------------------------------------------------
# workloads


def probe_now() -> float:
    return spawn_probe(ROOT, child_env())


class CliWorkload:
    """Fresh-process CLI calls; subclasses give setup() and cross_check().

    With `probe_every` set, the spawn probe runs after that many calls and
    at the end of each pass, and a call is scaled by the probes on either
    side of it; without it, calls keep their raw times.
    """

    probe_every = None

    def passes(self, state, seed, seconds, trace, tmp):
        rng = random.Random(seed)
        out = []
        start = perf_counter()
        speed = probe_now() if self.probe_every else None
        while True:
            traced = trace and len(out) % 2 == 1
            order = rng.sample(state, len(state))
            results, traces, pending = [], [], []
            for k, job in enumerate(order):
                trace_file = os.path.join(tmp, f"p{len(out)}-{k}.json") if traced else None
                res = run_cli(job, trace_file)
                res["ref"], res["probes"] = None, []
                if self.probe_every:
                    res["ref"] = SPAWN_REFERENCE_S
                    pending.append(res)
                    if len(pending) == self.probe_every or k == len(order) - 1:
                        after = probe_now()
                        for r in pending:
                            r["probes"] = [speed, after]
                        speed, pending = after, []
                results.append(res)
                traces.append(trace_file)
            self.cross_check(results)
            layer = self.layer_sums(results, traces) if traced else None
            out.append({"traced": traced, "jobs": results, "trace": layer})
            if perf_counter() - start >= seconds and not (trace and not traced):
                return out

    def cross_check(self, results):
        pass

    def layer_sums(self, results, traces) -> dict:
        per_call = {}
        for res, trace_file in zip(results, traces):
            with open(trace_file) as fh:
                raw = json.load(fh)
            raw = tracing.merge(raw, tracing.read_sidecars(trace_file))
            per_call[res["name"]] = raw
        total = tracing.merge(*[{k: v for k, v in raw.items() if k != "import_s"}
                                for raw in per_call.values()])
        total["cli.import_s"] = statistics.median(r["import_s"] for r in per_call.values())
        total["cli.process_s"] = sum(res["s"] - per_call[res["name"]].get("cli.main.s", 0.0)
                                     for res in results)
        total["cli.bytes_out"] = sum(len(res["output"]) for res in results)
        total.update(self.job_layer_metrics(per_call))
        return total

    def job_layer_metrics(self, per_call) -> dict:
        return {}


class CliReplay(CliWorkload):
    """Every golden CLI case once per pass, in a seeded order."""

    probe_every = 4

    def setup(self, final, args):
        t0 = perf_counter()
        spec = importlib.util.spec_from_file_location("cli_cases", ROOT / "tests" / "cli_cases.py")
        cases = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cases)
        jobs = []
        for fname, argv in cases.CASES:
            golden = (cases.GOLDEN / fname).read_bytes()
            jobs.append(Job(fname.removesuffix(".json"), list(argv), self._golden_check(golden)))
        warm = run_cli(jobs[0], None)
        if warm["problems"]:
            raise RuntimeError(f"warm-up call failed: {warm['problems']}")
        return jobs, perf_counter() - t0

    @staticmethod
    def _golden_check(golden: bytes):
        return lambda stdout: [] if stdout == golden else ["stdout differs from its golden file"]


R10_SEARCHES = [
    # name, extra argv, checker keywords, pin
    ("z_b2_j1", ["--ring", "z", "--bound", "2", "--jobs", "1"], {"bound": 2}, "r10_z_b2"),
    ("z_b2_j2", ["--ring", "z", "--bound", "2", "--jobs", "2"], {"bound": 2}, "r10_z_b2"),
    ("zp5_j2", ["--ring", "zp:5", "--jobs", "2"], {"modulus": 5}, "r10_zp5"),
    ("zp3_j2", ["--ring", "zp:3", "--jobs", "2"], {"modulus": 3}, "r10_zp3"),
    ("zp3_j1", ["--ring", "zp:3", "--jobs", "1"], {"modulus": 3}, "r10_zp3"),
]


class KernelSweep(CliWorkload):
    """`idem enumerate` on r10: boxed and mod-p kernels at one and two jobs.

    Raw times: these calls are bound by numpy and the process pool, and
    scaling them by the loop, spawn or a two-process probe made their
    run-to-run spread two to four times wider.
    """

    def setup(self, final, args):
        t0 = perf_counter()
        table = load_table("r10.json")
        jobs = []
        for name, extra, kw, pin in R10_SEARCHES:
            def check(stdout, kw=kw, pin=pin):
                return checks.check_table_search(stdout, table, pin=checks.PINS[pin], **kw)
            jobs.append(Job(name, ["idem", "enumerate", "fixtures/r10.json", *extra], check))
        warm = run_cli(Job("warm_up", ["quandle", "check", "fixtures/r10.json"], lambda out: []), None)
        if warm["problems"]:
            raise RuntimeError(f"warm-up call failed: {warm['problems']}")
        return jobs, perf_counter() - t0

    def cross_check(self, results):
        # reports must not depend on the worker count
        by_name = {r["name"]: r for r in results}
        for one, two in (("z_b2_j1", "z_b2_j2"), ("zp3_j1", "zp3_j2")):
            if by_name[one]["output"] != by_name[two]["output"]:
                by_name[two]["problems"].append(f"report differs from {one}")

    def job_layer_metrics(self, per_call) -> dict:
        t = {name: raw.get("idempotents.search.s", 0.0) for name, raw in per_call.items()}
        return {
            "idempotents.parallel_efficiency": t["z_b2_j1"] / (2 * t["z_b2_j2"]),
            "idempotents.pool_overhead_s": t["zp3_j2"] - t["zp3_j1"],
        }


class LibWorkload:
    """Jobs in one library process (bench/libworker.py).

    Each setup is a fresh worker, timed from spawn to its "ready" line;
    the final one goes on to run the passes at once.
    """

    def __init__(self, name):
        self.name = name

    def setup(self, final, args):
        cmd = WORKER + [self.name, str(args.seed), str(args.seconds), str(args.trace)]
        if not final:
            cmd.append("--setup-only")
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise RuntimeError(f"library worker failed during setup: {err[-2000:]}")
        if not final:
            proc.communicate(timeout=CALL_TIMEOUT_S)
        return proc, ready

    def passes(self, worker, seed, seconds, trace, tmp):
        out, err = worker.communicate(timeout=seconds + 2 * CALL_TIMEOUT_S)
        if worker.returncode != 0:
            raise RuntimeError(f"library worker failed: {err[-2000:]}")
        doc = json.loads(out.strip().splitlines()[-1])
        input_problems = self.check_inputs(doc["inputs"])
        passes = []
        for p in doc["passes"]:
            jobs = []
            for job in p["jobs"]:
                problems = list(input_problems) + self.check_job(job["name"], job["output"])
                candidates = reported_candidates(job["output"]) if not problems else None
                jobs.append({"name": job["name"], "s": job["s"], "probes": job["probes"],
                             "ref": LOOP_REFERENCE_S, "rss_kb": doc["rss_kb"],
                             "problems": problems, "output": job["output"],
                             "candidates": candidates})
            layer = None
            if p["traced"]:
                layer = dict(p["trace"])
                layer["cli.import_s"] = layer.pop("import_s")
            passes.append({"traced": p["traced"], "jobs": jobs, "trace": layer})
        return passes

    def check_inputs(self, inputs) -> list:
        problems = []
        for key, table_name, pin in (("sample_r6", "r6.json", 57), ("members_r10", "r10.json", 304)):
            if key not in inputs:
                continue
            table = load_table(table_name)
            vecs = [checks.element_vector(e, len(table)) for e in inputs[key]]
            if len({tuple(v) for v in vecs if v is not None}) != pin:
                problems.append(f"{key}: expected {pin} distinct elements")
            if any(v is None or checks.square_table_vector(table, v) != v for v in vecs):
                problems.append(f"{key}: an input element is not idempotent")
        return problems

    def check_job(self, name, text) -> list:
        pins = checks.PINS
        if name == "boxed_support3":
            return checks.check_table_search(text, load_table("r10.json"), bound=2,
                                             max_support=3, pin=pins["r10_z_b2_s3"])
        if name == "fq_search":
            return checks.check_free_search(text, 2, 3, pins["fq_2_3_3_3"])
        doc = json.loads(text)
        if name == "core3":
            pin = pins["core3_5x5_b2"]
            return checks.check_fields(doc, {
                "trivial_found": pin["trivial_found"],
                "candidates_tested": pin["candidates_tested"],
                "nontrivial": [],
            })
        if name == "iqc":
            pin = pins["iqc_order6"]
            return checks.check_fields(doc, {"passed": pin["passed"], "size": pin["size"],
                                             "failures": []})
        if name == "family_verify":
            pin = pins["family_verify_r10_r5"]
            return checks.check_fields(doc, {"verified": pin["verified"],
                                             "structures": pin["structures"],
                                             "cases": pin["cases"], "failures": []})
        pin = pins["dihedral10_members"]
        if name == "classify":
            return checks.check_fields(doc, {"members": pin["members"], "in_family": pin["in_family"]})
        if name == "endomorphism":
            return checks.check_fields(doc, {"members": pin["members"],
                                             "endomorphisms": pin["endomorphisms"]})
        return [f"unknown job {name}"]


WORKLOADS = {
    "cli_replay": CliReplay,
    "kernel_sweep": KernelSweep,
    "exact_verify": lambda: LibWorkload("exact_verify"),
    "support_sweep": lambda: LibWorkload("support_sweep"),
}


# ---------------------------------------------------------------------------
# metrics


def tail(latencies, per_pass):
    """(value, percentile, samples) of the latency tail.

    With at least 11 calls a pass, the highest nearest-rank percentile
    that leaves at least ten calls beyond it.  Passes of a few unlike
    jobs have no such percentile that stays on one job as the pass count
    varies, so there the tail is the slowest call of each pass, median
    over passes.
    """
    if min(len(p) for p in per_pass) >= 11:
        ordered = sorted(latencies)
        n = len(ordered)
        pct = math.floor(100 * (n - 10) / n)
        rank = math.ceil(pct * n / 100)
        return ordered[rank - 1], pct, n
    return statistics.median(max(p) for p in per_pass), 100, len(per_pass)


def job_s(job) -> float:
    """A call's time, speed-normalized where its workload probes."""
    return job["s"] if job["ref"] is None else scaled(job["s"], job["probes"], job["ref"])


def pass_s(p) -> float:
    """Speed-normalized time of one pass: its jobs back to back."""
    return sum(job_s(j) for j in p["jobs"])


def end_to_end(setups, passes) -> tuple[dict, dict]:
    per_pass = [[1000 * job_s(j) for j in p["jobs"]] for p in passes]
    latencies = [x for p in per_pass for x in p]
    tail_ms, pct, samples = tail(latencies, per_pass)
    searched = [(j["candidates"], job_s(j)) for p in passes for j in p["jobs"]
                if j["candidates"] is not None]
    metrics = {
        "setup_s": statistics.median(scaled(s, probes, SPAWN_REFERENCE_S) for s, probes in setups),
        "wall_s": statistics.median(pass_s(p) for p in passes),
        "call_ms_p50": statistics.median(statistics.median(p) for p in per_pass),
        "call_ms_tail": tail_ms,
        "candidates_per_s": sum(c for c, _ in searched) / sum(s for _, s in searched)
        if searched else 0.0,
        "peak_rss_mb": max(j["rss_kb"] for p in passes for j in p["jobs"]) / 1024,
    }
    detail = {"calls": len(latencies), "passes": len(passes), "tail_percentile": pct,
              "tail_samples": samples,
              "raw_setups_s": [s for s, _ in setups],
              "raw_pass_s": [sum(j["s"] for j in p["jobs"]) for p in passes],
              "pass_s": [pass_s(p) for p in passes],
              "jobs": [[[j["name"], j["s"], j["probes"]] for j in p["jobs"]] for p in passes]}
    return metrics, detail


def per_layer(passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per = [tracing.layer_metrics(p["trace"]) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per) for k in tracing.LAYER_UNITS}
    metrics["trace.overhead_frac"] = (statistics.median(pass_s(p) for p in traced)
                                      / statistics.median(pass_s(p) for p in plain) - 1)
    return metrics, {"traced_passes": per}


def check_traced_outputs(passes):
    """Traced passes must print exactly what untraced ones print."""
    reference = {}
    for p in passes:
        for job in p["jobs"]:
            if not p["traced"]:
                reference[job["name"]] = job["output"]
            elif job["output"] != reference.get(job["name"]):
                job["problems"].append("traced output differs from untraced output")


# ---------------------------------------------------------------------------
# environment stamp and result files


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.exists() else []:
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return None
    return ref


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cli": "PYTHONPATH=src python3 -m quandlekit.cli ARGV"
        + ("; traced passes: PYTHONPATH=src python3 bench/launch.py TRACE -- ARGV" if args.trace else ""),
        "library": "PYTHONPATH=src python3 bench/libworker.py",
        "started": strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]()
    setups = []  # (raw seconds, probes around them)
    for k in range(SETUPS):
        final = k == SETUPS - 1
        before = probe_now()
        state, raw = workload.setup(final, args)
        # a final library worker is already measuring, so no probe after it
        after = before if final and isinstance(workload, LibWorkload) else probe_now()
        setups.append((raw, [before, after]))
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="trace-") as tmp:
        passes = workload.passes(state, args.seed, args.seconds, bool(args.trace), tmp)
    if args.trace:
        check_traced_outputs(passes)
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [{"pass": i, "job": j["name"], "problems": j["problems"]}
                for i, p in enumerate(passes) for j in p["jobs"] if j["problems"]]
    if args.trace:
        metrics, detail = per_layer(passes)
        units = tracing.LAYER_UNITS
    else:
        metrics, detail = end_to_end(setups, passes)
        units = E2E_UNITS
    return {
        "workload": args.workload,
        "env": environment(args),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# compare mode


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if not doc["env"]["trace"]:
            out.append(doc)
    return out


def spread(values) -> float:
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base_path: Path, new_path: Path) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load_results(base_path), load_results(new_path)
    print("ratio = new median / base median; base median in brackets; "
          "'unresolved' where a side's run-to-run spread exceeds the bound")
    for wl in sorted({d["workload"] for d in base} & {d["workload"] for d in new}):
        b = [d for d in base if d["workload"] == wl]
        n = [d for d in new if d["workload"] == wl]
        cells = []
        for name, m in spec.items():
            bv = [d["metrics"][name]["value"] for d in b]
            nv = [d["metrics"][name]["value"] for d in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            ratio = nm / bm if bm else math.inf
            worse = ratio > 1 + m["bound"] if m["better"] == "lower" else ratio < 1 - m["bound"]
            better = ratio < 1 - m["bound"] if m["better"] == "lower" else ratio > 1 + m["bound"]
            all_better = (max(nv) < min(bv)) if m["better"] == "lower" else (min(nv) > max(bv))
            if max(spread(bv), spread(nv)) > m["bound"] and not all_better:
                flag = " unresolved"
            else:
                flag = " WORSE" if worse else (" better" if better else "")
            cells.append(f"{name} {ratio:.3f}x [{bm:.6g} {m['unit']}]{flag}")
        print(f"{wl} (base n={len(b)}, new n={len(n)}): " + "; ".join(cells))
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result file (default under .bench_out/)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), default=None)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not a quandlekit source checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    OUT_DIR.mkdir(exist_ok=True)
    result = measure(args)
    out = Path(args.out) if args.out else (
        OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
