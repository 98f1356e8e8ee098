"""Tests of the benchmark itself: its checkers, its metric names and units,
traced against untraced output, compare mode, and its refusal to run
outside a source checkout.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))  # tests/oracles.py imports quandlekit

import checks  # noqa: E402
import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH="src")


def cli(*argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "quandlekit.cli", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def r10():
    return run.load_table("r10.json")


@pytest.fixture(scope="module")
def zp3_report():
    return cli("idem", "enumerate", "fixtures/r10.json", "--ring", "zp:3", "--jobs", "1")


@pytest.fixture(scope="module")
def fq_report():
    return cli("idem", "fq-search", "--rank", "2", "--max-len", "3", "--max-support", "3",
               "--bound", "3")


def test_squarer_agrees_with_the_naive_oracle(r10):
    from oracles import square_vector

    rng = random.Random(7)
    for _ in range(200):
        vec = [rng.randint(-2, 2) for _ in range(10)]
        assert checks.square_table_vector(r10, vec) == square_vector(r10, vec)
        assert checks.square_table_vector(r10, vec, 5) == square_vector(r10, vec, reduce=5)


def test_genuine_table_report_passes(zp3_report, r10):
    assert checks.check_table_search(zp3_report, r10, modulus=3, pin=checks.PINS["r10_zp3"]) == []


def _edit(text, fn) -> str:
    doc = json.loads(text)
    fn(doc["idempotents"])
    return json.dumps(doc)


def _flip(term):
    term[1] = "2" if term[1] == "1" else "1"


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda idem: _flip(idem[40]["coeffs"][0]), id="flipped-coefficient"),
    pytest.param(lambda idem: idem.pop(17), id="dropped-idempotent"),
    pytest.param(lambda idem: idem.append(idem[0]), id="duplicated-idempotent"),
])
def test_checker_rejects_a_corrupted_table_report(zp3_report, r10, corrupt):
    bad = _edit(zp3_report, corrupt)
    assert checks.check_table_search(bad, r10, modulus=3, pin=checks.PINS["r10_zp3"])


def test_free_checker_passes_and_rejects(fq_report):
    pin = checks.PINS["fq_2_3_3_3"]
    assert checks.check_free_search(fq_report, 2, 3, pin) == []
    flipped = _edit(fq_report, lambda idem: idem[5]["coeffs"][0].__setitem__(1, "-1"))
    assert checks.check_free_search(flipped, 2, 3, pin)
    dropped = _edit(fq_report, lambda idem: idem.pop(3))
    assert checks.check_free_search(dropped, 2, 3, pin)


def test_free_words():
    assert len(checks.free_window(2, 3)) == 18
    x = checks.free_word("g0*g1^-1")
    assert checks.free_product(x, x) == x
    assert checks.free_word("g0*g1*g1^-1") == checks.free_word("g0")


def test_tail_rule():
    per_pass = [list(range(1, 23)), list(range(101, 123))]
    value, pct, n = run.tail([x for p in per_pass for x in p], per_pass)
    ordered = sorted(x for p in per_pass for x in p)
    assert n == 44 and pct == 77
    assert sum(1 for x in ordered if x > value) >= 10
    # passes of a few unlike jobs: slowest call of each pass, median over passes
    assert run.tail([1, 5, 2, 7, 3, 6], [[1, 5], [2, 7], [3, 6]]) == (6, 100, 3)


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """Every workload once untraced and once traced, one-second runs."""
    out = {}
    folder = tmp_path_factory.mktemp("results")
    for wl in spec()["workloads"]:
        for trace in (0, 1):
            result_file = folder / f"BENCH_{wl['name']}_trace{trace}.json"
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl["name"], "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--out", str(result_file)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            out[wl["name"], trace] = (json.loads(proc.stdout.strip().splitlines()[-1]),
                                      json.loads(result_file.read_text()))
    return out


def test_every_workload_emits_every_metric_with_its_unit(short_runs):
    s = spec()
    for (name, trace), (line, _) in short_runs.items():
        expected = {m["name"]: m["unit"] for m in s["end_to_end" if trace == 0 else "per_layer"]}
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected, (name, trace)
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_seed_code_passes_every_check_traced_or_not(short_runs):
    # a traced pass whose output differs from the untraced pass counts as failed
    for (name, trace), (line, result) in short_runs.items():
        assert line["correct"] and line["failed"] == 0, (name, trace, result["failures"])
        assert line["attempted"] >= 1
        assert result["env"]["trace"] == bool(trace)
        assert {"nproc", "python", "numpy", "commit", "seed", "cli"} <= set(result["env"])


def test_end_to_end_metrics_are_never_zero(short_runs):
    for (name, trace), (line, _) in short_runs.items():
        if trace == 0:
            assert all(v["value"] > 0 for v in line["metrics"].values()), name


def test_layers_report_where_they_run(short_runs):
    layer = {name: line["metrics"] for (name, trace), (line, _) in short_runs.items() if trace}
    assert layer["kernel_sweep"]["kernel.candidates"]["value"] > 0
    assert layer["kernel_sweep"]["idempotents.parallel_efficiency"]["value"] > 0
    assert 0.4 < layer["support_sweep"]["kernel.in_box_ratio"]["value"] < 0.45
    assert layer["support_sweep"]["free.op_calls"]["value"] > 0
    assert layer["support_sweep"]["idempotents.core3_candidates"]["value"] == 152100
    assert layer["exact_verify"]["idempotents.family_verify_cases"]["value"] == 3180
    assert layer["exact_verify"]["ring.mul_calls"]["value"] > 0
    assert layer["exact_verify"]["kernel.chunks"]["value"] == 0
    assert layer["cli_replay"]["cli.bytes_out"]["value"] > 0


def test_compare_flags_regressions_and_unresolved(tmp_path, capsys):
    def result(folder, seed, wall, p50):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec()["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        metrics["call_ms_p50"]["value"] = p50
        doc = {"workload": "cli_replay", "env": {"trace": False}, "metrics": metrics}
        folder.mkdir(exist_ok=True)
        (folder / f"BENCH_cli_replay_seed{seed}_trace0.json").write_text(json.dumps(doc))

    for seed, (wall, p50) in enumerate([(10.0, 1.0), (10.1, 2.0), (9.9, 1.0), (10.0, 3.0)]):
        result(tmp_path / "base", seed, wall, p50)
        result(tmp_path / "new", seed, 2 * wall, p50)
    assert run.compare(tmp_path / "base", tmp_path / "new") == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.startswith("cli_replay (base n=4, new n=4)")
    assert "wall_s 2.000x [10 s] WORSE" in row
    assert "call_ms_p50 1.000x [1.5 ms] unresolved" in row


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_replay",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
