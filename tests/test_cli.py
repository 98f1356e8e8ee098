"""Command line coverage: golden transcripts plus error and plumbing paths."""

import json
import subprocess
import sys
import time
from importlib.metadata import EntryPoint

import pytest

from cli_cases import CASES, GOLDEN, fx
from conftest import ROOT
from quandlekit.cli import main

BUDGET_ARGV = ["idem", "enumerate", fx("r6.json"), "--ring", "z", "--bound", "3",
               "--budget", "100"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv, env):
    """Run the CLI in a fresh interpreter; (exit code, payload, stderr, seconds)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit.cli", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, json.loads(proc.stdout), proc.stderr, time.monotonic() - started


# ---------------------------------------------------------------- goldens


@pytest.mark.parametrize("golden_name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_transcript(golden_name, argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / golden_name).read_text()


def test_goldens_are_valid_json():
    for name, _ in CASES:
        doc = json.loads((GOLDEN / name).read_text())
        assert isinstance(doc, dict)


def test_golden_corpus_has_no_strays():
    on_disk = {p.name for p in GOLDEN.iterdir()}
    assert on_disk == {name for name, _ in CASES}


# ------------------------------------------------------------ error paths


def test_invalid_table_without_magma_flag_is_exit_one(capsys):
    code, out, _ = run_cli(["quandle", "check", fx("quasigroup8.json")], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "NotRightDistributive"
    assert doc["indices"] == [0, 1, 0]


def test_missing_file_reports_oserror(capsys):
    code, out, _ = run_cli(["quandle", "check", "/no/such/file.json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "FileNotFoundError"
    assert "/no/such/file.json" in doc["message"]


def test_malformed_json_reports_decode_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, _ = run_cli(["quandle", "props", str(bad)], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "JSONDecodeError"


def test_covering_doc_missing_key_reports_key_error(tmp_path, capsys):
    with open(fx("cov_r6_r3.json")) as fh:
        doc = json.load(fh)
    del doc["map"]
    truncated = tmp_path / "cov.json"
    truncated.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        ["idem", "family", "--covering", str(truncated), "--params", fx("family_r6.json")],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["error"] == "KeyError"


def test_unknown_subcommand_is_invalid_params(capsys):
    code, out, _ = run_cli(["quandle", "frobnicate"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParams"


@pytest.mark.parametrize(
    "argv",
    [
        ["quandle", "make", "core", "2,2,3"],
        ["quandle", "make", "dihedral", "six"],
        ["quandle", "make", "dihedral"],
        ["quandle", "make", "product", "only_one.json"],
        ["idem", "enumerate", fx("r3.json"), "--ring", "zp:x"],
        ["covering", "check", "--total", fx("r6.json"), "--base", fx("r3.json"),
         "--map", "0,x,2"],
    ],
    ids=["csv-as-order", "word-order", "no-params", "product-arity", "bad-modulus", "bad-map"],
)
def test_malformed_values_are_structured_errors(argv, capsys):
    # user typos must produce the InvalidParams payload, never a traceback
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParams"


@pytest.mark.parametrize(
    "doc",
    [{"table": "abc"}, {"table": 5}, {"order": 3, "table": 5}, {"order": "x", "table": [[0]]},
     {"table": [[0]], "labels": 5}],
    ids=["string-table", "int-table", "int-table-with-order", "word-order", "int-labels"],
)
def test_hostile_table_documents_are_structured_errors(doc, tmp_path, checkout_env):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, payload, err, _ = run_child(["quandle", "check", str(path)], checkout_env)
    assert code == 1
    assert payload["error"] == "InvalidParams"
    assert err == ""


@pytest.mark.parametrize(
    "doc",
    [
        {"ring": "Z", "coeffs": 5},
        {"ring": "Z", "coeffs": [[0]]},
        {"ring": "Z", "coeffs": [[0, "x"]]},
        {"ring": 5, "coeffs": [[0, "1"]]},
        [[0, "1"]],
    ],
    ids=["int-coeffs", "short-pair", "word-coefficient", "int-ring-tag", "top-level-list"],
)
def test_malformed_element_documents_are_structured_errors(doc, tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        [
            "covering", "classify",
            "--total", fx("r6.json"), "--base", fx("r3.json"), "--map", "0,1,2,0,1,2",
            "--element", str(path),
        ],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParams"
    assert err == ""


KERNEL_COMMANDS = {
    ("idem", "enumerate"), ("idem", "union"), ("idem", "twisted-union"), ("idem", "scan"),
}


def test_commands_without_a_kernel_search_do_not_import_numpy(checkout_env):
    # one child process runs every golden case that searches no table
    cases = [argv for _, argv in CASES if tuple(argv[:2]) not in KERNEL_COMMANDS]
    assert ["quandle", "check", fx("r3.json")] in cases
    # the dense family sweep over Q and Z/7 (no goldens) must not import it either
    cases += [
        ["covering", "family-verify", "--total", fx("r6.json"), "--base", fx("r3.json"),
         "--map", "0,1,2,0,1,2", "--ring", ring]
        for ring in ("Q", "zp:7")
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import quandlekit\n"
        "from quandlekit import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cases)],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_integer_ring_requires_bound(capsys):
    code, out, _ = run_cli(["idem", "enumerate", fx("r3.json"), "--ring", "z"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParams"


def test_bound_is_rejected_for_modular_ring(capsys):
    code, out, _ = run_cli(
        ["idem", "enumerate", fx("r3.json"), "--ring", "zp:5", "--bound", "2"], capsys
    )
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParams"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_core3_bound_below_one_is_invalid_params(bound, capsys):
    code, out, err = run_cli(["idem", "core3", "--factors", "5", "--bound", bound], capsys)
    assert code == 1
    assert json.loads(out) == {"error": "InvalidParams", "message": "bound must be >= 1"}
    assert err == ""


def test_composite_modulus_needs_force_flag(capsys):
    code, out, _ = run_cli(["idem", "enumerate", fx("r3.json"), "--ring", "zp:4"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "CompositeModulus"
    assert doc["modulus"] == 4

    # forcing runs the search but honesty about the strata shortcut survives
    code, out, _ = run_cli(
        ["idem", "enumerate", fx("r3.json"), "--ring", "zp:4", "--force-composite"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exhaustive"] is False
    assert "non-domain coefficients" in doc["flags"]


def test_budget_refusal_is_exit_two(capsys):
    code, out, _ = run_cli(BUDGET_ARGV, capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "BudgetExceeded"
    assert doc["budget"] == 100
    assert doc["needed"] == 2 * 7**5


def test_index_space_beyond_int64_is_exit_two(capsys):
    started = time.monotonic()
    code, out, _ = run_cli(
        ["idem", "enumerate", fx("r10.json"), "--ring", "z", "--bound", "100",
         "--budget", str(10**40)],
        capsys,
    )
    assert time.monotonic() - started < 5
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "BudgetExceeded"
    assert doc["needed"] == 201**9
    assert doc["budget"] == 2**63 - 1


@pytest.mark.parametrize(
    "argv,needed",
    [
        (["idem", "fq-search", "--rank", "2", "--max-len", "9", "--max-support", "20000",
          "--bound", "1", "--budget", "10"], "~10^6260"),
        (["idem", "enumerate", fx("r3.json"), "--ring", "z", "--bound", str(10**2200)],
         "~10^4400"),
    ],
    ids=["fq-search-window", "enumerate-bound"],
)
def test_counts_too_long_to_print_are_refused_quickly(argv, needed, checkout_env):
    # both counts have more digits than Python converts to a string
    code, payload, err, seconds = run_child(argv, checkout_env)
    assert code == 2
    assert payload["error"] == "BudgetExceeded"
    assert payload["needed"] == needed
    assert needed in payload["message"]
    assert isinstance(payload["budget"], int)
    assert err == ""
    assert seconds < 2


def test_support_cap_below_one_is_invalid_params(checkout_env):
    code, payload, err, _ = run_child(
        ["idem", "enumerate", fx("r3.json"), "--ring", "zp:5", "--max-support", "-1"], checkout_env
    )
    assert code == 1
    assert payload == {"error": "InvalidParams", "message": "max_support must be >= 1"}
    assert err == ""


def test_family_verify_negative_max_j_is_invalid_params(checkout_env):
    code, payload, err, _ = run_child(
        ["covering", "family-verify", "--total", fx("r6.json"), "--base", fx("r3.json"),
         "--map", "0,1,2,0,1,2", "--max-j", "-1"], checkout_env
    )
    assert code == 1
    assert payload == {"error": "InvalidParams", "message": "max_j must be >= 0"}
    assert err == ""


# ------------------------------------------------------------- plumbing


def test_output_flag_writes_file_and_notes_on_stderr(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["quandle", "check", fx("r3.json"), "-o", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert err == f"wrote {target}\n"
    assert target.read_text() == (GOLDEN / "quandle_check_r3.json").read_text()


def test_error_payload_ignores_output_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["quandle", "check", fx("quasigroup8.json"), "-o", str(target)], capsys
    )
    assert code == 1
    assert json.loads(out)["error"] == "NotRightDistributive"
    assert not target.exists()


def test_timing_flag_keeps_report_identical_otherwise(capsys):
    argv = ["idem", "enumerate", fx("r3.json"), "--ring", "z", "--bound", "3"]
    _, plain, _ = run_cli(argv, capsys)
    _, timed, _ = run_cli(argv + ["--timing"], capsys)
    plain_doc = json.loads(plain)
    timed_doc = json.loads(timed)
    assert isinstance(timed_doc["elapsed_ms"], int)
    assert timed_doc["elapsed_ms"] >= 0
    timed_doc["elapsed_ms"] = 0
    assert timed_doc == plain_doc


def test_reports_are_byte_identical_across_worker_counts(capsys):
    argv = ["idem", "enumerate", fx("r6.json"), "--ring", "z", "--bound", "2"]
    _, serial, _ = run_cli(argv + ["--jobs", "1"], capsys)
    _, parallel, _ = run_cli(argv + ["--jobs", "4"], capsys)
    assert serial == parallel


def test_module_entry_point_runs(checkout_env):
    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit.cli", "quandle", "check", fx("r3.json")],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "quandle_check_r3.json").read_text()


def test_console_script_is_installed(tmp_path, checkout_env):
    """The `quandlekit` script declared in pyproject.toml works, exit codes included.

    The script is the wrapper an installer writes for the entry point, generated
    here and run against this checkout, so neither an installation nor another
    copy of the package on PATH decides the outcome.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["quandlekit"]
    entry = EntryPoint("quandlekit", value, "console_scripts")
    assert callable(entry.load())
    script = tmp_path / "quandlekit"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry.attr}())\n"
    )
    script.chmod(0o755)

    def run(argv):
        return subprocess.run([script, *argv], env=checkout_env, capture_output=True)

    proc = run(["quandle", "check", fx("r3.json")])
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "quandle_check_r3.json").read_bytes()

    proc = run(["quandle", "check", fx("quasigroup8.json")])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "NotRightDistributive"

    proc = run(BUDGET_ARGV)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "BudgetExceeded"
