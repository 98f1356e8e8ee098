"""Command line coverage: golden transcripts plus error and plumbing paths."""

import json
import resource
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from cli_cases import CASES, GOLDEN, fx
from conftest import ROOT
from oracles import naive_idempotents_mod_p
from quandlekit import core
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


def test_golden_cases_run_without_numpy(checkout_env):
    # every golden search is below idempotents.NUMPY_MIN_INDICES, so a
    # CLI call of any golden case imports no numpy and still prints its
    # golden; each case runs in a process forked after `import
    # quandlekit.cli`, as fresh as a new CLI call
    code = (
        "import contextlib, io, json, os, sys\n"
        "from quandlekit import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "for name, argv in json.loads(sys.argv[1]):\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        out = io.StringIO()\n"
        "        with contextlib.redirect_stdout(out):\n"
        "            code = cli.main(argv)\n"
        "        print(json.dumps([name, code, out.getvalue(), 'numpy' in sys.modules]))\n"
        "        sys.stdout.flush()\n"
        "        os._exit(0)\n"
        "    os.waitpid(pid, 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(CASES)],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [name for name, _, _, _ in runs] == [name for name, _ in CASES]
    for name, code, out, imported in runs:
        assert (code, imported) == (0, False), name
        assert out == (GOLDEN / name).read_text(), name


R10_SWEEPS = [
    ["--ring", "z", "--bound", "2", "--jobs", "1"],
    ["--ring", "z", "--bound", "2", "--jobs", "2"],
    ["--ring", "zp:5", "--jobs", "2"],
    ["--ring", "zp:3", "--jobs", "1"],
    ["--ring", "zp:3", "--jobs", "2"],
]


def test_r10_quotient_sweeps_run_without_numpy(checkout_env):
    # each r10 search through the quotient R_5 stays below
    # idempotents.NUMPY_MIN_INDICES, so a CLI call imports no numpy, and
    # prints what a process that imported numpy first prints
    code = (
        "import contextlib, io, json, os, sys\n"
        "from quandlekit import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    for numpy_first in (False, True):\n"
        "        pid = os.fork()\n"
        "        if pid == 0:\n"
        "            if numpy_first:\n"
        "                import numpy\n"
        "            out = io.StringIO()\n"
        "            with contextlib.redirect_stdout(out):\n"
        "                code = cli.main(argv)\n"
        "            print(json.dumps([code, out.getvalue(), 'numpy' in sys.modules]))\n"
        "            sys.stdout.flush()\n"
        "            os._exit(0)\n"
        "        os.waitpid(pid, 0)\n"
    )
    calls = [["idem", "enumerate", fx("r10.json"), *extra] for extra in R10_SWEEPS]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == 2 * len(calls)
    for argv, plain, numpy_first in zip(calls, runs[::2], runs[1::2]):
        assert (plain[0], plain[2]) == (0, False), argv
        assert (numpy_first[0], numpy_first[2]) == (0, True), argv
        assert plain[1] == numpy_first[1], argv


LAZY_MODULES = ("ring", "reports", "idempotents", "free", "_search_kernel")

# golden case -> the lazily bound submodules its CLI call executes
LOADS = {
    "quandle_check_r3.json": [],
    "quandle_check_magma8.json": [],
    "quandle_make_dihedral6.json": [],
    "quandle_make_twisted_union.json": [],
    "covering_check_r6_r3.json": [],
    "covering_find_r6_r3.json": [],
    "idem_enumerate_r3_mod5.json": ["_search_kernel", "idempotents", "reports", "ring"],
    "idem_fq_search_len2.json": ["free", "idempotents", "reports", "ring"],
}


def test_each_subcommand_executes_only_the_modules_it_uses(checkout_env):
    # `import quandlekit` registers every submodule, which the benchmark's
    # tracer needs, but executes only core and errors; each call then runs
    # in a process forked after `import quandlekit.cli`.  A submodule still
    # waiting for its first attribute access is not a plain ModuleType.
    code = (
        "import contextlib, io, json, os, sys, types\n"
        "names = json.loads(sys.argv[2])\n"
        "def executed():\n"
        "    modules = [sys.modules['quandlekit.' + n] for n in names]\n"
        "    return sorted(n for n, m in zip(names, modules) if type(m) is types.ModuleType)\n"
        "import quandlekit\n"
        "print(json.dumps([all('quandlekit.' + n in sys.modules for n in names), executed()]))\n"
        "from quandlekit import cli\n"
        "print(json.dumps(executed()))\n"
        "sys.stdout.flush()\n"
        "for name, argv in json.loads(sys.argv[1]):\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        out = io.StringIO()\n"
        "        with contextlib.redirect_stdout(out):\n"
        "            code = cli.main(argv)\n"
        "        print(json.dumps([name, code, out.getvalue(), executed()]))\n"
        "        sys.stdout.flush()\n"
        "        os._exit(0)\n"
        "    os.waitpid(pid, 0)\n"
    )
    cases = [(name, argv) for name, argv in CASES if name in LOADS]
    assert len(cases) == len(LOADS)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cases), json.dumps(LAZY_MODULES)],
        env=checkout_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[:2] == [[True, []], []]
    assert [name for name, _, _, _ in lines[2:]] == [name for name, _ in cases]
    for name, code, out, executed in lines[2:]:
        assert (code, executed) == (0, LOADS[name]), name
        assert out == (GOLDEN / name).read_text(), name


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

    # forcing runs an exhaustive search over every augmentation stratum
    code, out, _ = run_cli(
        ["idem", "enumerate", fx("r3.json"), "--ring", "zp:4", "--force-composite"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exhaustive"] is True
    assert doc["spec"]["augmentation"] == "any"
    assert "non-domain coefficients" in doc["flags"]
    found = set()
    for u in doc["idempotents"]:
        coeffs = {k: int(c) for k, c in u["coeffs"]}
        found.add(tuple(coeffs.get(k, 0) for k in range(3)))
    assert found == naive_idempotents_mod_p(core.load_quandle(fx("r3.json")).table, 4)


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
        # a window of 3 * 5^(10^14 - 1) elements, and 10^12 support sizes to sum
        (["idem", "fq-search", "--rank", "3", "--max-len", str(10**14), "--max-support", "2",
          "--bound", "1", "--budget", "1000"], "more than 2^65536"),
        (["idem", "fq-search", "--rank", "2", "--max-len", "30", "--max-support", str(10**12),
          "--bound", "1", "--budget", "1000"], "more than 2^65536"),
    ],
    ids=["fq-search-window", "enumerate-bound", "fq-search-length", "fq-search-support"],
)
def test_counts_too_long_to_print_are_refused_quickly(argv, needed, checkout_env):
    # every count has more digits than Python converts to a string
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


ZERO_DIVISOR = ["covering", "zero-divisor", "--total", fx("r6.json"), "--base", fx("r3.json"),
                "--map", "0,1,2,0,1,2", "--fiber", "0"]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--alphas", "1,x"], "coefficient 'x' is not in Z"),
        (["--ring", "q", "--alphas", "1/0,0"], "coefficient '1/0' is not in Q"),
        (["--ring", "zp:5", "--alphas", "1/2,0"], "coefficient '1/2' is not in Zmod:5"),
    ],
    ids=["word-over-z", "zero-denominator", "fraction-mod-5"],
)
def test_unparsable_scalars_are_invalid_params(flags, message, capsys):
    code, out, err = run_cli(ZERO_DIVISOR + flags, capsys)
    assert code == 1
    assert json.loads(out) == {"error": "InvalidParams", "message": message}
    assert err == ""


@pytest.mark.parametrize(
    "change,message",
    [
        ({"unit_coeffs": [[1, "x"]]}, "coefficient 'x' is not in Z"),
        ({"ring": "Q", "zero_sum_coeffs": [[0, [[0, "1/0"], [3, "-1"]]]]},
         "coefficient '1/0' is not in Q"),
        ({"unit_coeffs": 5}, None),
        ({"unit_fiber": "one"}, None),
    ],
    ids=["word-coefficient", "zero-denominator", "int-coefficients", "word-fiber"],
)
def test_malformed_family_parameters_are_invalid_params(change, message, tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({**json.loads(Path(fx("family_r6.json")).read_text()), **change}))
    code, out, err = run_cli(
        ["idem", "family", "--covering", fx("cov_r6_r3.json"), "--params", str(path)], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "InvalidParams"
    assert message is None or payload["message"] == message
    assert err == ""


# (document, command with {doc} for its path, path to the field, value):
# each value was read with int(), which truncated floats and bools and
# raised TypeError or ValueError on words, lists and nulls
FAMILY_COVERING = ["idem", "family", "--covering", "{doc}", "--params", fx("family_r6.json")]
FAMILY_PARAMS = ["idem", "family", "--covering", fx("cov_r6_r3.json"), "--params", "{doc}"]
NON_INTEGER_FIELDS = {
    "map-string": ("cov_r6_r3.json", FAMILY_COVERING, ["map"], "0,1,2,0,1,2"),
    "map-number": ("cov_r6_r3.json", FAMILY_COVERING, ["map"], 5),
    "map-words": ("cov_r6_r3.json", FAMILY_COVERING, ["map"], ["a", "b", "c", "a", "b", "c"]),
    "map-null-entry": ("cov_r6_r3.json", FAMILY_COVERING, ["map", 3], None),
    "map-float-entry": ("cov_r6_r3.json", FAMILY_COVERING, ["map", 2], 2.5),
    "map-bool-entry": ("cov_r6_r3.json", FAMILY_COVERING, ["map", 1], True),
    "covering-table-float": ("cov_r6_r3.json", FAMILY_COVERING, ["total", "table", 0, 0], 0.5),
    "table-float": ("t2.json", ["quandle", "check", "{doc}"], ["table", 0, 0], 0.5),
    "order-float": ("t2.json", ["quandle", "check", "{doc}"], ["order"], 2.5),
    "params-point-float": ("family_r6.json", FAMILY_PARAMS,
                           ["zero_sum_coeffs", 0, 1, 0, 0], 0.5),
    "params-unit-fiber-float": ("family_r6.json", FAMILY_PARAMS, ["unit_fiber"], 1.5),
    "params-base-point-float": ("family_r6.json", FAMILY_PARAMS, ["base_point"], 1.5),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_FIELDS))
def test_non_integer_document_fields_are_invalid_params(case, tmp_path, capsys):
    name, argv, field, value = NON_INTEGER_FIELDS[case]
    doc = json.loads(Path(fx(name)).read_text())
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([str(path) if a == "{doc}" else a for a in argv], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParams"
    assert err == ""


@pytest.mark.parametrize(
    "argv,key",
    [
        (["idem", "scan", "{doc}", "--bound", "2"], "table"),
        (["idem", "family", "--covering", "{doc}", "--params", fx("family_r6.json")], "total"),
        (["idem", "family", "--covering", fx("cov_r6_r3.json"), "--params", "{doc}"],
         "unit_coeffs"),
        (["quandle", "make", "conj", "{doc}"], "table"),
        (["covering", "classify", "--total", fx("r6.json"), "--base", fx("r3.json"),
          "--map", "0,1,2,0,1,2", "--element", "{doc}"], "coeffs"),
    ],
    ids=["scan", "family-covering", "family-params", "conj", "classify-element"],
)
@pytest.mark.parametrize("doc", [[1, 2], "table", {}], ids=["list", "string", "no-field"])
def test_documents_without_their_field_are_invalid_params(argv, key, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([str(path) if a == "{doc}" else a for a in argv], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": "InvalidParams",
        "message": f"{path}: expected a JSON object with a {key!r} field",
    }
    assert err == ""


@pytest.mark.parametrize(
    "alpha",
    [5, [[0, 0, 0], [0, 0, "x"], [0, 0, 0]], {"alpha": 5}, [[0, 0, 0], [0, 0.5, 0], [0, 0, 0]]],
    ids=["number", "word-entry", "number-field", "float-entry"],
)
def test_malformed_cocycle_matrices_are_invalid_params(alpha, tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha))
    code, out, err = run_cli(
        ["quandle", "make", "cocycle", fx("r3.json"), "2", "--alpha", str(path)], capsys
    )
    assert code == 1
    assert json.loads(out) == {
        "error": "InvalidParams", "message": "alpha must be an order x order array of integers",
    }
    assert err == ""


def _address_space_limit():
    # a construction that allocates its table dies within this limit at once
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize(
    "params",
    [["trivial", "100000000000"], ["dihedral", "100000000000"], ["core", "100000", "100000"],
     ["dihedral", "465"]],
    ids=["trivial", "dihedral", "core", "dihedral-past-budget"],
)
def test_oversized_constructions_are_refused_before_allocating(params, checkout_env):
    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit.cli", "quandle", "make", *params],
        env=checkout_env, capture_output=True, text=True, preexec_fn=_address_space_limit,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["error"] == "BudgetExceeded"
    assert payload["budget"] == core.CONSTRUCTION_BUDGET
    assert proc.stderr == ""


def test_construction_refusal_names_the_table_not_a_search(checkout_env):
    # no search runs, so the message must not say one does
    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit.cli", "quandle", "make", "trivial", "100000000000"],
        env=checkout_env, capture_output=True, text=True, preexec_fn=_address_space_limit,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["message"] == (
        f"a table of order 100000000000 needs {10**33} axiom checks, budget is 100000000"
    )


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


@pytest.mark.parametrize("target", ["directory", "missing/parent/report.json"])
def test_unwritable_output_path_is_a_structured_error(target, tmp_path, checkout_env):
    # the write happens after the command ran, and still ends in a payload
    path = tmp_path if target == "directory" else tmp_path / target
    code, payload, err, _ = run_child(["quandle", "check", fx("r3.json"), "-o", str(path)],
                                      checkout_env)
    assert code == 1
    assert err == ""
    assert payload["error"] == ("IsADirectoryError" if target == "directory" else "FileNotFoundError")
    assert str(path) in payload["message"]


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
