"""Hostile input to the command line, in process.

Every call gets generated documents (tables, elements, family parameters,
coverings, cocycle matrices, scan catalogs), --map strings, ring tags,
construction parameters, free-quandle and core3 search flags or -o paths
that cannot be written, and must exit 0, 1 or 2 with one JSON document
on stdout and nothing on stderr: a structured payload, never a
traceback.  Documents are mutated from valid fixtures, so the hostile
value reaches past the first type check, or drawn whole.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cli_cases import fx
from conftest import read_json
from quandlekit.cli import main

# past Python's 4300-digit limit on int <-> str conversion, so json.dumps
# cannot write it: the placeholder string is swapped for the literal
HUGE_TEXT = "9" * 5000
HUGE = "\x00huge\x00"

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.text(max_size=4)
    | st.just(HUGE)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def mutated(draw, doc):
    """doc with one value somewhere inside it replaced by a drawn one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = node[key]
    if parent is None:
        return draw(VALUES)
    if isinstance(parent, dict) and draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = draw(VALUES)
    return doc


def _write(path, doc):
    text = json.dumps(doc, allow_nan=True).replace(json.dumps(HUGE), HUGE_TEXT)
    path.write_text(text)
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert err.getvalue() == "", argv
    doc = json.loads(out.getvalue())
    assert isinstance(doc, dict)
    if code:
        assert "error" in doc
    return code, doc


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


TABLE_COMMANDS = [
    ["quandle", "check"],
    ["quandle", "check", "--as-magma"],
    ["quandle", "props"],
    ["quandle", "orbits"],
    ["idem", "enumerate", "--ring", "zp:3", "--budget", "10000"],
    ["idem", "enumerate", "--as-magma", "--ring", "z", "--bound", "1", "--budget", "10000"],
]


@SETTINGS
@given(doc=mutated(read_json("r3.json")), command=st.sampled_from(TABLE_COMMANDS))
def test_table_documents(scratch, doc, command):
    path = _write(scratch / "table.json", doc)
    _run([*command[:2], path, *command[2:]])


@SETTINGS
@given(doc=mutated(read_json("r3.json")))
def test_conjugation_table_documents(scratch, doc):
    _run(["quandle", "make", "conj", _write(scratch / "group.json", doc)])


@SETTINGS
@given(doc=mutated(read_json("elem_family_r6.json")))
def test_element_documents(scratch, doc):
    path = _write(scratch / "element.json", doc)
    _run(["covering", "classify", "--total", fx("r6.json"), "--base", fx("r3.json"),
          "--map", "0,1,2,0,1,2", "--element", path])


@SETTINGS
@given(doc=mutated(read_json("family_r6.json")))
def test_family_parameter_documents(scratch, doc):
    path = _write(scratch / "params.json", doc)
    _run(["idem", "family", "--covering", fx("cov_r6_r3.json"), "--params", path])


@SETTINGS
@given(doc=mutated(read_json("cov_r6_r3.json")))
def test_covering_documents(scratch, doc):
    path = _write(scratch / "covering.json", doc)
    _run(["idem", "family", "--covering", path, "--params", fx("family_r6.json")])


MAP_TEXT = st.one_of(
    st.lists(st.integers(-2, 7), max_size=8).map(lambda v: ",".join(map(str, v))),
    st.text(alphabet="0123456789,-+. _xe", max_size=14),
    st.integers(-(2**100), 2**100).map(str),
)


@SETTINGS
@given(text=MAP_TEXT)
def test_map_strings(text):
    _run(["covering", "check", "--total", fx("r6.json"), "--base", fx("r3.json"), "--map", text])


RING_TAGS = st.one_of(
    st.sampled_from(["z", "q", "Z", "zp:", "zp:0", "zp:1", "zp:-3", "zp:4", "zp:x", "zp:2.5",
                     "zp:1e3", "zmod:5", "r", ""]),
    st.integers(-5, 2**90).map(lambda p: f"zp:{p}"),
    # primes whose primality a trial division could not settle in time
    st.sampled_from([10**18 + 3, 2**61 - 1, 2**89 - 1, 2**127 - 1]).map(lambda p: f"zp:{p}"),
    st.text(max_size=6),
)


@SETTINGS
@given(tag=RING_TAGS, bound=st.none() | st.integers(-2, 3) | st.integers(2**70, 2**80))
def test_ring_tags_of_searches(tag, bound):
    argv = ["idem", "enumerate", fx("r3.json"), "--ring", tag, "--budget", "10000"]
    if bound is not None:
        argv += ["--bound", str(bound)]
    _run(argv)


@SETTINGS
@given(tag=RING_TAGS, alphas=st.sampled_from(["1,-1", "2,-2", "1,1", "x,1", "0.5,-0.5", "1/2,-1/2"]))
def test_ring_tags_of_scalar_commands(tag, alphas):
    cov = ["--total", fx("r6.json"), "--base", fx("r3.json"), "--map", "0,1,2,0,1,2"]
    _run(["covering", "zero-divisor", *cov, "--fiber", "0", "--alphas", alphas, "--ring", tag])
    _run(["covering", "family-verify", *cov, "--ring", tag, "--max-j", "0", "--budget", "1000"])


@SETTINGS
@given(doc=mutated({"alpha": [[0, 0, 0], [0, 0, 1], [0, 1, 0]]}))
def test_cocycle_matrices(scratch, doc):
    path = _write(scratch / "alpha.json", doc)
    _run(["quandle", "make", "cocycle", fx("r3.json"), "2", "--alpha", path])


@SETTINGS
@given(doc=mutated(read_json("r3.json")))
def test_scan_catalogs(scratch, doc):
    path = _write(scratch / "entry.json", doc)
    _run(["idem", "scan", path, fx("r3.json"), "--bound", "1", "--moduli", "3", "--budget", "10000"])


PARAMS = st.one_of(
    st.integers(-3, 40).map(str), st.text(alphabet="0123456789-.,e x", max_size=6),
    st.integers(2**60, 2**100).map(str),
)


@SETTINGS
@given(kind=st.sampled_from(["trivial", "dihedral", "core"]), params=st.lists(PARAMS, max_size=3))
def test_construction_parameters(kind, params):
    _run(["quandle", "make", kind, *params])


# small budgets, so a window the flags accept still finishes at once
BUDGETS = st.integers(-3, 5000).map(str) | st.sampled_from(["", "x", "1e3", "-0"])
FLAGS = st.one_of(
    st.integers(-2, 6).map(str), st.integers(2**60, 2**100).map(str),
    st.sampled_from([str(10**12), str(10**14), "", "1.5", "x", "0x3"]),
)


@settings(max_examples=200, deadline=None)
@given(rank=FLAGS, max_len=FLAGS, max_support=FLAGS, bound=FLAGS, budget=BUDGETS)
def test_free_search_flags(rank, max_len, max_support, bound, budget):
    _run(["idem", "fq-search", "--rank", rank, "--max-len", max_len, "--max-support", max_support,
          "--bound", bound, "--budget", budget])


FACTOR_LISTS = st.one_of(
    st.lists(st.integers(-3, 40) | st.integers(2**60, 2**100), max_size=4).map(
        lambda v: ",".join(map(str, v))),
    st.text(alphabet="0123456789,-+. x", max_size=10),
)


@settings(max_examples=200, deadline=None)
@given(factors=FACTOR_LISTS, bound=FLAGS, budget=BUDGETS)
def test_core3_flags(factors, bound, budget):
    _run(["idem", "core3", "--factors", factors, "--bound", bound, "--budget", budget])


OUTPUT_COMMANDS = [
    ["quandle", "check", fx("r3.json")],
    ["quandle", "check", fx("quasigroup8.json")],
    ["idem", "core3", "--factors", "5", "--bound", "1"],
    ["idem", "fq-search", "--rank", "1", "--max-len", "2", "--max-support", "1", "--bound", "1"],
]


@SETTINGS
@given(command=st.sampled_from(OUTPUT_COMMANDS),
       target=st.sampled_from(["directory", "missing parent", "empty"]))
def test_output_paths(scratch, command, target):
    # an empty path writes to stdout; the other two cannot be opened
    path = {"directory": str(scratch), "missing parent": str(scratch / "missing" / "report.json"),
            "empty": ""}[target]
    code, doc = _run([*command, "-o", path])
    if command[2] != fx("quasigroup8.json"):  # the one report that is an error
        assert (code, doc.get("error")) == {"directory": (1, "IsADirectoryError"),
                                            "missing parent": (1, "FileNotFoundError"),
                                            "empty": (0, None)}[target]


DEEP = "\x00deep\x00"  # stands for a file of arrays nested 10^5 deep
ALPHA = "\x00alpha\x00"  # stands for a valid cocycle matrix file
COV = ["--total", fx("r6.json"), "--base", fx("r3.json"), "--map", "0,1,2,0,1,2"]
DEEP_COMMANDS = [
    ["quandle", "check", DEEP],
    ["quandle", "check", DEEP, "--as-magma"],
    ["quandle", "props", DEEP],
    ["quandle", "orbits", DEEP],
    ["quandle", "subquandles", DEEP, "--max", "2"],
    ["quandle", "make", "conj", DEEP],
    ["quandle", "make", "product", fx("r3.json"), DEEP],
    ["quandle", "make", "union", DEEP, fx("r3.json")],
    ["quandle", "make", "twisted-union", fx("t2.json"), DEEP, "--f", "1,0", "--g", "0"],
    ["quandle", "make", "cocycle", DEEP, "2", "--alpha", ALPHA],
    ["quandle", "make", "cocycle", fx("r3.json"), "2", "--alpha", DEEP],
    ["covering", "check", "--total", DEEP, "--base", fx("r3.json"), "--map", "0,1,2,0,1,2"],
    ["covering", "find", "--total", fx("r6.json"), "--base", DEEP],
    ["covering", "family-verify", "--total", fx("r6.json"), "--base", DEEP, "--map", "0,1,2,0,1,2"],
    ["covering", "classify", *COV, "--element", DEEP],
    ["covering", "zero-divisor", "--total", DEEP, "--base", fx("r3.json"), "--map", "0,1,2,0,1,2",
     "--fiber", "0", "--alphas", "1,-1"],
    ["idem", "enumerate", DEEP, "--ring", "zp:3"],
    ["idem", "family", "--covering", DEEP, "--params", fx("family_r6.json")],
    ["idem", "family", "--covering", fx("cov_r6_r3.json"), "--params", DEEP],
    ["idem", "union", fx("t2.json"), DEEP, "--ring", "zp:3"],
    ["idem", "twisted-union", DEEP, fx("t2.json"), "--f", "0", "--g", "1,0", "--ring", "zp:3"],
    ["idem", "scan", fx("r3.json"), DEEP, "--bound", "1"],
]


@pytest.mark.parametrize("command", DEEP_COMMANDS, ids=lambda c: " ".join(
    {DEEP: "DEEP", ALPHA: "ALPHA"}.get(a, a.rsplit("/", 1)[-1]) for a in c))
def test_deeply_nested_files(scratch, command):
    # the decoder's recursion limit is reached long before 10^5 levels
    path = scratch / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    files = {DEEP: str(path), ALPHA: _write(scratch / "alpha.json", {"alpha": [[0, 0, 0]] * 3})}
    code, doc = _run([files.get(a, a) for a in command])
    assert (code, doc["error"]) == (1, "InvalidParams")
    assert doc["message"] == f"{path}: JSON nested too deeply"
