"""Correctness contracts are raised, never asserted, so `python -O` keeps them."""

import argparse
import ast
import concurrent.futures
import importlib.util
import pathlib

import pytest

from quandlekit import (
    ZZ,
    InternalCheckError,
    covering_family_params,
    covering_idempotent,
    dihedral_even_family,
    element_to_json,
    enumerate_boxed_Z,
    enumerate_mod_p,
    union_idempotents,
)
from quandlekit import _search_kernel, ring
from quandlekit.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quandlekit"


def test_package_source_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imports(path: pathlib.Path) -> set[str]:
    """The modules a source file imports, relative ones by their dotted tail."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            if node.level:
                names.update(alias.name for alias in node.names)
    return names


def _names(path: pathlib.Path) -> set[str]:
    """The identifiers and attribute names a source file uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
    return names


def test_only_the_kernel_imports_numpy_and_free_skips_idempotents():
    # the search kernel owns both enumerators, its evaluator and how a plan
    # runs: its workers, chunks and pool; the free quandle reaches the
    # support walk without the table searches
    importers = {path.name for path in SRC.glob("*.py")
                 if any(name.split(".")[0] == "numpy" for name in _imports(path))}
    assert importers == {"_search_kernel.py"}
    assert "idempotents" not in _imports(SRC / "free.py")
    # the CLI reads the CPU count only as the default of --jobs
    for name, allowed in (("POOL_MIN_SPACE", set()), ("ProcessPoolExecutor", set()),
                          ("cpu_count", {"cli.py"})):
        users = {path.name for path in SRC.glob("*.py") if name in _names(path)}
        assert users == {"_search_kernel.py"} | allowed, name
    assert not {"os", "concurrent", "concurrent.futures"} & _imports(SRC / "idempotents.py")


SELF_CHECKED = {
    "covering_idempotent": lambda cov63, t2, r3: covering_idempotent(
        cov63, covering_family_params(cov63, ZZ, 1, {4: 1}, 4)
    ),
    "dihedral_even_family": lambda cov63, t2, r3: dihedral_even_family(3, 0, 1, [0, 0]),
    "union_idempotents": lambda cov63, t2, r3: union_idempotents(
        [t2, r3], "component_mass", weights=(-1, 1)
    ),
}


@pytest.mark.parametrize("name", sorted(SELF_CHECKED))
def test_constructed_idempotents_failing_their_self_check_raise(name, cov63, t2, r3, monkeypatch):
    built = SELF_CHECKED[name](cov63, t2, r3)
    monkeypatch.setattr(ring, "is_idempotent", lambda u, q: False)
    with pytest.raises(InternalCheckError, match="fails exact recheck") as info:
        SELF_CHECKED[name](cov63, t2, r3)
    assert info.value.payload()["error"] == "InternalCheck"
    assert info.value.payload()["element"] == element_to_json(built)


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


# every subcommand's positionals, then its options past -h/--help and -o/--output
CLI_SURFACE = {
    "quandle check": "file --as-magma",
    "quandle make": "kind params --alpha --f --g",
    "quandle props": "file",
    "quandle orbits": "file",
    "quandle subquandles": "file --max",
    "covering check": "--base --map --total",
    "covering find": "--base --budget --total",
    "covering family-verify": "--base --budget --map --max-j --ring --total",
    "covering classify": "--base --element --map --total",
    "covering zero-divisor": "--alphas --base --fiber --map --ring --total",
    "idem enumerate": "file --as-magma --bound --budget --force-composite --jobs --max-support "
                      "--ring --timing",
    "idem family": "--covering --params",
    "idem union": "files --bound --budget --jobs --max-support --ring",
    "idem twisted-union": "files --bound --budget --f --g --jobs --ring",
    "idem scan": "files --bound --budget --jobs --max-support --moduli",
    "idem fq-search": "--bound --budget --max-len --max-support --rank --timing",
    "idem core3": "--bound --budget --factors",
}


def test_cli_surface_is_pinned():
    # a new option shows up here as a reviewed diff, not as a silent knob
    surface = {}
    for group, group_parser in _subcommands(build_parser()).items():
        for name, parser in _subcommands(group_parser).items():
            positionals = [a.dest for a in parser._actions if not a.option_strings]
            options = sorted(
                o for a in parser._actions for o in a.option_strings
                if o.startswith("--") and o not in ("--help", "--output")
            )
            surface[f"{group} {name}"] = " ".join(positionals + options)
    assert surface == CLI_SURFACE


KERNEL_SEARCHES = {
    "r10-box-2": lambda r6, r10: enumerate_boxed_Z(r10, 2, jobs=2),
    "r6-mod-5": lambda r6, r10: enumerate_mod_p(r6, 5, jobs=2),
    "r6-mod-4-every-stratum": lambda r6, r10: enumerate_mod_p(r6, 4, jobs=2, force=True),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SEARCHES))
def test_kernel_tasks_keep_the_layout_the_bench_tracer_reads(name, r6, r10, monkeypatch):
    # the benchmark's tracer reads a chunk's index count as task[6] - task[5]
    # and the evaluator from task[8]; the chunks of each sweep tile its indices
    tasks = []
    real_run, real_chunk = _search_kernel.run, _search_kernel.evaluate_chunk

    def spy(task):
        tasks.append(task)
        return real_chunk(task)

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(_search_kernel, "POOL_MIN_SPACE", 0)
    # a chunk per worker, run in process, and every chunk, even those of a
    # base search it abandons
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(_search_kernel, "run", lambda *plan: list(real_run(*plan)))
    monkeypatch.setattr(_search_kernel, "evaluate_chunk", spy)
    KERNEL_SEARCHES[name](r6, r10)
    sweeps: dict = {}
    for task in tasks:
        assert len(task) == 9
        table, n, mode, param, fibers, start, stop, _, evaluator = task
        assert n == len(table) and mode in ("zbox", "zp") and evaluator in ("python", "numpy")
        sweeps.setdefault((table, fibers), []).append(task)
    assert any(len(chunks) > 1 for chunks in sweeps.values())
    for chunks in sweeps.values():
        _, n, mode, param, fibers = chunks[0][:5]
        assert [task[5] for task in chunks] == [0] + [task[6] for task in chunks[:-1]]
        indices = sum(task[6] - task[5] for task in chunks)
        assert indices == _search_kernel.space_size(n, mode, param, len(fibers))


def test_every_entry_point_the_bench_tracer_wraps_resolves():
    # bench/tracing.py wraps each (module, attribute) of SPANS and HOT by
    # name, so a renamed or deleted entry point would break or drop a
    # per-layer metric
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in ("cli", "ring", "reports", "_search_kernel", "idempotents", "free"):
        # executes a lazy submodule on its first attribute access
        assert importlib.import_module(f"quandlekit.{name}").__name__ == f"quandlekit.{name}"
    entries = [(module, attr) for _, module, attr, _ in tracing.SPANS]
    entries += [(module, attr) for _, module, attr in tracing.HOT]
    assert len(entries) == 20
    for module, attr in entries:
        assert callable(tracing._resolve(module, attr)[2]), (module, attr)
