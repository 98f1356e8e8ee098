"""Correctness contracts are raised, never asserted, so `python -O` keeps them."""

import argparse
import ast
import pathlib

import pytest

from quandlekit import (
    ZZ,
    InternalCheckError,
    covering_family_params,
    covering_idempotent,
    dihedral_even_family,
    element_to_json,
    union_idempotents,
)
from quandlekit import idempotents
from quandlekit.cli import build_parser

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quandlekit"


def test_package_source_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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
    monkeypatch.setattr(idempotents, "is_idempotent", lambda u, q: False)
    with pytest.raises(InternalCheckError, match="failed the idempotency check") as info:
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
