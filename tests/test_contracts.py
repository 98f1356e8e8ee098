"""Correctness contracts are raised, never asserted, so `python -O` keeps them."""

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
