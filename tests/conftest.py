from __future__ import annotations

import itertools
import json
import os
import pathlib
import random

import pytest

from quandlekit import ZZ, QuandleHom, check_covering, dihedral_even_family, load_quandle

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str, as_magma: bool = False):
    return load_quandle(fixture_path(name), as_magma=as_magma)


def read_json(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def family_grid(values, js=(0, 1, 2), ring=ZZ):
    """Deduplicated order-6 family members over a coefficient grid."""
    out, seen = [], set()
    for j in js:
        for beta, a0, a1 in itertools.product(values, repeat=3):
            u = dihedral_even_family(3, j, beta, [a0, a1], ring=ring)
            if u not in seen:
                seen.add(u)
                out.append(u)
    return out


@pytest.fixture(scope="session")
def r3():
    return load_fixture("r3.json")


@pytest.fixture(scope="session")
def r5():
    return load_fixture("r5.json")


@pytest.fixture(scope="session")
def r6():
    return load_fixture("r6.json")


@pytest.fixture(scope="session")
def r10():
    return load_fixture("r10.json")


@pytest.fixture(scope="session")
def t2():
    return load_fixture("t2.json")


@pytest.fixture(scope="session")
def t3():
    return load_fixture("t3.json")


@pytest.fixture(scope="session")
def p6():
    return load_fixture("pairs6.json")


@pytest.fixture(scope="session")
def b12():
    return load_fixture("blocks12.json")


@pytest.fixture(scope="session")
def magma8():
    return load_fixture("quasigroup8.json", as_magma=True)


@pytest.fixture(scope="session")
def cov63(r6, r3):
    """The two-fold covering of r3 by r6 (reduce indices mod 3)."""
    return check_covering(QuandleHom(r6, r3, [0, 1, 2, 0, 1, 2]))


@pytest.fixture
def checkout_env():
    """Environment for a child Python that imports quandlekit from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
