import os
import sys
from pathlib import Path

import pytest

from circgeo.core import ManifoldSpec, load_spec

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def child_env(env: dict | None = None) -> dict:
    """The environment, updated by `env`, for a child Python that imports
    this checkout's circgeo, installed or not: `src` first on PYTHONPATH,
    as on the tests' own path (`pythonpath` in pyproject.toml)."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


@pytest.fixture(scope="session")
def const_spec() -> ManifoldSpec:
    return load_spec(fixture_path("const"))


@pytest.fixture(scope="session")
def flat_par() -> ManifoldSpec:
    return load_spec(fixture_path("flat-par"))


@pytest.fixture(scope="session")
def curved_par() -> ManifoldSpec:
    return load_spec(fixture_path("curved-par"))


@pytest.fixture(scope="session")
def nonpar() -> ManifoldSpec:
    return load_spec(fixture_path("nonpar"))


@pytest.fixture(scope="session")
def all_fixture_specs(const_spec, flat_par, curved_par, nonpar):
    return [const_spec, flat_par, curved_par, nonpar]


def interior_points(spec: ManifoldSpec, rng, n: int, margin: float = 0.01):
    """Random points strictly inside the domain box (FD stencils stay inside)."""
    lo = spec.domain.lo + margin
    hi = spec.domain.hi - margin
    return rng.uniform(lo, hi, size=(n, 4))
