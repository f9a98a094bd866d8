"""Shared fixtures for the DarKnight reproduction test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.fieldmath import FieldRng, PrimeField

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Every test under ``tests/`` runs with warnings as errors.

    The hook sees the whole session, so ``benchmarks/`` items collected in
    the same run are left alone.  Prepended, so a test's own
    ``filterwarnings`` mark still overrides it.
    """
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture(scope="session")
def field() -> PrimeField:
    """The paper's field, shared across the whole run (stateless)."""
    return PrimeField()


@pytest.fixture()
def frng(field) -> FieldRng:
    """A fresh deterministic field sampler per test."""
    return FieldRng(field, seed=1234)


@pytest.fixture()
def nprng() -> np.random.Generator:
    """A fresh deterministic numpy generator per test."""
    return np.random.default_rng(99)


@pytest.fixture()
def small_field() -> PrimeField:
    """A small prime field where exhaustive checks are cheap."""
    return PrimeField(p=10007)
