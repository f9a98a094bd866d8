"""Shared fixtures for the DarKnight reproduction test suite."""

from __future__ import annotations

import contextlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.fieldmath import FieldRng, PrimeField

# Hypothesis imports this module lazily, in its report hook, once a property
# is falsified.  That import warns (libcst: ``mypy_extensions.TypedDict is
# deprecated``), and under the warnings-as-errors hook below the report then
# ended in ``INTERNALERROR`` instead of the falsifying example.  Imported
# here, once and quietly, the hook's own import finds it loaded.  Without
# libcst (an optional hypothesis extra) the hook skips the import itself,
# so there is nothing to preload.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
