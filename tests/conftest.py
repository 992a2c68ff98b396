"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.db import BinaryDatabase, Itemset, _native, planted_database, random_database
from repro.params import SketchParams


@pytest.fixture(scope="session")
def native_unavailable():
    """Switch to the world of a host where the native tier cannot load.

    Returns :func:`repro.db._native._forced_unavailable_for_tests`, a
    context manager rather than a per-test switch, so a test can compare
    both tiers in one body (hypothesis tests included).
    """
    return _native._forced_unavailable_for_tests


def _report_cores(count: int):
    patcher = pytest.MonkeyPatch()
    patcher.setattr(os, "cpu_count", lambda: count)
    yield
    patcher.undo()


@pytest.fixture(scope="class")
def two_cores():
    """Report exactly 2 cores, so ``workers=2`` and auto both shard in two."""
    yield from _report_cores(2)


@pytest.fixture(scope="class")
def many_cores():
    """Report 8 cores, so the cpu-count clamp keeps wide sharding real."""
    yield from _report_cores(8)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; tests that need more draw children."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_db() -> BinaryDatabase:
    """A tiny hand-checkable database."""
    return BinaryDatabase(
        [
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [0, 1, 1, 1],
            [1, 0, 0, 1],
        ]
    )


@pytest.fixture
def planted_db() -> BinaryDatabase:
    """2000 rows with itemsets {0,1,2} at ~0.4 and {5,6} at ~0.3 planted."""
    return planted_database(
        2000,
        12,
        [(Itemset([0, 1, 2]), 0.4), (Itemset([5, 6]), 0.3)],
        background=0.05,
        rng=7,
    )


@pytest.fixture
def medium_random_db() -> BinaryDatabase:
    """5000 x 16 random database for statistical checks."""
    return random_database(5000, 16, density=0.3, rng=11)


@pytest.fixture
def medium_params(medium_random_db: BinaryDatabase) -> SketchParams:
    """Matching parameters for ``medium_random_db`` with k=2, eps=0.1."""
    db = medium_random_db
    return SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1, delta=0.1)
