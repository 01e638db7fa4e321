"""Fixtures shared across test modules."""

import pytest

from wsim import run_verification


@pytest.fixture(scope="session")
def verification():
    """run_verification, memoized for the session by (seed, tolerance).

    A full battery run takes most of a second; tests/test_verify.py and the
    verify tests of tests/test_cli.py share each (seed, tolerance) run
    instead of repeating it.  Each call returns a fresh list of the
    (frozen) claim records."""
    runs = {}

    def run(seed=1, tolerance=None):
        if (seed, tolerance) not in runs:
            runs[seed, tolerance] = run_verification(seed=seed, tolerance=tolerance)
        return list(runs[seed, tolerance])

    return run
