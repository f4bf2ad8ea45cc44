"""Shared fixtures: keep cross-test global state out of the picture."""

import pytest

from repro.chaos.engine import active_engine, uninstall_engine


@pytest.fixture(autouse=True)
def _no_leaked_chaos():
    """A test that installs a fault plan (directly or via REPRO_FAULTS)
    must not leave it armed for the next test."""
    yield
    if active_engine() is not None:
        uninstall_engine()
