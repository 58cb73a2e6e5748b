"""Shared test fixtures.

Every test runs with ``REPRO_CACHE_DIR`` pointed at its own temporary
directory, so CLI invocations (which cache by default) never read or
write the developer's real ``~/.cache/rtlcheck-repro`` — tests stay
hermetic and order-independent, and a test that *wants* a warm cache
warms its own directory explicitly.
"""

import contextlib

import pytest

from repro.cache import CACHE_DIR_ENV


@pytest.fixture(autouse=True)
def _hermetic_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "repro-cache"))



@pytest.fixture
def per_property_explorer(monkeypatch):
    """A context manager: inside it, :class:`~repro.core.rtlcheck.RTLCheck`
    runs on the reference per-property explorer instead of the
    shared-graph walk (the module-level ``GraphExplorer`` name it builds
    its explorer from is substituted)."""
    from tests.reference.explorer import Explorer

    @contextlib.contextmanager
    def use():
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.rtlcheck.GraphExplorer", Explorer)
            yield

    return use
