import gc

import pytest

import tunav.prelude


@pytest.fixture
def cold_prelude():
    """An empty prelude store: the prelude is parsed afresh, so the test's
    first run does the prelude work that a process does once."""
    tunav.prelude.prelude_store.cache_clear()


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test after which Python's cycle collector is disabled: a
    parse or a run that pauses it must resume it, and a test that disables
    it must enable it again."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cycle collector was left disabled")
