import pytest

import tunav.prelude


@pytest.fixture
def cold_prelude():
    """An empty prelude store: the prelude is parsed afresh, so the test's
    first run does the prelude work that a process does once."""
    tunav.prelude.prelude_store.cache_clear()
