import pytest

import qchar


@pytest.fixture(autouse=True)
def cleared_memos():
    """Every test leaves the library's memos empty, as a fresh process
    starts: a block memo keeps an error a solve raised, so a test that
    injects a fault must not leave that error for later tests, nor a solved
    block that lets a later test skip the solve it counts."""
    yield
    qchar.clear_caches()
