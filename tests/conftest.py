import pytest

import qchar
import qchar.laurent


@pytest.fixture(autouse=True)
def cleared_memos():
    """Every test leaves the library's memos empty, as a fresh process
    starts: a block memo keeps an error a solve raised, so a test that
    injects a fault must not leave that error for later tests, nor a solved
    block that lets a later test skip the solve it counts."""
    yield
    qchar.clear_caches()


@pytest.fixture
def failing_solve(monkeypatch):
    """Make every bar solve that meets a nonzero defect raise a ValueError,
    under either lattice convention: the packed solve calls
    `laurent.antisym_solve` as a module global.  The defects it was called
    on."""
    calls = []

    def fail(d):
        calls.append(d)
        raise ValueError(f"antisym_solve: injected at {d}")

    monkeypatch.setattr(qchar.laurent, "antisym_solve", fail)
    return calls
