import tracemalloc

import pytest


def _peak_bytes(fn) -> int:
    """Peak traced allocation of fn() above what was live when it started."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes
