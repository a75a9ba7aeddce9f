import multiprocessing
import os

import pytest

from processes import HAS_PROC, descendants, wait_until


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    """Every test must end every process it started: its multiprocessing
    children at once, and (where /proc tells) every live descendant
    within 2 s."""
    yield
    assert multiprocessing.active_children() == []
    if HAS_PROC:
        wait_until(lambda: not descendants(os.getpid()), 2)
        assert descendants(os.getpid()) == []
