import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    """Every test must end every worker process it started."""
    yield
    assert multiprocessing.active_children() == []
