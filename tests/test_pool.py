import multiprocessing
import os
import signal
import sys
import time
from contextlib import closing

import pytest

from pellcheck import pool
from processes import (HAS_PROC, assert_workers_die_with_caller, gone,
                       wait_until)


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)


def _slow_early(x):
    """Later items finish first: item x sleeps (5 - x) / 20 s."""
    time.sleep((5 - x) / 20)
    return x * x, os.getpid()


def test_results_come_in_item_order_when_items_finish_out_of_order():
    with closing(pool.ordered_map(_slow_early, range(6), "test")) as it:
        results = list(it)
    assert [r for r, _ in results] == [x * x for x in range(6)]
    pids = {pid for _, pid in results}
    assert len(pids) == 2 and os.getpid() not in pids


def _fails_at_3(x):
    if x == 3:
        raise ArithmeticError("planted failure")
    time.sleep(0.01)
    return x


def test_an_exception_is_raised_at_its_position():
    seen = []
    it = pool.ordered_map(_fails_at_3, range(8), "test")
    with closing(it), pytest.raises(ArithmeticError,
                                    match="planted") as excinfo:
        for x in it:
            seen.append(x)
    assert seen == [0, 1, 2]
    assert "in a test worker" in str(excinfo.value.__cause__)
    assert multiprocessing.active_children() == []


def test_early_close_ends_every_worker():
    it = pool.ordered_map(time.sleep, [0, 60, 60, 60], "test")
    with closing(it):
        assert next(it) is None
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_is_an_error():
    it = pool.ordered_map(os._exit, [3, 0], "test")
    with closing(it), pytest.raises(RuntimeError,
                                    match="a test worker exited"):
        list(it)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_a_worker_killed_while_idle_is_an_error():
    # the worker of item 0 dies while idle: the next item sent down its
    # pipe finds no reader
    it = pool.ordered_map(lambda x: os.getpid(), range(4), "test")
    with closing(it):
        pid = next(it)
        os.kill(pid, signal.SIGKILL)
        wait_until(lambda: gone(pid), 5)
        assert gone(pid)
        with pytest.raises(RuntimeError, match="a test worker exited"):
            list(it)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("items, workers", [([1, 2, 3], 1), ([7], 2),
                                            ([], 2)])
def test_one_worker_or_one_item_runs_in_this_process(items, workers,
                                                     monkeypatch):
    # lazily, as map() does: nothing runs before it is asked for
    monkeypatch.setattr(pool, "worker_count", lambda: workers)
    calls = []

    def record(x):
        calls.append(x)
        return os.getpid(), x

    it = pool.ordered_map(record, items, "test")
    with closing(it):
        assert calls == []
        assert list(it) == [(os.getpid(), x) for x in items]
    assert calls == items


def test_without_fork_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    it = pool.ordered_map(lambda x: (os.getpid(), x), [1, 2], "test")
    with closing(it):
        assert list(it) == [(os.getpid(), 1), (os.getpid(), 2)]


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_busy_workers_end_when_the_caller_is_killed():
    # each worker is deep in a 60 s item, outside any map of its own, when
    # its caller is killed: the kernel must end it at once
    src = os.path.dirname(os.path.dirname(os.path.abspath(pool.__file__)))
    script = (
        "import time\n"
        "from pellcheck import pool\n"
        "pool.worker_count = lambda: 2\n"
        "list(pool.ordered_map(time.sleep, [60, 60], 'busy'))\n"
    )
    assert_workers_die_with_caller(
        [sys.executable, "-c", script], 2, 2,
        env={**os.environ, "PYTHONPATH": src})
