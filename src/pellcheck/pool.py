"""One ordered map over forked workers, for the sweep's odd indices
(verifier) and the p-1 stage-2 segments (arith).

Each idle worker is sent the next item down its own pipe, and results
are yielded in item order.  An exception raised in a worker is raised
again at its item's position; a worker that exits raises RuntimeError.
With one worker or one item, in a daemonic process or without fork, fn
runs in this process instead.  When the map ends, however it ends, every
worker is killed with SIGKILL and joined; close it explicitly, never by
garbage collection.  Workers ignore SIGINT, and each closes the caller's
pipe ends it inherits, so it returns within one item once the caller is
gone.  A map run inside a worker also watches that worker's pipe to its
caller, which is sent nothing while the worker is busy, so the map raises
as soon as the caller is gone.  A map started outside any worker makes
each worker a process-group leader and kills the group, so a worker's own
map ends with it.  Workers fork rather than spawn, which would re-run a
script's unguarded __main__.  multiprocessing, signal and traceback are
imported only when a map forks.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

#: In a worker, its pipe to its caller; None elsewhere.
_caller = None


def worker_count() -> int:
    """How many workers a map may use: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(conn, fn: Callable, inherited: list) -> None:
    """A worker: apply fn to each item the caller sends and send back
    (True, result) or (False, (exception, its traceback)), until the
    caller kills it or its end of the pipe closes."""
    import signal
    import traceback

    global _caller
    _caller = conn
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops workers
    for end in inherited:
        end.close()
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        try:
            reply = True, fn(item)
        except Exception as exc:
            reply = False, (exc, traceback.format_exc())
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


def ordered_map(fn: Callable, items: Iterable, workers: int,
                name: str) -> Iterator:
    """fn(item) for each item, in item order, on up to `workers` forked
    workers; name says whose workers they are in errors."""
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1:
        import multiprocessing

        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()):
            workers = 1
    if workers < 2:
        yield from map(fn, items)
        return
    import signal
    from multiprocessing.connection import wait

    fork = multiprocessing.get_context("fork")
    leaders = multiprocessing.parent_process() is None  # not in a worker
    watched = [] if _caller is None else [_caller]
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child = fork.Pipe()
            conns.append(conn)
            proc = fork.Process(target=_serve, args=(child, fn, list(conns)))
            proc.start()
            procs.append(proc)
            child.close()
            if leaders:  # before any item is sent, so its own maps join it
                os.setpgid(proc.pid, proc.pid)
        running: dict = {}  # connection -> position of its item
        done: dict[int, tuple] = {}  # position -> reply
        sent = 0
        for i in range(len(items)):
            while i not in done:
                for conn in conns:
                    if sent < len(items) and conn not in running:
                        conn.send(items[sent])
                        running[conn] = sent
                        sent += 1
                ready = wait([*running, *(p.sentinel for p in procs),
                              *watched])
                if watched and watched[0] in ready:  # EOF: the caller died
                    raise RuntimeError(f"the caller of a {name} map is gone")
                if any(p.sentinel in ready for p in procs):
                    raise RuntimeError(f"a {name} worker exited")
                for conn in running.keys() & ready:
                    try:
                        done[running.pop(conn)] = conn.recv()
                    except EOFError:  # it exited as wait() returned
                        raise RuntimeError(
                            f"a {name} worker exited") from None
            ok, result = done.pop(i)
            if not ok:
                exc, trace = result
                raise exc from RuntimeError(f"in a {name} worker:\n{trace}")
            yield result
    finally:
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # not a group leader
                proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
