"""One ordered map over forked workers.  It has two callers: the sweep
in verifier, whose items are the odd indices, and ECM in arith, whose
items are batches of curves.

Each idle worker is sent the next item down its own pipe, and results
are yielded in item order.  An exception raised in a worker is raised
again at its item's position; a worker that exits, busy or idle, raises
WorkerExited, a RuntimeError.  The map forks worker_count() workers at
most.  With one worker or one item, in a daemonic process, off Linux or
without fork, fn runs in this process instead.  When the map ends,
however it ends, every worker is killed with SIGKILL and joined; close
it explicitly, never by garbage collection.  Workers ignore SIGINT.  Each
worker asks the kernel to SIGKILL it when its caller dies
(PR_SET_PDEATHSIG), so a killed caller leaves no worker running, busy or
idle, and a worker's own workers die with it in turn.  Linux sends that
signal when the *thread* that forked the worker ends, and a map forks in
the thread that first advances it.  Workers fork rather than spawn, which
would re-run a script's unguarded __main__.  multiprocessing, ctypes,
signal and traceback are imported only when a map forks.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterator, Sequence

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


class WorkerExited(RuntimeError):
    """A map's worker exited before it sent back its item's result."""


def worker_count() -> int:
    """How many workers a map may use: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(conn, fn: Callable, caller: int) -> None:
    """A worker: apply fn to each item the caller sends and send back
    (True, result) or (False, (exception, its traceback)), until the
    caller kills it or dies."""
    import ctypes
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops workers
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = ctypes.c_int, ctypes.c_ulong
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != caller:  # the caller died before prctl took effect
        os._exit(0)
    while True:
        item = conn.recv()
        try:
            reply = True, fn(item)
        except Exception as exc:
            reply = False, (exc, traceback.format_exc())
        conn.send(reply)


def ordered_map(fn: Callable, items: Sequence, name: str) -> Iterator:
    """fn(item) for each item, in item order, on forked workers; name says
    whose workers they are in errors."""
    worker = f"{'an' if name[:1] in 'AEIOU' else 'a'} {name} worker"
    workers = min(worker_count(), len(items))
    if workers > 1:
        import multiprocessing

        if (not sys.platform.startswith("linux")
                or multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()):
            workers = 1
    if workers < 2:
        yield from map(fn, items)
        return
    from multiprocessing.connection import wait

    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child = fork.Pipe()
            conns.append(conn)
            proc = fork.Process(target=_serve, args=(child, fn, os.getpid()))
            proc.start()
            procs.append(proc)
            child.close()
        running: dict = {}  # connection -> position of its item
        done: dict[int, tuple] = {}  # position -> reply
        sent = 0
        for i in range(len(items)):
            while i not in done:
                try:
                    for conn in conns:
                        if sent < len(items) and conn not in running:
                            conn.send(items[sent])
                            running[conn] = sent
                            sent += 1
                    ready = wait([*running, *(p.sentinel for p in procs)])
                    if any(p.sentinel in ready for p in procs):
                        raise WorkerExited(f"{worker} exited")
                    for conn in running.keys() & ready:
                        done[running.pop(conn)] = conn.recv()
                except (EOFError, OSError):  # a pipe to an exited worker
                    raise WorkerExited(f"{worker} exited") from None
            ok, result = done.pop(i)
            if not ok:
                exc, trace = result
                raise exc from RuntimeError(f"in {worker}:\n{trace}")
            yield result
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
