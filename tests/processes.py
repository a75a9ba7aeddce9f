"""Process helpers for the tests that kill or interrupt a caller and then
check that every worker it forked is gone.  They read /proc, so callers
skip where it is missing."""

import os
import signal
import subprocess
import time

HAS_PROC = os.path.isdir("/proc/self")


def _stats() -> dict[int, list[str]]:
    """The /proc/<pid>/stat fields after the command name, by pid."""
    stats = {}
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stats[int(entry)] = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):  # it just exited
            continue
    return stats


def gone(pid: int) -> bool:
    """True once pid has exited (a zombie that init has yet to reap
    counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def descendants(pid: int) -> list[int]:
    """Live descendants of pid, found by following parent links."""
    live = {p: int(f[1]) for p, f in _stats().items() if f[0] != "Z"}
    found: list[int] = []
    parents = {pid}
    while parents:
        parents = {p for p, ppid in live.items() if ppid in parents}
        found += sorted(parents)
    return found


def session_members(sid: int) -> list[int]:
    """Live processes in session sid."""
    return [p for p, f in _stats().items() if f[0] != "Z" and int(f[3]) == sid]


def wait_until(done, seconds: float) -> None:
    """Poll done() every 50 ms until it is true or `seconds` have passed."""
    deadline = time.monotonic() + seconds
    while not done() and time.monotonic() < deadline:
        time.sleep(0.05)


def assert_workers_die_with_caller(argv: list[str], count: int,
                                   seconds: float, **popen) -> None:
    """Start argv, wait up to 30 s for it to have `count` live
    descendants, SIGKILL it, and assert that every one of them is gone
    within `seconds`."""
    proc = subprocess.Popen(argv, **popen)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < count and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = descendants(proc.pid)
        assert len(workers) == count
        proc.kill()
        assert proc.wait(timeout=30) == -signal.SIGKILL
        wait_until(lambda: all(gone(pid) for pid in workers), seconds)
        assert all(gone(pid) for pid in workers)
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if not gone(pid):
                os.kill(pid, signal.SIGKILL)
