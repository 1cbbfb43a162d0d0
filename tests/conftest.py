"""Session timing: the summary ends with the session's wall seconds and its
CPU seconds, for this process and for the subprocesses it waited for.  On a
shared machine the wall time swings with the load, while the CPU time shows
what the suite itself costs."""

import resource
import time

import pytest

_START = pytest.StashKey[tuple[float, tuple[float, float]]]()


def _cpu_seconds() -> tuple[float, float]:
    """User plus system seconds of this process and of its waited-for
    children."""
    return tuple(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def pytest_sessionstart(session):
    session.config.stash[_START] = (time.perf_counter(), _cpu_seconds())


def pytest_terminal_summary(terminalreporter, config):
    start_wall, start_cpu = config.stash[_START]
    wall = time.perf_counter() - start_wall
    own, children = (now - then for now, then in zip(_cpu_seconds(), start_cpu))
    terminalreporter.write_line(
        f"session time: wall {wall:.1f} s, CPU {own + children:.1f} s "
        f"(this process {own:.1f} s, subprocesses {children:.1f} s)"
    )
