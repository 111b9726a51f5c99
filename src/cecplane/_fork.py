"""Forked children that send their results back through a pipe.

The CSV range parser (``dataio``) and the fBm cloud scorer (``fbm``) split
their work among usable CPUs the same way: this process starts one child per
share past its own (``_start``), does its own share, reads each child's
buffers from the child's pipe straight into its result arrays, and kills and
reaps every child before it returns or raises (``_reap``).  Only those two
modules import this one.
"""

from __future__ import annotations

import os
import warnings
from typing import BinaryIO, Callable, Iterable


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start(task: Callable[..., Iterable], *args) -> tuple[int, BinaryIO]:
    """Start a child that writes each buffer ``task(*args)`` yields to a
    pipe and ends in ``os._exit``; returns its pid and the buffered read end
    of the pipe.  A child whose task raises ends with the pipe short, which
    its reader sees.  ``OSError`` if no pipe or process is to be had."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns that a process holding threads (numpy's
            # OpenBLAS pool is one) may fork a child that deadlocks on a lock
            # one of them held.  These children take none of those locks:
            # they run numpy on their own data, write to their pipe and call
            # os._exit.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:  # the child; it never returns into the parent's code
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            for buffer in task(*args):
                out.write(buffer)
    finally:
        os._exit(0)


def _reap(children: list[tuple]) -> None:
    """Close the pipe of each child ``(pid, pipe, ...)``, kill the child if
    still running (it is of no more use) and reap it."""
    if not children:
        return
    import signal  # here, not above: a call that forks nothing loads no signal

    for pid, pipe, *_ in children:
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
