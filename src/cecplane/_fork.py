"""How work is split among processes, and what a failed child costs.

The CSV range parser (``dataio``) and the fBm cloud scorer (``fbm``) split
their work through this module alone: ``_count`` says how many processes
share it, and ``_map`` runs every share, the first here and each other in a
forked child that sends its float arrays back through a pipe.
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

# What a child writes after its last array, where a length would stand.
_END = (-1).to_bytes(8, "little", signed=True)
_PACKAGE = os.path.dirname(__file__)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count(work: int, floor: int) -> int:
    """The number of processes for ``work`` units, none with fewer than
    ``floor`` on average: at most one per usable CPU, at least one, and one
    where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_cpus(), work // floor))


def _map(task: Callable[..., Iterable[np.ndarray]],
         shares: Sequence[tuple]) -> list[list[np.ndarray]]:
    """``[list(task(*share)) for share in shares]``, over a non-empty
    ``shares``, with ``task`` yielding 1-D float64 arrays.

    The first share runs in this process, after a child is forked for each
    other share; then each child's arrays are read from its pipe.  A share
    that gets no child (``os.fork`` is missing, or ``pipe`` or ``fork``
    raises ``OSError``) runs here without a warning.  A child whose pipe
    ends before its end mark has failed: a ``RuntimeWarning``, attributed to
    the first caller outside this package, names its share, which then runs
    here.  Every child is killed, if still running, and reaped before this
    returns or raises."""
    children = []  # (pid, pipe) of shares[1], shares[2], ... while forks last
    try:
        try:
            for share in shares[1:] if hasattr(os, "fork") else ():
                children.append(_start(task, share))
        except OSError:  # no pipe or process to be had: the rest run here
            pass
        results = [list(task(*shares[0]))]
        for (_, pipe), share in zip(children, shares[1:]):
            arrays = _receive(pipe)
            if arrays is None:
                warnings.warn(f"the child process given share {share} failed; "
                              "this process runs that share", RuntimeWarning,
                              stacklevel=_caller_level())
                arrays = list(task(*share))
            results.append(arrays)
        return results + [list(task(*share)) for share in shares[1 + len(children):]]
    finally:
        _reap(children)


def _start(task: Callable[..., Iterable[np.ndarray]], share: tuple) -> tuple[int, BinaryIO]:
    """Fork a child that writes each array ``task(*share)`` yields to a pipe,
    its length (8 bytes, little-endian) before its float64 bytes, then
    ``_END``, and ends in ``os._exit``; returns its pid and the buffered read
    end of the pipe.  A child whose task raises ends with no ``_END``.
    ``OSError`` if no pipe or process is to be had."""
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
            for array in task(*share):
                array = np.ascontiguousarray(array, np.float64)
                out.write(array.size.to_bytes(8, "little", signed=True))
                out.write(array)
            out.write(_END)
    finally:
        os._exit(0)


def _receive(pipe: BinaryIO) -> list[np.ndarray] | None:
    """The arrays a child wrote to ``pipe``, or ``None`` if the pipe ends
    before ``_END``."""
    arrays = []
    while len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little", signed=True)
        if size < 0:
            return arrays
        arrays.append(np.empty(size))
        if pipe.readinto(arrays[-1]) < arrays[-1].nbytes:
            return None
    return None


def _caller_level() -> int:
    """The ``stacklevel`` that attributes a warning raised by this
    function's caller to the first frame outside this package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE:
        frame, level = frame.f_back, level + 1
    return level


def _reap(children: list[tuple[int, BinaryIO]]) -> None:
    """Close the pipe of each child ``(pid, pipe)``, kill the child if still
    running (it is of no more use) and reap it."""
    if not children:
        return
    import signal  # here, not above: a call that forks nothing loads no signal

    for pid, pipe in children:
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
