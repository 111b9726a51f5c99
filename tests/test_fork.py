"""``_fork._map`` gives each share's arrays, whichever process runs it."""

import os
from unittest import mock

import numpy as np
import pytest

from cecplane import _fork


def _arrays(count: int, size: int):
    """``count`` float arrays of ``size`` entries each, none alike."""
    return [np.arange(size, dtype=np.float64) / 3 + k for k in range(count)]


def _bytes(results):
    return [[(array.dtype, array.tobytes()) for array in arrays] for arrays in results]


SHARES = {
    "one-share": [(2, 5)],
    "no-arrays": [(1, 4), (0, 4), (2, 3)],
    "empty-arrays": [(1, 0), (3, 0), (2, 7)],
}


@pytest.mark.parametrize("shares", SHARES.values(), ids=SHARES)
def test_every_share_gives_its_arrays(shares):
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        results = _fork._map(_arrays, shares)
    assert fork.call_count == len(shares) - 1
    assert _bytes(results) == _bytes(_arrays(*share) for share in shares)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_fork_runs_every_share_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _fork._count(1 << 30, 1) == 1
    shares = SHARES["empty-arrays"]
    assert _bytes(_fork._map(_arrays, shares)) == _bytes(_arrays(*share) for share in shares)
