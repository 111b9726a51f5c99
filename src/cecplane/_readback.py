"""The read side's inputs: ``windows.csv`` and a ``--metric`` file, read
back by ``rank``, ``anova`` and ``spearman`` under the shared reader's
rules (``_tables``).  Only those commands import this module.

A plain ``windows.csv`` (what ``analyze`` writes) is read a column at a
time; every other file is read row by row, with the same results and the
same errors (``_load_windows``).
"""

from __future__ import annotations

import csv
import math
from itertools import compress, repeat
from operator import itemgetter, ne, sub
from typing import NamedTuple

from ._tables import _WINDOW_HEADER, _cell, _located, _read_csv
from .special import _off_plane, _stride_break

# the columns of ``windows.csv`` that the statistics read
_WINDOW_COLUMNS = tuple(c for c in _WINDOW_HEADER if c != "end_timestamp")


class _Windows(NamedTuple):
    """One asset's windows read back from ``windows.csv``, in window order:
    the fields of a ``RollingResult`` that the statistics read."""

    asset: str
    window_starts: tuple[int, ...]
    entropies: tuple[float, ...]
    complexities: tuple[float, ...]


def _load_windows(path: str) -> dict[str, _Windows]:
    """Rebuild each asset's windows from the analyze output schema.

    The header must name every column of ``_WINDOW_COLUMNS``; other columns
    are ignored.  Rows are checked as they are read, under the shared
    reader's rules (``_tables``), and the first defect met is raised.  Along
    a row these are errors naming the line and column, in this order: an
    empty asset label; a window index, then a start offset, that is not an
    integer in ``[0, 2**63)``; an entropy, then a complexity, that is not a
    finite number, then off the plane; a window listed twice.  Then each
    asset's window starts, by window index, must advance by one constant
    stride.  Assets keep their order of first appearance.

    The text past the header is first read a column at a time
    (``_by_column``), which accepts only a file it can vouch for whole;
    any other file is read again by the row loop (``_by_row``), which
    alone reports defects, so both ways give the same result or error.
    """
    with _read_csv(path) as (header, _, text):
        if any(c not in header for c in _WINDOW_COLUMNS):
            raise _located(path, 1, None,
                           f"expected columns {sorted(_WINDOW_COLUMNS)}, got {header}")
        columns = list(map(header.index, _WINDOW_COLUMNS))
        results = _by_column(text.read(), len(header), columns)
    if results is not None:
        return results
    with _read_csv(path) as (_, rows, _):
        return _by_row(path, rows, itemgetter(*columns))


def _by_column(body: str, width: int, columns: list[int]) -> dict[str, _Windows] | None:
    """The windows of ``body``, the text past a header of ``width`` names
    that holds ``_WINDOW_COLUMNS`` at ``columns``, or None unless the row
    loop would read ``body`` without error to the same result.

    ``body`` must be ASCII (so it holds no escaped byte) with no ``"``,
    ``\\r`` or NUL, and every line must hold ``width - 1`` commas and be
    shorter than ``csv``'s field limit; then ``csv.reader`` would split it
    exactly as ``split`` does, and no row is blank.  Each column is
    converted at once by the conversions of ``_cell`` and checked at once
    against its rules.  Each asset must be one run of rows whose window
    indices count up by one, so no window is listed twice and file order is
    window order, and whose starts advance by one positive stride.
    """
    lines = body.removesuffix("\n").split("\n")
    if (not body.isascii() or any(c in body for c in '"\r\0')
            or list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines)
            or max(map(len, lines)) >= csv.field_size_limit()):
        return None
    cells = ",".join(lines).split(",")
    asset, index, start, entropy, complexity = (cells[k::width] for k in columns)
    try:
        index, start = list(map(int, index)), list(map(int, start))
        entropy, complexity = list(map(float, entropy)), list(map(float, complexity))
    except ValueError:
        return None
    if (not all(map(str.strip, asset)) or min(min(index), min(start)) < 0
            or max(max(index), max(start)) >= 2**63
            or not all(map(math.isfinite, entropy)) or not all(map(math.isfinite, complexity))
            or any(off for point in ((min(entropy), min(complexity)),
                                     (max(entropy), max(complexity)))
                   for _, off, _ in _off_plane(*point))):
        return None
    # the first row of each run of one asset's rows, then the row count
    runs = [0, *compress(range(1, len(asset)), map(ne, asset[1:], asset[:-1])), len(asset)]
    steps = list(map(sub, index[1:], index[:-1]))
    results = {}
    for a, b in zip(runs, runs[1:]):
        step, starts = steps[a:b - 1], tuple(start[a:b])
        if asset[a] in results or step.count(1) != len(step) or _stride_break(starts):
            return None
        results[asset[a]] = _Windows(asset[a], starts, tuple(entropy[a:b]),
                                     tuple(complexity[a:b]))
    return results


def _by_row(path: str, rows, cells) -> dict[str, _Windows]:
    """The windows of the ``(line, row)`` data ``rows``, whose cells
    ``cells`` picks in ``_WINDOW_COLUMNS`` order, checked a row at a time
    (see ``_load_windows``)."""
    windows: dict[str, dict[int, tuple]] = {}  # asset -> {index: (line, start, H, C)}
    for line, row in rows:
        asset, index, start, entropy, complexity = cells(row)
        if not asset.strip():
            raise _located(path, line, "asset", "empty asset label")
        index = _cell(path, line, "window_index", index, int)
        start = _cell(path, line, "start_offset", start, int)
        point = (_cell(path, line, "entropy", entropy, float),
                 _cell(path, line, "complexity", complexity, float))
        for value, (c, off, why) in zip(point, _off_plane(*point)):
            if off:
                raise _located(path, line, c, why.format(value))
        seen = windows.setdefault(asset, {})
        if index in seen:
            raise _located(path, line, "window_index", f"window {index} of asset "
                           f"{asset!r} already on line {seen[index][0]}")
        seen[index] = (line, start, *point)
    if not windows:
        raise _located(path, 1, None, "header but no window rows")
    results = {}
    for asset, seen in windows.items():
        lines, starts, entropies, complexities = zip(*(seen[k] for k in sorted(seen)))
        k = _stride_break(starts)
        if k is not None:
            raise _located(path, lines[k], "start_offset",
                           f"asset {asset!r} window starts must advance by a constant "
                           f"positive stride; {starts[k]} follows {starts[k - 1]}, "
                           f"the first stride is {starts[1] - starts[0]}")
        results[asset] = _Windows(asset, starts, entropies, complexities)
    return results


def _load_metrics(path: str) -> dict[str, dict[str, float]]:
    """Per-metric ``{asset: value}`` from a CSV with an ``asset`` column and
    one column per metric, in header order.  Rows are checked as they are
    read, under the shared reader's rules (``_tables``), and the first
    defect met is raised.  Along a row these are errors naming the line and
    column, in this order: an empty asset label, an asset listed twice, and
    a metric that is not a finite number, in header order.
    """
    with _read_csv(path) as (header, rows, _):
        if "asset" not in header:
            raise _located(path, 1, None, f"expected an 'asset' column, got {header}")
        names = [name for name in header if name != "asset"]
        if not names:
            raise _located(path, 1, None, "no metric columns besides 'asset'")
        lines: dict[str, int] = {}
        metrics: dict[str, dict[str, float]] = {name: {} for name in names}
        for line, row in rows:
            cells = dict(zip(header, row))
            asset = cells["asset"]
            if not asset.strip():
                raise _located(path, line, "asset", "empty asset label")
            if asset in lines:
                raise _located(path, line, "asset",
                               f"asset {asset!r} already on line {lines[asset]}")
            lines[asset] = line
            for name in names:
                metrics[name][asset] = _cell(path, line, name, cells[name], float)
    return metrics
