"""The table model, the one CSV writer and the one CSV reader, shared by
``dataio`` and ``cli``.

Every CSV written out — window tables, summaries, rankings, test results,
envelopes, plot data, the CLI's stdout tables — is one ``_Table`` (a header
plus typed columns), formatted a column at a time by ``_text`` and written by
``_write``, so a rerun with the same inputs and seed is byte-identical.
Every CSV read in — the dataset, ``windows.csv``, a ``--metric`` file — is
opened by ``_read_csv``, under one set of rules, and checked in the one pass
that reads its rows: the first defect in reading order is the one reported,
located at the physical line its record starts on as
``{path}: line L[, column C]: message``.  The module imports the standard
library only, so a command loads the schemas without numpy or the pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from .bounds import BoundCurve
    from .fbm import BaselineCloud
    from .stats import PairwiseComparison, RankingEntry


def _text(column) -> list[str]:
    """The cells of one column as text.  A column of str is text already.
    Otherwise the column becomes one list (``tolist()`` for an array) and
    its type is decided once, over that list: ``true``/``false`` when every
    cell is a bool, ``str`` when every cell is an int, else floats, as the
    shortest round-trip ``repr``, or integer text for an integral float
    (finite, ``|v| < 2**53``, ``v == trunc(v)``), so ``-0.0`` reads ``0``.
    """
    values = column.tolist() if hasattr(column, "tolist") else column
    if values and isinstance(values[0], str):
        return values
    kinds = set(map(type, values))
    if kinds <= {bool}:
        return ["true" if v else "false" for v in values]
    if kinds <= {int, bool}:
        return list(map(str, map(int, values)))
    if kinds != {float}:
        values = list(map(float, values))
    text = list(map(float.__repr__, values))
    for k in compress(range(len(values)), map(float.is_integer, values)):
        if abs(values[k]) < 2.0**53:
            text[k] = str(int(values[k]))
    return text


class _Table(NamedTuple):
    """One output table: a header and its columns.  A column is a list (or
    a pipeline's numpy array) of bools, ints or floats, or a list of str
    written as it stands: labels, or text that :func:`_text` already made."""

    header: tuple[str, ...]
    columns: tuple

    def select(self, *names: str) -> "_Table":
        return _Table(names, tuple(self.columns[self.header.index(n)] for n in names))

    def formatted(self) -> "_Table":
        return self._replace(columns=tuple(map(_text, self.columns)))


def _table(**columns) -> _Table:
    return _Table(tuple(columns), tuple(columns.values()))


def _write(table: _Table, path) -> None:
    """Write ``table`` as CSV to ``path``, or to stdout when it is None."""
    text = table.formatted()
    with (open(path, "w", newline="") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(text.header)
        writer.writerows(zip(*text.columns))


def _records(records, *names: str) -> _Table:
    """One row per record, one column per attribute in ``names``."""
    return _Table(names, tuple([getattr(r, name) for r in records] for name in names))


def _ranking_table(entries: Sequence[RankingEntry]) -> _Table:
    return _records(entries, "rank", "asset", "distance", "tied")


def _bounds_table(lower: BoundCurve, upper: BoundCurve) -> _Table:
    return _table(H=lower.entropy, C_lower=lower.complexity, C_upper=upper.complexity)


def _clouds_table(clouds: Sequence[BaselineCloud]) -> _Table:
    return _table(
        hurst=[c.hurst for c in clouds],
        mean_entropy=[c.mean_point.entropy for c in clouds],
        mean_complexity=[c.mean_point.complexity for c in clouds],
        std_entropy=[c.std_entropy for c in clouds],
        std_complexity=[c.std_complexity for c in clouds],
        sims=[c.sims for c in clouds],
    )


def _pairwise_table(pairwise: Sequence[PairwiseComparison]) -> _Table:
    """One row per asset and metric; ``pairwise`` must not be empty."""
    rows = [(c.asset, c.baseline, metric, diff, anova.f_stat, anova.p_value)
            for c in pairwise for metric, anova, diff in c.by_metric()]
    asset, baseline, metric, diff, f_stat, p_value = map(list, zip(*rows))
    return _table(asset=asset, baseline=baseline, metric=metric, mean_diff=diff,
                  f_stat=f_stat, p_value=p_value,
                  significant_5pct=[p < 0.05 for p in p_value],
                  significant_1pct=[p < 0.01 for p in p_value])


def _located(path, line: int, column, message: str) -> ValueError:
    return ValueError(f"{path}: line {line}, column {column!r}: {message}")


def _cell(path, line: int, column: str, text: str, kind: type[int] | type[float]):
    """The cell ``text`` as an int in ``[0, 2**63)`` or a finite float, as
    ``kind`` says; anything else is an error at its line and column."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if kind is int and value is not None and not 0 <= value < 2**63:
        raise _located(path, line, column, f"{value} is outside [0, 2**63)")
    if value is None or not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise _located(path, line, column, f"{text.strip()!r} is not {what}")
    return value


def _checked_lines(path) -> Iterator[str]:
    """The lines of ``path`` up to the first that holds a byte that is not
    UTF-8, then the error that locates it.  The lines are split as the CSV
    reader counts them (at a line feed, a carriage return or both), and a
    newline byte is never part of a UTF-8 character, so the line that holds
    the escaped byte is the line of the bad byte.  Only a read that met such
    a byte opens the file this way: the lines before it decode as they would
    have, so the records they hold are read, and checked, before the error."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for line, text in enumerate(fh, start=1):
            try:
                text.encode()
            except UnicodeEncodeError:  # an escaped byte
                raise ValueError(f"{path}: line {line}: not UTF-8 text") from None
            yield text


def _data_rows(path, header: list[str], reader, start: int) -> Iterator[tuple[int, list[str]]]:
    """The ``(line, row)`` data rows ``reader`` holds from the record that
    starts on line ``start``, checked against ``header``.  If a block of the
    file does not decode, the records ahead of the bad byte are read again
    from :func:`_checked_lines`, so a defect in one of them is met first."""
    try:
        for row in reader:
            line, start = start, reader.line_num + 1
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(header):
                column = header[len(row)] if len(row) < len(header) else len(header) + 1
                raise _located(path, line, column,
                               f"row has {len(row)} cells, header has {len(header)}")
            yield line, row
    except UnicodeDecodeError:
        with contextlib.closing(_checked_lines(path)) as lines:
            reader = csv.reader(lines)
            while reader.line_num < start - 1:  # the records already read
                next(reader)
            yield from _data_rows(path, header, reader, start)


@contextlib.contextmanager
def _read_csv(path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]],
                                      Iterable[str]]]:
    """Open the CSV input ``path`` under the package's reading rules; yields
    its header, its ``(line, row)`` data rows, and its text just past the
    header, which a bulk parser may read instead of the rows.

    The text is UTF-8, and a byte-order mark is skipped.  The header's names
    are stripped, and a file with no header or with a repeated name is an
    error.  A data row is numbered by the physical line its record starts
    on, so a quoted cell that spans lines and a skipped blank row both count;
    a row whose cell count differs from the header's is an error naming its
    first missing or extra column.  Bytes that are not UTF-8 are an error at
    the line of the first of them, wherever the text is read, and the rows
    ahead of that line are read first, so the first defect in reading order
    is the one reported whatever the size of the blocks the file is decoded
    in.  Only a read that meets such a byte does more than the row pass.
    """
    try:
        with contextlib.ExitStack() as stack:
            text: Iterable[str] = stack.enter_context(
                open(path, encoding="utf-8-sig", newline=""))
            reader = csv.reader(text)
            try:
                first = next(reader, [])
            except UnicodeDecodeError:  # the first block holds a bad byte
                text = stack.enter_context(contextlib.closing(_checked_lines(path)))
                reader = csv.reader(text)
                first = next(reader, [])
            header = [h.strip() for h in first]
            if not header:
                raise ValueError(f"{path}: line 1: empty file, expected a header row")
            for k, name in enumerate(header):
                if name in header[:k]:
                    raise _located(path, 1, name, "duplicate column name")
            yield header, _data_rows(path, header, reader, reader.line_num + 1), text
    except UnicodeDecodeError:  # a bulk read of the text met a bad byte
        for _ in _checked_lines(path):  # raises at the line of the first
            pass
        raise
