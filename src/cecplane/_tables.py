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
``{path}: line L[, column C]: message``.  The module imports numpy and the
standard library only, so a command loads the schemas without the pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

if TYPE_CHECKING:
    from .bounds import BoundCurve
    from .fbm import BaselineCloud
    from .stats import PairwiseComparison, RankingEntry


def _text(column) -> list[str]:
    """The cells of one column as text, the column's type decided once:
    ``true``/``false`` for bools, ``str`` for ints, and for floats the
    shortest round-trip ``repr``, or integer text for an integral float
    (finite, ``|v| < 2**53``, ``v == trunc(v)``), so ``-0.0`` reads ``0``.
    """
    values = np.asarray(column)
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    text = list(map(float.__repr__, values.tolist()))
    integral = np.isfinite(values) & (np.abs(values) < 2.0**53) & (values == np.trunc(values))
    for k, v in zip(np.flatnonzero(integral).tolist(), values[integral].astype(np.int64).tolist()):
        text[k] = str(v)
    return text


class _Table(NamedTuple):
    """One output table: a header and its columns.  A column is a numpy
    array of bools, ints or floats, or a list of str written as it stands:
    labels, or text that :func:`_text` already made."""

    header: tuple[str, ...]
    columns: tuple

    def select(self, *names: str) -> "_Table":
        return _Table(names, tuple(self.columns[self.header.index(n)] for n in names))

    def formatted(self) -> "_Table":
        return self._replace(columns=tuple(c if isinstance(c, list) else _text(c)
                                           for c in self.columns))


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
    columns = [[getattr(r, name) for r in records] for name in names]
    return _Table(names, tuple(c if c and isinstance(c[0], str) else np.asarray(c)
                               for c in columns))


def _ranking_table(entries: Sequence[RankingEntry]) -> _Table:
    return _records(entries, "rank", "asset", "distance", "tied")


def _bounds_table(lower: BoundCurve, upper: BoundCurve) -> _Table:
    return _table(H=lower.entropy, C_lower=lower.complexity, C_upper=upper.complexity)


def _clouds_table(clouds: Sequence[BaselineCloud]) -> _Table:
    return _table(
        hurst=np.array([c.hurst for c in clouds]),
        mean_entropy=np.array([c.mean_point.entropy for c in clouds]),
        mean_complexity=np.array([c.mean_point.complexity for c in clouds]),
        std_entropy=np.array([c.std_entropy for c in clouds]),
        std_complexity=np.array([c.std_complexity for c in clouds]),
        sims=np.array([c.sims for c in clouds]),
    )


def _pairwise_table(pairwise: Sequence[PairwiseComparison]) -> _Table:
    """One row per asset and metric; ``pairwise`` must not be empty."""
    rows = [(c.asset, c.baseline, metric, diff, anova.f_stat, anova.p_value)
            for c in pairwise for metric, anova, diff in c.by_metric()]
    asset, baseline, metric, diff, f_stat, p_value = zip(*rows)
    p_value = np.array(p_value)
    return _table(asset=list(asset), baseline=list(baseline), metric=list(metric),
                  mean_diff=np.array(diff), f_stat=np.array(f_stat), p_value=p_value,
                  significant_5pct=p_value < 0.05, significant_1pct=p_value < 0.01)


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


@contextlib.contextmanager
def _read_csv(path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]], TextIO]]:
    """Open the CSV input ``path`` under the package's reading rules; yields
    its header, its ``(line, row)`` data rows, and the text stream just past
    the header, which a bulk parser may read instead of the rows.

    The text is UTF-8, and a byte-order mark is skipped.  The header's names
    are stripped, and a file with no header or with a repeated name is an
    error.  A data row is numbered by the physical line its record starts
    on, so a quoted cell that spans lines and a skipped blank row both count;
    a row whose cell count differs from the header's is an error naming its
    first missing or extra column.  Bytes that are not UTF-8 are an error at
    the line of the first of them, wherever the stream is read.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if not header:
                raise ValueError(f"{path}: line 1: empty file, expected a header row")
            for k, name in enumerate(header):
                if name in header[:k]:
                    raise _located(path, 1, name, "duplicate column name")

            def rows():
                start = reader.line_num + 1
                for row in reader:
                    line, start = start, reader.line_num + 1
                    if not any(map(str.strip, row)):
                        continue
                    if len(row) != len(header):
                        column = header[len(row)] if len(row) < len(header) else len(header) + 1
                        raise _located(path, line, column,
                                       f"row has {len(row)} cells, header has {len(header)}")
                    yield line, row

            yield header, rows(), fh
    except UnicodeDecodeError:
        # Only this error path reads the file again.  A newline byte is never
        # part of a UTF-8 character, so each line decodes alone, and a line
        # loses bytes to "ignore" exactly when it holds a bad one.
        with open(path, "rb") as raw:
            line = next(k for k, text in enumerate(raw, start=1)
                        if text.decode("utf-8", "ignore").encode() != text)
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None
