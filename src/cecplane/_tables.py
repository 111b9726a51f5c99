"""The table model, the one writer of every output file and the one CSV
reader, shared by ``dataio``, ``cli`` and ``_readback``.

Every output goes to ``_sink``: a UTF-8 file whose line ends are written
as they stand, or stdout.  Every CSV written out — window tables, summaries,
rankings, test results, envelopes, plot data, the CLI's stdout tables — is
one ``_Table`` (a header plus typed columns), formatted a column at a time
by ``_text`` and written by ``_write`` a block of ``_BLOCK`` rows at a time,
each block one joined string where that string is ``csv.writer``'s text,
and through ``csv.writer`` otherwise; so every file has ``csv.writer``'s
bytes, no file's text is held whole, and a rerun with the same inputs and
seed is byte-identical.  The two JSON documents, ``manifest.json`` and the
``anova`` report, are written by ``_write_json`` under one rule: two-space
indent, sorted keys, a final newline, and ``null`` for a number that is not
finite.  ``windows.csv``'s header, ``_WINDOW_HEADER``, is declared here for
its writer and its reader.
Every CSV read in — the dataset, ``windows.csv``, a ``--metric`` file — is
opened once by ``_read_csv``, under one set of rules, and checked in the one
pass that reads its rows; the processes that parse a large dataset's byte
ranges past the first open it again.  ``_decoded`` decodes each read as
UTF-8, skipping a byte-order mark only at the file's first byte and escaping
bytes that are not UTF-8, so such a byte is one more defect of its row.  The
first defect in reading order is the one reported, located at the physical
line its record starts on (a bad byte: the line of the byte) by ``_located``
as ``{path}: line L[, column C]: message``.  The module imports the standard
library only, so a command loads the schemas without numpy or the pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from itertools import compress, islice
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
    A float column whose every value is such an integral float (end
    timestamps, say) goes through ``int`` alone, never through ``repr``.
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
    if all(map(float.is_integer, values)) and -2.0**53 < min(values) and max(values) < 2.0**53:
        return list(map(str, map(int, values)))
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


# The header of ``windows.csv``: ``dataio`` writes it, ``_readback`` reads it back.
_WINDOW_HEADER = ("asset", "window_index", "start_offset", "end_timestamp", "entropy",
                  "complexity")


def _sink(path):
    """The output ``path`` opened for UTF-8 text with its line ends as
    written, or stdout when it is None: where every document goes."""
    return (open(path, "w", encoding="utf-8", newline="") if path is not None
            else contextlib.nullcontext(sys.stdout))


# Rows joined into one string for each write of ``_write``: about 16 KB of
# window-table text.  Against 1,024 rows, 256 wrote the study tree within
# noise (in-process medians 28.5 and 28.4 ms, 61 alternating calls; study
# ``analyze`` 355.1 and 355.8 ms, 16 runs) and lowered the peak RSS of
# ``bounds --dim 4`` from 30.36 to 30.08 MB and of study ``analyze`` from
# 36.99 to 36.67 MB (medians, lower in every one of 10 and 16 runs).
_BLOCK = 256


def _write(table: _Table, path) -> None:
    """Write ``table`` as CSV to ``path``, or to stdout when it is None,
    with ``csv.writer``'s bytes (``lineterminator="\\n"``, minimal quoting).

    The rows go out ``_BLOCK`` at a time, each block joined into one string
    and written at once, so no more than one block's text is held.  That
    string is ``csv.writer``'s text whenever no cell of the block holds a
    ``,``, ``"``, ``\\r``, ``\\n`` or NUL and no row is a single empty cell,
    and one check of the whole string decides it: its ``,`` and ``\\n``
    counts are the block's, and it holds none of the other three.  A block
    that fails the check goes through ``csv.writer``, which quotes such
    cells (a ``\\r`` only from Python 3.13, and refuses a NUL before 3.11),
    so every Python writes its own ``csv.writer``'s bytes.
    """
    text = table.formatted()
    rows = zip(*text.columns)
    block = [text.header, *islice(rows, _BLOCK - 1)]
    commas = len(text.header) - 1
    with _sink(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        while block:
            lines = list(map(",".join, block))
            chunk = "\n".join(lines) + "\n"
            if (chunk.count(",") == commas * len(block) and chunk.count("\n") == len(block)
                    and not any(c in chunk for c in '"\r\0') and (commas or "" not in lines)):
                fh.write(chunk)
            else:
                writer.writerows(block)
            block = list(islice(rows, _BLOCK))


def _write_json(payload, path) -> None:
    """Write ``payload`` (dicts, lists, strings, numbers, bools and None) as
    the package's one JSON layout to ``path``, or to stdout when it is None:
    two-space indent, sorted keys, a final newline, and every number that is
    not finite as ``null``, so the text is strict JSON.  Only a command that
    writes JSON loads ``json``."""
    import json

    # Infinity and NaN, read back by parse_constant, become None
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with _sink(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
    """The one located error: ``{path}: line L[, column C]: message``."""
    where = "" if column is None else f", column {column!r}"
    return ValueError(f"{path}: line {line}{where}: {message}")


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


def _check_text(path, line: int, row: list[str]) -> None:
    """Raise at the line of the first byte that is not UTF-8 (read as an
    escaped surrogate) in ``row``, the record starting on ``line``: that
    line plus the line ends (``\\r\\n``, ``\\n``, ``\\r``) ahead of it in the row."""
    text = ",".join(row)
    if text.isascii():
        return
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        head = text[:exc.start]
        line += head.count("\n") + head.count("\r") - head.count("\r\n")
        raise _located(path, line, None, "not UTF-8 text") from None


def _data_rows(path, header: list[str], reader) -> Iterator[tuple[int, list[str]]]:
    """The ``(line, row)`` data rows ``reader`` holds past the header,
    checked against ``header``."""
    start = reader.line_num + 1
    for row in reader:
        line, start = start, reader.line_num + 1
        _check_text(path, line, row)
        if not any(map(str.strip, row)):
            continue
        if len(row) != len(header):
            column = header[len(row)] if len(row) < len(header) else len(header) + 1
            raise _located(path, line, column,
                           f"row has {len(row)} cells, header has {len(header)}")
        yield line, row


class _Head(io.RawIOBase):
    """The next ``size`` bytes of the raw file ``raw``, then its end."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view, view[:self._left] as head:
            size = self._raw.readinto(head)
        self._left -= size
        return size

    def close(self) -> None:
        self._raw.close()
        super().close()


def _decoded(path, start: int = 0, stop: int | None = None):
    """The bytes ``[start, stop)`` of the file ``path`` (to its end when
    ``stop`` is None) as UTF-8 text, with bytes that are not UTF-8 escaped
    and line ends kept as they are.  A byte-order mark can only lead the
    file, so it is skipped when ``start`` is 0 (``utf-8-sig``)."""
    raw = open(path, "rb", buffering=0)
    raw.seek(start)
    if stop is not None:
        raw = _Head(raw, stop - start)
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig" if start == 0
                            else "utf-8", errors="surrogateescape", newline="")


@contextlib.contextmanager
def _read_csv(path, stop: int | None = None) -> Iterator[
        tuple[list[str], Iterator[tuple[int, list[str]]], Iterable[str]]]:
    """Open the CSV input ``path`` under the package's reading rules; yields
    its header, its ``(line, row)`` data rows, and its text just past the
    header, which a bulk parser may read instead of the rows: the dataset's
    ``np.loadtxt`` ranges (``dataio.load_dataset``) and the column pass of
    ``windows.csv`` (``_readback._load_windows``) do.  With ``stop``,
    the file ends for this reader at that byte offset, which must lie past
    the header.

    The text is UTF-8, and a byte-order mark is skipped.  The header's names
    are stripped, and a file with no header or with a repeated name is an
    error.  A data row is numbered by the physical line its record starts
    on, so a quoted cell that spans lines and a skipped blank row both count;
    a row whose cell count differs from the header's is an error naming its
    first missing or extra column.  The file is opened once, with its bytes
    that are not UTF-8 escaped, so no read of it raises while decoding: a
    bulk parser refuses an escaped byte like any cell that is not a number,
    and the row pass reports it, ahead of a blank or ragged row, at the line
    of the byte, so the first defect in reading order is the one reported.
    """
    with _decoded(path, 0, stop) as text:
        reader = csv.reader(text)
        first = next(reader, [])
        _check_text(path, 1, first)
        header = [h.strip() for h in first]
        if not header:
            raise _located(path, 1, None, "empty file, expected a header row")
        for k, name in enumerate(header):
            if name in header[:k]:
                raise _located(path, 1, name, "duplicate column name")
        yield header, _data_rows(path, header, reader), text
