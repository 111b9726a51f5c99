import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cecplane import (
    Dataset,
    OrdinalConfig,
    RunConfig,
    TimeSeries,
    WindowParams,
    emit_plot_data,
    load_dataset,
    log_return_series,
    make_synthetic_dataset,
    run_pipeline,
    window_count,
    write_bundle,
    write_dataset,
)
from cecplane import _fork, dataio
from cecplane.cli import main as cli_main
from cecplane import patterns
from cecplane import _tables
from cecplane._tables import _BLOCK, _Table, _text, _write
from cecplane.dataio import PLOT_KINDS, _sha256_file
from oracles import _fmt

# Floats where the integral rule or the shortest repr is easy to get wrong.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -7.0, 0.5,
               2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), 2.0**53 + 2,
               4503599627370495.5, 1e16, -1e16, 1e300, math.inf, -math.inf, math.nan]
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]


class TestCellFormat:
    """The column formatter ``_text`` against the cell-by-cell reference
    ``oracles._fmt``."""

    def test_integral_floats_have_no_fraction(self):
        assert _text([1500000000.0, -3.0, -0.0]) == ["1500000000", "-3", "0"]

    @pytest.mark.parametrize("values", [[2.0**53 - 1, -(2.0**53 - 1), 0.0],
                                        [2.0**53, 1.0], [1.0, -(2.0**53)], [3.0, math.inf]])
    def test_integral_column_at_the_int_limit(self, values):
        """A column integral throughout goes through ``int`` alone only
        when every value lies inside (-2**53, 2**53)."""
        assert _text(values) == [_fmt(v) for v in values]

    def test_floats_use_shortest_roundtrip(self):
        assert _text([0.1]) == ["0.1"]
        assert float(_text([2.0 / 3.0])[0]) == 2.0 / 3.0

    def test_bools_and_ints(self):
        assert _text([True, False]) == ["true", "false"]
        assert _text(np.array([7], dtype=np.int64)) == ["7"]

    def test_edge_floats_match_cell_reference(self):
        assert _text(np.array(EDGE_FLOATS)) == [_fmt(v) for v in EDGE_FLOATS]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                              st.integers(-2**60, 2**60).map(float)), max_size=40))
    def test_float_column_matches_cell_reference(self, values):
        expected = [_fmt(v) for v in values]
        assert _text(values) == expected
        column = np.array(values, dtype=np.float64)
        assert _text(column) == [_fmt(v) for v in column] == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
    def test_python_int_column_matches_cell_reference(self, values):
        assert _text(values) == [_fmt(v) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(INT_DTYPES).flatmap(
        lambda dtype: st.lists(st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)),
                               max_size=40).map(lambda v: np.array(v, dtype=dtype))))
    def test_numpy_int_column_matches_cell_reference(self, column):
        assert _text(column) == [_fmt(v) for v in column]

    @given(st.lists(st.booleans(), max_size=40))
    def test_bool_column_matches_cell_reference(self, values):
        assert _text(values) == [_fmt(v) for v in values]
        assert _text(np.array(values, dtype=bool)) == [_fmt(v) for v in values]


def csv_writer_text(table: _Table) -> tuple[str, bool]:
    """What ``csv.writer`` (``lineterminator="\\n"``) writes of ``table``'s
    text cells, and whether it raised: Python 3.10 refuses a NUL."""
    buffer = io.StringIO()
    try:
        csv.writer(buffer, lineterminator="\n").writerows([table.header, *zip(*table.columns)])
    except csv.Error:
        return buffer.getvalue(), True
    return buffer.getvalue(), False


def written(table: _Table, path) -> tuple[str, bool]:
    """What ``_write`` writes of ``table`` to the file ``path``, or to
    stdout when it is None, and whether it raised."""
    stdout = io.StringIO()
    raised = False
    try:
        with contextlib.redirect_stdout(stdout):
            _write(table, path)
    except csv.Error:
        raised = True
    if path is None:
        return stdout.getvalue(), raised
    with open(path, newline="") as fh:
        return fh.read(), raised


def text_table(rows: list, width: int) -> _Table:
    """A table of text cells: the first row is the header."""
    header, *body = rows
    return _Table(tuple(header), tuple([row[j] for row in body] for j in range(width)))


# Cells made of the characters csv.writer may quote or refuse, and plain ones.
CELLS = st.text(alphabet=st.sampled_from(["a", "1", ".", " ", "\u00e9", ",", '"', "\r", "\n",
                                          "\0"]), max_size=3)


@st.composite
def text_tables(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.one_of(st.just(""), CELLS), min_size=width,
                                  max_size=width), min_size=1, max_size=14))
    return text_table(rows, width)


class TestWriter:
    """``_write`` joins a block of rows into one string where that is
    ``csv.writer``'s text, and hands any other block to ``csv.writer``."""

    @settings(max_examples=300, deadline=None)
    @given(table=text_tables(), block=st.integers(1, 4))
    def test_same_bytes_as_csv_writer(self, table, block):
        """Blocks of 1-4 rows put quoted, refused and empty cells before,
        inside and after a block edge; to a file and to stdout alike."""
        expected = csv_writer_text(table)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(_tables, "_BLOCK", block):
            assert written(table, Path(tmp) / "table.csv") == expected
            assert written(table, None) == expected

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("where", [_BLOCK - 2, _BLOCK - 1, _BLOCK + _BLOCK // 2,
                                       2 * _BLOCK - 2, 2 * _BLOCK],
                             ids=["last-of-first-block", "first-of-second-block",
                                  "inside-second-block", "last-of-second-block", "last-row"])
    @pytest.mark.parametrize("cell", ["plain", "", "a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_tables_longer_than_a_block(self, tmp_path, width, where, cell):
        """Two blocks and two more rows (the header leads the first block),
        with one cell of data row ``where`` replaced by ``cell``."""
        rows = [[f"h{j}" for j in range(width)]]
        rows += [[f"{k}.{j}" for j in range(width)] for k in range(2 * _BLOCK + 1)]
        rows[1 + where][0] = cell
        table = text_table(rows, width)
        expected = csv_writer_text(table)
        assert written(table, tmp_path / "table.csv") == written(table, None) == expected

    def test_numeric_table_as_csv_writer_formats_it(self, tmp_path):
        table = _Table(("a", "b"), (np.arange(3 * _BLOCK) * 0.5,
                                    [True, False] * (3 * _BLOCK // 2)))
        assert written(table, tmp_path / "table.csv") == csv_writer_text(table.formatted())


class TestRoundTrip:
    def test_write_then_load_is_identical(self, small_dataset, tmp_path):
        path = tmp_path / "prices.csv"
        digest = write_dataset(small_dataset, path)
        again = load_dataset(path)
        assert again.assets == small_dataset.assets
        assert again.digest == digest
        for asset in small_dataset.assets:
            assert np.array_equal(again.series[asset].values,
                                  small_dataset.series[asset].values)
            assert np.array_equal(again.series[asset].timestamps,
                                  small_dataset.series[asset].timestamps)

    def test_timestamps_fabricated_when_absent(self, tmp_path):
        ds = Dataset(series={"x": TimeSeries(np.array([5.0, 6.0, 7.0]))})
        path = tmp_path / "bare.csv"
        write_dataset(ds, path)
        again = load_dataset(path)
        assert np.array_equal(again.series["x"].timestamps, [0.0, 1.0, 2.0])

    def test_column_subset_and_order(self, small_dataset, tmp_path):
        path = tmp_path / "prices.csv"
        write_dataset(small_dataset, path)
        subset = load_dataset(path, assets=["CCC", "AAA"])
        assert subset.assets == ("CCC", "AAA")
        assert np.array_equal(subset.series["CCC"].values,
                              small_dataset.series["CCC"].values)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadErrors:
    def test_missing_cell_names_line_and_column(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc,eth", "0,1.0,2.0", "300,,2.1"])
        with pytest.raises(ValueError, match=r"line 3.*'btc'"):
            load_dataset(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc", "0,1.0", "300,n/a"])
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(p)

    def test_forward_fill_counts_and_preserves_length(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc,eth",
                         "0,1.0,10.0", "300,,10.5", "600,3.0,"])
        ds = load_dataset(p, forward_fill=True)
        assert len(ds.series["btc"]) == len(ds.series["eth"]) == 3
        assert ds.series["btc"].values.tolist() == [1.0, 1.0, 3.0]
        assert ds.series["eth"].values.tolist() == [10.0, 10.5, 10.5]
        assert ds.fill_counts == {"btc": 1, "eth": 1}

    def test_leading_gap_cannot_fill(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc", "0,", "300,2.0"])
        with pytest.raises(ValueError, match="before any valid value"):
            load_dataset(p, forward_fill=True)

    def test_duplicate_columns(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc,btc", "0,1.0,2.0"])
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(p)

    def test_requested_column_absent(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0"])
        with pytest.raises(ValueError, match="ltc"):
            load_dataset(p, assets=["ltc"])

    def test_ragged_row(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0,9.9"])
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p)

    def test_empty_and_headerless(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_dataset(empty)
        headeronly = write_lines(tmp_path / "h.csv", ["timestamp,btc"])
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(headeronly)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_timestamp(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "whenever,1.0"])
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p)
        p2 = write_lines(tmp_path / "d2.csv", ["timestamp,btc", "inf,1.0"])
        with pytest.raises(ValueError, match="not finite"):
            load_dataset(p2)

    @pytest.mark.parametrize("stamps,line,rule", [
        (["0", "300", "900", "1200"], 4, "evenly spaced"),  # a 600 s gap
        (["0", "300", "300", "600"], 4, "strictly increasing"),  # duplicate
        (["0", "300", "600", "450"], 5, "strictly increasing"),  # decreasing
    ])
    def test_timestamp_grid_error_names_line(self, tmp_path, stamps, line, rule):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc"] + [f"{t},1.0" for t in stamps])
        with pytest.raises(ValueError, match=f"line {line}: timestamps must be {rule}; "
                                             f"'{stamps[line - 2]}'"):
            load_dataset(p)

    def test_timestamp_line_counts_blank_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("timestamp,btc\n0,1.0\n\n300,2.0\n900,3.0\n")
        with pytest.raises(ValueError, match="line 5: .*comes 600 after .* 300 apart"):
            load_dataset(p)

    def test_trailing_blank_line_ignored(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("timestamp,btc\n0,1.0\n300,2.0\n\n")
        assert len(load_dataset(p).series["btc"]) == 2


    def test_duplicate_requested_columns(self, tmp_path):
        """A repeated label is refused before the file is opened."""
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0", "300,2.0"])
        message = r"^assets must be one or more distinct labels, got \('btc', 'btc'\)$"
        with mock.patch.object(dataio, "_cuts", side_effect=AssertionError("the file was read")):
            with pytest.raises(ValueError, match=message):
                load_dataset(p, assets=["btc", "btc"])

    def test_no_requested_columns(self, tmp_path):
        """An empty selection is refused before any row is parsed."""
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0", "300,2.0"])
        with mock.patch.object(dataio, "_read_numeric",
                               side_effect=AssertionError("the rows were parsed")):
            with pytest.raises(ValueError,
                               match=r"^assets must be one or more distinct labels, got \(\)$"):
                load_dataset(p, assets=[])

    def test_string_selection_is_refused(self, tmp_path):
        """A single label passed as a string is refused, not read as its
        characters, before the file is opened."""
        p = write_lines(tmp_path / "d.csv", ["timestamp,a,b,ab", "0,1,2,3", "300,2,3,4"])
        message = "^assets must be a collection of values, got 'ab'$"
        with mock.patch.object(dataio, "_cuts", side_effect=AssertionError("the file was read")):
            with pytest.raises(ValueError, match=message):
                load_dataset(p, assets="ab")

    def test_blank_asset_label(self, tmp_path):
        """A selected column whose header name is blank is an error at line
        1, before any row is parsed; unselected, it is ignored."""
        p = write_lines(tmp_path / "d.csv", ["timestamp,,b", "0,1.0,2.0", "300,1.5,2.5"])
        with mock.patch.object(dataio, "_read_numeric",
                               side_effect=AssertionError("the rows were parsed")):
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 1, column 2: "
                                                 "empty asset label$"):
                load_dataset(p)
            with pytest.raises(ValueError, match="column 2: empty asset label$"):
                load_dataset(p, assets=["b", ""])
        assert load_dataset(p, assets=["b"]).assets == ("b",)

    def test_header_without_an_asset(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp", "0", "300"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 1: header must name "
                                             "a timestamp and at least one asset$"):
            load_dataset(p)

    def test_cli_reports_one_json_line(self, tmp_path, capsys):
        p = write_lines(tmp_path / "d.csv",
                        ["timestamp,btc,eth", "0,1.0,2.0", "300,1.5", "600,1.0,2.0"])
        rc = cli_main(["analyze", "--input", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValueError"
        assert record["message"] == f"{p}: line 3, column 'eth': row has 2 cells, header has 3"


@st.composite
def multi_line_inputs(draw):
    """A clean dataset whose quoted cells may span lines, the same file with
    the value in column ``b`` of one record made ``x``, and the byte offset at
    which that record starts."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    cells = st.sampled_from(["1.5", '"1.5{0}"', '"{0}2.5"', '" 3{0}{0}"', '"4"'])
    records = [[str(300 * i), *(draw(cells).format(eol) for _ in "ab")]
               for i in range(draw(st.integers(1, 6)))]
    blanks = draw(st.lists(st.integers(0, 1), min_size=len(records), max_size=len(records)))
    bad = draw(st.integers(0, len(records) - 1))
    texts = []
    for b_cell in (None, "x"):
        text, offset = "timestamp,a,b" + eol, None
        for k, record in enumerate(records):
            text += eol * blanks[k]
            if k == bad:
                offset = len(text.encode())
                record = record[:2] + [b_cell or record[2]]
            text += ",".join(record) + eol
        texts.append(text.encode())
    return texts[0], texts[1], offset


class TestReadingRules:
    """The dataset is read under the same rules as every other CSV input."""

    def test_byte_order_mark_skipped_on_both_paths(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\ufefftimestamp,btc\n0,1.0\n300,2.0\n")
        assert load_dataset(p).timestamp_label == "timestamp"
        loaded = _row_reader_outcome(p)
        assert loaded[0] == "loaded" and loaded[2] == "timestamp"

    def test_bad_timestamp_names_path_line_and_column(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "xx,1.0"])
        with pytest.raises(ValueError) as exc:
            load_dataset(p)
        assert str(exc.value).startswith(f"{p}: line 2, column 'timestamp': ")

    # line 3 is read with the header; line 5000 is past the first block the
    # text stream decodes, so the one-pass read meets it first
    @pytest.mark.parametrize("bad_line", [3, 5000])
    def test_bad_byte_names_its_line(self, tmp_path, bad_line):
        lines = [b"timestamp,btc"] + [b"%d,1.5" % (300 * i) for i in range(bad_line)]
        lines[bad_line - 1] = lines[bad_line - 1].replace(b"1.5", b"\xff1.5")
        p = tmp_path / "d.csv"
        p.write_bytes(b"\n".join(lines) + b"\n")
        message = f"{p}: line {bad_line}: not UTF-8 text"
        with pytest.raises(ValueError) as exc:
            load_dataset(p)
        assert str(exc.value) == message
        assert _row_reader_outcome(p) == ("raised", "ValueError", message)

    def test_defect_ahead_of_a_bad_byte_comes_first(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"timestamp,btc\n0,1.0\n300,x\n600,\xff3.0\n")
        with pytest.raises(ValueError) as exc:
            load_dataset(p)
        assert str(exc.value).startswith(f"{p}: line 3, column 'btc': ")

    def test_bad_byte_is_one_json_line(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_bytes(b"timestamp,btc\n0,1.0\n300,\xe92.0\n600,3.0\n")
        rc = cli_main(["analyze", "--input", str(p), "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": f"{p}: line 3: not UTF-8 text"}

    def test_repeated_timestamp_name_is_located(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["t,t,x", "0,1.0,2.0", "300,1.5,2.5"])
        with pytest.raises(ValueError) as exc:
            load_dataset(p)
        assert str(exc.value) == f"{p}: line 1, column 't': duplicate column name"

    def test_multi_line_cell_keeps_physical_lines(self, tmp_path):
        p = write_lines(tmp_path / "d.csv", ["timestamp,btc", "0,1.0", '300,"2.0', '"', "600,x"])
        with pytest.raises(ValueError) as exc:
            load_dataset(p)
        assert str(exc.value).startswith(f"{p}: line 5, column 'btc': ")

    @settings(max_examples=100, deadline=None)
    @given(multi_line_inputs())
    def test_lines_are_physical(self, case):
        """A defect is reported at the line its record starts on, counted in
        newline bytes, and a bad byte put there is reported at the same line."""
        data, defective, offset = case
        line = data.count(b"\n", 0, offset) + 1
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "d.csv"
            p.write_bytes(defective)
            with pytest.raises(ValueError) as exc:
                load_dataset(p)
            assert str(exc.value).startswith(f"{p}: line {line}, column 'b': "), str(exc.value)
            p.write_bytes(data[:offset] + b"\xff" + data[offset:])
            with pytest.raises(ValueError) as exc:
                load_dataset(p)
            assert str(exc.value) == f"{p}: line {line}: not UTF-8 text"


def _outcome(path, **kwargs):
    """What ``load_dataset`` gives: the dataset as comparable bytes, or the
    type and message of what it raised."""
    try:
        ds = load_dataset(path, **kwargs)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("loaded", ds.assets, ds.timestamp_label, ds.digest, ds.fill_counts,
            [(s.values.tobytes(), s.timestamps.tobytes())
             for s in ds.series.values()])


def _row_reader_outcome(path, **kwargs):
    with mock.patch.object(dataio, "_read_numeric", return_value=None):
        return _outcome(path, **kwargs)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+4", ".5", "5.", "1e-400", "-0.0", " 2.5 ", "\t3", "1E3"]),
)
ODD_CELLS = st.sampled_from([
    "", " ", "nan", "inf", "-inf", "NaN", "1e500", "1_0", "\uff11", "#1.5",
    "n/a", "abc", "0x10", '"1,5"', '"1""5"', ' "1.5"', '"1"5', "1.5\"x\"", '"7',
])


UNQUOTED_ODD_CELLS = ODD_CELLS.filter(lambda cell: '"' not in cell)


def _cell(draw, number, noisy, quotes):
    if noisy and draw(st.integers(0, 7)) == 0:
        return draw(ODD_CELLS if quotes else UNQUOTED_ODD_CELLS)
    return '"%s"' % number if quotes and draw(st.integers(0, 5)) == 0 else number


@st.composite
def csv_inputs(draw, quotes=True):
    """A small CSV text with the defects a real export can have, plus the
    ``load_dataset`` keywords to read it with; without ``quotes``, the text
    holds no ``"``."""
    columns = ["a", "b", "c"][:draw(st.integers(1, 3))]
    stamp = draw(st.sampled_from([
        lambda i: str(300 * i),
        lambda i: repr(300.0 * i + 0.5),
        lambda i: f"2017-11-01T{i // 12:02d}:{i % 12 * 5:02d}:00",
    ]))
    noisy = draw(st.booleans())  # clean files still vary quotes and line ends
    kinds = ["row"] * 6 + ["blank", "commas", "ragged"] if noisy else ["row"]
    lines = [",".join(["timestamp", *columns])]
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " "])))
            continue
        if kind == "commas":
            lines.append("," * len(columns))
            continue
        cells = [_cell(draw, stamp(i), noisy, quotes)]
        cells += [_cell(draw, draw(NUMBER_CELLS), noisy, quotes) for _ in columns]
        if kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["7"]
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.integers(0, 9)) == 0:
        text = draw(st.sampled_from(["", lines[0] + eol]))  # empty, header only
    if draw(st.booleans()):
        text = "\ufeff" + text
    assets = None
    if draw(st.booleans()):
        assets = draw(st.lists(st.sampled_from(columns), min_size=1,
                               max_size=len(columns), unique=True))
    return text, {"assets": assets, "forward_fill": draw(st.booleans())}


class TestLoadPaths:
    """The one-pass numeric read and the row reader give the same result."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(csv_inputs())
    def test_fuzz_matches_row_reader(self, case):
        text, kwargs = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(path, **kwargs) == _row_reader_outcome(path, **kwargs)

    @pytest.mark.parametrize("text", [
        "timestamp,a,b\n0,1.5,2\n300,-1e-3,4\n",
        "\ufefftimestamp,a,b\r\n0,1.5,2\r\n300,\"7\",4\r\n\r\n",
        "timestamp,a,b\n0,1.5,inf\n300,2.5,nan\n",  # only "a" requested
    ])
    def test_numeric_file_takes_one_pass(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            loaded = _outcome(path, assets=["a"])
        rows.assert_not_called()
        assert loaded[0] == "loaded"
        assert loaded == _row_reader_outcome(path, assets=["a"])

    @pytest.mark.parametrize("text", [
        "timestamp,a\n2017-11-01T00:00:00,1\n2017-11-01T00:05:00,2\n",
        "timestamp,a\n0,1\n300,\n",
        "timestamp,a\n0,1\n300,1_0\n",
        "timestamp,a\n0,1\n300,inf\n",
        "timestamp,a\n0,1\n,\n300,2\n",
    ])
    def test_other_files_take_row_reader(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            assert _outcome(path, forward_fill=True)[0] == "loaded"
        rows.assert_called_once()

    # The finite check covers the timestamp and each requested column, one
    # column at a time, and no other column.
    NAN_IN_B = "timestamp,a,b,c\n0,1,2,3\n300,4,nan,6\n600,7,8,9\n"

    @pytest.mark.parametrize("assets", [["a"], ["c"], ["c", "a"]])
    def test_nan_in_unrequested_column_takes_one_pass(self, tmp_path, assets):
        path = tmp_path / "d.csv"
        path.write_text(self.NAN_IN_B)
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            loaded = _outcome(path, assets=assets)
        rows.assert_not_called()
        assert loaded[0] == "loaded" and loaded[1] == tuple(assets)
        assert loaded == _row_reader_outcome(path, assets=assets)

    @pytest.mark.parametrize("assets", [["b"], ["a", "b"], ["c", "b"], None])
    def test_nan_in_requested_column_takes_row_reader(self, tmp_path, assets):
        path = tmp_path / "d.csv"
        path.write_text(self.NAN_IN_B)
        with mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            loaded = _outcome(path, assets=assets, forward_fill=True)
        rows.assert_called_once()
        assert loaded[0] == "loaded" and loaded[4]["b"] == 1


@contextlib.contextmanager
def _in_ranges(cpus):
    """Split a file of any size into up to ``cpus`` byte ranges."""
    with mock.patch.object(dataio, "_RANGE_FLOOR", 1), \
            mock.patch.object(_fork, "_cpus", return_value=cpus):
        yield


def _numeric_file(path, rows: int) -> None:
    """Write ``rows`` rows of plain numbers in two columns to ``path``."""
    path.write_text("timestamp,a,b\n" + "".join(f"{300 * k},{k}.5,{-k}\n"
                                                for k in range(rows)))


def _edge_file(path, before: str, after: str) -> int:
    """Write ``before + after`` to ``path`` so that two ranges meet where
    ``before`` ends, and return that byte offset.  Zeros go at the ``~`` of
    one part (after a decimal digit, so no value changes) until ``after`` is
    two bytes shorter than ``before``: the cut, the first line end at or past
    the middle byte, is then the last byte of ``before``."""
    size_before, size_after = (len(s.replace("~", "").encode()) for s in (before, after))
    before = before.replace("~", "0" * max(size_after + 2 - size_before, 0))
    after = after.replace("~", "0" * max(size_before - 2 - size_after, 0))
    path.write_bytes((before + after).encode())
    return len(before.encode())


class TestRanges:
    """A file split into byte ranges, each parsed by loadtxt in its own
    process, loads to the same dataset, or the same error, as one pass."""

    # Files without a quote, which alone are split, are half the cases.
    @pytest.mark.parametrize("cpus", [2, 3])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(csv_inputs(), csv_inputs(quotes=False)))
    def test_fuzz_matches_one_range_and_row_reader(self, cpus, case):
        text, kwargs = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            with _in_ranges(cpus):
                ranged = _outcome(path, **kwargs)
            assert ranged == _outcome(path, **kwargs) == _row_reader_outcome(path, **kwargs)

    EDGES = {
        "crlf": ("timestamp,a\r\n0,1.5~\r\n300,2.5\r\n", "600,3.5~\r\n900,4.5\r\n"),
        "blank-line-before": ("timestamp,a\n0,1.5~\n300,2.5\n\n", "600,3.5~\n900,4.5\n"),
        "blank-line-after": ("timestamp,a\n0,1.5~\n300,2.5\n", "\n600,3.5~\n900,4.5\n"),
        "no-final-line-end": ("timestamp,a\n0,1.5~\n300,2.5\n", "600,3.5~\n900,4.5"),
        "byte-order-mark": ("\ufefftimestamp,a\n0,1.5~\n300,2.5\n", "600,3.5~\n900,4.5\n"),
    }

    @pytest.mark.parametrize("before, after", EDGES.values(), ids=EDGES)
    def test_range_edge(self, tmp_path, before, after):
        path = tmp_path / "d.csv"
        edge = _edge_file(path, before, after)
        with _in_ranges(2), \
                mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
            assert dataio._cuts(path) == [edge]
            # the header's line end and any quote lie past the first 2-byte block
            with mock.patch.object(dataio, "_FILE_BLOCK", 2):
                assert dataio._cuts(path) == [edge]
            loaded = _outcome(path)
        rows.assert_not_called()
        assert loaded[0] == "loaded" and loaded[5][0][0] == np.array([1.5, 2.5, 3.5, 4.5]).tobytes()
        assert loaded == _outcome(path) == _row_reader_outcome(path)

    @pytest.mark.parametrize("before, after", [
        ('"timestamp",a\n0,1.5~\n300,2.5\n', "600,3.5~\n900,4.5\n"),
        ('timestamp,a\n0,"1.5~"\n300,2.5\n', "600,3.5~\n900,4.5\n"),
        ("timestamp,a\n0,1.5~\n300,2.5\n", '600,3.5~\n900,"4.5"\n'),
        ('timestamp,a\n0,1.5~\n300,"2.5\n', '"\n600,3.5~\n900,4.5\n'),  # a cell across the cut
        ("timestamp,a\r0,1.5~\r300,2.5\r", "600,3.5~\r900,4.5\r"),
    ], ids=["in-header", "before-cut", "after-cut", "across-cut", "cr-line-ends"])
    def test_quote_or_no_line_feed_takes_one_range(self, tmp_path, before, after):
        path = tmp_path / "d.csv"
        _edge_file(path, before, after)
        with _in_ranges(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert dataio._cuts(path) == []
            # the header's line end and any quote lie past the first 2-byte block
            with mock.patch.object(dataio, "_FILE_BLOCK", 2):
                assert dataio._cuts(path) == []
            loaded = _outcome(path)
        fork.assert_not_called()
        assert loaded[0] == "loaded" and loaded == _row_reader_outcome(path)

    def test_defect_in_a_child_range_is_located(self, tmp_path):
        """The child refuses its range, which is no failure and does not
        warn, and the row reader reports the defect at the line one range
        reports."""
        path = tmp_path / "d.csv"
        edge = _edge_file(path, "timestamp,a\n0,1.5~\n300,2.5\n", "600,3.5~\n900,x\n")
        with _in_ranges(2), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dataio._cuts(path) == [edge]
            ranged = _outcome(path)
        message = f"{path}: line 5, column 'a': missing or non-numeric value 'x'"
        assert ranged == _outcome(path) == ("raised", "ValueError", message)

    def test_byte_order_mark_is_skipped_only_at_the_first_byte(self, tmp_path):
        """A range that starts with a byte-order mark keeps it, so the row it
        leads is a defect, as it is in one range."""
        path = tmp_path / "d.csv"
        edge = _edge_file(path, "timestamp,a\n0,1.5~\n300,2.5\n", "\ufeff600,3.5~\n900,4.5\n")
        with _in_ranges(2):
            assert dataio._cuts(path) == [edge]
            ranged = _outcome(path)
        message = (f"{path}: line 4, column 'timestamp': "
                   "timestamp '\\ufeff600' is neither numeric nor ISO-8601")
        assert ranged == _outcome(path) == ("raised", "ValueError", message)

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
    def test_find_matches_bytes_find(self, tmp_path, block):
        """``_find`` gives what ``bytes.find`` gives from every start, in
        blocks of any size, so its search crosses block ends."""
        data = b'timestamp,a\r\n0,"1.5"\n\n300,2.5'
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh, mock.patch.object(dataio, "_FILE_BLOCK", block):
            for byte in (b"\n", b'"'):
                for pos in range(len(data) + 1):
                    k = data.find(byte, pos)
                    assert dataio._find(fh, pos, byte) == (None if k < 0 else k + 1)


class TestRangeChildren:
    """Every child a load forks is reaped before the load returns or raises."""

    CLEAN = ("timestamp,a\n0,1.5~\n300,2.5\n", "600,3.5~\n900,4.5\n")

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def failure(edge):
        """The warning of a failed child that parses from byte ``edge`` on."""
        return (f"the child process given share ({edge}, None) failed; "
                "this process runs that share")

    @pytest.mark.parametrize("before, after", [
        CLEAN,
        ("timestamp,a\n0,1.5~\n300,2.5\n", "600,3.5~\n900,x\n"),
        ("timestamp,a\n0,1.5~\n300,x\n", "600,3.5~\n900,4.5\n"),
    ], ids=["loaded", "child-range-refused", "parent-range-refused"])
    def test_no_child_left(self, tmp_path, before, after):
        path = tmp_path / "d.csv"
        _edge_file(path, before, after)
        with _in_ranges(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            ranged = _outcome(path)
        fork.assert_called_once()
        self.assert_no_child()
        assert ranged == _row_reader_outcome(path)

    def test_no_child_left_after_an_interrupt(self, tmp_path):
        path = tmp_path / "d.csv"
        _edge_file(path, *self.CLEAN)
        parent, parse = os.getpid(), dataio._parse

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return parse(*args)

        with _in_ranges(2), mock.patch.object(dataio, "_parse", interrupted):
            with pytest.raises(KeyboardInterrupt):
                load_dataset(path)
        self.assert_no_child()

    def test_child_that_dies_warns_and_its_range_is_parsed_here(self, tmp_path):
        path = tmp_path / "d.csv"
        edge = _edge_file(path, *self.CLEAN)
        parent, parse = os.getpid(), dataio._parse

        def dies(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(*args)

        with _in_ranges(2), mock.patch.object(dataio, "_parse", dies), \
                mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranged = _outcome(path)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, self.failure(edge))]
        rows.assert_not_called()
        self.assert_no_child()
        assert ranged[0] == "loaded" and ranged == _outcome(path)

    @pytest.mark.parametrize("fails", ["raises", "first-array-only"])
    def test_failed_child_warns(self, tmp_path, fails):
        """A child whose ``_parse`` raises sends no column, and one that
        ends after its first column sends no end mark: either way the load
        warns once, naming the child's byte range, and this process parses
        that range."""
        path = tmp_path / "d.csv"
        # a child's first column outgrows the pipe's write buffer, so it is
        # sent before the child ends
        _numeric_file(path, 4 * io.DEFAULT_BUFFER_SIZE // 8)
        with _in_ranges(2):
            [edge] = dataio._cuts(path)
        parent, parse = os.getpid(), dataio._parse

        def failing(*args):
            if os.getpid() == parent:
                return parse(*args)
            if fails == "raises":
                raise RuntimeError("a defect of the child")
            return _EndsAfterOneColumn(parse(*args))

        with _in_ranges(2), mock.patch.object(dataio, "_parse", failing), \
                mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranged = _outcome(path)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, self.failure(edge))]
        rows.assert_not_called()
        self.assert_no_child()
        assert ranged[0] == "loaded" and ranged == _row_reader_outcome(path)

    @pytest.mark.parametrize("fails", ["fork", "pipe", "second-fork"])
    def test_no_process_to_be_had_is_parsed_here(self, tmp_path, fails):
        """An ``OSError`` from ``pipe`` or ``fork`` leaves the range to this
        process, without a warning and without the row reader; a child
        forked before it is reaped."""
        path = tmp_path / "d.csv"
        _numeric_file(path, 30)
        fork = os.fork
        started = []

        def second_fails():
            if started:
                raise OSError("no process")
            started.append(1)
            return fork()

        patch = {"fork": mock.patch.object(os, "fork", side_effect=OSError("no process")),
                 "pipe": mock.patch.object(os, "pipe", side_effect=OSError("no pipe")),
                 "second-fork": mock.patch.object(os, "fork", second_fails)}[fails]
        with _in_ranges(3):
            assert len(dataio._cuts(path)) == 2
            with patch, warnings.catch_warnings(), \
                    mock.patch.object(dataio, "_read_rows", wraps=dataio._read_rows) as rows:
                warnings.simplefilter("error")
                ranged = _outcome(path)
        rows.assert_not_called()
        self.assert_no_child()
        assert ranged[0] == "loaded" and ranged == _row_reader_outcome(path)


def test_child_failure_warning_points_at_the_caller(tmp_path):
    """The warning of a failed range child names the line that called
    ``load_dataset``, wherever the fork helper sits."""
    path = tmp_path / "d.csv"
    _edge_file(path, *TestRangeChildren.CLEAN)
    parent, parse = os.getpid(), dataio._parse

    def raises(*args):
        if os.getpid() != parent:
            raise RuntimeError("a defect of the child")
        return parse(*args)

    with _in_ranges(2), mock.patch.object(dataio, "_parse", raises), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_dataset(path)
    [warning] = caught
    assert warning.category is RuntimeWarning and warning.filename == __file__


class _EndsAfterOneColumn:
    """A parsed table that ends the child process when its second column
    is taken, once the first has been sent."""

    def __init__(self, table):
        self.table = table
        self.taken = 0

    def __getitem__(self, key):
        self.taken += 1
        if self.taken > 1:
            os._exit(0)
        return self.table[key]


class TestGridCheckedOnce:
    """The timestamps are checked once, where the file is read; the series
    built from them share that read-only grid."""

    @pytest.fixture
    def grid_calls(self, monkeypatch):
        calls = []

        def spy(ts):
            calls.append(ts.size)
            return check(ts)

        check = patterns._grid_violation
        monkeypatch.setattr(patterns, "_grid_violation", spy)
        monkeypatch.setattr(dataio, "_grid_violation", spy)
        return calls

    def test_one_check_per_load(self, tmp_path, grid_calls):
        path = tmp_path / "d.csv"
        write_dataset(make_synthetic_dataset([f"A{k:02d}" for k in range(12)], 400, seed=2),
                      path)
        grid_calls.clear()
        ds = load_dataset(path)
        assert grid_calls == [400]
        first = ds.series["A00"].timestamps
        assert not first.flags.writeable
        assert all(s.timestamps is first for s in ds.series.values())
        returns = [log_return_series(s) for s in ds.series.values()]
        assert grid_calls == [400]
        assert all(np.array_equal(r.timestamps, first[1:]) for r in returns)

    def test_direct_series_still_checked(self, grid_calls):
        with pytest.raises(ValueError, match="evenly spaced"):
            TimeSeries([1.0, 2.0, 3.0], [0.0, 1.0, 3.0])
        assert grid_calls == [3]


class TestIsoTimestamps:
    def test_naive_read_as_utc(self, tmp_path):
        p = write_lines(tmp_path / "d.csv",
                        ["time,btc",
                         "2017-11-01T00:00:00,1.0",
                         "2017-11-01T00:05:00+00:00,2.0"])
        ds = load_dataset(p)
        ts = ds.series["btc"].timestamps
        assert ts[1] - ts[0] == 300.0
        assert ts[0] == 1509494400.0  # 2017-11-01 midnight UTC
        assert ds.timestamp_label == "time"


class TestSyntheticDataset:
    def test_deterministic(self):
        a = make_synthetic_dataset(["x", "y"], 200, seed=3)
        b = make_synthetic_dataset(["x", "y"], 200, seed=3)
        for label in ("x", "y"):
            assert np.array_equal(a.series[label].values, b.series[label].values)

    def test_assets_differ(self, small_dataset):
        a, b, c = (small_dataset.series[k].values for k in ("AAA", "BBB", "CCC"))
        assert not np.array_equal(a, b) and not np.array_equal(b, c)

    def test_grid_spacing(self):
        ds = make_synthetic_dataset(["x"], 50, seed=0, spacing=60)
        ts = ds.series["x"].timestamps
        assert np.array_equal(np.diff(ts), np.full(49, 60.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(["x", "x"], 100, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_dataset(["x"], 1, seed=0)

    @pytest.mark.parametrize("assets,message", [
        ("ab", "assets must be a collection of values, got 'ab'"),
        ([], "assets must be one or more distinct labels, got ()"),
        (["x", "x"], "assets must be one or more distinct labels, got ('x', 'x')"),
        (["x", " "], "asset labels must not be blank, got ('x', ' ')"),
    ], ids=["string", "empty", "repeated", "blank"])
    def test_selection_rule(self, assets, message):
        """The selection rule of ``RunConfig`` and ``load_dataset``: a
        string is not read as its characters."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_synthetic_dataset(assets, 10, seed=1)


@pytest.mark.parametrize("series,message", [
    ({}, "dataset contains no series"),
    ({"a": TimeSeries([1.0, 2.0]), "b": TimeSeries([1.0])},
     "series lengths differ: {'a': 2, 'b': 1}"),
    ({"a": TimeSeries([1.0, 2.0]), "": TimeSeries([1.0, 2.0])},
     "asset labels must not be blank, got ('a', '')"),
], ids=["empty", "unequal-lengths", "blank-label"])
def test_dataset_checks_its_series(series, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(series)


class TestLogReturns:
    def test_values_and_timestamps(self):
        prices = np.array([100.0, 110.0, 99.0])
        ts = np.array([0.0, 300.0, 600.0])
        r = log_return_series(TimeSeries(prices, ts))
        assert np.allclose(r.values, np.diff(np.log(prices)), atol=1e-15)
        assert np.array_equal(r.timestamps, [300.0, 600.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="position 1"):
            log_return_series(TimeSeries(np.array([1.0, -2.0, 3.0])))


class TestPipeline:
    CONFIG = RunConfig(window=WindowParams(360, 60), fbm_hursts=(0.7,), fbm_sims=10)

    def test_shape_of_results(self, small_dataset):
        bundle = run_pipeline(self.CONFIG, small_dataset)
        expected_windows = window_count(1500, self.CONFIG.window)
        assert set(bundle.rolling) == {"AAA", "BBB", "CCC"}
        for res in bundle.rolling.values():
            assert len(res.entropies) == expected_windows
        assert len(bundle.ranking) == 3
        assert bundle.anova_entropy is not None
        assert bundle.anova_complexity is not None
        assert [c.asset for c in bundle.pairwise] == ["BBB", "CCC"]
        assert all(c.baseline == "AAA" for c in bundle.pairwise)
        assert len(bundle.clouds) == 1 and bundle.clouds[0].sims == 10

    def test_overlap_caveat_tracks_step(self, small_dataset):
        overlapping = run_pipeline(self.CONFIG, small_dataset)
        assert any("overlap" in c for c in overlapping.caveats)
        disjoint = run_pipeline(
            RunConfig(window=WindowParams(360, 360)), small_dataset)
        assert not disjoint.caveats

    def test_undersample_warning(self, small_dataset):
        bundle = run_pipeline(
            RunConfig(window=WindowParams(100, 100)), small_dataset)
        assert any("undersampled" in w for w in bundle.warnings)
        assert not run_pipeline(self.CONFIG, small_dataset).warnings

    def test_single_asset(self, small_dataset):
        bundle = run_pipeline(RunConfig(assets=("BBB",),
                                        window=WindowParams(360, 60)),
                              small_dataset)
        assert len(bundle.ranking) == 1 and bundle.ranking[0].rank == 1.0
        assert bundle.anova_entropy is None
        assert bundle.pairwise == []

    def test_log_returns_path(self, small_dataset):
        bundle = run_pipeline(
            RunConfig(window=WindowParams(360, 60), log_returns=True),
            small_dataset)
        # one sample is lost to differencing
        assert len(next(iter(bundle.rolling.values())).entropies) == \
            window_count(1499, WindowParams(360, 60))

    def test_unknown_asset(self, small_dataset):
        with pytest.raises(ValueError, match="ZZZ"):
            run_pipeline(RunConfig(assets=("AAA", "ZZZ")), small_dataset)

    def test_short_series_error_names_asset(self):
        tiny = make_synthetic_dataset(["solo"], 100, seed=1)
        with pytest.raises(ValueError, match="'solo'"):
            run_pipeline(RunConfig(window=WindowParams(360, 60)), tiny)

    def test_log_returns_error_names_asset(self, tmp_path, capsys):
        data = tmp_path / "prices.csv"
        data.write_text("timestamp,a,b\n" + "".join(
            f"{t},{100 + t},{0 if t == 1 else 50 + t}\n" for t in range(400)))
        out = tmp_path / "run"
        assert cli_main(["analyze", "--log-returns", "--input", str(data), "--out", str(out),
                         "--window", "100", "--step", "50"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{data}: line 3, column 'b': log returns need positive values, got '0'"}
        assert not out.exists()

    def test_log_returns_error_without_a_file_names_the_position(self):
        """A dataset built in memory has no line to name: the error keeps
        ``log_return_series``'s position, under its asset."""
        values = np.array([5.0, 4.0, 0.0, 2.0])
        dataset = Dataset({"a": TimeSeries(values + 1), "b": TimeSeries(values)})
        with pytest.raises(ValueError, match=r"^asset 'b': log returns need positive values; "
                                             r"offender at position 2$"):
            run_pipeline(RunConfig(window=WindowParams(3, 1), ordinal=OrdinalConfig(2, 1),
                                   log_returns=True), dataset)

    def test_unknown_baseline_fails_before_any_asset_is_rolled(self, small_dataset):
        with mock.patch.object(dataio, "rolling_quantifiers",
                               side_effect=AssertionError("an asset was rolled")):
            with pytest.raises(ValueError, match=r"^baseline asset 'ZZZ' not among results$"):
                run_pipeline(RunConfig(baseline="ZZZ"), small_dataset)
            with pytest.raises(ValueError, match=r"^baseline asset 'AAA' not among results$"):
                run_pipeline(RunConfig(assets=None, baseline="AAA"),
                             Dataset({"BBB": small_dataset.series["BBB"]}))

    @pytest.mark.parametrize("settings,message", [
        ({"assets": ("AAA", "BBB"), "baseline": "CCC"}, "baseline asset 'CCC' not among results"),
        ({"fbm_hursts": (0.5, 1.0)}, r"hurst must lie strictly inside \(0, 1\), got 1\.0"),
        ({"fbm_hursts": (0.0,)}, r"hurst must lie strictly inside \(0, 1\), got 0\.0"),
        ({"assets": ("a", "a", "b")},
         r"assets must be one or more distinct labels, got \('a', 'a', 'b'\)"),
        ({"assets": ()}, r"assets must be one or more distinct labels, got \(\)"),
        ({"assets": "ab"}, r"assets must be a collection of values, got 'ab'"),
        ({"fbm_hursts": ("0.5",)}, r"each of fbm_hursts must be a real number, got '0\.5'"),
        ({"fbm_hursts": (0.5, None)}, r"each of fbm_hursts must be a real number, got None"),
        ({"fbm_hursts": 0.5}, r"fbm_hursts must be a collection of values, got 0\.5"),
        ({"fbm_hursts": "0.5"}, r"fbm_hursts must be a collection of values, got '0\.5'"),
    ], ids=["baseline", "hurst-one", "hurst-zero", "assets-repeated", "assets-empty",
            "assets-string", "hurst-string", "hurst-none", "hursts-scalar", "hursts-string"])
    def test_run_config_checks_what_needs_no_data(self, settings, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(**settings)

    def test_run_config_stores_tuples_of_plain_values(self):
        config = RunConfig(assets=["b", "a"], fbm_hursts=[np.float32(0.5), np.float64(0.7)])
        assert config.assets == ("b", "a") and type(config.assets) is tuple
        assert config.fbm_hursts == (0.5, 0.7) and type(config.fbm_hursts) is tuple
        assert [type(h) for h in config.fbm_hursts] == [float, float]
        assert config._replace(assets=["a"]).assets == ("a",)
        assert RunConfig(fbm_hursts=(h for h in (0.5, 0.7))).fbm_hursts == (0.5, 0.7)

    def test_explicit_baseline(self, small_dataset):
        bundle = run_pipeline(
            RunConfig(window=WindowParams(360, 60), baseline="CCC"),
            small_dataset)
        assert all(c.baseline == "CCC" for c in bundle.pairwise)
        assert [c.asset for c in bundle.pairwise] == ["AAA", "BBB"]


@pytest.fixture(scope="module")
def bundle(small_dataset):
    config = RunConfig(window=WindowParams(360, 60), fbm_hursts=(0.6, 0.8),
                       fbm_sims=8, bounds_resolution=500)
    return run_pipeline(config, small_dataset)


class TestWriteBundle:
    def test_file_inventory(self, bundle, tmp_path):
        written = write_bundle(bundle, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"windows.csv", "summaries.csv", "ranking.csv",
                         "anova.csv", "pairwise_anova.csv", "bounds.csv",
                         "fbm_clouds.csv", "manifest.json"}

    def test_numpy_scalar_config_writes_the_whole_tree(self, small_dataset, tmp_path):
        """Numpy scalars in a config are stored as plain ints, floats and a
        bool, so the manifest serializes and the tree is the one plain values
        write."""
        def tree(out, **settings):
            config = RunConfig(window=WindowParams(360, 120), **settings)
            write_bundle(run_pipeline(config, small_dataset), out)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        typed = tree(tmp_path / "typed", log_returns=np.bool_(True), seed=np.int64(7),
                     bounds_resolution=np.int64(300), fbm_sims=np.int32(8),
                     fbm_hursts=(np.float32(0.5),))
        plain = tree(tmp_path / "plain", log_returns=True, seed=7,
                     bounds_resolution=300, fbm_sims=8, fbm_hursts=(0.5,))
        assert len(typed) == 8 and "manifest.json" in typed
        assert typed == plain

    def test_windows_table_shape(self, bundle, tmp_path):
        out = tmp_path / "out"
        write_bundle(bundle, out)
        lines = (out / "windows.csv").read_text().splitlines()
        per_asset = len(next(iter(bundle.rolling.values())).entropies)
        assert lines[0] == "asset,window_index,start_offset,end_timestamp,entropy,complexity"
        assert len(lines) == 1 + 3 * per_asset

    def test_manifest_hashes_verify(self, bundle, tmp_path):
        out = tmp_path / "out"
        write_bundle(bundle, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "cecplane"
        assert manifest["config"]["window_size"] == 360
        assert manifest["input_digest"] == bundle.input_digest
        assert sorted(manifest["files"]) == sorted(
            n for n in (p.name for p in out.iterdir()) if n != "manifest.json")
        for name, digest in manifest["files"].items():
            assert _sha256_file(out / name) == digest
        assert "timestamp" not in manifest and "created" not in manifest

    def test_reruns_are_byte_identical(self, bundle, small_dataset, tmp_path):
        config = bundle.config
        first = write_bundle(run_pipeline(config, small_dataset), tmp_path / "a")
        second = write_bundle(run_pipeline(config, small_dataset), tmp_path / "b")
        for p1, p2 in zip(sorted(first), sorted(second)):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_anova_caveat_column(self, bundle, tmp_path):
        out = tmp_path / "out"
        write_bundle(bundle, out)
        rows = (out / "anova.csv").read_text().splitlines()[1:]
        assert all(row.endswith("overlapping-windows") for row in rows)


class TestPlotData:
    def test_every_kind_emits(self, bundle, tmp_path):
        per_asset = len(next(iter(bundle.rolling.values())).entropies)
        expected_rows = {
            "entropy-evolution": 3 * per_asset,
            "cecp-scatter": 3 * per_asset,
            "cecp-means": 3,
            "anova-intervals": 2 * 2,
        }
        for kind in PLOT_KINDS:
            path = emit_plot_data(bundle, kind, tmp_path)
            lines = path.read_text().splitlines()
            assert len(lines) == 1 + expected_rows[kind], kind

    def test_values_copied_verbatim(self, bundle, tmp_path):
        path = emit_plot_data(bundle, "cecp-means", tmp_path)
        first_data_row = path.read_text().splitlines()[1].split(",")
        summary = bundle.summaries[first_data_row[0]]
        assert float(first_data_row[1]) == summary.mean_entropy
        assert float(first_data_row[2]) == summary.mean_complexity

    def test_intervals_need_pairwise(self, small_dataset, tmp_path):
        solo = run_pipeline(RunConfig(assets=("AAA",),
                                      window=WindowParams(360, 60),
                                      bounds_resolution=300),
                            small_dataset)
        with pytest.raises(ValueError, match="pairwise"):
            emit_plot_data(solo, "anova-intervals", tmp_path)

    def test_unknown_kind(self, bundle, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot_data(bundle, "heatmap", tmp_path)


class TestOutputDirectory:
    """``write_bundle`` owns its directory as ``analyze`` does: the manifest
    lists exactly the files in it."""

    @pytest.fixture(scope="class")
    def pair(self, small_dataset):
        """A three-asset and a one-asset bundle, neither with fBm clouds."""
        window = WindowParams(360, 60)
        return (run_pipeline(RunConfig(window=window, bounds_resolution=300), small_dataset),
                run_pipeline(RunConfig(assets=("AAA",), window=window, bounds_resolution=300),
                             small_dataset))

    @staticmethod
    def tree(out):
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}

    def test_stale_directory_refused(self, pair, tmp_path):
        three, solo = pair
        write_bundle(three, tmp_path)
        before = self.tree(tmp_path)
        # one asset writes no ANOVA files, so the first bundle's would be left over
        with pytest.raises(FileExistsError, match="write: anova.csv, pairwise_anova.csv;"):
            write_bundle(solo, tmp_path)
        assert self.tree(tmp_path) == before

    def test_plot_data_emitted_beforehand_is_written_again(self, pair, tmp_path):
        three, _ = pair
        emitted = emit_plot_data(three, "cecp-means", tmp_path).read_bytes()
        (tmp_path / "plot_cecp_means.csv").write_text("edited\n")
        written = write_bundle(three, tmp_path)
        assert tmp_path / "plot_cecp_means.csv" in written
        assert (tmp_path / "plot_cecp_means.csv").read_bytes() == emitted
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"]["plot_cecp_means.csv"] == _sha256_file(
            tmp_path / "plot_cecp_means.csv")
        assert sorted(manifest["files"]) == sorted(p.name for p in written
                                                   if p.name != "manifest.json")

    def test_intervals_plot_refused_for_one_asset(self, pair, tmp_path):
        three, solo = pair
        emit_plot_data(three, "anova-intervals", tmp_path)
        emit_plot_data(three, "cecp-means", tmp_path)
        before = self.tree(tmp_path)
        with pytest.raises(FileExistsError, match="write: plot_anova_intervals.csv;"):
            write_bundle(solo, tmp_path)
        assert self.tree(tmp_path) == before


def test_end_timestamp_cells_with_and_without_timestamps(tmp_path):
    """An asset with no timestamps has empty end timestamp cells, beside an
    asset whose cells are formatted numbers, in windows.csv and its plots."""
    rng = np.random.default_rng(5)
    ds = Dataset(series={"timed": TimeSeries(rng.random(200), np.arange(200) * 0.5),
                         "bare": TimeSeries(rng.random(200))})
    bundle = run_pipeline(RunConfig(window=WindowParams(100, 50), bounds_resolution=50), ds)
    emit_plot_data(bundle, "entropy-evolution", tmp_path)
    write_bundle(bundle, tmp_path)
    for name in ("windows.csv", "plot_entropy_evolution.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        column = lines[0].split(",").index("end_timestamp")
        cells = [line.split(",")[column] for line in lines[1:]]
        assert cells == ["49.5", "74.5", "99.5", "", "", ""], name


def test_library_route_writes_the_cli_tree(small_dataset, tmp_path, capsys):
    """``emit_plot_data`` for every kind, then ``write_bundle``, writes the
    tree of ``analyze --plots all``, byte for byte, manifest included."""
    data = tmp_path / "prices.csv"
    write_dataset(small_dataset, data)
    config = RunConfig(window=WindowParams(360, 120), fbm_hursts=(0.6,), fbm_sims=8)
    bundle = run_pipeline(config, load_dataset(data))
    for kind in PLOT_KINDS:
        emit_plot_data(bundle, kind, tmp_path / "library")
    write_bundle(bundle, tmp_path / "library")
    assert cli_main(["analyze", "--input", str(data), "--out", str(tmp_path / "cli"),
                     "--window", "360", "--step", "120", "--fbm-hurst", "0.6",
                     "--sims", "8", "--plots", "all"]) == 0
    capsys.readouterr()
    library, cli = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                    for d in ("library", "cli"))
    assert len(library) == 12 and library == cli
