"""Memory bounds of the long-input path, measured with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of a
call is what it allocates at its worst moment: its output plus every
temporary alive at that moment.  Each bound is a stated multiple of the data
the call works on, with the measured value and the margin in the test's
docstring (CPython 3.11, numpy 2.4).  The old code this module guards
against held whole-file and whole-series temporaries and breaks each bound
by far more than its margin.
"""

import contextlib
import gc
import hashlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cecplane import (OrdinalConfig, RunConfig, TimeSeries, WindowParams, baseline_cloud,
                      load_dataset, log_return_series, make_synthetic_dataset,
                      rolling_quantifiers, run_pipeline)
from cecplane import _fork, _tables, dataio, fbm
from cecplane._tables import _BLOCK
from cecplane.dataio import (_FILE_BLOCK, _plot_kinds, _sha256_file, _windows_table,
                             _write_tree)
from cecplane.fbm import _baseline_clouds
from cecplane.patterns import _ENCODE_BLOCK, _encode_starts


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes ``fn`` allocates at its peak beyond what was live before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestEncodeMemory:
    def test_peak_is_the_codes_plus_one_block(self):
        """250,000 samples at dim 6: the peak is the int16 codes (0.50 MB)
        plus 23.2 bytes per start of one block of ``_ENCODE_BLOCK`` (32,768)
        starts, its int8 counts and ranks (12 bytes), bool mask, int16 term
        and the intp rank row that ``np.take`` copies (8 bytes), for 1.26 MB.
        The bound, the codes plus 32 bytes a start of one block (1.55 MB),
        leaves 23%.  Encoding the whole series at once into int64
        codes peaked at 9.25 MB, and int64 codes alone fill 2.0 MB."""
        values = np.random.default_rng(5).standard_normal(250_000)
        config = OrdinalConfig(6, 1)
        codes = _encode_starts(values, config)  # numpy's one-time set-up
        peak = traced_peak(_encode_starts, values, config)
        assert codes.dtype == np.int16
        assert peak < codes.nbytes + 32 * _ENCODE_BLOCK


class TestRollingMemory:
    def test_peak_is_under_one_series_copy(self):
        """250,000 samples at dim 6, window 3600, step 600 (411 windows of
        720 states): the peak is 0.63 series copies (1.27 MB), reached in
        the encode, its int16 codes and one block's temporaries
        (:class:`TestEncodeMemory`); the window rows are gathered and scored
        later, beside the codes, below it.  The bound, one copy, leaves 58%.
        Encoding the whole series at once into int64 codes peaked at 4.63
        copies, and blocking alone, with int64 codes, at 1.48."""
        series = TimeSeries(np.random.default_rng(5).standard_normal(250_000))
        params, config = WindowParams(3600, 600), OrdinalConfig(6, 1)
        rolling_quantifiers(series, params, config)  # numpy's one-time set-up
        peak = traced_peak(rolling_quantifiers, series, params, config)
        assert peak < 1.0 * series.values.nbytes

    def test_count_rows_stay_within_the_block_cap(self):
        """16,031 samples at dim 8 (D! = 40,320 states), window 360, step
        60 (262 windows): a block holds one window, and the peak is 4.5 rows
        of D! (1.37 MiB), the block's two edge rows, its counts and the
        kernel's copies, beside the series' codes.  The bound, 8 rows,
        leaves 78%.  Counting every window at once peaked at 1,048 rows
        (322 MiB)."""
        series = TimeSeries(np.random.default_rng(8).standard_normal(16_031))
        params, config = WindowParams(360, 60), OrdinalConfig(8, 1)
        rolling_quantifiers(series, params, config)  # numpy's one-time set-up
        peak = traced_peak(rolling_quantifiers, series, params, config)
        assert peak < 8 * config.num_patterns * 8


class TestTimeSeriesMemory:
    def test_grid_check_holds_one_gap_array(self):
        """250,000 samples with timestamps: the grid check holds the gaps,
        one float array the size of the timestamps, updated in place, plus
        bool masks, for a peak of 1.25 timestamp copies.  The bound, 2
        copies, leaves 60%; building ``|gaps - ref|`` as new arrays took
        3.25."""
        values = np.random.default_rng(6).standard_normal(250_000)
        timestamps = np.arange(values.size, dtype=np.float64) * 300.0
        peak = traced_peak(TimeSeries, values, timestamps)
        assert peak < 2.0 * timestamps.nbytes


@contextlib.contextmanager
def _processes(cpus):
    """Score the blocks of any fBm call in up to ``cpus`` processes."""
    with mock.patch.object(fbm, "_FORK_FLOOR", 1), \
            mock.patch.object(_fork, "_cpus", return_value=cpus):
        yield


class TestFbmMemory:
    """Only this process's allocations are traced: with two processes it
    scores the first of the two 8-path blocks, and a child the other."""

    @pytest.mark.parametrize("dim", [8, 9])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "two-processes"])
    def test_peak_is_a_few_count_rows_of_one_path(self, cpus, dim):
        """16 paths of 360 at dim 8 and 9 (D! = 40,320 and 362,880 states):
        the scorer counts one window per block, and the peak is 4.4 and 4.0
        float rows of D! (1.3 and 11.2 MiB), the counts and the kernel's
        copies of them, in one process and in two alike.  The bound, 8
        rows, leaves 45% and 49%.  Scoring 8 paths a block at these dims
        peaked at 40 rows (12.3 and 111.5 MiB)."""
        config = OrdinalConfig(dim, 1)
        with _processes(cpus):
            assert len(fbm._runs(16, 360)) == cpus
            baseline_cloud(0.7, 1, 360, config, seed=1)  # numpy's one-time set-up
            peak = traced_peak(baseline_cloud, 0.7, 16, 360, config, seed=1)
        assert peak < 8 * config.num_patterns * 8

    @pytest.mark.parametrize("dim", [8, 9])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "two-processes"])
    def test_five_exponents_keep_the_bound(self, cpus, dim):
        """Five clouds of one call share each block's normals, and the
        block's paths of every exponent are encoded together (5 x 8 paths
        of 360).  The peak is 5.0 and 4.1 rows of D! in one process and in
        two alike: the five exponents' paths and codes add 0.65 and 0.07
        rows to one cloud's count rows.  The bound is the single cloud's 8
        rows."""
        config = OrdinalConfig(dim, 1)
        with _processes(cpus):
            assert len(fbm._runs(16, 360)) == cpus
            baseline_cloud(0.7, 1, 360, config, seed=1)  # numpy's one-time set-up
            peak = traced_peak(_baseline_clouds, (0.5, 0.6, 0.7, 0.8, 0.9), 16, 360,
                               config, seed=1)
        assert peak < 8 * config.num_patterns * 8


def _two_arrays(size: int):
    """Nothing for ``size`` 0; else a float array of ``size`` entries and a
    strided view of as many."""
    if size:
        yield np.full(size, 1.5)
        yield np.arange(2.0 * size)[::2]


class TestForkMemory:
    def test_each_array_is_received_into_one_buffer(self):
        """A child sends an 8 MiB array and an 8 MiB strided view while this
        process runs an empty share: the peak is the two received arrays
        plus 9 KB, so each array's pickled bytes are loaded straight into
        the buffer it keeps.  The bound, 2.1 arrays, leaves 5%.  Reading the
        whole pipe before loading its pickles measured 4.0 arrays."""
        size = (8 << 20) // 8
        shares = [(0,), (size,)]
        _fork._map(_two_arrays, shares)  # numpy's one-time set-up
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            peak = traced_peak(_fork._map, _two_arrays, shares)
        assert fork.call_count == 1
        assert peak < 2.1 * 8 * size
        here, child = _fork._map(_two_arrays, shares)
        sent = list(_two_arrays(size))
        assert here == [] and len(child) == 2
        assert all(np.array_equal(a, b) for a, b in zip(child, sent))


@pytest.fixture(scope="module")
def numeric_csv(tmp_path_factory):
    """About 50,000 rows of plain numbers: a timestamp and four columns."""
    rows = 50_000
    values = np.random.default_rng(7).lognormal(size=(rows, 4)).tolist()
    path = tmp_path_factory.mktemp("memory") / "prices.csv"
    with open(path, "w") as fh:
        fh.write("timestamp,a,b,c,d\n")
        for k, row in enumerate(values):
            fh.write(f"{1_500_000_000 + 300 * k}," + ",".join(map(repr, row)) + "\n")
    return path, rows


class TestLoadMemory:
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one-range", "two-ranges"])
    def test_peak_is_table_plus_columns(self, numeric_csv, cpus):
        """The file (4.3 MB) is hashed a block at a time after every table
        is gone.  With one range, the loadtxt table (2.0 MB) and the five
        used columns (2.0 MB) are the peak: measured at the two arrays plus
        32 KB, and the bound allows 64 KB over them.  Checking
        ``np.isfinite(table[:, used])`` in one call measured 274 KB over
        them (a copy of the used columns beside the table, and its bool
        mask); reading the whole file to hash it measured 2.35 MB over, the
        file beside the columns.

        With two, this process parses half the file while a child parses
        the other, and each range's columns are copied out of its table, so
        this process's half table is freed before the child's columns
        arrive.  Each column is then joined from its two parts in turn: the
        peak, 1.26 columns, is every part beside one joined column (0.4 MB)
        plus 120 KB.  The bound, 1.4 columns, leaves 10%.
        Keeping the parts as views of the half table, which holds it until
        the last column is joined, measured 1.62 columns."""
        path, rows = numeric_csv
        with mock.patch.object(_fork, "_cpus", return_value=cpus):
            assert len(dataio._cuts(path)) == cpus - 1
            load_dataset(path)  # numpy's one-time set-up
            peak = traced_peak(load_dataset, path)
        table = rows * 5 * 8
        columns = rows * 5 * 8
        assert peak < table + columns + 64 * 1024
        assert peak < path.stat().st_size + table
        if cpus == 2:
            assert peak < 1.4 * columns

    @pytest.mark.parametrize("cpus,joins", [(1, 0), (2, 5)], ids=["one-range", "two-ranges"])
    def test_only_ranges_are_joined(self, numeric_csv, cpus, joins):
        """Each used column is joined from its ranges' parts; one range's
        columns are returned as parsed, since joining a single part would
        copy every column a second time."""
        path, _ = numeric_csv
        with mock.patch.object(_fork, "_cpus", return_value=cpus), \
                mock.patch.object(dataio.np, "concatenate", wraps=np.concatenate) as join:
            load_dataset(path)
        assert join.call_count == joins


class TestLogReturnMemory:
    def test_peak_is_one_series_of_logs(self):
        """250,000 positive values: the logs are taken into one buffer and
        each difference overwrites a log that no later one reads, so the
        peak is that buffer plus the positivity and finiteness masks, 1.13
        series copies.  The bound, 1.5 copies, leaves 25%.
        ``np.diff(np.log(values))``, the logs beside their differences,
        measured 2.00."""
        series = TimeSeries(np.random.default_rng(9).lognormal(size=250_000))
        returns = log_return_series(series)  # numpy's one-time set-up
        peak = traced_peak(log_return_series, series)
        assert peak < 1.5 * series.values.nbytes
        assert returns.values.tobytes() == np.diff(np.log(series.values)).tobytes()


class TestWriteMemory:
    def test_peak_is_the_window_table_plus_two_blocks(self, tmp_path):
        """8 assets of 50,000 rows at window 360, step 10: 39,720 windows,
        a 2.6 MB windows.csv, and the whole tree with every plot kind.  The
        bound is the peak of formatting the window table (13.9 MB of text
        cells, plus 2.9 MB while its last column is formatted) plus two
        blocks of ``_BLOCK`` rows at 512 bytes a row (256 KB at 256 rows):
        ``_write`` measured 508 KB for one block of 1,024 of these rows, its
        tuples, lines, joined text and encoded bytes.  Writing the tree measured that
        formatting peak and not a byte more, the hash's block and the
        bounds table included.  A writer that holds the whole windows.csv
        as text (``_BLOCK`` above the row count) measured 10.5 MB over the
        formatting peak, and the test checks that it breaks the bound."""
        dataset = make_synthetic_dataset([f"A{k}" for k in range(8)], 50_000, seed=1)
        bundle = run_pipeline(RunConfig(window=WindowParams(360, 10)), dataset)
        kinds = _plot_kinds(bundle)
        table = traced_peak(lambda: _windows_table(bundle.rolling).formatted())
        bound = table + 2 * _BLOCK * 512
        _write_tree(bundle, tmp_path / "first", kinds)  # one-time set-up
        assert traced_peak(_write_tree, bundle, tmp_path / "blocks", kinds) < bound
        with mock.patch.object(_tables, "_BLOCK", 10**9):
            assert traced_peak(_write_tree, bundle, tmp_path / "whole", kinds) > bound


class TestSha256File:
    @pytest.mark.parametrize("size", [0, 1, _FILE_BLOCK - 1, _FILE_BLOCK, _FILE_BLOCK + 1])
    def test_digest_matches_whole_file_hash(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert _sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_large_file_held_one_block_at_a_time(self, tmp_path):
        """20 MB hashed with a peak of one 64 KiB block plus 5.5 KB; the
        bound is two blocks.  Reading the whole file measured 305 blocks."""
        path = tmp_path / "blob"
        rng = np.random.default_rng(8)
        with open(path, "wb") as fh:
            for _ in range(20):
                fh.write(rng.bytes(1_000_000))
        assert traced_peak(_sha256_file, path) < 2 * _FILE_BLOCK
