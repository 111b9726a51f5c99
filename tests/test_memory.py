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
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cecplane import (OrdinalConfig, TimeSeries, WindowParams, baseline_cloud, load_dataset,
                      rolling_quantifiers)
from cecplane import _fork, dataio, fbm
from cecplane.dataio import _HASH_BLOCK, _sha256_file
from cecplane.fbm import _baseline_clouds


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


class TestRollingMemory:
    def test_peak_is_a_few_series_copies(self):
        """250,000 samples at dim 6, window 3600, step 600 (411 windows of
        720 states): the peak is 4.75 series copies (9.5 MB), reached while
        the window rows are gathered and again in the plane-point kernel.
        The bound, 6 copies, leaves 26%.  Holding the codes, block indices
        and keys at once beside the block counts and a separate
        cumulative-sum array took 9.1 copies."""
        series = TimeSeries(np.random.default_rng(5).standard_normal(250_000))
        params, config = WindowParams(3600, 600), OrdinalConfig(6, 1)
        rolling_quantifiers(series, params, config)  # numpy's one-time set-up
        peak = traced_peak(rolling_quantifiers, series, params, config)
        assert peak < 6.0 * series.values.nbytes

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
        """The loadtxt table (2.0 MB) and the five used columns (2.0 MB) are
        the peak; the file (4.3 MB) is hashed a block at a time after the
        table is gone.  Measured with one range: the two arrays plus 32 KB.
        With two, this process parses half the file while a child parses
        the other and sends its columns, each joined to this process's part
        in turn: half the table plus the columns plus 232 KB (the child's
        last column, 200 KB, beside its join), 768 KB under the two arrays.
        The bound allows 64 KB over the two arrays.  Checking
        ``np.isfinite(table[:, used])`` in one call measured 274 KB over them
        (a copy of the used columns beside the table, and its bool mask);
        reading the whole file to hash it measured 2.35 MB over, the file
        beside the columns."""
        path, rows = numeric_csv
        with mock.patch.object(_fork, "_cpus", return_value=cpus):
            assert len(dataio._cuts(path)) == cpus - 1
            load_dataset(path)  # numpy's one-time set-up
            peak = traced_peak(load_dataset, path)
        table = rows * 5 * 8
        columns = rows * 5 * 8
        assert peak < table + columns + 64 * 1024
        assert peak < path.stat().st_size + table


class TestSha256File:
    @pytest.mark.parametrize("size", [0, 1, _HASH_BLOCK - 1, _HASH_BLOCK, _HASH_BLOCK + 1])
    def test_digest_matches_whole_file_hash(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert _sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_large_file_held_one_block_at_a_time(self, tmp_path):
        """20 MB hashed with a peak of one 1 MiB block plus 5 KB; the bound
        is two blocks.  Reading the whole file measured 19 blocks."""
        path = tmp_path / "blob"
        rng = np.random.default_rng(8)
        with open(path, "wb") as fh:
            for _ in range(20):
                fh.write(rng.bytes(1_000_000))
        assert traced_peak(_sha256_file, path) < 2 * _HASH_BLOCK
