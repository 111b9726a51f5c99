"""Golden outputs: the sha256 of every file ``analyze --plots all`` writes,
of what ``rank``, ``anova`` and ``spearman`` write from a fixed input, and
of the tables ``fbm`` and ``bounds`` generate.

Run-versus-run equality (criterion 9) cannot see a change that moves every
number the same way in both runs; these frozen hashes can.  A change that
moves output bytes on purpose re-freezes them only together with the maximum
|dH| and |dC| against the ``fsum`` reference and a note in CHANGES.md.

Frozen with numpy 2.4.6 on CPython 3.11 (x86-64).  Another numpy or libm
may round a transcendental differently in the last digit; the comparison is
exact on purpose, so such a platform shows up here first.  The read-command
hashes involve no numpy: their inputs are made with the standard library,
and those commands load none.  The ``fbm`` and ``bounds`` hashes carry the
same numpy and libm note as the analyze trees.
"""

import hashlib
import random
from unittest import mock

import pytest

from cecplane import _readback, make_synthetic_dataset, write_dataset
from cecplane.cli import main

# Criterion 9 geometry: 12 x 16,031 prices, seed 2017, dim 4, window 360, step 60.
STUDY = {
    "anova.csv": "fd2cae80546a5cff99dac69c1c1b484015f2597a27c9a74668b97f6a4a71a72b",
    "bounds.csv": "cfe9d7ce13957198454939d61b1c9d907599eee5898e4b451fc1359163479e47",
    "manifest.json": "e0acbdeeeb8a073c04937f3075476efbba33268e6c8447cbde7594d5e6d67f27",
    "pairwise_anova.csv": "419a661ba6bcda5d5c3e3df9462a305589af7e946c828ec2c18b40552b38e8ba",
    "plot_anova_intervals.csv": "7814306740472fdf9d83960fa57fd18c04946bf8e28b476b127f3c39b766967d",
    "plot_cecp_means.csv": "c539cb9b849793f8f8edcdf1ba86bf79679f18e2f59db81991ca1e1ead682070",
    "plot_cecp_scatter.csv": "a2800afc51cf3af0176a737ecf0d110fa92ff267fb2e65190ae10e5769215107",
    "plot_entropy_evolution.csv": "5b6e8d8ba67e3ce4352ff588f67982185d0260a30669c923e41a64dd9b9afe92",
    "ranking.csv": "1879314e6b399ed2e0f6da1787d2ad8af1c32e722c7d4f728b955a108fbea2b9",
    "summaries.csv": "8c9bfad32b53dd5940711dc51ec0c68396f29634f9a4c7376b6fa418ed870065",
    "windows.csv": "3c3b733ef4cc99bf91b822c648c4af564aa28262b0bbbe1adee63abe9fd6ee14",
}

# 4 x 20,000 prices, seed 2018, log returns, dim 6 (M = 720 envelope),
# window 3600, step 600: the undersampled high-dimension path.
LONG_DIM6 = {
    "anova.csv": "07f67e06a1c87c4b440c68cef41fbfb422be146697ea12cf4968b922109423f0",
    "bounds.csv": "a13ad7c889d5637d7bd8351d27ce1de42f63c657cc42044cf4071436482c9574",
    "manifest.json": "3d1c53b067d0b13b0f8090f9168617555fc896d14f5010576ef57ba35b908d39",
    "pairwise_anova.csv": "295bce5cf31847ee5bba7a593bd714b81c7bb60c4d03aef9d16ee08e3fc61039",
    "plot_anova_intervals.csv": "897a5a34847b730d73ebc4bf0b5fdd75a48c93ac34679a7d5e192d42e1daa20f",
    "plot_cecp_means.csv": "24c600e8c116aade96a871cf104e8dad4b4a05629dca4de0046f8b2245b2ab74",
    "plot_cecp_scatter.csv": "a9031116737a0e40d0bc1d6df2a43a85f3c571fd344c19137888cb46a520b5e4",
    "plot_entropy_evolution.csv": "fe9de15947d6dfc452fa0d3cd479eb74897ebf2644dae196e8f194cc8855780d",
    "ranking.csv": "48c57433c2e66e19c35260644f3b6e9706b3a2b269214ffb0d5d95c12b280663",
    "summaries.csv": "1701313df75d1256ea2c9408603556add2ab0ae044bb17d05fbe6e4500020bd0",
    "windows.csv": "4d1d2a7f8e072f842cfe1cdaf12b8c8ea6f66b780fcd5b0ccc7cbb3a8d709ce5",
}

CASES = {
    "study": ([f"S{i:02d}" for i in range(12)], 16_031, 2017,
              ["--dim", "4", "--tau", "1", "--window", "360", "--step", "60"],
              STUDY),
    "long-dim6": ([f"L{i}" for i in range(4)], 20_000, 2018,
                  ["--dim", "6", "--window", "3600", "--step", "600",
                   "--log-returns"],
                  LONG_DIM6),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_tree_matches_frozen_hashes(case, tmp_path):
    labels, length, seed, options, expected = CASES[case]
    data = tmp_path / "dataset.csv"
    write_dataset(make_synthetic_dataset(labels, length, seed=seed), data)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(data), "--out", str(out),
                 "--seed", "42", "--plots", "all", *options]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expected


def _read_side_inputs(root):
    """A 12-asset ``windows.csv`` and a ``--metric`` file, made with the
    standard library alone (floats written with ``repr``), so the frozen
    hashes below depend on the read commands and on nothing that makes
    their inputs.  Asset W11 repeats W03's windows, so two distances tie."""
    rng = random.Random(2019)
    labels = [f"W{i:02d}" for i in range(12)]
    windows = {}
    for asset in labels:
        level, stride = rng.uniform(0.55, 0.99), rng.choice((60, 120, 360))
        points = []
        for k in range(rng.randint(15, 40)):
            h = min(1.0, max(0.0, rng.gauss(level, 0.03)))
            c = max(0.0, (1.0 - h) * rng.uniform(0.2, 0.6))
            points.append((k, k * stride, h, c))
        windows[asset] = points
    windows["W11"] = windows["W03"]
    windows["W07"][0] = (0, 0, 1.0, 0.0)  # integral floats in the file
    rows = [(a, *p) for a, points in windows.items() for p in points]
    rng.shuffle(rows)
    lines = ["asset,window_index,start_offset,end_timestamp,entropy,complexity"]
    lines += [f"{a},{k},{s},,{h!r},{c!r}" for a, k, s, h, c in rows]
    (root / "windows.csv").write_text("\n".join(lines) + "\n")
    metric = ["asset,mcap,volume"]
    for asset in [*labels[1:], "ZZZ"]:  # W00 has no size; ZZZ has no windows
        metric.append(f"{asset},{rng.lognormvariate(20, 2)!r},{rng.choice((1.5, 2.0, 7.25))!r}")
    (root / "metrics.csv").write_text("\n".join(metric) + "\n")


READ_SIDE = {
    "rank.csv": "20f9aa57ffd27731487fd5364176ca230e15f3920e6df96a4f36c478c1a69ca0",
    "anova.json": "777cd0381743e6a5a32ac0c36796a03d464c32254cd365406645e2ec1fa8ae9e",
    "anova_w03.json": "4d91feb33fba1843903e8faded7dd42c63c4be9df3d8e0bc8b36a91afc12a266",
    "spearman.csv": "78a4359aaaeda34fa689bf4a0c396145517dc6bce92c7a56ae89d2784801ffd1",
}


def _read_side_hashes(root) -> dict[str, str]:
    """The sha256 of each read command's output on the inputs in ``root``."""
    windows, metric = str(root / "windows.csv"), str(root / "metrics.csv")
    for name, argv in [("rank.csv", ["rank"]), ("anova.json", ["anova"]),
                       ("anova_w03.json", ["anova", "--baseline", "W03"]),
                       ("spearman.csv", ["spearman", "--metric", metric])]:
        assert main([*argv, "--input", windows, "--out", str(root / name)]) == 0
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in READ_SIDE}


def test_read_commands_match_frozen_hashes(tmp_path):
    _read_side_inputs(tmp_path)
    assert _read_side_hashes(tmp_path) == READ_SIDE


def test_read_commands_by_column_match_frozen_hashes(tmp_path):
    """The shuffled rows above are read row by row.  Regrouped as analyze
    writes them (each asset's rows together, in window order, the assets in
    their order of first appearance), the same windows are read a column
    at a time, with the row loop made to raise, to the same bytes."""
    _read_side_inputs(tmp_path)
    path = tmp_path / "windows.csv"
    header, *rows = path.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    labels = list(dict.fromkeys(c[0] for c in cells))
    cells.sort(key=lambda c: (labels.index(c[0]), int(c[1])))
    path.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
    with mock.patch.object(_readback, "_by_row", side_effect=AssertionError):
        assert _read_side_hashes(tmp_path) == READ_SIDE


# One cloud per Hurst exponent; the dim 8 case scores paths of D! = 40,320
# states, where a block of paths is bounded by its count matrix.
GENERATORS = {
    "fbm_dim4.csv": (["fbm", "--hurst", "0.3,0.5,0.7", "--sims", "40", "--length", "360",
                      "--dim", "4", "--seed", "7"],
                     "f2974bcc5056823429274990d4e45c7f3a01909a5933c3f717d255149dacef6c"),
    "fbm_dim8.csv": (["fbm", "--hurst", "0.25,0.8", "--sims", "12", "--length", "400",
                      "--dim", "8", "--tau", "2", "--seed", "11"],
                     "7017cffbb8fd285fa0f9ac18e7db232c658a50c396abe77d2d0a827fe016eba0"),
    "bounds_dim5.csv": (["bounds", "--dim", "5", "--resolution", "300"],
                        "44a57f77216841b124a104ae2802b4a6e5e2a4de15e83c93dc61bb97707a1d2a"),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_match_frozen_hashes(name, tmp_path):
    argv, expected = GENERATORS[name]
    assert main([*argv, "--out", str(tmp_path / name)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected


def _row_reader_input(path):
    """Three assets on a five-minute ISO-8601 grid, made with the standard
    library: a random walk written with ``repr``, with empty cells for
    ``--forward-fill`` to carry over (a run of six in R0, one row where R1
    and R2 both miss, and a lone cell in R2)."""
    from datetime import datetime, timedelta

    rng = random.Random(2020)
    labels = ["R0", "R1", "R2"]
    levels = [100.0, 50.0, 20.0]
    start = datetime(2017, 8, 1)
    lines = ["time," + ",".join(labels)]
    for k in range(1_500):
        levels = [x * (1.0 + rng.gauss(0.0, 0.002)) for x in levels]
        cells = [repr(x) for x in levels]
        if 700 <= k < 706:
            cells[0] = ""
        if k == 901:
            cells[1] = cells[2] = ""
        if k == 1_203:
            cells[2] = " "
        stamp = (start + timedelta(minutes=5 * k)).isoformat()
        lines.append(stamp + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


# The row reader (ISO-8601 timestamps, filled gaps, their counts in the
# manifest), a pattern delay of 2, and the fBm clouds of an analyze run.
ROW_READER = {
    "anova.csv": "fe3782269aae1e240441bb9f52eaafb52bdbdaba6afc00c765b79c7f0915fe13",
    "bounds.csv": "cfe9d7ce13957198454939d61b1c9d907599eee5898e4b451fc1359163479e47",
    "fbm_clouds.csv": "1549d0b1575283c00e15a1450367d876b0bb74744e87e1e2ec951f5e83a8fd6d",
    "manifest.json": "573f5886c91400d3653c65c8ca2900693442d37d6cb8ecab113767e63ff0c1c1",
    "pairwise_anova.csv": "047297716dee0d6c81da777eebf6817c989420712508f04128d9ec331b45340c",
    "plot_anova_intervals.csv": "f954fb00cedcc2cde4a8ec961418b3ea719dd5426cb8f2a4cbe4faa279c3888c",
    "plot_cecp_means.csv": "4a2905a026b292479c96dfbc7827ec41eee8478f7c92caa9a8753f5746aeb481",
    "plot_cecp_scatter.csv": "87a5d2a90d82768c74a2fad91fea38712da5e757ec96dba90ea58327ca96099f",
    "plot_entropy_evolution.csv": "71a3266d0844d059fa3bed19780155ee7c26720bed88a81d93390d3890d42c47",
    "ranking.csv": "9744818e589d462272103c0ba921fb9e739e4fdba1845570c00b1054d27be8ea",
    "summaries.csv": "8df17937fb0ce40c417584dd92a6519de8068f12b973d12cea2fc3c69077ede1",
    "windows.csv": "e0d8186cbfeab2ea80f52a91e775957b9f64edd3b4a8ebe32bf6690f220b879d",
}


def test_row_reader_tree_matches_frozen_hashes(tmp_path):
    data = tmp_path / "dataset.csv"
    _row_reader_input(data)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(data), "--out", str(out), "--forward-fill",
                 "--dim", "4", "--tau", "2", "--window", "360", "--step", "60",
                 "--fbm-hurst", "0.5,0.7", "--sims", "24", "--seed", "42",
                 "--plots", "all"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == ROW_READER
