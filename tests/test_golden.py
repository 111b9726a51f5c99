"""Golden output trees: the sha256 of every file ``analyze --plots all`` writes.

Run-versus-run equality (criterion 9) cannot see a change that moves every
number the same way in both runs; these frozen hashes can.  A change that
moves output bytes on purpose re-freezes them only together with the maximum
|dH| and |dC| against the ``fsum`` reference and a note in CHANGES.md.

Frozen with numpy 2.4.6 on CPython 3.11 (x86-64).  Another numpy or libm
may round a transcendental differently in the last digit; the comparison is
exact on purpose, so such a platform shows up here first.
"""

import hashlib

import pytest

from cecplane import make_synthetic_dataset, write_dataset
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
