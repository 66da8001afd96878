"""Byte-for-byte regression of the closed-form CLI output, one file per case.

Each file under ``tests/golden`` is the output of ``mek <argv>`` for the argv
in ``CASES``; regenerate one with ``mek <argv> --out tests/golden/<name>``.
Only closed-form columns are pinned: the ``--oracle`` columns move at
round-off with the BLAS build.
"""

from pathlib import Path

import pytest

from mek import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{
        f"sweep_{family}.csv": ["sweep", "--family", family, "--grid", "0:3:13",
                                "--mu", "0,0.5,1,2,5,inf"]
        for family in cli.FAMILIES
    },
    **{
        f"thermo_{family}.csv": ["thermo-table", "--family", family, "--grid", "0:2:9"]
        for family in cli.FAMILIES
    },
    "sweep_silbey-harris.json": ["sweep", "--family", "silbey-harris", "--grid", "0:3:13",
                                 "--mu", "0,0.5,1,2,5,inf", "--format", "json"],
    # order-0 rows hold "inf" from r > 0 on
    "sweep_squeezed.json": ["sweep", "--family", "squeezed", "--grid", "0:3:13",
                            "--mu", "0,0.5,1,2,5,inf", "--format", "json"],
    # a bool column, and beta_eff = "inf" at f.f = 0
    "thermo_silbey-harris.json": ["thermo-table", "--family", "silbey-harris", "--grid", "0:2:9",
                                  "--format", "json"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
