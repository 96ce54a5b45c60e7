"""Byte-for-byte golden outputs of the README command-line examples.

Each case runs in table and json format; the files under tests/golden/
hold the expected stdout (and, for ``--dot``, the DOT text).
"""

from pathlib import Path

import pytest

from chebdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "graph_3_53_1": ["graph", "--ell", "3", "--p", "53", "--n", "1"],
    "graph_2_29_dot": ["graph", "--ell", "2", "--p", "29"],
    "predict_2_3_4": ["predict", "--ell", "2", "--p", "3", "--n", "4"],
    "predict_3_13_25": ["predict", "--ell", "3", "--p", "13", "--n", "25"],
    "verify_3_53_1": ["verify", "--ell", "3", "--p", "53", "--n", "1"],
    "verify_2_3_4": ["verify", "--ell", "2", "--p", "3", "--n", "4"],
    "factor_2_13_2_105": ["factor", "--ell", "2", "--p", "13", "--n", "2",
                          "--t", "105"],
    "decompose_2_105_13_4": ["decompose", "--ell", "2", "--t", "105",
                             "--p", "13", "--max-level", "4"],
    "density_3_53_1": ["density", "--ell", "3", "--p", "53", "--n", "1"],
}


def render(name, fmt, tmp_path, capsys):
    """Run one case; return {golden file name: bytes produced}."""
    argv = CASES[name] + ["--format", fmt]
    dot = tmp_path / "g.gv"
    if name.endswith("_dot"):
        argv += ["--dot", str(dot)]
    code = main(argv)
    assert code == 0
    files = {f"{name}.{fmt}.out": capsys.readouterr().out.encode()}
    if name.endswith("_dot"):
        files[f"{name}.gv"] = dot.read_bytes()
    return files


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, fmt, tmp_path, capsys):
    for fname, data in render(name, fmt, tmp_path, capsys).items():
        assert data == (GOLDEN / fname).read_bytes(), fname
