"""Byte-for-byte golden outputs of the README command-line examples, and
the README's library quick start run as written.

Each case runs in table and json format; the files under tests/golden/
hold the expected stdout (and, for ``--dot``, the DOT text).
"""

from pathlib import Path

import pytest

from chebdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_readme_library_quick_start(capsys):
    # the python block under "Library quick start", then what its
    # comments state: the graph's arrays, the printed divisor-class table,
    # the summary rows equal to the closed form's and 2 factors of degree 4
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    g, summarize = ns["g"], ns["summarize"]
    for name in ("succ", "pper", "per", "weight", "divisor", "comp"):
        assert len(getattr(g, name)) == 53, name
    assert capsys.readouterr().out == summarize(g).table_str() + "\n"
    assert summarize(g).rows == ns["predict_summary"](3, 53, 1).rows
    assert str(ns["factor_pattern_predicted"](2, 13, 3, 105)) == "2 x (deg 4)"
