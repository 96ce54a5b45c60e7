import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import chebdyn
from chebdyn.cli import main
from chebdyn.factor import DEGREE_CAP
from chebdyn.ffield import is_prime
from chebdyn.graph import DEFAULT_CAP

GOLDEN_G_3_53_1 = """\
l=3 p=53 n=1
divisors of 52:
  divisor | points | period | preperiod | weight | cycles
  2^2     | 1      | 1      | 0         | 1      | 1
  13      | 6      | 3      | 0         | 1      | 2
  2*13    | 6      | 3      | 0         | 1      | 2
  2^2*13  | 12     | 6      | 0         | 1      | 2
divisors of 54:
  divisor | points | period | preperiod | weight | cycles
  1       | 1      | 1      | 0         | 1      | 1
  3       | 1      | -      | 1         | 1      | -
  3^2     | 3      | -      | 2         | 1      | -
  3^3     | 9      | -      | 3         | 1      | -
  2       | 1      | 1      | 0         | 1      | 1
  2*3     | 1      | -      | 1         | 1      | -
  2*3^2   | 3      | -      | 2         | 1      | -
  2*3^3   | 9      | -      | 3         | 1      | -
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_golden_table(capsys):
    code, out, _ = run(capsys, ["graph", "--ell", "3", "--p", "53"])
    assert code == 0
    assert out == GOLDEN_G_3_53_1


def test_graph_json_schema(capsys):
    code, out, _ = run(capsys, ["graph", "--ell", "2", "--p", "3", "--n", "4",
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ell"] == 2 and obj["p"] == 3 and obj["n"] == 4
    row = obj["rows"][0]
    assert set(row) >= {"divisor", "branch", "points", "preperiod", "weight"}
    r41 = [r for r in obj["rows"] if r["divisor"] == "41"][0]
    assert r41["period"] == 10 and r41["cycles"] == 2
    r80 = [r for r in obj["rows"] if r["divisor"] == "2^4*5"][0]
    assert r80["preperiod"] == 4 and r80["weight"] == 4 and "period" not in r80


def test_graph_dot_output(tmp_path, capsys):
    dot_path = tmp_path / "g.gv"
    code, out, _ = run(capsys, ["graph", "--ell", "2", "--p", "3",
                                "--dot", str(dot_path)])
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph") and '"2" -> "2"' in text


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, ["predict", "--ell", "3", "--p", "53",
                                "--format", "json", "--out", str(out_path)])
    assert code == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj["params"]["v"] == 3 and obj["params"]["D1"] == 54


def test_verify_exit_and_phrase(capsys):
    code, out, _ = run(capsys, ["verify", "--ell", "3", "--p", "53", "--n", "1"])
    assert code == 0
    assert "27 periodic / 53; all rows match" in out


def test_verify_flags_figure_erratum(capsys):
    code, out, _ = run(capsys, ["verify", "--ell", "2", "--p", "3", "--n", "4"])
    assert code == 0
    assert "2 cycles of length 10" in out


def test_factor_match(capsys):
    code, out, _ = run(capsys, ["factor", "--ell", "2", "--p", "13",
                                "--n", "1", "--t", "105"])
    assert code == 0
    assert "match: yes" in out
    code, out, _ = run(capsys, ["factor", "--ell", "2", "--p", "13",
                                "--n", "1", "--t", "105", "--format", "json"])
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["predicted"] == [{"degree": 1, "multiplicity": 1, "count": 2}]


def test_decompose_table_and_refusal(capsys):
    code, out, _ = run(capsys, ["decompose", "--ell", "2", "--t", "105",
                                "--p", "13", "--max-level", "3"])
    assert code == 0
    assert "level 1: 2 prime(s) of degree 1" in out
    assert "splits completely" in out
    code, _, err = run(capsys, ["decompose", "--ell", "2", "--t", "105",
                                "--p", "103"])
    assert code == 3 and "refused" in err


def test_density(capsys):
    code, out, _ = run(capsys, ["density", "--ell", "3", "--p", "53", "--n", "1"])
    assert code == 0
    assert "27/53" in out and "1/2" in out


def test_usage_error_exit_2(capsys):
    assert run(capsys, ["graph", "--badflag"])[0] == 2
    assert run(capsys, ["factor", "--ell", "2", "--p", "13", "--n", "1"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_refusal_exit_3(capsys):
    assert run(capsys, ["graph", "--ell", "3", "--p", "3"])[0] == 3
    assert run(capsys, ["graph", "--ell", "2", "--p", "9"])[0] == 3
    assert run(capsys, ["graph", "--ell", "2", "--p", "5", "--n", "9",
                        "--cap", "1000"])[0] == 3
    # boundary inputs run in a subprocess so that a hang fails the test
    env = dict(os.environ,
               PYTHONPATH=str(Path(chebdyn.__file__).resolve().parents[1]))
    # each refusal names the rule or the limit it applies
    for argv, reason in (
            (["density", "--ell", "2", "--p", "3", "--n", "0"], "n = 0 must"),
            (["density", "--ell", "2", "--p", "3", "--n", "-1"], "n = -1 must"),
            (["density", "--ell", "3", "--p", "2"], "odd prime"),
            (["graph", "--ell", "3", "--p", "5", "--n", "300"],
             f"5^300 exceeds the enumeration cap {DEFAULT_CAP}"),
            (["verify", "--ell", "3", "--p", "5", "--n", "300"],
             f"5^300 exceeds the enumeration cap {DEFAULT_CAP}"),
            (["factor", "--ell", "3", "--p", "5", "--n", "20000", "--t", "2"],
             f"degree 3^20000 exceeds cap {DEGREE_CAP}"),
            (["graph", "--ell", "4", "--p", "5"], "ell = 4 is not prime")):
        proc = subprocess.run([sys.executable, "-m", "chebdyn.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=10)
        assert proc.returncode == 3, (argv, proc.stderr)
        assert reason in proc.stderr, (argv, proc.stderr)


def test_refusal_one_past_the_cap_allocates_nothing(capsys):
    # q = cap + 1 with an explicit cap, and the first prime field past the
    # default cap (and the order-table cap, which matches it): exit 3
    # before any per-vertex array exists
    p = DEFAULT_CAP + 1
    while not is_prime(p):
        p += 1
    tracemalloc.start()
    try:
        assert run(capsys, ["graph", "--ell", "2", "--p", "7", "--n", "2",
                            "--cap", "48"])[0] == 3
        for cmd in ("graph", "verify"):
            assert run(capsys, [cmd, "--ell", "3", "--p", str(p)])[0] == 3
        # a larger --cap still meets the order-table cap before any work
        assert run(capsys, ["graph", "--ell", "3", "--p", str(p),
                            "--cap", str(4 * DEFAULT_CAP)])[0] == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert run(capsys, ["graph", "--ell", "2", "--p", "7", "--n", "2",
                        "--cap", "49"])[0] == 0


def test_large_p_factor_never_exits_1():
    # p^2 is far past 2^53 here: the factoring kernel must either agree
    # with the closed form (exit 0) or refuse (exit 3), never mismatch
    env = dict(os.environ,
               PYTHONPATH=str(Path(chebdyn.__file__).resolve().parents[1]))
    argv = ["factor", "--ell", "3", "--p", "1000000000039", "--n", "2",
            "--t", "5"]
    proc = subprocess.run([sys.executable, "-m", "chebdyn.cli", *argv],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode in (0, 3), (proc.returncode, proc.stdout,
                                       proc.stderr)


def test_determinism(capsys):
    argv = ["graph", "--ell", "2", "--p", "3", "--n", "4", "--format", "json"]
    out1 = run(capsys, argv)
    out2 = run(capsys, argv)
    assert out1 == out2


def test_public_names_resolve():
    assert len(chebdyn.__all__) == len(set(chebdyn.__all__))
    for name in chebdyn.__all__:
        assert hasattr(chebdyn, name), name
