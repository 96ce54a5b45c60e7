import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import chebdyn
from chebdyn import cli, ffield
from chebdyn.cli import main
from chebdyn.factor import DEGREE_CAP, WITNESS_BOUND
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


@pytest.mark.parametrize("argv", (["density", "--ell", "3", "--p", "5",
                                   "--out"],
                                  ["graph", "--ell", "3", "--p", "5", "--dot"]),
                         ids=("out", "dot"))
def test_unwritable_output_path_exit_2(argv, tmp_path, capsys, monkeypatch):
    # a usage error, named on one stderr line; the DOT path is checked
    # before the graph is built
    path = tmp_path / "missing" / "x.txt"

    def no_build(*args, **kwargs):
        raise AssertionError("graph built for an unwritable DOT path")

    monkeypatch.setattr(cli, "build_graph", no_build)
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(path) in err, err


@pytest.mark.parametrize("before", (None, b"digraph old {}\n"),
                         ids=("absent", "existing"))
def test_refused_graph_leaves_the_dot_file(before, tmp_path, capsys):
    # the DOT file is opened only once the graph is built: a refusal
    # leaves an existing file byte-identical and creates none
    path = tmp_path / "y.gv"
    if before is not None:
        path.write_bytes(before)
    code, out, err = run(capsys, ["graph", "--ell", "65537", "--p", "3",
                                  "--n", "2", "--dot", str(path)])
    assert code == 3 and out == ""
    assert "degree 65537 exceeds the coefficient cap 65536" in err, err
    if before is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == before


@pytest.mark.parametrize("where", ("missing", "directory"))
def test_unwritable_out_refused_before_any_work(where, tmp_path, capsys,
                                                 monkeypatch):
    # --out is checked before the subcommand runs: today's one stderr
    # line, exit 2, and no verification made
    path = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path

    def no_verify(*args, **kwargs):
        raise AssertionError("verified for an unwritable --out path")

    monkeypatch.setattr(cli, "verify_instance", no_verify)
    code, out, err = run(capsys, ["verify", "--ell", "3", "--p", "20011",
                                  "--n", "1", "--out", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1, err
    assert err.startswith("cannot write output: ") and str(path) in err, err


@pytest.mark.parametrize("argv", (
    ["verify", "--ell", "3", "--p", "3"],
    ["factor", "--ell", "2", "--p", "3", "--n", "13", "--t", "0"],
    ["graph", "--ell", "3", "--p", "53", "--cap", "50"]),
    ids=("p_is_ell", "degree_cap", "enumeration_cap"))
def test_refusal_leaves_no_out_file(argv, tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert code == 3 and out == "" and err.startswith("refused: "), err
    assert not path.exists()


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


def test_decompose_without_witness_names_the_bound(capsys):
    # T_3(0) = 0, so t = 0 has preperiod 0 mod every prime, never the
    # maximal one: no prime up to the search bound certifies the tower,
    # and the CLI has no witness option, so the refusal names both
    code, out, err = run(capsys, ["decompose", "--ell", "3", "--t", "0",
                                  "--p", "7"])
    assert code == 3 and out == ""
    assert err.startswith("refused: ") and "t = 0" in err, err
    assert f"WITNESS_BOUND = {WITNESS_BOUND}" in err, err
    assert "decompose_prime(..., witness=w)" in err, err


def test_unbounded_sizes_refused_before_the_work(capsys):
    # p^n is never formed past the factoring bound, and the level loop
    # never starts when its degrees could not be printed: both were hangs
    limit = sys.get_int_max_str_digits()
    for argv, reason in (
            (["predict", "--ell", "3", "--p", "13", "--n", "100000000"],
             "13^100000000 + 1 exceeds the 2^96 factorization bound"),
            (["decompose", "--ell", "2", "--t", "105", "--p", "13",
              "--max-level", "1000000"],
             f"2^1000000 of level 1000000 has more than {limit} digits"),
            # the pattern check's degree, not after the whole graph (3.5 s)
            (["verify", "--ell", "4099", "--p", "145007", "--n", "1"],
             "degree 4099^1 exceeds cap 4096"),
            # the successor ladder needs no coefficients; the cap bounds
            # its length, at most 2 log2(ell) column products a block
            (["graph", "--ell", "65537", "--p", "3", "--n", "10"],
             "degree 65537 exceeds the coefficient cap 65536")):
        start = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 3 and reason in err, (argv, err)


def test_composite_p_past_psi13_refused_before_the_work(capsys):
    # PSI_13 = 1287836182261 * 2575672364521 passes Miller-Rabin on all 13
    # bases; the Pocklington proof rejects it in the domain check
    p = str(ffield.PSI_13)
    for argv in (["predict", "--ell", "3", "--p", p, "--n", "1"],
                 ["density", "--ell", "3", "--p", p, "--n", "1"],
                 ["decompose", "--ell", "2", "--t", "105", "--p", p,
                  "--max-level", "2"],
                 ["factor", "--ell", "3", "--p", p, "--n", "1", "--t", "5"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 3 and out == "", (argv, code)
        assert f"p = {p} must be an odd prime" in err, (argv, err)


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
            (["predict", "--ell", "3", "--p", "5", "--n", "20000"],
             "5^20000 + 1 exceeds the 2^96 factorization bound"),
            (["graph", "--ell", "4", "--p", "5"], "ell = 4 is not prime"),
            (["density", "--ell", "3", "--p", "53", "--n", "200000"],
             f"2 * 53^200000 has more than {sys.get_int_max_str_digits()}"
             f" digits")):
        proc = subprocess.run([sys.executable, "-m", "chebdyn.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=10)
        assert proc.returncode == 3, (argv, proc.stderr)
        assert reason in proc.stderr, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


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


def test_import_adds_no_module_outside_stdlib_and_numpy():
    # pyproject names numpy as the one dependency; a test-only import
    # (sympy, hypothesis) leaking into the package would also load on
    # every CLI start.  sys.modules is compared before and after, since
    # site hooks may already have loaded modules of their own
    env = dict(os.environ,
               PYTHONPATH=str(Path(chebdyn.__file__).resolve().parents[1]))
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import chebdyn, chebdyn.cli\n"
              "print(*sorted({name.split('.')[0]\n"
              "               for name in set(sys.modules) - before}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert added - set(sys.stdlib_module_names) - {"numpy"} == {"chebdyn"}


def test_determinism(capsys):
    argv = ["graph", "--ell", "2", "--p", "3", "--n", "4", "--format", "json"]
    out1 = run(capsys, argv)
    out2 = run(capsys, argv)
    assert out1 == out2


def test_one_parser_serves_many_calls(tmp_path, capsys):
    # main parses every call with the same parser: no option of one call
    # may leak into the next
    from chebdyn.cli import build_parser
    assert build_parser() is build_parser()
    golden = (Path(__file__).parent / "golden" /
              "graph_3_53_1.table.out").read_text()
    argv = ["graph", "--ell", "3", "--p", "53"]
    dot_path = tmp_path / "g.gv"
    assert run(capsys, argv + ["--dot", str(dot_path)])[0] == 0
    dot_path.unlink()
    assert run(capsys, argv)[:2] == (0, golden)
    assert not dot_path.exists()
    assert run(capsys, ["graph", "--ell", "3", "--badflag"])[0] == 2
    assert run(capsys, argv)[:2] == (0, golden)
    out_path = tmp_path / "summary.txt"
    assert run(capsys, argv + ["--out", str(out_path)])[:2] == (0, "")
    assert out_path.read_text() == golden
    out_path.unlink()
    assert run(capsys, argv)[:2] == (0, golden)
    assert not out_path.exists()


def test_public_names_resolve():
    assert len(chebdyn.__all__) == len(set(chebdyn.__all__))
    for name in chebdyn.__all__:
        assert hasattr(chebdyn, name), name
