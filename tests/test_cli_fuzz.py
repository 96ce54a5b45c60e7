"""Exit codes of the command line over drawn arguments.

Every subcommand exits 0 (answered), 2 (usage error) or 3 (refused): 1
means that the two routes disagree, which inside the domain (ell prime,
p an odd prime other than ell, n >= 1) is a theorem-level failure, and
outside it every input is refused.  Nothing may escape main as an
exception or print a traceback.  The draws are small and derandomized,
so the module runs the same cases in a few seconds every time.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import isprime

import chebdyn
from chebdyn.cli import main

# small enough that a verify draw (its factor sweep at level n over every
# t in [0, p)) stays within tens of milliseconds
PRIMES = (3, 5, 7, 11, 13)
NOT_ODD_PRIMES = (-3, 0, 1, 2, 4, 9, 15)
# argparse refuses these as integers: exit 2
NOT_INTS = ("x", "1.5", "")


@st.composite
def argvs(draw):
    """(argv, in_domain): one subcommand with drawn arguments."""
    command = draw(st.sampled_from(
        ("graph", "verify", "factor", "predict", "decompose", "density")))
    if draw(st.booleans(), label="inside"):
        ell = draw(st.sampled_from((2, 3, 5, 7)), label="ell")
        p = draw(st.sampled_from([q for q in PRIMES if q != ell]), label="p")
        n = draw(st.integers(1, 3), label="n")
    else:
        ell = draw(st.integers(-2, 8), label="ell")
        p = draw(st.sampled_from(PRIMES + NOT_ODD_PRIMES + (ell,)),
                 label="p")
        n = draw(st.integers(-1, 3), label="n")
    t = draw(st.integers(-20, 20), label="t")
    argv = [command, "--ell", str(ell), "--p", str(p)]
    if command != "decompose":
        argv += ["--n", str(n)]
    if command in ("factor", "decompose"):
        argv += ["--t", str(t)]
    if command == "decompose":
        argv += ["--max-level", str(draw(st.integers(-1, 6),
                                         label="max_level"))]
    if command in ("graph", "verify") and draw(st.booleans(), label="cap?"):
        argv += ["--cap", str(draw(st.integers(-1, 3000), label="cap"))]
    argv += ["--format", draw(st.sampled_from(("table", "json")))]
    in_domain = (isprime(ell) and p != 2 and isprime(p) and p != ell
                 and (n >= 1 or command == "decompose"))
    if draw(st.integers(0, 9), label="spoil") == 0:
        # one integer argument replaced by a non-integer
        k = draw(st.sampled_from(
            [i + 1 for i, a in enumerate(argv[:-2]) if a.startswith("--")]))
        argv[k] = draw(st.sampled_from(NOT_INTS))
        in_domain = None
    return argv, in_domain


def run(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=250, deadline=timedelta(seconds=10),
          derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=argvs())
def test_exit_codes_are_0_2_or_3(drawn):
    argv, in_domain = drawn
    code, err = run(argv)
    assert "Traceback" not in err, (argv, err)
    if in_domain is None:
        assert code == 2, (argv, code, err)
    elif in_domain:
        assert code in (0, 3), (argv, code, err)
    else:
        assert code == 3 and err.startswith("refused: "), (argv, code, err)


def test_exit_codes_of_the_process():
    # the same contract through the interpreter: a usage error, a refusal
    # and an answer, each without a traceback
    env = dict(os.environ,
               PYTHONPATH=str(Path(chebdyn.__file__).resolve().parents[1]))
    for argv, want in ((["factor", "--ell", "3", "--p", "x", "--t", "1"], 2),
                       (["density", "--ell", "4", "--p", "5"], 3),
                       (["verify", "--ell", "2", "--p", "5", "--n", "2"], 0)):
        proc = subprocess.run([sys.executable, "-m", "chebdyn.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
