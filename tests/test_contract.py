"""Contract tests at the edge of the input domain.

The structure theory covers T_ell with ell prime acting on F_{p^n} with p
an odd prime other than ell and n >= 1.  Every public entry point taking
(ell, p, n) must refuse anything else with a ValueError before any work;
inside the domain it returns, or refuses with a ValueError naming one of
its own limits.  Nothing may hang or raise another exception, so each
call runs under a time budget.  Property-based, after MacIver et al.
2019, "Hypothesis: a new approach to property-based testing", JOSS 4(43).
"""

import io
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime, prevprime

from chebdyn import (classify_t, critical_factorization, disc_factored,
                     factor_pattern_actual, factor_pattern_predicted,
                     factor_patterns_actual, make_field, nu_2n,
                     orbit_stats_order, polys, predict_summary,
                     ramified_candidates, structure_params)
from chebdyn.cli import MAX_LEVEL, main
from chebdyn.ffield import nu
from chebdyn.polys import FLOAT_EXACT

# A refusal comes before any work; accepted calls get room for the work
# itself (the slowest draw below, the closed-form summary of G(2, 3, 54),
# takes about 2 s).
REFUSAL_BUDGET_S = 1.0
WORK_BUDGET_S = 30.0

SMALL_PRIMES = (3, 5, 7, 11, 13, 53)
NOT_ODD_PRIMES = (-3, 0, 1, 2, 4, 9, 15, 21, 25)


class OverBudget(Exception):
    pass


@contextmanager
def budget(seconds: float):
    """Interrupt the enclosed code with OverBudget after `seconds`."""
    def expire(signum, frame):
        raise OverBudget(f"call ran past {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


REFUSED = object()


def call(in_domain: bool, fn, *args):
    """fn(*args) under the budget: its value, or REFUSED for a ValueError.
    Outside the domain the call must refuse, within the refusal budget."""
    with budget(WORK_BUDGET_S if in_domain else REFUSAL_BUDGET_S):
        try:
            out = fn(*args)
        except ValueError:
            return REFUSED
    assert in_domain, (fn.__name__, args, "accepted", out)
    return out


def brute_orbit(ell: int, p: int, x: int) -> tuple[int, int]:
    """(preperiod, period) of x under T_ell mod p by iterating the map,
    T_ell evaluated by the three-term recurrence T_k = x T_{k-1} - T_{k-2}."""
    def cheb(y):
        prev, cur = 2 % p, y
        for _ in range(ell - 1):
            prev, cur = cur, (y * cur - prev) % p
        return cur
    seen = {}
    while x not in seen:
        seen[x] = len(seen)
        x = cheb(x)
    return seen[x], len(seen) - seen[x]


@st.composite
def instances(draw):
    ell = draw(st.integers(-2, 12), label="ell")
    p = draw(st.sampled_from(SMALL_PRIMES + NOT_ODD_PRIMES + (ell,)),
             label="p")
    n = draw(st.integers(-1, 300), label="n")
    t = draw(st.integers(-60, 60), label="t")
    return ell, p, n, t


@settings(max_examples=300, deadline=timedelta(seconds=60),
          derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inst=instances(), i=st.integers(0, 10 ** 6))
def test_every_entry_point_refuses_outside_the_domain(inst, i):
    ell, p, n, t = inst
    ell_ok = isprime(ell)
    p_ok = ell_ok and p != 2 and isprime(p) and p != ell
    n_ok = n >= 1

    for fn in (structure_params, predict_summary, nu_2n):
        call(p_ok and n_ok, fn, ell, p, n)
    call(p_ok, classify_t, ell, p, t)
    call(p_ok and n_ok, factor_pattern_predicted, ell, p, n, t)
    call(p_ok and n_ok, factor_pattern_actual, ell, p, n, t)
    call(p_ok and n_ok, factor_patterns_actual, ell, p, n, [t])
    call(p_ok, critical_factorization, ell, p)
    call(ell_ok and n_ok, disc_factored, ell, n, t)
    call(ell_ok, ramified_candidates, ell, t)

    field_ok = p != 2 and isprime(p)
    if not field_ok:
        assert call(False, make_field, p, 1) is REFUSED
        return
    x = i % p
    got = call(p_ok, orbit_stats_order, make_field(p, 1).from_int(x), ell)
    if p_ok:
        assert got == brute_orbit(ell, p, x), (ell, p, x)


@pytest.mark.parametrize("base", [-2, -1, 0, 1])
def test_valuation_refuses_a_base_below_2(base):
    # nu looped forever (or divided by zero) without the guard
    with budget(REFUSAL_BUDGET_S):
        with pytest.raises(ValueError, match="base >= 2"):
            nu(12, base)


# (ell, p, n) with T_ell^n of degree 4, 9 and 5
T_OUTSIDE_INSTANCES = ((2, 13, 2), (3, 7, 2), (5, 11, 1))


@pytest.mark.parametrize("ell,p,n", T_OUTSIDE_INSTANCES)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(t=st.integers(-10 ** 40, 10 ** 40))
def test_t_outside_the_residues_is_read_mod_p(ell, p, n, t):
    # T_ell^n(x) - t mod p depends on t mod p alone, on both routes; the
    # examples below are drawn every run, past int64 at 10^30
    for big in (t, -1, -p, p, 3 * p + 2, 10 ** 30):
        with budget(WORK_BUDGET_S):
            assert (factor_pattern_actual(ell, p, n, big)
                    == factor_pattern_actual(ell, p, n, big % p)), big
            assert (factor_pattern_predicted(ell, p, n, big)
                    == factor_pattern_predicted(ell, p, n, big % p)), big


@pytest.mark.parametrize("ell,p,n", T_OUTSIDE_INSTANCES)
def test_cli_factor_reads_t_mod_p(ell, p, n, capsys):
    outs = []
    for t in (-1, p - 1):
        code = main(["factor", "--ell", str(ell), "--p", str(p), "--n",
                     str(n), "--t", str(t), "--format", "json"])
        assert code == 0, t
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_decompose_refuses_levels_past_its_limit(capsys):
    # a report grows as the cube of its level count, so the count is
    # capped: one level past the cap exits 3 at once, naming the limit
    argv = ["decompose", "--ell", "2", "--t", "105", "--p", "13",
            "--max-level"]
    with budget(REFUSAL_BUDGET_S):
        assert main(argv + [str(MAX_LEVEL + 1)]) == 3
    assert (f"--max-level {MAX_LEVEL + 1} exceeds the limit {MAX_LEVEL}"
            in capsys.readouterr().err)
    with budget(WORK_BUDGET_S):
        assert main(argv + [str(MAX_LEVEL)]) == 0
    assert f"level {MAX_LEVEL}:" in capsys.readouterr().out


# (ell, n) with ell^n <= 81: every degree factor_large_p draws, and 7, 49
LARGE_P_ITERATES = tuple((ell, n) for ell in (2, 3, 5, 7)
                         for n in range(1, 7) if ell ** n <= 81)
# a draw takes at most about 0.2 s (degree 81 near the kernel bound)
LARGE_P_BUDGET_S = 5.0


def factor_exit(ell: int, p: int, n: int, t: int) -> int:
    """The exit code of `chebdyn factor`, output discarded, under the
    per-draw budget."""
    with budget(LARGE_P_BUDGET_S), redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        return main(["factor", "--ell", str(ell), "--p", str(p), "--n",
                     str(n), "--t", str(t)])


def kernel_bound(d: int) -> int:
    """The largest p the factoring kernel takes at degree d, 2^52 / (d + 1)
    (polys.limb_width)."""
    return (FLOAT_EXACT // 2) // (d + 1)


@st.composite
def large_p_draws(draw):
    """(ell, p, n, t): p from 2^26 to twice the kernel bound at d = ell^n,
    its octave below the bound (or the octave past it) drawn uniformly,
    and t random or +-2 (not squarefree, the squarefree loop's case)."""
    ell, n = draw(st.sampled_from(LARGE_P_ITERATES), label="(ell, n)")
    bound = kernel_bound(ell ** n)
    k = draw(st.integers(-1, bound.bit_length() - 27), label="octave")
    lo, hi = (bound, 2 * bound) if k < 0 else (bound >> (k + 1), bound >> k)
    p = nextprime(draw(st.integers(lo, hi), label="start"))
    t = draw(st.one_of(st.integers(0, p - 1), st.sampled_from((2, p - 2))),
             label="t")
    return ell, p, n, t


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=large_p_draws())
@example(case=(3, prevprime(kernel_bound(81) + 1), 4, 2))
@example(case=(3, nextprime(kernel_bound(81)), 4, 12345))
def test_factor_past_the_kernel_bound_answers_or_refuses(case):
    # p from where one float64 product of residues no longer fits (2^26.5)
    # to past the kernel bound: the two routes agree (exit 0) up to the
    # bound and the input is refused (exit 3) above it, never exit 1
    ell, p, n, t = case
    want = 3 if p > kernel_bound(ell ** n) else 0
    assert factor_exit(ell, p, n, t) == want, case


def test_the_large_p_gate_sees_a_forced_single_limb(monkeypatch):
    # with every product taken on whole residues, the p ~ 1e8 defect the
    # limb split mended comes back, and the gate sees the mismatch
    p = nextprime(10 ** 8)
    cases = ((5, 2, 12345), (2, 4, 12345), (3, 4, 2))
    assert [factor_exit(ell, p, n, t) for ell, n, t in cases] == [0, 0, 0]
    monkeypatch.setattr(polys, "limb_width", lambda d, p: 0)
    assert [factor_exit(ell, p, n, t) for ell, n, t in cases] == [1, 1, 1]
