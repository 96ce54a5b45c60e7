"""Contract tests at the edge of the input domain.

The structure theory covers T_ell with ell prime acting on F_{p^n} with p
an odd prime other than ell and n >= 1.  Every public entry point taking
(ell, p, n) must refuse anything else with a ValueError before any work;
inside the domain it returns, or refuses with a ValueError naming one of
its own limits.  Nothing may hang or raise another exception, so each
call runs under a time budget.  Property-based, after MacIver et al.
2019, "Hypothesis: a new approach to property-based testing", JOSS 4(43).
"""

import signal
from contextlib import contextmanager
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import isprime

from chebdyn import (classify_t, critical_factorization, disc_factored,
                     factor_pattern_actual, factor_pattern_predicted,
                     make_field, nu_2n, orbit_stats_order, predict_summary,
                     ramified_candidates, structure_params)
from chebdyn.ffield import nu, strip_ell

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
    # each of these looped forever (or divided by zero) without the guard
    with budget(REFUSAL_BUDGET_S):
        with pytest.raises(ValueError, match="base >= 2"):
            nu(12, base)
        with pytest.raises(ValueError, match="base >= 2"):
            strip_ell(np.array([12, 5]), base)
