"""Workloads of the chebdyn benchmark: seeded inputs, the operation each
input drives, and the check on that operation's output.

The generators use only the standard library, so inputs can be made and
inspected without importing chebdyn; the program receives only the
generated inputs, never the seed.  Every generator yields rounds.  A round
is a list of inputs with a fixed composition, and a run always ends on a
round boundary, so the mix of cheap and expensive operations is the same
whatever the run length or the seed.

An operation returns True when its output passed the check and False when
the check found a wrong answer; an exception (a refusal included) is a
failure too, counted by the worker.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Iterator

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, independent of chebdyn."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi): the first prime at or after a uniform start."""
    while True:
        p = rng.randrange(lo, hi)
        while not is_prime(p):
            p += 1
        if p < hi:
            return p


ODD_PRIMES_31 = [p for p in range(3, 32) if is_prime(p)]
ODD_PRIMES_47 = [p for p in range(3, 48) if is_prime(p)]

# factor_sweep: the criterion-07 domain, ell in {2,3,5}, odd p <= 47,
# ell^n <= 243 and t in [0, p).  One round holds one case per (ell, n),
# with (p, t) drawn uniformly from the domain's pairs, so p is weighted by
# the number of t it has.  The draws are stratified: the k-th round takes
# the pair at (u + k * GOLDEN) mod 1 of the (p, t)-sorted pairs, with u
# drawn from the seed per (ell, n), so any run's draws cover every p in
# proportion.  Independent draws made op_tail_ms (the degree-243 cases)
# and ops_per_s spread 0.13 and 0.10 between seeds, against 0.02 between
# runs of one seed.
GOLDEN = (5 ** 0.5 - 1) / 2
SWEEP_CASES = [(ell, n) for ell, nmax in ((2, 7), (3, 5), (5, 3))
               for n in range(1, nmax + 1)]

# factor_large_p: one prime from the first hundredth of each decade
# 10^4 .. 10^9, and four cases (random t) per (ell, n) with ell^n <= 81 at
# each prime.  A round then takes about 5.6 s on a shared 2-vCPU host, so a
# 20 s run makes three or four rounds (as many order tables near 10^7).
# Peak memory is about 100 bytes per unit of the prime near 10^7, so a
# narrow band keeps it from moving with the seed.
# Two ranges are never drawn (ROADMAP items 2, 3 and 5 own the defects):
#   (2e7, 2^26]: classify_t builds an O(p) order table; one needs 2.8 GB
#     and 11.7 s at 3e7 and about 6 GB near 2^26 (7 GB host).
#   (3e9, inf): np_gcd's int64 products overflow and the call never
#     returns (10^12+39 ran for more than 100 s).
LARGE_P_CASES = [(ell, n) for ell, nmax in ((2, 6), (3, 4), (5, 2))
                 for n in range(1, nmax + 1)]
LARGE_P_DECADES = range(4, 10)
EXCLUDED_P = ((2 * 10 ** 7, 1 << 26), (3 * 10 ** 9, None))


# graph_large: two prime fields near 1.45e5 (odd ell, vector Horner path)
# and the extension G(2, 3, 10) (q = 59049, matrix successor path) per
# round.  Each op takes 0.25-0.5 s at the nominal host speed, so a run
# holds dozens of ops, and two thirds of them are of one kind, so the
# median falls inside one kind's times rather than in the gap between
# two.  Sizes of 0.5-4 M vertices made ops of 4-8 s, four to a run, and
# their median and maximum spread past 0.25 of the median between runs of
# the same code.  Ops near 7e4 spread more than these: the time of one op
# varies by about 15% between repeats, and a small op's fixed costs move
# with the seed.
GRAPH_PRIME_RANGE = (14 * 10 ** 4, 15 * 10 ** 4)
GRAPH_EXTENSION = (2, 3, 10)

# verify_sweep: the acceptance-sweep instances with ell^n <= 256 (odd
# p <= 31, p^n <= 2^12, ell in {2,3,5,7}); without the ell^n cap the
# degree-2401 pattern checks take more than 6 minutes.
VERIFY_INSTANCES = [(ell, p, n) for p in ODD_PRIMES_31
                    for n in range(1, 13) if p ** n <= 1 << 12
                    for ell in (2, 3, 5, 7) if ell != p and ell ** n <= 256]


def factor_sweep_rounds(rng: random.Random) -> Iterator[list[tuple]]:
    pairs = {ell: [(p, t) for p in ODD_PRIMES_47 if p != ell
                   for t in range(p)] for ell, _ in SWEEP_CASES}
    starts = [rng.random() for _ in SWEEP_CASES]
    k = 0
    while True:
        rnd = []
        for (ell, n), u in zip(SWEEP_CASES, starts):
            domain = pairs[ell]
            p, t = domain[int((u + k * GOLDEN) % 1.0 * len(domain))]
            rnd.append((ell, p, n, t))
        rng.shuffle(rnd)
        k += 1
        yield rnd


def factor_large_p_rounds(rng: random.Random) -> Iterator[list[tuple]]:
    while True:
        rnd = []
        for k in LARGE_P_DECADES:
            p = random_prime(rng, 10 ** k, 101 * 10 ** (k - 2))
            rnd.extend((ell, p, n, rng.randrange(p))
                       for ell, n in LARGE_P_CASES * 4)
        yield rnd


def graph_large_rounds(rng: random.Random) -> Iterator[list[tuple]]:
    while True:
        yield [(3, random_prime(rng, *GRAPH_PRIME_RANGE), 1),
               (3, random_prime(rng, *GRAPH_PRIME_RANGE), 1), GRAPH_EXTENSION]


def verify_sweep_rounds(rng: random.Random) -> Iterator[list[tuple]]:
    while True:
        rnd = list(VERIFY_INSTANCES)
        rng.shuffle(rnd)
        yield rnd


def factor_op(lib, ell: int, p: int, n: int, t: int) -> bool:
    """The two routes to the pattern of T_ell^n(x) - t mod p agree."""
    predicted = lib.factor.factor_pattern_predicted(ell, p, n, t)
    actual = lib.factor.factor_pattern_actual(ell, p, n, t)
    return predicted == actual


def graph_op(lib, ell: int, p: int, n: int) -> bool:
    """The enumerated G(ell, p, n) has the predicted summary rows and
    passes the structure check."""
    g = lib.graph.build_graph(ell, lib.ffield.make_field(p, n))
    rows = lib.graph.summarize(g).rows
    structure_ok = lib.graph.verify_structure(g).ok
    return structure_ok and rows == lib.predict.predict_summary(ell, p, n).rows


def verify_op(lib, ell: int, p: int, n: int) -> bool:
    """`chebdyn verify --format json` exits 0 and reports "ok": true."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(["verify", "--ell", str(ell), "--p", str(p),
                             "--n", str(n), "--format", "json"])
    return code == 0 and json.loads(out.getvalue())["ok"] is True


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[random.Random], Iterator[list[tuple]]]
    op: Callable[..., bool]
    # percentile reported as op_tail_ms; None reports the maximum, for
    # workloads with too few ops per run to leave ten beyond p90
    tail_pct: int | None
    # rounds of fixed work: a traced run runs exactly this many, so that
    # the counts of two traced runs with one seed must agree exactly, and
    # a timed run runs at least this many and reads peak_rss_mb after them,
    # so that a faster program, which fits more rounds into the run and
    # keeps more cached tables, does not read as using more memory
    fixed_rounds: int
    # graph_large reports vertices_per_s: q = p^n vertices per op
    counts_vertices: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("factor_sweep", factor_sweep_rounds, factor_op, 99, 12),
    Workload("factor_large_p", factor_large_p_rounds, factor_op, 90, 1),
    Workload("graph_large", graph_large_rounds, graph_op, 90, 8,
             counts_vertices=True),
    Workload("verify_sweep", verify_sweep_rounds, verify_op, 90, 1),
)}
