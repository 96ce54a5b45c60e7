"""One benchmark process: import chebdyn from the checkout's src/, make the
workload's inputs, print READY, then run operations one at a time (a
closed loop with a single client) and print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --rounds R [--trace]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

With --seconds it runs whole rounds until S seconds of operations have
passed and at least the workload's fixed_rounds are done; with --rounds it
runs exactly R rounds, so the work is fixed.  peak_rss_kb is read after
fixed_rounds rounds (or at the end of a shorter run).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# seconds between host-speed probes, taken between ops and never timed;
# longer ops get a probe on each side
REF_EVERY_S = 0.5


def import_chebdyn() -> SimpleNamespace:
    """The layer modules of the chebdyn under ROOT/src, nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chebdyn
    if Path(chebdyn.__file__).resolve().parent != src / "chebdyn":
        raise ImportError(f"chebdyn imported from {chebdyn.__file__}, "
                          f"not from {src}")
    from chebdyn import cli, factor, ffield, graph, predict
    return SimpleNamespace(cli=cli, factor=factor, ffield=ffield,
                           graph=graph, predict=predict)


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python loop: the host-speed
    probe that run.py divides timings by.  It touches no chebdyn code."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(workload, lib, rounds, seconds: float | None, max_rounds: int | None,
        first: list) -> dict:
    latencies, units = [], 0
    mismatches, errors, first_error = 0, 0, None
    # op_ref[i] indexes the last probe before op i; a probe follows the
    # last op, so refs[op_ref[i] + 1] is the first probe after op i
    refs, op_ref = [reference_s()], []
    last_ref = started = perf_counter()
    rnd, done, rss_kb = first, 0, None
    while True:
        for inp in rnd:
            if perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = perf_counter()
            op_ref.append(len(refs) - 1)
            t0 = perf_counter()
            try:
                ok = workload.op(lib, *inp)
            except Exception:  # a refusal or a crash: counted, never fatal
                ok = None
                errors += 1
                first_error = first_error or (
                    f"{inp}: {traceback.format_exc(limit=3)}")
            latencies.append(perf_counter() - t0)
            if ok is False:
                mismatches += 1
            if workload.counts_vertices:
                units += inp[1] ** inp[2]
        done += 1
        if done == workload.fixed_rounds:
            rss_kb = max_rss_kb()
        if max_rounds is not None:
            if done >= max_rounds:
                break
        elif (perf_counter() - started >= seconds
              and done >= workload.fixed_rounds):
            break
        rnd = next(rounds)
    refs.append(reference_s())
    return {"latencies": latencies, "rounds": done, "mismatches": mismatches,
            "errors": errors, "first_error": first_error, "vertices": units,
            "refs": refs, "op_ref": op_ref,
            "peak_rss_kb": rss_kb or max_rss_kb()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    lib = import_chebdyn()
    rounds = workload.rounds(random.Random(args.seed))
    first = next(rounds)
    print("READY", flush=True)
    if args.setup_only:
        print(f"REF {reference_s()!r}", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = run(workload, lib, rounds, args.seconds, args.rounds, first)
    if tracer is not None:
        result["trace"] = tracer.report()
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
