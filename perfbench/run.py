"""chebdyn benchmark: run one workload (or all of them) and print every
metric by name and unit; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload factor_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the chebdyn in src/ next to
this directory.  Each workload runs in fresh worker processes (see
worker.py), one operation at a time.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_PROBES + 1 fresh processes (probes run before and after the measuring
one) of the time from spawning the process to its first timed operation:
interpreter start, `import chebdyn` and input generation; nothing of the
program is warmed.  Every end-to-end time is reported at a fixed host speed
(REF_NOMINAL_S below); the raw values are printed on `raw` lines.

--trace 1 reports the per-layer metrics: one untraced and two traced
processes run the same fixed number of rounds.  The traced counts must
repeat exactly between the two traced processes, and trace.overhead_s is
traced minus untraced operation time.

See NOTES.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

from tracer import LAYERS
from workloads import WORKLOADS, factor_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# The host's speed drifts by up to 1.6x within seconds to minutes
# (NOTES.md, "Host noise"), so every end-to-end time is reported at the
# speed where worker.reference_s() takes this long, about the host's fast
# state; raw times are printed too.
REF_NOMINAL_S = 0.0012
# probes on each side of an op whose median gives the host speed during
# it: local enough to follow the drift, and one odd probe cannot move it
REF_WINDOW = 3
DEADLINE_S = 170.0
# one BLAS thread on every run: default OpenBLAS ran the verify sweep at
# ~190% CPU on two cores, so the thread count would otherwise decide speed
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> unit.  "<span>.s" is busy time, "<span>.self_s" busy
# time minus traced children, "<span>.calls" the call count; the rest are
# read by _layer_values below.
PER_LAYER = {
    "ffield.alpha_order_tables.s": "s",
    "ffield.alpha_order_tables.builds": "count",
    "ffield.table_mb": "MB",
    "ffield.frobenius_indices.s": "s",
    "ffield.make_field.s": "s",
    "ffield.make_field.misses": "count",
    "ffield.factor_int.s": "s",
    "ffield.factor_int.calls": "count",
    "ffield.is_prime.s": "s",
    "ffield.is_prime.calls": "count",
    "ffield.mult_order.s": "s",
    "cheb.iterate_coeffs.s": "s",
    "cheb.iterate_coeffs.misses": "count",
    "cheb.cheb_coeffs.s": "s",
    "polys.np_gcd.s": "s",
    "polys.np_gcd.calls": "count",
    "polys.np_gcd.max_degree": "count",
    "polys.mulmod.s": "s",
    "polys.mulmod.calls": "count",
    "polys.compose.s": "s",
    "polys.compose.calls": "count",
    "polys.powmod.self_s": "s",
    "polys.squarefree_parts.self_s": "s",
    "polys.distinct_degree_counts.self_s": "s",
    "polys.gcd.s": "s",
    "polys.gcd.calls": "count",
    "polys.kernel_init.s": "s",
    "graph.build_graph.self_s": "s",
    "graph.build_graph.rss_delta_mb": "MB",
    "graph.summarize.s": "s",
    "graph.verify_structure.s": "s",
    "predict.s": "s",
    "factor.classify_t.self_s": "s",
    "factor.factor_pattern_actual.self_s": "s",
    "factor.mismatches": "count",
    "factor.errors": "count",
    "verify.verify_instance.self_s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.layer_self_s": "s" for layer in LAYERS},
    "polys.layer_calls": "count",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a checked result."""


class Worker:
    """One worker process; setup_s runs from spawn to its READY line."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ, **WORKER_ENV)
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - monotonic(), 0.0),
                                     self.proc.kill)
        self.timer.start()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.proc.wait()
            raise BenchError(f"worker {self.proc.args[2:]} failed to start "
                             f"(exit {self.proc.returncode})")
        return perf_counter() - self.t0

    def result(self) -> dict:
        out = self.proc.stdout.read()
        if self.proc.wait() != 0 or not out.strip():
            raise BenchError(f"worker {self.proc.args[2:]} exited "
                             f"{self.proc.returncode} without a result")
        return json.loads(out.splitlines()[-1])


def _run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    with Worker(args, deadline) as w:
        setup = w.ready()
        return setup, w.result()


def _setup_probe(args: list[str], deadline: float) -> tuple[float, float]:
    """(setup seconds, host reference seconds) of one fresh process."""
    with Worker([*args, "--setup-only"], deadline) as w:
        setup = w.ready()
        line = w.proc.stdout.readline().split()
        if w.proc.wait() != 0 or line[:1] != ["REF"]:
            raise BenchError(f"setup probe {args} exited "
                             f"{w.proc.returncode}")
        return setup, float(line[1])


def _failed(res: dict) -> int:
    return res["mismatches"] + res["errors"]


def _tail_ms(latencies: list[float], pct: int | None) -> float:
    if pct is None:
        return max(latencies) * 1e3
    return statistics.quantiles(latencies, n=100,
                                method="inclusive")[pct - 1] * 1e3


def end_to_end(workload, setups: list[tuple[float, float]], res: dict,
               ref_s: float = REF_NOMINAL_S) -> dict:
    """The end-to-end metrics, every time taken at the host speed where
    the reference loop runs in ref_s: each op's time is multiplied by ref_s
    over the median of the REF_WINDOW probes before it and the REF_WINDOW
    after it, and each setup time by ref_s over its own process's first
    probe.  ref_s = REF_NOMINAL_S gives the reported values; ref_s = None
    gives the raw ones."""
    refs = res["refs"]
    lat = [x * ref_s / statistics.median(
               refs[max(i + 1 - REF_WINDOW, 0):i + 1 + REF_WINDOW])
           if ref_s else x for x, i in zip(res["latencies"], res["op_ref"])]
    ok = len(lat) - _failed(res)
    return {"setup_s": statistics.median(
                s * ref_s / ref if ref_s else s for s, ref in setups),
            "ops_per_s": ok / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": _tail_ms(lat, workload.tail_pct),
            "peak_rss_mb": res["peak_rss_kb"] / 1024}


def _layer_values(res: dict, is_factor: bool) -> dict:
    """Every per-layer value one traced run gives; a span the program no
    longer has reads 0."""
    t = res["trace"]
    spans = t["spans"]
    vals = {f"{name}.{field}": value for name, st in spans.items()
            for field, value in st.items()}
    vals.update({
        "ffield.alpha_order_tables.builds":
            vals.get("ffield.alpha_order_tables.build.calls", 0),
        "ffield.table_mb": t["table_mb"],
        "ffield.make_field.misses": t["misses"].get("ffield.make_field", 0),
        "cheb.iterate_coeffs.misses": t["misses"].get("cheb.iterate_coeffs",
                                                      0),
        "polys.np_gcd.max_degree": max(t["np_gcd_max_degree"], 0),
        "graph.build_graph.rss_delta_mb": t["build_graph_rss_mb"],
        "predict.s": t["layer_s"]["predict"],
        "factor.mismatches": res["mismatches"] if is_factor else 0,
        "factor.errors": res["errors"] if is_factor else 0,
        "polys.layer_calls": sum(st["calls"] for name, st in spans.items()
                                 if name.startswith("polys.")),
        "trace.op_s": sum(res["latencies"]),
    })
    for layer in LAYERS:
        vals[f"{layer}.layer_self_s"] = sum(
            st["self_s"] for name, st in spans.items()
            if name.split(".", 1)[0] == layer)
    return {name: vals.get(name, 0) for name in PER_LAYER}


def per_layer(workload, untraced: dict, traced: list[dict]) -> dict:
    """Per-layer metrics: counts from the first traced run, times averaged
    over both, overhead against the untraced run."""
    is_factor = workload.op is factor_op
    runs = [_layer_values(res, is_factor) for res in traced]
    out = {name: runs[0][name] if unit == "count"
           else statistics.fmean(r[name] for r in runs)
           for name, unit in PER_LAYER.items()}
    out["trace.overhead_s"] = out["trace.op_s"] - sum(untraced["latencies"])
    return out


def _counts(res: dict) -> dict:
    """What must agree exactly between two traced runs of one seed."""
    t = res["trace"]
    return {"calls": {n: st["calls"] for n, st in t["spans"].items()},
            "misses": t["misses"], "max_degree": t["np_gcd_max_degree"],
            "mismatches": res["mismatches"], "errors": res["errors"]}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chebdyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> tuple[dict, int, int, bool, list[str]]:
    """(metrics, attempted, failed, correct, report lines) for one
    workload."""
    workload = WORKLOADS[name]
    base = ["--workload", name, "--seed", str(seed)]
    lines = []
    repeated = True
    if trace:
        rounds = ["--rounds", str(workload.fixed_rounds)]
        _, untraced = _run_worker(base + rounds, deadline)
        traced = [_run_worker(base + rounds + ["--trace"], deadline)[1]
                  for _ in range(2)]
        repeated = _counts(traced[0]) == _counts(traced[1])
        if not repeated:
            lines.append(f"{name} INCORRECT: traced counts differ between "
                         "two runs of one seed")
        res = traced[0]
        metrics = per_layer(workload, untraced, traced)
        units = PER_LAYER
        layer_total = metrics["trace.op_s"]
        shares = ", ".join(
            f"{layer} {metrics[f'{layer}.layer_self_s'] / layer_total:.1%}"
            for layer in LAYERS)
        lines.append(f"{name} layer self-time share of traced op time: "
                     f"{shares}")
    else:
        # probes before and after the measuring worker, so that setup_s
        # samples the host at two moments ~seconds apart
        setups = [_setup_probe(base, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        setup, res = _run_worker(base + ["--seconds", str(seconds)],
                                 deadline)
        setups.append((setup, res["refs"][0]))
        setups += [_setup_probe(base, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = end_to_end(workload, setups, res)
        raw = end_to_end(workload, setups, res, ref_s=None)
        units = END_TO_END
        lat = res["latencies"]
        tail = f"p{workload.tail_pct}" if workload.tail_pct else "max"
        beyond = sum(x * 1e3 > raw["op_tail_ms"] for x in lat)
        lines.append(f"{name} op_tail_ms is {tail} of {len(lat)} ops, "
                     f"{beyond} beyond it")
        lines.append(f"{name} host reference loop "
                     f"{statistics.median(res['refs']) * 1e3:.4f} ms "
                     f"(median of {len(res['refs'])}); metrics below are at "
                     f"{REF_NOMINAL_S * 1e3} ms")
        lines += [f"{name} raw {k} {v!r} {units[k]}" for k, v in raw.items()]
        if workload.counts_vertices:
            lines.append(f"{name} vertices_per_s "
                         f"{res['vertices'] / sum(lat):.1f} vertices/s")
    attempted, failed = len(res["latencies"]), _failed(res)
    lines.append(f"{name} failed_frac {failed / attempted:.4f} ratio "
                 f"({failed} failed of {attempted} attempted: "
                 f"{res['mismatches']} wrong, {res['errors']} raised)")
    if res["first_error"]:
        lines.append(f"{name} first error: {res['first_error']}")
    lines += [f"{name} {k} {v!r} {units[k]}" for k, v in metrics.items()]
    env = dict(res["env"], commit=_commit(), source=_source_digest(),
               nproc=os.cpu_count(), seed=seed, workload=name,
               worker_env=WORKER_ENV)
    lines.insert(0, f"{name} env {json.dumps(env, sort_keys=True)}")
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            attempted, failed, repeated, lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "chebdyn" / "__init__.py").is_file():
        print(f"error: no chebdyn sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            m, a, f, c, lines = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), deadline)
            correct = correct and c
            print("\n".join(lines), flush=True)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
