"""The benchmark's tracer (perfbench/tracer.py) wraps the methods named in
its METHODS table and the public functions of each layer module, and
skips, without a word, an entry whose attribute is gone; its runner
(perfbench/run.py) reads a span the program no longer has as 0.  So a
refactor could drop a span, and the per-layer metric of BENCHMARK.json
that reads it, unseen.  The tables are read from the files' syntax trees,
not imported, and every span must resolve on the package as the tracer
resolves it."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"
RUNNER = BENCH / "run.py"
BENCHMARK = BENCH.parent / "BENCHMARK.json"

# Per-layer metrics of spans the package no longer has, which read 0 on
# every workload; retiring them is a change to the benchmark (ROADMAP,
# open item 2).  The test fails when one of them resolves again.
UNRESOLVED = {"ffield.mult_order.s", "polys.np_gcd.s", "polys.np_gcd.calls",
              "polys.np_gcd.max_degree"}
# the fields run.py reads off every span
SPAN_FIELDS = {"s", "self_s", "calls"}


def module_constant(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


def tracer_methods() -> tuple[tuple[str, str, str, str], ...]:
    return module_constant(TRACER, "METHODS")


METHODS = tracer_methods()
LAYERS = module_constant(TRACER, "LAYERS")


@pytest.mark.parametrize("layer,cls_name,attr,span", METHODS,
                         ids=[span for *_, span in METHODS])
def test_every_traced_method_resolves(layer, cls_name, attr, span):
    cls = getattr(importlib.import_module(f"chebdyn.{layer}"), cls_name, None)
    assert cls is not None, f"{span}: chebdyn.{layer} has no {cls_name}"
    assert callable(vars(cls).get(attr)), (
        f"{span}: {cls_name} defines no method {attr}")


def derived_names() -> set[str]:
    """The metric names run.py sets besides the span fields, in
    _layer_values and in per_layer, which adds trace.overhead_s: the
    constant keys of their tables, the constant names they store, and
    the f"{layer}..." names they store for every layer."""
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_layer_values", "per_layer")]
    assert len(funcs) == 2, [f.name for f in funcs]
    names = set()
    for node in (n for func in funcs for n in ast.walk(func)):
        if isinstance(node, ast.Dict):
            names |= {key.value for key in node.keys
                      if isinstance(key, ast.Constant)}
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx,
                                                            ast.Store):
            if isinstance(node.slice, ast.Constant):
                names.add(node.slice.value)
            elif isinstance(node.slice, ast.JoinedStr):
                head, tail = node.slice.values
                assert ast.unparse(head.value) == "layer", ast.unparse(node)
                names |= {layer + tail.value for layer in LAYERS}
    return names


def package_spans() -> set[str]:
    """Every span the tracer installs: the public functions each layer
    module defines, and the METHODS spans that resolve."""
    spans = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"chebdyn.{layer}")
        spans |= {f"{layer}.{attr}" for attr, obj in vars(mod).items()
                  if not attr.startswith("_") and callable(obj)
                  and not inspect.isclass(obj)
                  and getattr(obj, "__module__", None) == mod.__name__}
    for layer, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(f"chebdyn.{layer}"), cls_name,
                      None)
        if cls is not None and attr in vars(cls):
            spans.add(span)
    return spans


def test_every_per_layer_metric_names_a_span():
    # "<span>.<field>" for a span the tracer installs, or a name run.py
    # derives: of a layer or of the run as a whole ("polys.layer_calls",
    # "trace.op_s"), or of a span the tracer installs
    # ("graph.build_graph.rss_delta_mb")
    metrics = [m["name"] for m in
               json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    spans, derived = package_spans(), derived_names()

    def resolves(name: str) -> bool:
        span, field = name.rsplit(".", 1)
        if name in derived and "." not in span:
            return True
        return span in spans and (field in SPAN_FIELDS or name in derived)

    unresolved = {name for name in metrics if not resolves(name)}
    assert unresolved == UNRESOLVED, (
        f"names no span: {sorted(unresolved - UNRESOLVED)}; "
        f"resolves again: {sorted(UNRESOLVED - unresolved)}")
