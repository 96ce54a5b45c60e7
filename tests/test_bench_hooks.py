"""The benchmark's tracer (perfbench/tracer.py) wraps the methods named in
its METHODS table and skips, without a word, an entry whose attribute is
gone, so a refactor could drop a span unseen.  The table is read from the
file's syntax tree, not imported, and every entry must resolve on the
package as the tracer resolves it."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_methods() -> tuple[tuple[str, str, str, str], ...]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no METHODS table in {TRACER}")


METHODS = tracer_methods()


@pytest.mark.parametrize("layer,cls_name,attr,span", METHODS,
                         ids=[span for *_, span in METHODS])
def test_every_traced_method_resolves(layer, cls_name, attr, span):
    cls = getattr(importlib.import_module(f"chebdyn.{layer}"), cls_name, None)
    assert cls is not None, f"{span}: chebdyn.{layer} has no {cls_name}"
    assert callable(vars(cls).get(attr)), (
        f"{span}: {cls_name} defines no method {attr}")
