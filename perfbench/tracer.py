"""Per-layer timing of chebdyn from outside the package.

The tracer wraps the public functions of each layer module, plus a few
methods that hold the layer's work, and rebinds every wrapper in each
chebdyn module that imported the original, so calls made inside the
package go through it too.  Nothing is stored per call: each span name
keeps its call count, its busy time and its self time (busy time minus the
time covered by traced children), so hot kernels such as mulmod are
aggregated counters under their parent span rather than one span each.
"""

from __future__ import annotations

import importlib
import inspect
import resource
import sys
from time import perf_counter

LAYERS = ("ffield", "cheb", "polys", "graph", "predict", "factor", "verify",
          "cli")

# (module, class, attribute, span name): methods that do a layer's work.
# ModulusKernel.powmod/compose share their span with the list-based
# polys.powmod/compose: one name per operation in the polys layer.
METHODS = (
    ("ffield", "FieldCtx", "alpha_order_tables", "ffield.alpha_order_tables"),
    ("ffield", "FieldCtx", "_build_alpha_tables",
     "ffield.alpha_order_tables.build"),
    ("ffield", "FieldCtx", "frobenius_indices", "ffield.frobenius_indices"),
    ("polys", "ModulusKernel", "__init__", "polys.kernel_init"),
    ("polys", "ModulusKernel", "mulmod", "polys.mulmod"),
    ("polys", "ModulusKernel", "powmod", "polys.powmod"),
    ("polys", "ModulusKernel", "compose", "polys.compose"),
)


class _Stat:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0       # busy time, outermost activation only
        self.self_s = 0.0  # busy time not covered by traced children
        self.active = 0    # open activations (recursion depth)


def _degree(a) -> int:
    nz = a.nonzero()[0]
    return int(nz[-1]) if nz.size else -1


class Tracer:
    """Aggregated spans over the chebdyn layers; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.layer_s = {layer: 0.0 for layer in LAYERS}
        self._layer_active = {layer: 0 for layer in LAYERS}
        self._stack: list[list[float]] = []  # [start, covered by children]
        self.np_gcd_max_degree = -1
        self.build_graph_rss_kb = 0
        self.fields: dict[int, object] = {}
        self._cached = {}

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        layer = name.split(".", 1)[0]
        stack, layer_active, layer_s = (self._stack, self._layer_active,
                                        self.layer_s)
        # a span with extra counters has a hook _observe_<name, dots as _>
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            layer_active[layer] += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat.self_s += elapsed - frame[1]
                stat.active -= 1
                if not stat.active:
                    stat.s += elapsed
                layer_active[layer] -= 1
                if not layer_active[layer]:
                    layer_s[layer] += elapsed

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _observe_polys_np_gcd(self, fn, args, kwargs):
        a, b = args[0], args[1]
        self.np_gcd_max_degree = max(self.np_gcd_max_degree, _degree(a),
                                     _degree(b))
        return fn(*args, **kwargs)

    def _observe_graph_build_graph(self, fn, args, kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return fn(*args, **kwargs)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.build_graph_rss_kb += after - before

    def _observe_ffield_make_field(self, fn, args, kwargs):
        ctx = fn(*args, **kwargs)
        self.fields[id(ctx)] = ctx
        return ctx

    def install(self) -> None:
        """Wrap every target and rebind it wherever chebdyn imported it."""
        mods = {layer: importlib.import_module(f"chebdyn.{layer}")
                for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__",
                                                None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self._cached[f"{layer}.{attr}"] = obj
                self._rebind(obj, self.wrap(f"{layer}.{attr}", obj))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
        self._misses0 = self._misses()

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "chebdyn" and not mod_name.startswith("chebdyn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def _misses(self) -> dict[str, int]:
        return {name: fn.cache_info().misses
                for name, fn in self._cached.items()}

    def table_mb(self) -> float:
        """Computed bytes of the arrays cached on every field context the
        run created (order tables, Frobenius indices, coefficient rows)."""
        total = 0
        for ctx in self.fields.values():
            for value in ctx._cache.values():
                for arr in (value if isinstance(value, tuple) else (value,)):
                    total += getattr(arr, "nbytes", 0)
        return total / 2 ** 20

    def report(self) -> dict:
        """Plain-data summary: per-span and per-layer totals, counters."""
        misses = self._misses()
        return {
            "spans": {name: {"calls": st.calls, "s": st.s,
                             "self_s": st.self_s}
                      for name, st in self.stats.items()},
            "layer_s": dict(self.layer_s),
            "misses": {name: misses[name] - self._misses0[name]
                       for name in misses},
            "np_gcd_max_degree": self.np_gcd_max_degree,
            "build_graph_rss_mb": self.build_graph_rss_kb / 1024,
            "table_mb": self.table_mb(),
        }
