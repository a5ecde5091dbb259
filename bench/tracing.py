"""Per-layer spans recorded from outside the package.

The traced run replaces every public function of each revca module (and a
few methods that carry the lattice and polynomial work) with a wrapper that
records a span.  Nothing under ``src/`` changes; the wrappers are installed
into the live module objects of one process.

Two details of the package decide how wrappers are installed:

* modules import names directly (``from .rules import second_order_step``),
  so a wrapper must replace the name in every module namespace, and in
  module-level tables such as ``verify.SUITES``, that binds the function;
* ``step_fn=first_order_step`` defaults are bound when a function is
  defined, so the defaults of every function are rewritten as well.

Self time follows the benchmark's definition: a function's ``self_s`` is
its span minus the spans of other layers nested inside it (same-layer
callees are not subtracted, so ``second_order_step`` includes its
``first_order_step``).  A layer's ``self_s`` is the time spent in that
layer's code exclusive of every nested span, so layer totals plus the
unattributed remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from types import FunctionType, ModuleType

LAYERS = ("rules", "grid", "gf2poly", "sequences", "verify", "render", "cli")

#: (layer, class name, attribute, metric key) for traced methods
METHODS = (
    ("grid", "BinaryGrid", "from_window", "grid.from_window"),
    ("grid", "BinaryGrid", "index_arrays", "grid.index_arrays"),
    ("gf2poly", "LaurentPoly2", "__mul__", "gf2poly.mul"),
    ("gf2poly", "LaurentPoly2", "square", "gf2poly.square"),
    ("gf2poly", "LaurentPoly2", "__add__", "gf2poly.add"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


#: metric key -> (counter name, f(args, kwargs, result)); each count is
#: computed from argument or result sizes, so it repeats exactly
COUNTERS = {
    "rules.first_order_step": (
        "cells_in", lambda a, k, r: _arg(a, k, 1, "g").window.size),
    "grid.xor": (
        "cells", lambda a, k, r: (_arg(a, k, 0, "a").window.size
                                  + _arg(a, k, 1, "b").window.size)),
    "gf2poly.mul": ("term_pairs", lambda a, k, r: len(a[0]) * len(a[1])),
    "gf2poly.square": ("terms", lambda a, k, r: len(a[0])),
    "gf2poly.state_poly_at": (
        "terms_out", lambda a, k, r: len(r.first) + len(r.second)),
    "render.render": (
        "pixels", lambda a, k, r: (2 * _arg(a, k, 1, "n") + 1) ** 2),
}

#: spans whose calls count as simulated steps
STEP_KEYS = ("rules.second_order_step", "rules.second_order_inverse")


def _key(layer: str, name: str) -> str:
    """Metric key of a function: grid.text, verify.<suite>, else layer.name."""
    if name == "grid_to_text":
        name = "text"
    return f"{layer}.{name.removeprefix('suite_')}"


class _Frame:
    __slots__ = ("layer", "child", "other")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0  # time in directly nested spans of any layer
        self.other = 0.0  # time in nested spans of other layers


class Tracer:
    """Span accounting for one process; install on each fresh import of revca."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        for d in (self.calls, self.total_s, self.self_s, self.layer_self_s,
                  self.counts):
            d.clear()

    def _wrap(self, fn, layer: str, key: str):
        counter = COUNTERS.get(key)
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        layer_self_s, counts = self.layer_self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(layer)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                calls[key] += 1
                total_s[key] += d
                self_s[key] += d - frame.other
                layer_self_s[layer] += d - frame.child
                if stack:
                    parent = stack[-1]
                    parent.child += d
                    if parent.layer != layer:
                        # charge every enclosing frame of the parent's layer
                        # up to the next layer boundary
                        for f in reversed(stack):
                            if f.layer != parent.layer:
                                break
                            f.other += d
            if counter is not None:
                name, count = counter
                counts[f"{key}.{name}"] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self, revca: ModuleType) -> None:
        """Wrap the layers of a freshly imported ``revca`` package."""
        modules = [revca] + [getattr(revca, layer) for layer in LAYERS]
        originals: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = getattr(revca, layer)
            for name, value in list(vars(mod).items()):
                if (isinstance(value, FunctionType) and not name.startswith("_")
                        and value.__module__ == mod.__name__):
                    originals[id(value)] = self._wrap(value, layer,
                                                      _key(layer, name))
        for layer, cls_name, attr, key in METHODS:
            cls = getattr(getattr(revca, layer), cls_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, layer, key)))
            else:
                setattr(cls, attr, self._wrap(raw, layer, key))

        def swap(value):
            return originals.get(id(value), value)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(value) in originals:
                    setattr(mod, name, swap(value))
                elif isinstance(value, dict):  # RENDERERS, SUITES
                    for k, v in list(value.items()):
                        new = (tuple(swap(x) for x in v)
                               if isinstance(v, tuple) else swap(v))
                        if new != v:
                            value[k] = new
        # defaults such as step_fn=first_order_step were bound at definition
        for wrapper in originals.values():
            fn = wrapper.__wrapped__
            if fn.__defaults__:
                fn.__defaults__ = tuple(swap(x) for x in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: swap(v)
                                     for k, v in fn.__kwdefaults__.items()}

    def snapshot(self) -> dict[str, float]:
        """Flat metrics for the spans recorded since the last reset."""
        out: dict[str, float] = {}
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
            out[f"{key}.self_s"] = self.self_s[key]
            out[f"{key}.total_s"] = self.total_s[key]
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s.get(layer, 0.0)
        out["rules.steps"] = sum(self.calls.get(k, 0) for k in STEP_KEYS)
        return out
