"""Span tracing of spreadlab's public API, applied from outside the library.

A Tracer wraps every public function, method, classmethod and property
getter defined in the six layer modules (plus ``__init__`` and
``__call__``), and rebinds every name in any ``spreadlab`` module that still
points at an original, so that ``from .quadform import permutes_cosets``
style imports are traced too.  Each call records one span: name, start,
end and the enclosing span.  Spans are kept in compact in-memory arrays and
reduced or written out only after the workload ends.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly on one thread, so the children are disjoint
and together cover exactly that part of the parent's interval.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("field", "linpoly", "quadform", "semifield", "spread", "experiments")
_DUNDERS = ("__init__", "__call__")


def _size(result) -> int:
    return int(np.size(result))


# extra per-call amounts accumulated next to the spans: elements produced by
# the vectorized field kernels, and how often permutes_cosets says True
OBSERVERS = {
    "field.FieldCtx.vadd": _size,
    "field.FieldCtx.vsub": _size,
    "field.FieldCtx.vneg": _size,
    "field.FieldCtx.vmul": _size,
    "quadform.permutes_cosets": bool,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.amounts: dict[str, int] = {}
        self.originals: dict[int, object] = {}

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public API of every layer module of ``package``."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    w = self._wrap(f"{layer}.{attr}", obj)
                    wrappers[id(obj)] = w
                    self.originals[id(obj)] = obj
        # rebind by-name imports in every module of the package
        for name, mod in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and self.originals[id(obj)] is obj:
                    setattr(mod, attr, wrappers[id(obj)])

    def unwrapped_bindings(self, package) -> list[str]:
        """Names in the package's modules still bound to an original function."""
        out = []
        for name, mod in list(sys.modules.items()):
            if name == package.__name__ or name.startswith(package.__name__ + "."):
                out += [f"{name}.{attr}" for attr, obj in vars(mod).items()
                        if self.originals.get(id(obj)) is obj]
        return out

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, property) and raw.fget is not None:
                setattr(cls, attr, property(self._wrap(name, raw.fget), raw.fset,
                                            raw.fdel, raw.__doc__))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        amounts = self.amounts

        def span(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                amounts[name] = amounts.get(name, 0) + int(observe(result))
            return result

        return functools.update_wrapper(span, fn)

    # -- reduction -----------------------------------------------------------

    def arrays(self):
        """(name id, start ns, end ns, parent index) as numpy arrays."""
        return (np.frombuffer(self.span_name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32))

    def summary(self) -> dict:
        """Per span name: calls and self time in ns; plus consistency checks."""
        names, t0, t1, par = self.arrays()
        n = len(names)
        dur = t1 - t0
        has_parent = par >= 0
        child_ns = np.bincount(par[has_parent], weights=dur[has_parent],
                               minlength=n).astype(np.int64)
        self_ns = dur - child_ns
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_ns,
                                   minlength=len(self.names)).astype(np.int64)
        # every span lies inside its parent; the self times of a root's
        # subtree add up exactly to the root's duration
        pi = par[has_parent]
        nested = bool(np.all(t0[has_parent] >= t0[pi]) and np.all(t1[has_parent] <= t1[pi])
                      and np.all(self_ns >= 0))
        root = np.where(has_parent, par, np.arange(n, dtype=np.int32))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        subtree_self = np.bincount(root, weights=self_ns, minlength=n).astype(np.int64)
        roots = ~has_parent
        additive = bool(np.array_equal(subtree_self[roots], dur[roots]))
        return {
            "spans": n,
            "calls": {nm: int(c) for nm, c in zip(self.names, calls)},
            "self_ns": {nm: int(s) for nm, s in zip(self.names, self_by_name)},
            "amounts": dict(self.amounts),
            "nested": nested,
            "self_adds_up": additive,
        }

    def write(self, path) -> None:
        """Write every span (names as a table, spans as integer columns)."""
        names, t0, t1, par = self.arrays()
        np.savez(path, names=np.array(self.names), name=names, start=t0,
                 end=t1, parent=par)
