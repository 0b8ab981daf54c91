"""In-memory span tracer that wraps each levelalg module's public functions.

The wrappers live in the benchmark, not in the library: `Tracer.install`
replaces every public function of every layer module, plus a few named
methods, at every place the library binds it (modules import names with
`from .linalg import rref`, so patching `levelalg.linalg` alone would miss
the copies in `forms`, `apolarity`, ...).  `Tracer.uninstall` puts every
original back.

Each call opens a span (id, parent id, item id, name, start, end).  A span's
self time is its duration minus the time its direct children cover.  Hot
leaf functions are aggregated (count, total and self time per name) instead
of being stored span by span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "levelalg"
LAYERS = (
    "linalg", "forms", "apolarity", "levelhf", "tangent", "secant",
    "schubert", "bott", "kronecker", "resolution", "partitions", "cli",
)

# (module, class, attribute) -> span name, for methods worth a layer metric.
METHODS = {
    ("forms", "Subspace", "span"): "forms.span",
    ("forms", "Subspace", "reduce"): "forms.reduce",
    ("forms", "Form", "__mul__"): "forms.mul",
    ("secant", "SecantPlane", "subspace"): "secant.plane_subspace",
}

# Module functions whose span name differs from "<layer>.<function>".
RENAMES = {("forms", "subspace_intersect"): "forms.intersect"}

# Leaf functions called tens of thousands of times or more in one pass:
# counted per name, not stored span by span.
AGGREGATED = frozenset({
    "schubert.lr_coefficient", "kronecker.character", "levelhf.dominates",
    "partitions.check_partition", "partitions.partitions", "partitions.contains",
    "forms.monomial_index", "forms.monomials", "forms.reduce", "forms.mul",
    "trace.observe",
})

# Time spent in observers that read layer arguments and results.
OBSERVE = "trace.observe"

_clock = time.perf_counter


def _is_public_function(module, name, obj) -> bool:
    if name.startswith("_"):
        return False
    if isinstance(obj, functools._lru_cache_wrapper):
        obj = obj.__wrapped__
    return inspect.isfunction(obj) and obj.__module__ == module.__name__


class _Stat:
    __slots__ = ("calls", "self_time", "outer_total", "depth")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.outer_total = 0.0  # durations of calls with no same-name ancestor
        self.depth = 0


class Tracer:
    """Collects spans and per-name statistics while installed."""

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stat] = {}
        self.entries: dict[str, int] = {}  # calls into a layer from outside it
        self.item_id = -1
        self._stack: list[list] = []  # [span id, layer, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []  # (namespace, attribute, original)
        self._originals: dict[int, tuple] = {}

    # -- recording -------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _call(self, name, layer, st, fn, args, kwargs):
        stack = self._stack
        st.calls += 1
        st.depth += 1
        if not stack or stack[-1][1] != layer:
            self.entries[layer] = self.entries.get(layer, 0) + 1
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, _clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - frame[2]
            st.self_time += duration - frame[3]
            st.depth -= 1
            if st.depth == 0:
                st.outer_total += duration
            if stack:
                stack[-1][3] += duration
                parent = stack[-1][0]
            else:
                parent = None
            if name not in AGGREGATED:
                self.spans.append((span_id, parent, self.item_id, name, frame[2], end))

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name` ("<layer>.<what>")."""
        return self._call(name, name.split(".", 1)[0], self._stat(name), fn, args, kwargs)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        st = self._stat(name)
        call = self._call
        observer = self.observers.get(name)

        if observer is None:
            def wrapper(*args, **kwargs):
                return call(name, layer, st, fn, args, kwargs)
        else:
            obs_st = self._stat(OBSERVE)

            def wrapper(*args, **kwargs):
                result = call(name, layer, st, fn, args, kwargs)
                call(OBSERVE, "trace", obs_st, observer, (args, kwargs, result), {})
                return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__traced__ = True
        return wrapper

    # -- patching --------------------------------------------------------

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        return pkg, mods

    def _targets(self) -> dict[int, tuple]:
        """id(original) -> (span name, original) for everything to wrap."""
        _, mods = self._modules()
        out = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if _is_public_function(mod, name, obj):
                    span_name = RENAMES.get((layer, name), f"{layer}.{name}")
                    out[id(obj)] = (span_name, obj)
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg, mods = self._modules()
        targets = self._originals = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for namespace in [pkg, *mods.values()]:
            for attr, value in list(vars(namespace).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, w)
        for (layer, cls_name, attr), span_name in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(span_name, raw.__func__))
            else:
                patched = self._wrap(span_name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def unpatched_refs(self) -> list[str]:
        """Names in library namespaces still bound to an unwrapped original.

        Must be empty while installed: a name missed here would charge the
        callee's time to its caller's layer.
        """
        pkg, mods = self._modules()
        missed = []
        for namespace in [pkg, *mods.values()]:
            for attr, value in vars(namespace).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[1] is value:
                    missed.append(f"{namespace.__name__}.{attr}")
        return missed

    def wrapped_refs(self) -> list[str]:
        """Names still bound to a wrapper; empty once uninstalled."""
        pkg, mods = self._modules()
        missed = []
        for namespace in [pkg, *mods.values()]:
            for attr, value in vars(namespace).items():
                if getattr(value, "__traced__", False):
                    missed.append(f"{namespace.__name__}.{attr}")
        for layer, cls_name, attr in METHODS:
            raw = getattr(mods[layer], cls_name).__dict__[attr]
            if getattr(getattr(raw, "__func__", raw), "__traced__", False):
                missed.append(f"{cls_name}.{attr}")
        return missed

    # -- output ----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st.self_time
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, item, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "item": item,
                                     "name": name, "start": start, "end": end}) + "\n")
            for name, st in sorted(self.stats.items()):
                if name in AGGREGATED and st.calls:
                    fh.write(json.dumps({"aggregate": name, "calls": st.calls,
                                         "total_s": st.outer_total, "self_s": st.self_time}) + "\n")
