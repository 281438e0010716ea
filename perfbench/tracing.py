"""Runtime tracing of the ospz layers from outside the program.

``Tracer.install(api)`` wraps public entry points of a freshly imported
``ospz`` and ``Tracer.restore()`` puts the originals back.  Modules import
functions by name (``from .uea import mul``) and classes alias methods
(``__rmul__ = __mul__``), so every binding of a wrapped object in every ospz
module and class is replaced, not only the defining one.

Upper layers keep spans in memory: ``(name, start, end, parent, child_s)``,
where ``parent`` is the index of the enclosing span (-1 at top level) and
``child_s`` the part of the interval covered by child spans and coefficient
calls.  The coefficient layer is called millions of times per run, so it
keeps only call counts and self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter

# (layer, name, owner, attribute): owner is a module or "module.Class".
SPANS = (
    ("uea", "straighten", "uea", "straighten"),
    ("uea", "mul", "uea", "mul"),
    ("uea", "super_bracket", "uea", "super_bracket"),
    ("projector", "diamond", "projector", "diamond"),
    ("zalgebra", "z_multiply", "zalgebra", "z_multiply"),
    ("zalgebra", "z_oracle_multiply", "zalgebra", "z_oracle_multiply"),
    ("zalgebra", "z_straighten", "zalgebra", "z_straighten"),
    ("zalgebra", "z_to_tilde", "zalgebra", "z_to_tilde"),
    ("zalgebra", "tilde_to_z", "zalgebra", "tilde_to_z"),
    ("rep", "primitive_vectors", "rep.TensorModule", "primitive_vectors"),
    ("rep", "rho_matrix", "rep.TensorModule", "rho_matrix"),
    ("rep", "check_rep_relations", "rep", "check_rep_relations"),
    ("text", "parse_element", "text", "parse_element"),
    ("text", "render", "text", "render"),
)

# (name, owner, attribute) of coefficient-layer counters.
COUNTERS = (
    ("rf_mul", "coeffs.RationalFunction", "__mul__"),
    ("rf_add", "coeffs.RationalFunction", "__add__"),
    ("rf_shift", "coeffs.RationalFunction", "shift"),
    ("poly_gcd", "coeffs", "poly_gcd"),
)

# (metric prefix, module, lru_cache attribute, reported fields)
CACHES = (
    ("uea.word_times_gen", "uea", "_word_times_gen", ("hit_ratio", "size")),
    ("uea.word_times_word", "uea", "_word_times_word", ("hit_ratio", "size")),
    ("projector.diamond_mono", "projector", "_diamond_mono", ("misses", "hit_ratio", "size")),
    ("projector.lower_chain", "projector", "_lower_chain", ("size",)),
    ("zalgebra.oracle_fold", "zalgebra", "_oracle_fold", ("hit_ratio",)),
    ("zalgebra.z_mono_times_gen", "zalgebra", "_z_mono_times_gen", ("hit_ratio",)),
    ("zalgebra.z_mono_tilde", "zalgebra", "_z_mono_tilde", ("size",)),
)

# Which span fields each layer reports, as the per-layer metric list names them.
SPAN_FIELDS = {
    "uea": ("calls", "self_s", "total_s"),
    "projector": ("calls", "self_s", "total_s"),
    "zalgebra": ("calls", "total_s"),
    "rep": ("total_s",),
    "text": ("calls", "total_s"),
}
LAYER_SELF = ("zalgebra", "rep", "text")

UNITS = {"calls": "count", "misses": "count", "size": "entries", "hit_ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric this module reports, with its unit."""
    out = []
    for name, *_ in COUNTERS:
        out += [(f"coeffs.{name}.calls", "count"), (f"coeffs.{name}.self_s", "s")]
    out.append(("coeffs.self_s", "s"))
    for layer, name, *_ in SPANS:
        out += [(f"{layer}.{name}.{f}", UNITS.get(f, "s")) for f in SPAN_FIELDS[layer]]
    out += [(f"{layer}.self_s", "s") for layer in LAYER_SELF]
    for prefix, _, _, fields in CACHES:
        out += [(f"{prefix}.{f}", UNITS[f]) for f in fields]
    return out


def cache_infos(api) -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) of every reported lru_cache."""
    out = {}
    for prefix, module, attr, _ in CACHES:
        info = getattr(getattr(api, module), attr).cache_info()
        out[prefix] = (info.hits, info.misses, info.currsize)
    return out


def cache_metrics(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio and misses over the interval, size at its end."""
    out = {}
    for prefix, _, _, fields in CACHES:
        hits = after[prefix][0] - before[prefix][0]
        misses = after[prefix][1] - before[prefix][1]
        values = {
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "misses": misses,
            "size": after[prefix][2],
        }
        for f in fields:
            out[f"{prefix}.{f}"] = values[f]
    return out


def _resolve(api, owner: str):
    obj = api
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(api, original):
    """Every (namespace, name) in the ospz package that holds ``original``."""
    spaces = [api] + [m for m in vars(api).values() if getattr(m, "__name__", "").startswith(api.__name__ + ".")]
    classes = [v for m in spaces for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith(api.__name__)]
    found = []
    for ns in spaces + classes:
        for name, value in list(vars(ns).items()):
            if value is original:
                found.append((ns, name))
    return found


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # one frame per active wrapped call: [span index or -1, child seconds]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, frame[1])
                if stack:
                    stack[-1][1] += end - start

        return wrapper

    def _counter(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args):
            frame = [-1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _patch(self, api, owner: str, attr: str, make):
        original = getattr(_resolve(api, owner), attr)
        wrapped = make(original)
        for ns, name in _bindings(api, original):
            self._patched.append((ns, name, original))
            setattr(ns, name, wrapped)

    def install(self, api) -> "Tracer":
        for layer, name, owner, attr in SPANS:
            self._patch(api, owner, attr, lambda fn, n=f"{layer}.{name}": self._span(n, fn))
        for name, owner, attr in COUNTERS:
            self._patch(api, owner, attr, lambda fn, n=name: self._counter(n, fn))
        return self

    def restore(self):
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, child in spans:
            calls[name] += 1
            self_s[name] += end - start - child
            # a recursive call's time is already inside its outermost call
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total_s[name] += end - start
        values = {"calls": calls, "self_s": self_s, "total_s": total_s}
        out: dict[str, float] = {}
        for name, *_ in COUNTERS:
            out[f"coeffs.{name}.calls"] = self.calls[name]
            out[f"coeffs.{name}.self_s"] = self.self_s[name]
        out["coeffs.self_s"] = sum(self.self_s.values())
        for layer, name, *_ in SPANS:
            key = f"{layer}.{name}"
            for f in SPAN_FIELDS[layer]:
                out[f"{key}.{f}"] = values[f][key]
        for layer in LAYER_SELF:
            out[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
        return out
