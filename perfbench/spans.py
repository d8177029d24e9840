"""Spans around the public functions of the program's nine modules.

`install` wraps every public function and every public method of the
non-value classes defined in `complexity_one.<layer>`, and patches each
module namespace that binds one of them.  Modules import names directly
(`from .lattice import rank as lattice_rank`), so patching only the defining
module would miss cross-module calls.  A wrapper installed in another
module's namespace also counts the calls made through that binding, which is
how `classify.solve_exact.calls` is told apart from `lattice.solve_exact.calls`.

Spans are aggregated in memory as they close: calls, total time and self
time (total minus the time of the spans they caused) per span name.  No
traced function is a generator (the program's generators are private
helpers of `classify.compare`), so each span covers the work it names.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "complexity_one"
LAYERS = ("cli", "io", "catalog", "classify", "quasitoric", "chardata", "sponge", "weights", "lattice")

# value types whose methods are integer arithmetic: a span per call would
# cost more than the work it measures
UNTRACED_CLASSES = {("lattice", "IntVector"), ("lattice", "IntMatrix")}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.binding_calls: Counter[str] = Counter()  # "<caller module>.<function>"
        self.counters: Counter[str] = Counter()
        self._stack: list[list[float]] = []  # open spans: [start, child_s]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn, binding: str | None = None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        bindings = self.binding_calls
        measure = _IO_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if binding is not None:
                bindings[binding] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if measure is not None:
                counters[measure[0]] += measure[1](args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(span name, owning object, attribute, function) for every traced callable."""
        seen: dict[str, str] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield _unique(seen, f"{layer}.{attr}", attr), mod, attr, obj
                elif inspect.isclass(obj) and (layer, attr) not in UNTRACED_CLASSES:
                    for mattr, meth in vars(obj).items():
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            name = _unique(seen, f"{layer}.{mattr}", f"{attr}.{mattr}")
                            yield name, obj, mattr, meth

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, owner, attr, fn in list(self._targets()):
            self._patch(owner, attr, self._wrap(name, fn))
            if inspect.isclass(owner):
                continue
            for mod in modules:
                if mod is owner:
                    continue
                caller = mod.__name__.rpartition(".")[2] if mod.__name__ != PACKAGE else "package"
                for bound_as, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound_as, self._wrap(name, fn, f"{caller}.{attr}"))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    @property
    def spans(self) -> int:
        return sum(s[0] for s in self.stats.values())

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.partition(".")[0] == layer)

    def table(self) -> list[dict]:
        return [
            {"span": name, "calls": s[0], "total_s": s[1], "self_s": s[2]}
            for name, s in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
            if s[0]
        ]


def _unique(seen: dict[str, str], name: str, where: str) -> str:
    if name in seen:
        raise RuntimeError(f"span name {name} is used by both {seen[name]} and {where}")
    seen[name] = where
    return name


# text parsed by io.loads and produced by io.canonical_json, in characters
_IO_COUNTERS = {
    "io.loads": ("io.bytes_read", lambda args, result: len(args[0])),
    "io.canonical_json": ("io.bytes_written", lambda args, result: len(result)),
}
