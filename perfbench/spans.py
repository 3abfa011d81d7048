"""In-memory span tracing around calls into surftop's public functions.

A Tracer wraps every public module-level function of the layer modules
(and GramMatrix.from_dict) so that each call records a span: name,
start_ns, end_ns, the index of the enclosing span and the job id. The
wrappers replace the function in every surftop module namespace that
holds it, so calls through `from .x import f` bindings are traced too.
Nothing inside surftop changes; uninstall() puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "surftop"
LAYERS = ("cli", "surfaces", "classification", "lattice", "zeta")


class Tracer:
    def __init__(self, annotate: dict | None = None):
        self.annotate = annotate or {}  # span name -> fn(args, result) -> dict
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, job, attrs]
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, annotate = self.spans, self._stack, self.annotate.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else None, self.job, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()
            if annotate is not None:
                spans[idx][5] = annotate(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        gram = sys.modules[f"{PACKAGE}.lattice"].GramMatrix
        from_dict = gram.__dict__["from_dict"]
        self._saved.append((gram, "from_dict", from_dict))
        gram.from_dict = classmethod(self._wrap("lattice.GramMatrix.from_dict", from_dict.__func__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    covered: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, *_) in enumerate(spans):
        busy, cursor = 0, start
        for s, e in sorted(covered.get(idx, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                busy += e - s
                cursor = e
        out.append(end - start - busy)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
