"""Span tracer that instruments a package from the outside.

A target names a function (``package.module:function``) or a method
(``package.module:Class.method``). A function is replaced in *every* module
of the package that binds it, because a name bound by ``from ... import`` is
looked up in the importing module's globals, not the defining one. A method is
replaced on its class. Spans are aggregated in memory as they close: per span
name (calls, inclusive seconds, self seconds) and per (parent, child) edge,
which is enough to attribute self time without keeping millions of records.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One instrumented callable.

    ``timed=False`` only counts calls; its duration stays in the caller's self
    time. ``observe(tracer, args, kwargs, result)`` runs after a successful
    call, outside the span, to update ``tracer.counters``.
    """

    span: str
    where: str
    timed: bool = True
    observe: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s]
        self.counters: Counter = Counter()
        self.bindings: dict[str, list[str]] = {}  # span -> "module.attr" replaced
        self._stack: list[list] = []  # open spans: [name, seconds spent in children]
        self._undo: list[tuple[object, str, object]] = []

    # -- reading -----------------------------------------------------------
    def calls(self, span: str) -> int:
        return self.stats.get(span, (0,))[0]

    def total_s(self, span: str) -> float:
        return self.stats.get(span, (0, 0.0))[1]

    def self_s(self, span: str) -> float:
        return self.stats.get(span, (0, 0.0, 0.0))[2]

    def profile(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "edges": [
                [parent, child, c, t]
                for (parent, child), (c, t) in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
                )
            ],
            "counters": dict(sorted(self.counters.items())),
        }

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        observe = target.observe
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        if not target.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

            return counted

        stack = self._stack
        edges = self.edges
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return timed

    def _replace(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module_name, _, qualname = target.where.partition(":")
            module = importlib.import_module(module_name)
            bound = self.bindings.setdefault(target.span, [])
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._replace(cls, attr, original, self._wrap(target, original))
                bound.append(f"{module_name}.{qualname}")
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(target, original)
            package = module_name.split(".")[0]
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, original, wrapper)
                        bound.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
