"""Span tracer that wraps szegocap's public functions from outside the package.

`Tracer.install` replaces each traced function, in its defining module and in
every `szegocap` module namespace that imported it, with a wrapper that
records a span (name, start, end, parent) and returns the function's result
or raises its exception unchanged.  A traced name that no longer exists is
recorded as absent.  `uninstall` puts every original back.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its child spans; over one root span the self times sum to the
root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0


@dataclass(frozen=True)
class Target:
    """A function to trace: `module.attr`, recorded under `span` (or under the
    name `chooser(args, kwargs)` returns), with an optional `count(tracer,
    args, kwargs, result)` hook that adds computed counters."""
    module: str
    attr: str
    span: str
    chooser: object = None
    count: object = None


class Tracer:
    def __init__(self, package: str = "szegocap", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(sid=len(self.spans), parent=parent.sid if parent else None,
                  root=parent.root if parent else len(self.spans), name=name,
                  start=self.clock())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = self.clock()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.chooser(args, kwargs) if target.chooser else target.span
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if target.count is not None:
                try:
                    target.count(tracer, args, kwargs, result)
                except Exception as exc:  # a counter must never change the result
                    tracer.hook_errors.append(f"{target.span}: {type(exc).__name__}: {exc}")
            return result

        return traced

    # --- installing wrappers ---------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self.wrap(original, target)
            homes = [module] + [m for name, m in sorted(sys.modules.items())
                                if m is not None and m is not module
                                and (name == self.package or name.startswith(self.package + "."))]
            for home in homes:
                for name, value in list(vars(home).items()):
                    if value is original:
                        self._patches.append((home, name, original))
                        setattr(home, name, wrapper)

    def uninstall(self) -> None:
        for home, name, original in reversed(self._patches):
            setattr(home, name, original)
        self._patches.clear()

    # --- summaries -------------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        return own

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) per span name."""
        out: dict[str, tuple[int, float]] = {}
        for sp, own in zip(self.spans, self._self_seconds()):
            calls, total = out.get(sp.name, (0, 0.0))
            out[sp.name] = (calls + 1, total + own)
        return out

    def root_balance(self) -> float:
        """Largest |sum of self times - root duration| / root duration over roots."""
        self_sum: dict[int, float] = {}
        for sp, own in zip(self.spans, self._self_seconds()):
            self_sum[sp.root] = self_sum.get(sp.root, 0.0) + own
        worst = 0.0
        for root, total in self_sum.items():
            dur = self.spans[root].end - self.spans[root].start
            if dur > 0:
                worst = max(worst, abs(total - dur) / dur)
        return worst
