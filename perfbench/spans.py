"""Spans around calls into circgeo's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper under every
name a consumer looks it up by (for example `circgeo.verify.metric_at` as
well as `circgeo.core.metric_at`), so calls between modules are seen without
editing the package.  Spans carry a name, start, end and parent id and stay
in memory until `uninstall()`; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("expr", "core", "tensor", "verify", "cli")

# function name -> (defining module, span name)
FUNCTIONS = {
    "parse": ("expr", "expr.parse"),
    "metric_at": ("core", "core.metric_at"),
    "find_orthogonal_q_basis": ("core", "core.find_orthogonal_q_basis"),
    "induces_q_basis": ("core", "core.induces_q_basis"),
    "christoffel_from_metric": ("tensor", "tensor.christoffel"),
    "riemann_from_christoffel": ("tensor", "tensor.riemann"),
    "nabla_q": ("tensor", "tensor.nabla_q"),
    "sectional_curvature": ("tensor", "tensor.sectional_curvature"),
    "sample_q_basis_vectors": ("verify", "verify.sample_q_basis_vectors"),
    "run_suite": ("verify", "verify.run_suite"),
    "report_to_json": ("verify", "verify.report_to_json"),
    # Rendering plus the file write of every command's report.
    "_emit": ("cli", "cli.emit"),
}


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0
    flag: bool | None = None  # induces_q_basis: whether the vector was accepted


class Tracer:
    def __init__(self, circgeo_modules: dict):
        self.modules = circgeo_modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        flagged = name == "core.induces_q_basis"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if flagged:
                span.flag = bool(result[0])
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for fname, (home, span_name) in FUNCTIONS.items():
            original = getattr(self.modules[home], fname)
            wrapper = self._wrap(original, span_name)
            for mod in self.modules.values():
                if getattr(mod, fname, None) is original:
                    self._replace(mod, fname, wrapper)
        field_cls = self.modules["expr"].ScalarField
        self._replace(field_cls, "jet", self._wrap(field_cls.jet, "expr.jet"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self._stack = []


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, Totals]:
    """Calls, inclusive and self time per span name."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, Totals] = defaultdict(Totals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += s.end - s.start - child_time[s.id]
    return dict(out)


def count_children(spans: list[Span], child: str, parent: str, flag: bool | None = None) -> int:
    """Spans named child directly under a span named parent (optionally with a flag)."""
    names = {s.id: s.name for s in spans}
    return sum(
        1
        for s in spans
        if s.name == child
        and names.get(s.parent) == parent
        and (flag is None or s.flag is flag)
    )
