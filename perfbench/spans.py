"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces each traced function at every attribute of a
``repro.*`` module (or class) bound to it, matched by identity, so call
sites that did ``from X import f`` are caught too, and a later change that
moves or removes a call shows up in the counts without touching this file.
Each wrapper opens a span, runs the original, optionally forces a
DataFrame result inside the span (so lazy work is charged to the layer
that built it) and closes the span. The originals are put back on exit.

A span's self time is its duration minus the durations of its direct
children; children never overlap because the program is single-threaded
on the driver. When a SparkContext is given, each span runs under its own
Spark job group, so the jobs a layer launches itself are counted too.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(eq=False)
class Span:
    """One call of one traced function (compared by identity)."""

    name: str
    parent: "Span | None"
    args: tuple
    start: float
    end: float = 0.0
    child_seconds: float = 0.0
    counted: int = 0          # calls of counted functions made directly here
    spark_jobs: int = 0       # jobs launched directly here (not in children)
    output: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds

    @property
    def root(self) -> "Span":
        s = self
        while s.parent is not None:
            s = s.parent
        return s


def resolve(path: str) -> tuple[object, str, object]:
    """``"pkg.mod.Class.attr"`` → (owner, attribute name, current value)."""
    parts = path.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for p in parts[i:-1]:
            owner = getattr(owner, p)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"cannot resolve {path}")


def bindings(path: str, package: str) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, value) binding of the object at ``path``:
    its own attribute plus every ``package.*`` module attribute that is the
    very same object."""
    owner, attr, obj = resolve(path)
    found = [(owner, attr, obj)]
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package
                               or name.startswith(package + ".")):
            continue
        for a, v in list(vars(mod).items()):
            if v is obj and not (mod is owner and a == attr):
                found.append((mod, a, obj))
    return found


class Tracer:
    """Context manager that traces the functions named in ``layers``.

    ``layers`` maps a dotted path to the layer name its spans get (several
    paths may share one name). Calls of the functions in ``counted`` add
    one to the innermost open span's ``counted`` without opening a span.
    ``force`` is applied to results of type ``force_type`` inside the span.
    """

    def __init__(self, layers: dict[str, str], counted: tuple = (),
                 force: Callable | None = None, force_type: type = object,
                 spark_context=None, package: str = "repro"):
        self.layers = layers
        self.counted = counted
        self.force = force
        self.force_type = force_type
        self.sc = spark_context
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for path, name in self.layers.items():
                self._patch(path, lambda f, n=name: self._spanned(f, n))
            for path in self.counted:
                self._patch(path, self._counting)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        if self.sc is not None:
            self._set_group(None)

    def _patch(self, path: str, make: Callable) -> None:
        found = bindings(path, self.package)
        wrapper = make(found[0][2])
        for owner, attr, orig in found:
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, orig))

    def _restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(name, args)
            try:
                out = fn(*args, **kwargs)
                if self.force is not None and isinstance(out,
                                                         self.force_type):
                    out = self.force(out)
                span.output = out
                return out
            finally:
                self._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self._stack:
                self._stack[-1].counted += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------
    def _group(self, span: Span | None) -> str | None:
        return None if span is None else f"trace-{id(span):x}"

    def _set_group(self, span: Span | None) -> None:
        if span is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(self._group(span), span.name)

    def _open(self, name: str, args: tuple) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, args, start=0.0)
        self._stack.append(span)
        if self.sc is not None:
            self._set_group(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_seconds += span.seconds
        if self.sc is not None:
            span.spark_jobs = len(
                self.sc.statusTracker().getJobIdsForGroup(self._group(span)))
            self._set_group(span.parent)
        self.spans.append(span)

    # -- queries ----------------------------------------------------------
    def under(self, root: str) -> list[Span]:
        """Closed spans whose outermost span is named ``root``."""
        return [s for s in self.spans if s.root.name == root]


def named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def self_seconds(spans: list[Span], name: str) -> float:
    return sum(s.self_seconds for s in named(spans, name))
