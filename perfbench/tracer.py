"""In-memory span tracer that wraps wellspectra's public functions at their
import sites.

Installing the tracer replaces every module attribute, in every loaded
``wellspectra`` module, that is one of the target functions with a timing
wrapper, so calls made through ``from .eigcount import inertia`` style
imports are seen as well.  Uninstalling puts the original objects back.
No file of the program changes.

A span records name, start, end, thread and parent.  A span opened in a
thread with no open span of its own (a thread-pool worker) is parented to
the innermost span open in the installing thread, which is the enclosing
``run_scenario`` call.  Self time is a span's duration minus the part of
its interval covered by its children.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: int | None


class Tracer:
    """Wrap ``targets`` (qualified names ``"module.function"`` relative to
    the ``wellspectra`` package) while installed.

    ``observers`` maps a qualified name to ``fn(tracer, args, kwargs)``,
    called before the wrapped function runs, for counters that need the
    call's inputs.  Counters go to ``tracer.counts`` under a lock.
    """

    package = "wellspectra"

    def __init__(self, targets, observers=None):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._seen: set = set()
        self.lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = None
        self._patched = []

    # -- counters ----------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        with self.lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def seen_before(self, key) -> bool:
        """True if ``key`` was passed here earlier since the last reset."""
        with self.lock:
            if key in self._seen:
                return True
            self._seen.add(key)
            return False

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) or [None]
            parent = main_stack[-1]
        with self.lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, tid, parent))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        self.spans[index].end = end

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if observer is not None:
                observer(tracer, args, kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.add(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                tracer._close(index)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._main = threading.get_ident()
        wrappers = {}
        for qual in self.targets:
            module_name, attr = qual.rsplit(".", 1)
            module = importlib.import_module(f"{self.package}.{module_name}")
            original = getattr(module, attr)
            wrappers[id(original)] = (original, self._wrap(qual, original))
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._seen = set()
        self._stacks = {}

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the union of its children's intervals
        (children of one parent may overlap when they ran on pool threads)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(index, ()), key=lambda c: c.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls": n, "self_s": seconds, "total_s": seconds}}``."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span.end - span.start
        return out
