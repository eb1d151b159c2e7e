"""Span tracer that measures the orthograd modules from outside.

A ``Tracer`` replaces module and class attributes with thin wrappers that
record one span per call: ``(name, start, end, parent)``, where ``parent`` is
the index of the span that was open when the call began (-1 at top level).
Every alias of a wrapped function inside the ``orthograd`` package is
replaced, because a caller looks up whichever name it imported
(``orthograd.unlearn.qr_orthonormal_basis`` is the same object as
``orthograd.linalg.qr_orthonormal_basis``).  A target that does not exist
is skipped and simply reports zero calls, so the tracer keeps working when
a later refactor removes or renames a function.

Wrappers pass arguments and results through unchanged.  An optional
observer sees ``(args, kwargs, result)`` after the span has closed, so the
counts it keeps cost no span time.  An observer that raises (say, because
a refactor changed a return type) is counted in ``observer_errors`` instead
of breaking the traced program.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "orthograd"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self.calls: dict[str, int] = {}  # calls started, per span name
        self.observer_errors: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, observer):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observer is not None:
                try:
                    observer(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    self.observer_errors[name] = self.observer_errors.get(name, 0) + 1
            return result

        return traced

    def wrap_function(self, module: str, attr: str, name: str, observer=None) -> bool:
        """Wrap ``module.attr`` and every alias of it in the package."""
        try:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
        except (ImportError, AttributeError):
            return False
        wrapper = self._wrap(name, fn, observer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
        return True

    def wrap_method(self, module: str, cls: str, attr: str, name: str, observer=None) -> bool:
        """Wrap a method defined on ``module.cls`` (looked up through the class)."""
        try:
            klass = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls)
        except (ImportError, AttributeError):
            return False
        fn = klass.__dict__.get(attr)
        if not callable(fn):
            return False
        self._patches.append((klass, attr, fn))
        setattr(klass, attr, self._wrap(name, fn, observer))
        return True

    def restore(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name: duration minus the children's cover.

        Only spans from index ``first`` on are counted.  Calls are
        single-threaded and nested, so children of one span never overlap
        and their durations can be summed.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
