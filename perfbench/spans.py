"""In-process span recorder that wraps module attributes of the program.

The benchmark never edits ``src/``: it replaces a module attribute with a
wrapper that records a span (name, start, end, parent) around each call and
restores the original afterwards.  A name is patched where callers look it
up, so ``analysis._certify`` and ``cli.run_certify`` are patched beside
``certify.certify``.  Self time is a span's duration minus the time its child
spans cover; calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np


class Recorder:
    """Spans and counters of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name, on_return=None, on_raise=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` is the span name, or a function of the call arguments that
        returns it (None records no span, for calls that are only counted).
        ``on_return(recorder, result, args, kwargs)`` and
        ``on_raise(recorder, exc, args, kwargs)`` update counters.
        """
        original = getattr(owner, attr)
        naming = name if callable(name) else (lambda args, kwargs: name)
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = naming(args, kwargs)
            idx = rec.open(span_name) if span_name is not None else None
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if idx is not None:
                    rec.close(idx)
                if on_raise is not None:
                    on_raise(rec, exc, args, kwargs)
                raise
            if idx is not None:
                rec.close(idx)
            if on_return is not None:
                on_return(rec, result, args, kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in seconds)."""
        if not self.names:
            return {}
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, tuple[int, float]] = {}
        for name, value in zip(self.names, own.tolist()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + value)
        return out
