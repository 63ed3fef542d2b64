"""In-memory span tracer that times calls into the package from outside.

:class:`Tracer` replaces named functions and methods of the package's
modules with wrappers that record a span around each call: name, start,
end, parent span and operation id. Because the wrappers sit on the module
attributes that callers look up at call time, calls from one layer into
another are timed too, without any change to the package. Spans are kept
in memory only while an operation is open and are written out by
:meth:`Tracer.dump` at the end of the run.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched calls while an operation is open."""

    def __init__(self, patches):
        self._patches = patches  # (owner, attribute, span name)
        self._saved = []
        self.spans: list = []
        self._stack: list = []
        self._op: int | None = None

    def install(self) -> None:
        for owner, attr, name in self._patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self._span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self._op)

    @contextmanager
    def operation(self, op_id: int, name: str):
        """Open operation ``op_id``; its root span is named ``name``."""
        self._op = op_id
        try:
            with self._span(name):
                yield
        finally:
            self._op = None

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans cover.

        Calls run on one thread, so children of one span never overlap.
        """
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")
