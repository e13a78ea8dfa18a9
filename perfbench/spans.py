"""In-memory span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
library's public functions; nothing inside ``src/`` is instrumented.  A
span has a name, a start, an end, the index of its parent span and the
id of the op it belongs to.  Spans are kept in memory and summarised when
the run ends.

Calls too short and too frequent for one span each (a packet injection,
one tile's compute callback) are folded into one *aggregate* span per
enclosing call: its duration is the summed time of every folded call and
it sits under the span that made them, so self times stay exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans; the stack of open spans gives each span its parent.

    ``op`` is the id of the op new spans are charged to; ``label`` is
    free-form context (e.g. which emulated workload is running) that
    keys the summary as ``name[label]``.
    """

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op, label]`` rows, in start order.
        self.spans: list[list] = []
        self.op = None
        self.label = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.op, self.label]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def aggregate(self, name: str, seconds: float) -> None:
        """Add a span of ``seconds`` summed duration under the open span."""
        now = time.perf_counter()
        self.spans.append([name, now - seconds, now, self._stack[-1] if self._stack else None,
                           self.op, self.label])

    def summary(self) -> dict[str, dict]:
        """Per ``name`` (or ``name[label]``): count, total and self seconds.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _label in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, _op, label) in enumerate(self.spans):
            key = f"{name}[{label}]" if label else name
            entry = out.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return out


class NullTracer:
    """The untraced run's tracer: every call is a no-op."""

    enabled = False
    op = None
    label = ""

    def span(self, name: str):
        return nullcontext()

    def aggregate(self, name: str, seconds: float) -> None:
        pass
