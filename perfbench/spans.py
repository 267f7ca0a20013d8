"""Spans taken at the benchmark's own call sites into parhiggs.

A span records name, start, end, parent span and operation id.  Spans stay
in memory and are written once, when the run ends.  Untraced runs use
``NoTrace``, whose ``call`` is a plain function call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NoTrace:
    """Calls straight through; the end-to-end numbers are measured with it."""

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, op_id):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, op_id]
        self._stack: list[int] = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per name: sum of duration minus the part covered by child spans."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
