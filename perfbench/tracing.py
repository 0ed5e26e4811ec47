"""Span wrappers installed around mlrook's public functions from outside.

``Tracer.install`` wraps every function in each layer module's
``__all__`` and the public methods of the classes listed there, then
rebinds every name in every ``mlrook`` module that refers to a wrapped
function, so calls between modules (``cancellation`` calling
``placements.enumerate_file_placements`` through its own import) are
traced too.  ``uninstall`` restores the originals.

A layer's busy time is self time: a span's duration minus the time its
child spans cover.  Generators are timed over their whole iteration:
each resume is a segment, and only resumed time counts as the
generator's, so a consumer's work between two items is never charged to
the producer.  Span records (id, name, start, end, parent, query) are
kept in memory up to a cap and written out by the caller when the run
ends; busy times and call counts are exact whatever the cap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("boards", "placements", "ffpoly", "rooktheory", "cancellation", "cli")
KEEP_SPANS = 50_000  # span records kept per run; a traced cover pass makes over a million


class Tracer:
    """Self time and call counts per layer, plus a bounded list of spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.query = None  # id of the query in flight, stamped on each span
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._next_id = 0
        self._stack: list[list] = []  # open segments: [span id, time covered by children]
        self._restore: list[tuple] = []

    def reset_counts(self) -> None:
        self.busy.clear()
        self.calls.clear()

    def _open(self, layer: str) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        self.calls[layer] += 1
        return sid, (self._stack[-1][0] if self._stack else -1)

    def _close(self, frame: list, layer: str, dur: float) -> None:
        stack = self._stack
        stack.pop()
        self.busy[layer] += dur - frame[1]
        if stack:
            stack[-1][1] += dur

    def _record(self, span: tuple) -> None:
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def wrap(self, fn, layer: str, name: str):
        """A traced stand-in for ``fn``, charged to ``layer``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open(layer)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(frame, layer, t1 - t0)
                self._record((sid, name, t0, t1, parent, self.query))

        return traced

    def _wrap_generator(self, fn, layer: str, name: str):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open(layer)
            it = fn(*args, **kwargs)  # runs none of the body yet
            first = last = None
            try:
                while True:
                    frame = [sid, 0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        self._close(frame, layer, last - t0)
                        if first is None:
                            first = t0
                    yield item
            finally:
                it.close()
                if first is not None:
                    self._record((sid, name, first, last, parent, self.query))

        return traced

    def install(self, package) -> None:
        """Wrap the layer modules of an imported ``mlrook`` package."""
        prefix = package.__name__ + "."
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, layer)
        modules = [package] + [m for k, m in sys.modules.items() if k.startswith(prefix)]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self.wrap(value.__func__, layer, name))
            elif inspect.isfunction(value):
                new = self.wrap(value, layer, name)
            else:
                continue  # properties and plain attributes
            self._restore.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self) -> dict:
        """The kept spans, with times relative to the earliest one."""
        base = min((s[2] for s in self.spans), default=0.0)
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "query"],
            "spans": [[i, n, s - base, e - base, p, q] for i, n, s, e, p, q in self.spans],
            "dropped": self.dropped,
        }
