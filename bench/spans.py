"""Spans around calls into aqec's public functions, installed from outside.

A Tracer replaces a function or method with a wrapper that records one span
per call: name, parent span, start, end, and an optional count taken from the
call.  Functions are replaced at every binding inside the aqec package, so a
call made from one module into another is seen as well as a call made by the
benchmark.  Spans stay in memory until ``write`` puts them in a CSV file.
"""

from __future__ import annotations

import csv
import sys
import time
from functools import wraps

SPAN_FIELDS = ("id", "parent", "name", "start_s", "end_s", "info")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end, info)
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, parent, start, end,
                          info(args, kwargs, result) if info else None)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, info=None) -> None:
        """Replace module.attr at every aqec binding that holds the same object."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, info)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aqec" or mod_name.startswith("aqec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, info=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, info))
        self._restore.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def window(self, start: float, end: float) -> list:
        """Indices of the spans that started in [start, end)."""
        return [i for i, s in enumerate(self.spans) if s is not None and start <= s[2] < end]

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        out = [s[3] - s[2] for s in self.spans]
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path, describe) -> None:
        """One CSV row per span; describe(name, info) gives the info column."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(SPAN_FIELDS)
            for i, (name, parent, start, end, info) in enumerate(self.spans):
                out.writerow((i, parent, name, f"{start:.9f}", f"{end:.9f}",
                              describe(name, info)))
