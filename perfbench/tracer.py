"""In-memory span tracer that wraps the program's public names from outside.

A wrapper replaces a module attribute or class attribute for the life of the
process; it is only ever installed in a traced run, so untraced numbers never
pay for it. Each call records a span ``[name, start, end, parent]`` in a flat
list (``parent`` is the index of the enclosing span, -1 at the top) and may
add to named counters once the call returns. Hot geometry helpers get
count-only wrappers: a span per call would dominate the traced run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

CountFn = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def spanned(self, name: str, fn: Callable, *counts: CountFn) -> Callable:
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            for count in counts:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, root: str) -> dict[str, dict[str, float]]:
        """Busy time, self time and call count per span name, over the spans
        below top-level spans named ``root``.

        Busy time counts a name once per outermost call, so a recursive name
        is not counted twice.
        """
        own = self.self_times()
        table: dict[str, dict[str, float]] = {"busy": {}, "self": {}, "calls": {}}
        keep = [False] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            keep[index] = name == root if parent < 0 else keep[parent]
            if not keep[index]:
                continue
            table["calls"][name] = table["calls"].get(name, 0) + 1
            table["self"][name] = table["self"].get(name, 0.0) + own[index]
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < 0:
                table["busy"][name] = table["busy"].get(name, 0.0) + (end - start)
        return table

    def write(self, path) -> None:
        """Write every span as one JSON line, self time included."""
        own = self.self_times()
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start": start, "end": end, "self": own[index],
                }) + "\n")
