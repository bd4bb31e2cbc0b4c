"""In-memory spans around calls into the cqs layers.

A span is (name, start, end, parent, job): `parent` is the index of the
enclosing span in `Tracer.spans` (-1 at top level) and `job` is the job id
current when the call began ("setup" before the first job).  Spans are made
by wrapping a function where a caller looks it up: an attribute of a module
or namespace, or an entry of a dict.  Nothing under src/ is edited; the
patches are undone when `Tracer.patched` exits.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (job, name) -> total
        self.job = "setup"
        self._stack: list[int] = []

    def count(self, name: str, value: float) -> None:
        self.counts[(self.job, name)] += value

    def wrap(self, name: str, fn, counter=None):
        """Return `fn` recording a span named `name` per call; `counter`,
        if given, is called as counter(tracer, args, result) afterwards."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap every (holder, key, span name, counter) target for the
        duration of the block."""
        with ExitStack() as stack:
            for holder, key, name, counter in targets:
                stack.enter_context(
                    replaced(holder, key, self.wrap(name, lookup(holder, key), counter))
                )
            yield self

    def self_times(self) -> dict:
        """(job, name) -> summed self time in seconds: each span's duration
        minus the time covered by its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            totals[(job, name)] += end - start - child_time[index]
        return totals

    def dump(self, path) -> None:
        """Write every span once, as one JSON document."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.spans,
            "counts": [[job, name, value] for (job, name), value in sorted(
                self.counts.items(), key=lambda item: (str(item[0][0]), item[0][1]))],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(doc, handle)


def lookup(holder, key):
    """A dict holder is read by item, anything else by attribute."""
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


@contextmanager
def replaced(holder, key, value):
    """Bind `value` in place of holder's `key` for the duration of the block."""
    original = lookup(holder, key)
    _bind(holder, key, value)
    try:
        yield original
    finally:
        _bind(holder, key, original)


def _bind(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)
