"""In-memory spans for the traced benchmark run.

A span records a name, its start and end on the ``perf_counter`` clock and
the index of the span that was open when it started (its parent).  Spans
are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects the spans of one benchmark pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), float("nan"), parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def totals(self) -> dict[str, float]:
        """Summed duration of the spans of each name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_totals(self) -> dict[str, float]:
        """Summed duration of each name minus the time its child spans cover.

        The benchmark is single-threaded, so the children of one span never
        overlap and their durations add up to the interval they cover.
        """
        out = self.totals()
        for s in self.spans:
            if s.parent is not None:
                parent = self.spans[s.parent].name
                out[parent] -= s.end - s.start
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def wrapped_module_names(tracer: Tracer, module, names: dict[str, str]):
    """Temporarily replace ``module.<attr>`` by a traced wrapper for each attr.

    ``names`` maps attribute names to span names.  Yields the attributes the
    module does not have; those are left alone and reported as missing.
    Every replaced attribute is restored on exit.
    """
    originals = {}
    missing = []
    for attr, span_name in names.items():
        if hasattr(module, attr):
            originals[attr] = getattr(module, attr)
            setattr(module, attr, tracer.wrap(originals[attr], span_name))
        else:
            missing.append(attr)
    try:
        yield missing
    finally:
        for attr, function in originals.items():
            setattr(module, attr, function)
