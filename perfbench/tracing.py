"""Spans around the benchmark's calls into lgfeas layers.

A span records its name, start, end (``time.perf_counter`` seconds), the
span that was open when it started, and free attributes such as the case
label or a work count.  Spans stay in memory and are written once, when
the run ends.  ``NullTracer`` is what untraced runs use: its spans record
nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    def span(self, name: str, **attrs):
        return nullcontext({})
