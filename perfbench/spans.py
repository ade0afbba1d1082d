"""Span recorder for the benchmark's traced run.

Spans are recorded only from the benchmark's own files, around each call into
a detlab layer: name (``<layer>.<call>``), start, end, parent span and pass
id. They stay in memory and are written as JSON Lines when the run ends.
A disabled tracer hands out one shared no-op context, so untraced passes pay
only an attribute lookup per layer call.
"""

from __future__ import annotations

import contextlib
import json
import time

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.pass_id: str | None = None
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        """Context manager timing one layer call; a no-op when disabled."""
        return self._record(name, attrs) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def total(self, prefix: str, pass_id: str | None = None) -> float:
        """Summed duration of the spans whose name starts with prefix."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"].startswith(prefix) and (pass_id is None or s["pass"] == pass_id)
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
