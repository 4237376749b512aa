"""Timing helpers: percentiles, the span recorder, and memory readings."""

from __future__ import annotations

import json
import os
import resource
import statistics
import threading
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

#: Where traced runs write their spans and the server writes its log.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


class Span:
    """One timed call: name, start, end, parent span and request id."""

    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid: int, name: str, parent: Optional[int], request):
        self.sid = sid
        self.name = name
        self.start = perf_counter()
        self.end = 0.0
        self.parent = parent
        self.request = request

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class Tracer:
    """Keeps spans in memory; :meth:`write` saves them when the run ends.

    With ``enabled=False`` :meth:`open` returns ``None`` and records
    nothing, so the untraced path pays one attribute test per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next = 0

    def open(self, name: str, parent: Optional[Span] = None, request=None) -> Optional[Span]:
        if not self.enabled:
            return None
        with self._lock:
            self._next += 1
            sid = self._next
        return Span(sid, name, parent.sid if parent is not None else None, request)

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = perf_counter()
        with self._lock:
            self.spans.append(span)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus what children cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
                start = max(child.start, edge)
                if child.end > start:
                    covered += child.end - start
                    edge = child.end
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - covered) * 1000.0
        return totals

    def write(self, path: str, summary: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "summary": summary,
                    "self_ms": self.self_times_ms(),
                    "spans": [s.as_dict() for s in sorted(self.spans, key=lambda s: s.sid)],
                },
                handle,
            )


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
