"""Hierarchical wall-clock spans with a swap-in/no-op recorder.

The module keeps one process-wide recorder slot.  By default it holds a
:class:`NullRecorder` whose ``span()`` returns a shared do-nothing
context manager — the instrumented hot paths (one ``span()`` call per
fuzz iteration) pay a method call and a ``with`` block, nothing else.
``enable()`` swaps in a real :class:`Recorder`; ``disable()`` swaps the
null one back and hands the caller the recorder it displaced.

Two entry points with different contracts:

* :func:`span` — records when telemetry is on, free no-op when off.
  Use it for pure instrumentation.
* :func:`timed` — **always** measures (exposing ``.seconds`` after the
  block) and *additionally* records a span when telemetry is on.  Use
  it where the measurement feeds persisted statistics
  (``OnlineStats.simulate_seconds``, baseline wall clocks) that must
  keep populating with telemetry off.

Span records carry the span *name* (``online/simulate``), its stack
depth, a start offset relative to the recorder's epoch, the inclusive
duration, and the exclusive self-time (children subtracted as they
finish).  Names repeat across shards on purpose: the stats layer
aggregates by name, and the shard identity lives in the ``shard/<k>``
span plus the per-shard file the records land in.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace

from repro.telemetry.metrics import MetricSet


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    depth: int
    start: float          # seconds since the recorder's epoch
    seconds: float        # inclusive wall time
    self_seconds: float   # exclusive wall time (children removed)

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "depth": self.depth,
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
            "self_seconds": round(self.self_seconds, 6),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            name=data["name"],
            depth=int(data.get("depth", 0)),
            start=float(data.get("start", 0.0)),
            seconds=float(data["seconds"]),
            self_seconds=float(data.get("self_seconds", data["seconds"])),
        )


class _Frame:
    __slots__ = ("name", "depth", "start", "child_seconds")

    def __init__(self, name: str, depth: int, start: float) -> None:
        self.name = name
        self.depth = depth
        self.start = start
        self.child_seconds = 0.0


class _ActiveSpan:
    """Context manager handed out by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "_name", "_frame", "seconds")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._frame = None
        self.seconds = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._frame = self._recorder._push(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = self._recorder._pop(self._frame)
        return False


class _NullSpan:
    """Shared no-op span: enters, exits, measures nothing."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Stopwatch:
    """Measures like a span but records nothing (telemetry off)."""

    __slots__ = ("_start", "seconds")

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._start
        return False


class TelemetryWindow:
    """Spans + metrics captured between ``window()`` enter and exit."""

    __slots__ = ("spans", "metrics")

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.metrics: MetricSet = MetricSet()


class _Window:
    """Scopes a recorder to one unit of work (a shard execution).

    On entry it marks the finished-span list and swaps in a fresh
    :class:`MetricSet`; on exit it *takes* the spans finished inside the
    window out of the recorder and restores the previous metric set.
    The taken spans still contributed child-time to any enclosing frame
    before removal, so a parent span's self-time stays correct — this is
    how an inline shard's records end up only in the shard's own file
    while the parent campaign file keeps just campaign-level spans.
    """

    __slots__ = ("_recorder", "_mark", "_saved_metrics", "_window")

    def __init__(self, recorder: "Recorder") -> None:
        self._recorder = recorder

    def __enter__(self) -> TelemetryWindow:
        rec = self._recorder
        self._window = TelemetryWindow()
        with rec._lock:
            self._mark = len(rec._spans)
        self._saved_metrics = rec.metrics
        rec.metrics = self._window.metrics
        return self._window

    def __exit__(self, *exc) -> bool:
        rec = self._recorder
        with rec._lock:
            self._window.spans = rec._spans[self._mark:]
            del rec._spans[self._mark:]
        rec.metrics = self._saved_metrics
        return False


class Recorder:
    """Collects finished spans and metrics for one process.

    Span stacks are thread-local (each thread nests independently); the
    finished-span list and the metric set are lock-guarded, so worker
    threads may record concurrently.  Cross-*process* safety comes from
    the export layer: each worker process runs its own recorder and
    writes its own shard file, merged by shard id afterwards.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: The process that installed this recorder: a forked worker
        #: inherits a copy whose records would never reach the parent.
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._local = threading.local()
        self.metrics = MetricSet()

    # -- spans --------------------------------------------------------------

    def span(self, name: str) -> _ActiveSpan:
        return _ActiveSpan(self, name)

    def _push(self, name: str) -> _Frame:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = _Frame(name, len(stack), time.perf_counter())
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        seconds = end - frame.start
        if stack:
            stack[-1].child_seconds += seconds
        record = SpanRecord(
            name=frame.name,
            depth=frame.depth,
            start=frame.start - self.epoch,
            seconds=seconds,
            self_seconds=max(0.0, seconds - frame.child_seconds),
        )
        with self._lock:
            self._spans.append(record)
        return seconds

    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def window(self) -> _Window:
        return _Window(self)

    def absorb(self, spans: list[SpanRecord], metrics: MetricSet) -> None:
        """Fold another process's finished spans and metrics in.

        The spans nest under this thread's open span, as they would
        had they run inline; they add no child time to it, because
        they ran beside it.  Metrics merge additively.
        """
        depth = len(getattr(self._local, "stack", None) or ())
        with self._lock:
            self._spans.extend(replace(span, depth=span.depth + depth)
                               for span in spans)
        self.metrics = self.metrics.merge(metrics)

    # -- metrics ------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)


class NullRecorder:
    """The disabled recorder: every operation is a no-op."""

    enabled = False
    metrics = None
    pid = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> list[SpanRecord]:
        return []

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass


_NULL_RECORDER = NullRecorder()
_RECORDER: Recorder | NullRecorder = _NULL_RECORDER


def recorder() -> Recorder | NullRecorder:
    """The process-wide recorder (the null singleton when disabled)."""
    return _RECORDER


def enabled() -> bool:
    return _RECORDER.enabled


def enable(rec: Recorder | None = None) -> Recorder:
    """Install ``rec`` (or a fresh Recorder) as the process recorder."""
    global _RECORDER
    if rec is None:
        rec = Recorder()
    _RECORDER = rec
    return rec


def disable() -> Recorder | None:
    """Swap the null recorder back in; returns the displaced recorder."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = _NULL_RECORDER
    return previous if isinstance(previous, Recorder) else None


def span(name: str):
    """A recording span when telemetry is on, a shared no-op when off."""
    return _RECORDER.span(name)


def timed(name: str):
    """A context manager that always measures and exposes ``.seconds``.

    Records a span too when telemetry is enabled; degrades to a bare
    :class:`Stopwatch` when disabled so callers that feed persisted
    statistics keep getting real numbers either way.
    """
    rec = _RECORDER
    return rec.span(name) if rec.enabled else Stopwatch()


def count(name: str, value: float = 1) -> None:
    _RECORDER.count(name, value)


def gauge(name: str, value: float) -> None:
    _RECORDER.gauge(name, value)
