"""Change-event signal traces ("waveforms") with indexed, columnar storage.

The paper's Microarchitecture Visualizer dumps waveforms and slices them
into per-cycle snapshots of the whole processor state.  Materialising a
full snapshot per cycle is VCD-scale data, so — like a waveform file — we
store the *initial state plus change events* and reconstruct snapshots on
demand.

Storage is **columnar**: four parallel machine-typed arrays (cycle,
signal index, old value, new value) instead of one Python object per
event.  A campaign appends 10-25k events per iteration, hundreds of
thousands per run of the bench harness — as tuples those dominate both
the allocator and the cyclic garbage collector, and every query path
pays per-event unpacking.  The columns keep recording at four C-level
appends, let queries walk exactly the columns they need (a toggle count
reads one column, a boundary diff three), and drop per-event memory from
a tracked 4-tuple to 32 raw bytes.  :class:`ChangeEvent` objects are
materialised only when a caller explicitly asks for them
(:attr:`SignalTrace.events`, :meth:`SignalTrace.events_in`,
:meth:`SignalTrace.events_for_signals`); every internal consumer works
positionally over :meth:`SignalTrace.columns`.

Reconstruction is served by three indexes, all derived from the fact
that events are appended in cycle order:

* the **cycle column itself** is the global bisect index for
  ``snapshot()``, ``events_in()`` and window bounds;
* a **per-signal index** (event positions and cycles per signal, also
  machine-typed arrays) so ``value_of()`` is a single bisect and
  consumers like the window extractor can walk only the events of the
  signals they care about (:meth:`SignalTrace.signal_event_positions`);
* a **per-window view cache** (:meth:`SignalTrace.window_view`): the
  Leakage Detector, the Vulnerability Detector and the LP Coverage
  Calculator all interrogate the *same* speculative windows, so each
  window's derivations are computed once per trace and shared.  Views
  hold column references, never the trace itself, so a trace and its
  cached views form no reference cycle — run artifacts free by
  reference counting alone, without waiting on the cyclic collector.

``events_examined`` counts how many events each query path actually
touched; the E9 benchmark uses it to pin the indexed fast path against
the naive full-scan cost, and the bench gate uses it as a
machine-independent regression check.

A retained reference implementation with the same API but the seed's
plain event-list storage lives in ``tests/trace_reference.py``; the
equivalence suite (``tests/test_trace_columnar.py``) drives both through
random record/query interleavings and requires identical answers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress
from operator import ne
from typing import NamedTuple


class ChangeEvent(NamedTuple):
    """One signal change: at the end of ``cycle``, ``signal`` became ``new``.

    Materialised *on request only* — the trace stores columns, not event
    objects.  A :class:`~typing.NamedTuple` so the (cold) consumers that
    do ask for events (toggle coverage, tests) keep field access by name
    at tuple cost.
    """

    cycle: int
    signal: int  # index into the trace's signal-name table
    old: int
    new: int


class TraceColumns(NamedTuple):
    """Read-only view of the trace's four event columns.

    Parallel arrays, one entry per event in append (cycle) order.
    ``cycles`` and ``signals`` are signed 64-bit (``'q'``), ``olds`` and
    ``news`` unsigned (``'Q'``) — traced values are masked 64-bit words.
    Callers must treat the arrays as immutable; they are the live
    storage, not copies.
    """

    cycles: array
    signals: array
    olds: array
    news: array


class WindowView:
    """Cached per-window query results over one ``[start, end]`` slice.

    Holds references to the trace's *columns* and telemetry cell — never
    the trace object itself — so trace and view form no reference cycle.
    Derivations are computed lazily and memoised per view, and split by
    the columns they need: ``toggled()``/``counts()`` walk only the
    signal column, while ``diff()`` (asked only for misspeculated
    windows, a small minority) walks signal+old+new.
    """

    __slots__ = ("start", "end", "_lo", "_hi", "_cycles", "_signals",
                 "_olds", "_news", "_examined",
                 "_toggled", "_counts", "_diff")

    def __init__(self, columns: TraceColumns, examined: list,
                 start: int, end: int, lo: int, hi: int):
        self._cycles, self._signals, self._olds, self._news = columns
        self._examined = examined
        self.start = start
        self.end = end
        self._lo = lo
        self._hi = hi
        self._toggled: set[int] | None = None
        self._counts: dict[int, int] | None = None
        self._diff: dict[int, tuple[int, int]] | None = None

    @property
    def events(self) -> list[ChangeEvent]:
        """The window's change events (cycle-ordered, materialised)."""
        lo, hi = self._lo, self._hi
        new = tuple.__new__
        return [
            new(ChangeEvent, quad)
            for quad in zip(self._cycles[lo:hi], self._signals[lo:hi],
                            self._olds[lo:hi], self._news[lo:hi])
        ]

    def __len__(self) -> int:
        return self._hi - self._lo

    def _derive_toggled(self) -> None:
        """The toggled-signal set: one C-level ``set()`` over the slice.

        This is the hottest derivation (LP coverage asks it for *every*
        speculative window), so it deliberately does not piggyback the
        per-signal count dict — ``set(array_slice)`` runs an order of
        magnitude faster than a Python counting loop, and counts are a
        cold path (energy analysis, tests).
        """
        self._examined[0] += self._hi - self._lo
        self._toggled = set(self._signals[self._lo:self._hi])

    def _derive_counts(self) -> None:
        """One pass over the signal column fills the per-signal counts."""
        self._examined[0] += self._hi - self._lo
        counts: dict[int, int] = {}
        counts_get = counts.get
        for signal in self._signals[self._lo:self._hi]:
            counts[signal] = counts_get(signal, 0) + 1
        self._counts = counts
        if self._toggled is None:
            self._toggled = set(counts)

    def _derive_diff(self) -> None:
        """One pass over signal+old+new fills the boundary diff."""
        lo, hi = self._lo, self._hi
        self._examined[0] += hi - lo
        first_old: dict[int, int] = {}
        last_new: dict[int, int] = {}
        for signal, old, new in zip(self._signals[lo:hi],
                                    self._olds[lo:hi], self._news[lo:hi]):
            if signal not in first_old:
                first_old[signal] = old
            last_new[signal] = new
        self._diff = {
            signal: (first_old[signal], last_new[signal])
            for signal in first_old
            if first_old[signal] != last_new[signal]
        }

    def toggled(self) -> set[int]:
        """Indices of signals that changed value inside the window."""
        if self._toggled is None:
            self._derive_toggled()
        return self._toggled

    def counts(self) -> dict[int, int]:
        """Per-signal change counts inside the window."""
        if self._counts is None:
            self._derive_counts()
        return self._counts

    def diff(self) -> dict[int, tuple[int, int]]:
        """Signals whose value differs across the window boundary.

        Maps signal index to ``(value_before_start, value_at_end)``.
        Because events carry their pre-change value, the boundary diff
        falls out of the slice alone: a signal's first in-window event
        holds the before-window value, its last the end-of-window value
        — no snapshot reconstruction needed.
        """
        if self._diff is None:
            self._derive_diff()
        return self._diff


class SignalTrace:
    """A recorded simulation: signal names, initial values, change events.

    Cycle convention: ``initial`` is the state *before* cycle 0 executes;
    an event with ``cycle == c`` means the signal changed during cycle
    ``c``, i.e. it is visible in the snapshot *at the end of* cycle ``c``.
    ``snapshot(c)`` returns the end-of-cycle-``c`` state; ``snapshot(-1)``
    returns the initial state.
    """

    def __init__(self, signal_names: list[str], initial: list[int],
                 _index_of: dict[str, int] | None = None):
        if len(signal_names) != len(initial):
            raise ValueError("signal_names and initial must have equal length")
        self.signal_names = list(signal_names)
        self.initial = list(initial)
        #: The four event columns (see :class:`TraceColumns`).  The
        #: cycle column doubles as the global bisect index.
        self._cycles = array("q")
        self._signals = array("q")
        self._olds = array("Q")
        self._news = array("Q")
        # The name->index map is shareable across traces of one netlist
        # (it is never mutated); rebuilt only when not supplied.
        self._index_of = (
            _index_of if _index_of is not None
            else {name: i for i, name in enumerate(signal_names)}
        )
        #: Per-signal index: event positions and cycles, parallel typed
        #: arrays per signal.  Built lazily (recording is the simulator's
        #: hot path; queries happen after a run ends) and extended
        #: incrementally.
        self._signal_positions: dict[int, array] = {}
        self._signal_cycles: dict[int, array] = {}
        self._signal_indexed = 0  # events already in the per-signal index
        #: Window-view cache, invalidated lazily: views built for an
        #: older event count are discarded on the next window_view()
        #: call, so the recording fast path never touches the cache.
        self._window_views: dict[tuple[int, int], WindowView] = {}
        self._window_views_len = 0
        #: Memoised snapshot: state after the first ``_snap_hi`` events.
        self._snap_hi = 0
        self._snap_state: list[int] | None = None
        #: Telemetry cell shared with every view this trace hands out
        #: (a one-slot list, so views need no trace back-reference).
        self._examined = [0]
        self.final_cycle = -1

    @property
    def events_examined(self) -> int:
        """Telemetry: total events examined by reconstruction queries."""
        return self._examined[0]

    @events_examined.setter
    def events_examined(self, value: int) -> None:
        self._examined[0] = value

    @property
    def events(self) -> list[ChangeEvent]:
        """The full event stream, materialised as :class:`ChangeEvent`.

        A fresh list per call — the storage is the columns.  Meant for
        cold consumers (toggle coverage, tests); hot paths use
        :meth:`columns` / :meth:`signal_event_positions`.
        """
        new = tuple.__new__
        return [
            new(ChangeEvent, quad)
            for quad in zip(self._cycles, self._signals,
                            self._olds, self._news)
        ]

    def columns(self) -> TraceColumns:
        """The live event columns (read-only by convention)."""
        return TraceColumns(self._cycles, self._signals,
                            self._olds, self._news)

    def index_of(self, name: str) -> int:
        """Index of a signal by hierarchical name."""
        return self._index_of[name]

    def record(self, cycle: int, signal: int, old: int, new: int) -> None:
        """Append a change event (cycles must be non-decreasing)."""
        if cycle < self.final_cycle:
            raise ValueError(
                f"events must be appended in cycle order ({cycle} < {self.final_cycle})"
            )
        self.record_unchecked(cycle, signal, old, new)

    def record_unchecked(self, cycle: int, signal: int, old: int,
                         new: int) -> None:
        """:meth:`record` minus the cycle-ordering check — four column
        appends.  Writers whose cycle counter is monotonic by
        construction and that :meth:`close` the trace when done
        (:class:`repro.boom.tracer.TraceWriter`) may instead append
        through :meth:`appenders`, which skips this call's per-event
        Python frame entirely.
        """
        self._cycles.append(cycle)
        self._signals.append(signal)
        self._olds.append(old)
        self._news.append(new)
        self.final_cycle = cycle

    def record_changes(self, cycle: int, old: list[int],
                       new: list[int]) -> None:
        """Append one event per signal whose value in ``new`` differs
        from ``old`` (both full, slot-indexed states), in slot order.

        The whole-state counterpart of :meth:`record_unchecked` for a
        simulator that produces one full state per cycle: the changed
        slots are found and the four columns extended at C level, with
        no per-signal Python frame.
        """
        changed = list(compress(range(len(new)), map(ne, old, new)))
        if changed:
            self._cycles.fromlist([cycle] * len(changed))
            self._signals.fromlist(changed)
            self._olds.fromlist([old[i] for i in changed])
            self._news.fromlist([new[i] for i in changed])
            self.final_cycle = cycle

    def appenders(self):
        """The four bound column-append methods, ``(cycle, signal, old,
        new)`` order — the sanctioned zero-overhead recording fast path.

        Contract for callers: append one value to *each* column per
        event, with non-decreasing cycles, and call :meth:`close` with
        the last cycle when recording ends (``final_cycle`` is not
        maintained per append on this path).  All query-side invariants
        (window-view cache, per-signal index, snapshot memo) are
        validated lazily against the column length, so they hold
        whichever append path was used.
        """
        return (self._cycles.append, self._signals.append,
                self._olds.append, self._news.append)

    def _ensure_signal_index(self) -> None:
        """Bring the per-signal index up to date with the event columns."""
        count = len(self._cycles)
        if self._signal_indexed == count:
            return
        positions = self._signal_positions
        cycles = self._signal_cycles
        positions_get = positions.get
        start = self._signal_indexed
        position = start
        for cycle, signal in zip(self._cycles[start:], self._signals[start:]):
            bucket = positions_get(signal)
            if bucket is None:
                positions[signal] = array("q", (position,))
                cycles[signal] = array("q", (cycle,))
            else:
                bucket.append(position)
                cycles[signal].append(cycle)
            position += 1
        self._signal_indexed = count

    def close(self, last_cycle: int) -> None:
        """Mark the end of the simulation (even if the tail was quiet)."""
        if self._cycles and self._cycles[-1] > self.final_cycle:
            # The appenders() fast path does not maintain final_cycle.
            self.final_cycle = self._cycles[-1]
        self.final_cycle = max(self.final_cycle, last_cycle)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def snapshot(self, cycle: int) -> list[int]:
        """Full state at the *end* of ``cycle`` (``-1`` = initial state).

        Bisects to the event range instead of scanning the stream, and
        resumes from the previously reconstructed snapshot when that one
        lies at or before ``cycle`` — so a cycle-ordered sequence of
        snapshot queries (the common case: window boundaries in cycle
        order) replays each event at most once overall.
        """
        hi = bisect_right(self._cycles, cycle)
        if self._snap_state is not None and self._snap_hi <= hi:
            state = list(self._snap_state)
            lo = self._snap_hi
        else:
            state = list(self.initial)
            lo = 0
        for signal, new in zip(self._signals[lo:hi], self._news[lo:hi]):
            state[signal] = new
        self._examined[0] += hi - lo
        self._snap_state = list(state)
        self._snap_hi = hi
        return state

    def value_of(self, name: str, cycle: int) -> int:
        """Value of one signal at the end of ``cycle`` (one bisect)."""
        index = self._index_of[name]
        self._ensure_signal_index()
        cycles = self._signal_cycles.get(index)
        if not cycles:
            return self.initial[index]
        pos = bisect_right(cycles, cycle)
        self._examined[0] += 1
        if pos == 0:
            return self.initial[index]
        return self._news[self._signal_positions[index][pos - 1]]

    def events_in(self, start: int, end: int) -> list[ChangeEvent]:
        """Events with ``start <= cycle <= end`` (cycle-ordered)."""
        lo = bisect_right(self._cycles, start - 1)
        hi = bisect_right(self._cycles, end)
        new = tuple.__new__
        return [
            new(ChangeEvent, quad)
            for quad in zip(self._cycles[lo:hi], self._signals[lo:hi],
                            self._olds[lo:hi], self._news[lo:hi])
        ]

    def signal_event_positions(self, indices) -> list[int]:
        """Positions of the given signals' events, in stream order.

        The zero-object counterpart of :meth:`events_for_signals`:
        consumers walk the returned positions against :meth:`columns`
        without a single event object being built.  When the per-signal
        index is already built it is merged; otherwise one filtered pass
        over the signal column answers the query without paying to index
        every signal (the common campaign case queries one fixed subset
        once per trace).
        """
        if self._signal_indexed == len(self._cycles):
            merged: list[int] = []
            for index in indices:
                bucket = self._signal_positions.get(index)
                if bucket is not None:
                    merged.extend(bucket)
            merged.sort()
            self._examined[0] += len(merged)
            return merged
        signals = self._signals
        if len(indices) <= 8:
            # Small subset (the window extractor's five ROB indicator
            # signals): repeated C-level array.index scans — one O(n)
            # pass per target signal — beat a Python loop over every
            # event by an order of magnitude.
            matched = []
            count = len(signals)
            for target in indices:
                start = 0
                while True:
                    try:
                        position = signals.index(target, start)
                    except ValueError:
                        break
                    matched.append(position)
                    start = position + 1
                    if start >= count:
                        break
            matched.sort()
        else:
            matched = [
                position for position, signal in enumerate(signals)
                if signal in indices
            ]
        self._examined[0] += len(matched)
        return matched

    def events_for_signals(self, indices: set[int]) -> list[ChangeEvent]:
        """All events of the given signals, materialised in stream order.

        Kept for API compatibility and cold callers; hot consumers
        (window extraction, the hardware-trace collector) walk
        :meth:`signal_event_positions` against :meth:`columns` instead.
        """
        cycles, signals, olds, news = (self._cycles, self._signals,
                                       self._olds, self._news)
        new = tuple.__new__
        return [
            new(ChangeEvent,
                (cycles[position], signals[position],
                 olds[position], news[position]))
            for position in self.signal_event_positions(indices)
        ]

    def window_view(self, start: int, end: int) -> WindowView:
        """The (cached) per-window query view for ``[start, end]``."""
        views = self._window_views
        count = len(self._cycles)
        if self._window_views_len != count:
            # Events were appended since the cache was filled: the old
            # views' bounds are stale for the new stream.
            views.clear()
            self._window_views_len = count
        key = (start, end)
        view = views.get(key)
        if view is None:
            lo = bisect_right(self._cycles, start - 1)
            hi = bisect_right(self._cycles, end)
            view = WindowView(self.columns(), self._examined,
                              start, end, lo, hi)
            views[key] = view
        return view

    def toggled_signals(self, start: int, end: int) -> set[int]:
        """Indices of signals that changed value in [start, end].

        Returns a fresh set (the cached window view keeps the memo), so
        callers may mutate the result freely.
        """
        return set(self.window_view(start, end).toggled())

    def toggle_counts(self, start: int, end: int) -> dict[int, int]:
        """Per-signal change counts in [start, end] (fresh dict)."""
        return dict(self.window_view(start, end).counts())

    def diff(self, start: int, end: int) -> dict[int, tuple[int, int]]:
        """Signals whose value differs between the end of ``start`` and
        the end of ``end``; maps signal index to (value_at_start,
        value_at_end).

        This is the paper's snapshot discrepancy: the Δ between the
        before-speculative and after-speculative snapshots.  Computed
        from the ``(start, end]`` event slice alone (first ``old``, last
        ``new`` per signal) — equivalent to comparing reconstructed
        snapshots, but proportional to the window's event count.
        """
        if end < start:  # degenerate reversed range: compare snapshots
            before = self.snapshot(start)
            after = self.snapshot(end)
            return {
                index: (before[index], after[index])
                for index in range(len(before))
                if before[index] != after[index]
            }
        return dict(self.window_view(start + 1, end).diff())

    def __len__(self) -> int:
        return len(self._cycles)
