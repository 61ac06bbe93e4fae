"""Per-shard heartbeat + telemetry log writer.

Each shard execution owns one ``telemetry/shard-<k>.jsonl`` file inside
the run directory.  The writer truncates the file when the shard
starts (a resumed shard replaces its crashed predecessor's debris) and
then appends:

* a ``meta`` line describing the shard (scenario, seed, pid, jobs),
* a ``heartbeat`` line every ``interval`` fuzz iterations — shard id,
  iteration index, LP-coverage size, wall-clock timestamp, RSS —
  flushed per line so a killed worker leaves a truthful partial log,
* on clean completion: the shard's span records, its metric set, and a
  final ``complete`` marker.

The heartbeat *cadence* is iteration-based, never time-based: the set
of (shard, iteration, coverage) heartbeat rows is a deterministic
function of the scenario and seed, identical across ``--jobs`` counts;
only timestamps and RSS vary by machine.  A file whose last record is
not ``complete`` marks a crashed or still-running shard — that, plus
the timestamp of its last heartbeat, is what ``repro stats`` surfaces
as shard lag.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

from repro.telemetry import export
from repro.telemetry.metrics import MetricSet
from repro.telemetry.spans import SpanRecord
from repro.utils import rundir

#: Fuzz iterations between heartbeat lines.
HEARTBEAT_INTERVAL = 10


def rss_kb() -> int:
    """Peak resident set size of this process in KiB."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        usage //= 1024
    return int(usage)


class HeartbeatWriter:
    """Streams one shard's telemetry log, heartbeat lines included."""

    def __init__(self, directory: Path | str, shard: int,
                 interval: int = HEARTBEAT_INTERVAL,
                 clock=time.time) -> None:
        self.shard = shard
        self.interval = max(1, interval)
        self.path = Path(directory) / rundir.shard_file(shard, ".jsonl")
        self._clock = clock
        self.last_iteration = -1
        self.last_coverage = 0
        #: Records that failed to reach disk (disk full, telemetry dir
        #: deleted mid-run, ...).  Telemetry is an observer: a failed
        #: write degrades to a dropped record and bumps this counter —
        #: it must never abort the shard that is being observed.
        self.dropped = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    def _write(self, record: dict) -> None:
        try:
            self._handle.write(export.dump_line(record) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            # ValueError covers writes to a handle something external
            # already closed; OSError covers ENOSPC, deleted dirs, etc.
            self.dropped += 1

    def write_meta(self, **fields) -> None:
        self._write(export.meta_record("shard", shard=self.shard, **fields))

    def on_iteration(self, index: int, new_items: int,
                     coverage_size: int) -> None:
        """Fuzz-loop observer hook: beat every ``interval`` iterations."""
        self.last_iteration = index
        self.last_coverage = coverage_size
        if index % self.interval == 0:
            self._beat()

    def _beat(self) -> None:
        self._write(export.heartbeat_record(
            self.shard, self.last_iteration, self.last_coverage,
            self._clock(), rss_kb(),
        ))

    def finalize(self, spans: list[SpanRecord] = (),
                 metrics: MetricSet | None = None,
                 findings: int = 0) -> None:
        """Write the shard's spans/metrics and the complete marker."""
        if self.last_iteration >= 0 and self.last_iteration % self.interval:
            self._beat()  # final partial-interval beat
        for span in spans:
            self._write(span.to_dict())
        if metrics is not None and not metrics.is_empty():
            for record in export.metric_records(metrics):
                self._write(record)
        self._write(export.complete_record(
            self.shard, iterations=self.last_iteration + 1,
            findings=findings,
        ))
        self.close()

    def close(self) -> None:
        try:
            if not self._handle.closed:
                self._handle.close()
        except OSError:
            self.dropped += 1  # final buffered data lost with the handle

    def __enter__(self) -> "HeartbeatWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
