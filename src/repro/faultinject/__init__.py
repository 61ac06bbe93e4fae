"""Deterministic fault injection for resilience testing.

The chaos harness arms exactly one :class:`ChaosPlan` per process tree
via the ``REPRO_CHAOS`` environment variable (inline JSON, or ``@path``
to a JSON file).  A plan names a fault ``kind``, the shard and fuzz
iteration it fires at, and how many times it may fire (``trips``)
counted across *all* processes through a byte-append trip file in
``state`` — so an injected worker crash fires on the first attempt and
the deterministic retry runs clean, proving the recovery path end to
end.

Fault kinds:

``worker-crash``
    ``SIGKILL`` the worker process after the matching iteration — the
    executor's watchdog must replace the worker and retry the unit.
``worker-hang``
    Sleep ``hang_s`` seconds inside the fuzz loop — the per-unit
    wall-clock watchdog must kill and retry.
``torn-write``
    Append a truncated JSONL fragment to the shard's telemetry log,
    then ``SIGKILL`` — readers must tolerate the torn line and the
    retry must truncate the debris.
``step-exception``
    Raise :class:`ChaosError` inside the online step loop — the fuzz
    loop must contain it as a crash finding and keep iterating.

All hooks are no-ops (one environment lookup) when ``REPRO_CHAOS`` is
unset, so production campaigns pay nothing.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.utils import rundir

ENV_VAR = "REPRO_CHAOS"

KINDS = ("worker-crash", "worker-hang", "torn-write", "step-exception")


class ChaosError(RuntimeError):
    """The injected step-loop exception (contained as a crash finding)."""


@dataclass(frozen=True)
class ChaosPlan:
    """One armed fault: what fires, where, and how often."""

    kind: str
    shard: int = 0
    iteration: int = 0
    #: Total times the fault may fire, counted across every process via
    #: the ``state`` trip file.  With no ``state`` directory the budget
    #: is unlimited — every matching point fires (the way to drive a
    #: shard all the way into quarantine).
    trips: int = 1
    state: str | None = None
    hang_s: float = 600.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r} (expected one of "
                f"{', '.join(KINDS)})")


def plan_from_dict(data: dict) -> ChaosPlan:
    unknown = set(data) - {"kind", "shard", "iteration", "trips", "state",
                           "hang_s"}
    if unknown:
        raise ValueError(f"unknown chaos plan key(s): "
                         f"{', '.join(sorted(unknown))}")
    if "kind" not in data:
        raise ValueError("chaos plan needs a 'kind'")
    return ChaosPlan(**data)


_CACHE: tuple[str, ChaosPlan] | None = None


def active_plan() -> ChaosPlan | None:
    """The armed plan, or None.  Cached per ``REPRO_CHAOS`` value."""
    global _CACHE
    value = os.environ.get(ENV_VAR)
    if not value:
        return None
    if _CACHE is not None and _CACHE[0] == value:
        return _CACHE[1]
    if value.startswith("@"):
        data = rundir.read_json_object(value[1:], ValueError)
    else:
        data = json.loads(value)
    plan = plan_from_dict(data)
    _CACHE = (value, plan)
    return plan


def _spend_trip(plan: ChaosPlan) -> bool:
    """Consume one firing from the cross-process trip budget.

    Appends one byte to the plan's trip file (``O_APPEND`` — atomic
    across processes) and fires while the file holds at most ``trips``
    bytes.  Without a state directory the budget is unlimited.
    """
    if plan.state is None:
        return True
    path = Path(plan.state)
    path.mkdir(parents=True, exist_ok=True)
    fd = os.open(path / f"{plan.kind}.trips",
                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"x")
        spent = os.fstat(fd).st_size
    finally:
        os.close(fd)
    return spent <= plan.trips


# -- step-exception: fired from inside the online step loop ----------------

#: Shard + evaluate-call counter for the process's current shard task —
#: the step loop itself knows neither, so the runner arms them.
_CONTEXT: list = [None, 0]  # [shard, evaluations seen]


def set_context(shard: int | None) -> None:
    """Arm the in-process context for step-exception matching."""
    _CONTEXT[0] = shard
    _CONTEXT[1] = 0


def maybe_step_exception() -> None:
    """Raise :class:`ChaosError` at the armed (shard, iteration) point.

    Called once per :meth:`OnlinePhase.evaluate`; the call index equals
    the fuzz iteration index, so the fault lands on a deterministic,
    seed-stable program.
    """
    plan = active_plan()
    if plan is None or plan.kind != "step-exception":
        return
    if _CONTEXT[0] != plan.shard:
        return
    index = _CONTEXT[1]
    _CONTEXT[1] = index + 1
    if index == plan.iteration and _spend_trip(plan):
        raise ChaosError(
            f"injected step exception (shard {plan.shard}, "
            f"iteration {index})")


# -- process-level faults: fired from the fuzz-loop observer ----------------

def fuzz_observer(shard: int, telemetry_path: Path | str | None = None):
    """Per-iteration hook firing the process-level faults, or None.

    Returns a ``(index, new_items, coverage)`` callable suitable for
    composing into the shard's :class:`FuzzObserver` when a
    ``worker-crash``/``worker-hang``/``torn-write`` plan targets this
    shard; None when no such plan is armed.
    """
    plan = active_plan()
    if plan is None or plan.kind == "step-exception" or plan.shard != shard:
        return None

    def fire(index: int, new_items: int, coverage_size: int) -> None:
        if index != plan.iteration or not _spend_trip(plan):
            return
        if plan.kind == "worker-hang":
            time.sleep(plan.hang_s)
        elif plan.kind == "torn-write":
            if telemetry_path is not None:
                with open(telemetry_path, "a", encoding="utf-8") as handle:
                    handle.write('{"type": "heartbeat", "shard"')
            os.kill(os.getpid(), signal.SIGKILL)
        else:  # worker-crash
            os.kill(os.getpid(), signal.SIGKILL)

    return fire
