"""Campaigns leave no reference cycles of ``repro`` objects behind.

The fuzzing loop pauses the cyclic garbage collector (see
:meth:`repro.fuzz.fuzzer.Fuzzer.run`), trusting that every per-run
artifact is freed by reference counting alone.  Each check here runs a
campaign with ``gc.DEBUG_SAVEALL`` set, so everything the collector
has to free lands in ``gc.garbage``, and asserts that none of it
belongs to this package.  A cycle through a simulation engine keeps its
netlist and its last trace alive until the next collection, which with
the collector paused can multiply a campaign's peak memory.

Objects of the standard library are allowed: its pure-Python JSON
encoder (``indent=`` output) builds self-referencing closures.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.harness import parallel
from repro.scenarios import get_scenario, run_scenario


def _cyclic_garbage(run) -> list:
    """Everything the cyclic collector frees during and after ``run()``."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _module_of(obj) -> str:
    """The module that owns ``obj``: its type's, or for a function or
    method, the module its code was defined in."""
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or ""
    return type(obj).__module__


def _repro_objects(garbage: list) -> dict[str, int]:
    counts: dict[str, int] = {}
    for obj in garbage:
        module = _module_of(obj)
        if module == "repro" or module.startswith("repro."):
            name = f"{module}.{type(obj).__qualname__}"
            counts[name] = counts.get(name, 0) + 1
    return counts


def test_loop_campaign_leaves_no_repro_cycles():
    """An ift-hunt-style campaign: BOOM, IFT detection, LP coverage and
    the mutation engine, built and run through the public API."""
    spec = get_scenario("spectre-v1-no-seeds").override(
        seed=7, iterations=4, stop_kind=None)

    def run():
        spec.build_specure().build_campaign().run(spec.iterations)

    garbage = _cyclic_garbage(run)
    assert _repro_objects(garbage) == {}


@pytest.mark.parametrize("jobs", [1, 2])
def test_stored_run_leaves_no_repro_cycles(tmp_path, jobs):
    """A stored, minimized ``run_scenario``; the shared per-PUT statics
    are dropped afterwards so the core and its engine are checked too."""
    spec = get_scenario("dcache-monitor-sweep").override(
        seed=11, iterations=1, shards=2)

    def run():
        try:
            run_scenario(spec, tmp_path / "run", jobs=jobs, minimize=True)
        finally:
            parallel.shutdown_pool()
            parallel._WORKER_STATICS.clear()

    garbage = _cyclic_garbage(run)
    assert _repro_objects(garbage) == {}
