"""E3 — Table 1: the Misspeculation Table.

Paper Table 1 lists, per misspeculated window: ID, start cycle, end
cycle, the raw instruction word, and its readable form (e.g.
``FBEC52E3  BGE S8, T5, 0x800025B0``).

This bench runs the special seeds plus a short fuzzing burst, extracts
every speculative window *from the traces alone* (the ROB ``unsafe`` /
``brupdate`` signals, §3.2 Step 1), and renders the MST in the paper's
format.
"""

import pytest

from repro.core.specure import Specure
from repro.detection.windows import extract_windows
from repro.fuzz.seeds import special_seeds
from repro.isa.instructions import decode

from benchmarks.conftest import campaign_spec, emit


def build_mst():
    specure = Specure(campaign_spec(seed=21, coverage="lp"))
    online = specure.build_online()
    ground_truth = 0
    for seed in special_seeds():
        result = specure.core.run(seed)
        ground_truth += len(result.mispredicted_windows())
        online.mst.add_windows(extract_windows(result.trace))
    report = specure.campaign(iterations=25)
    return online.mst, report.mst, ground_truth


def test_e3_misspeculation_table(benchmark):
    seed_mst, campaign_mst, ground_truth = benchmark.pedantic(
        build_mst, rounds=1, iterations=1
    )
    emit(seed_mst.render(limit=12))
    emit(f"(campaign MST accumulated {len(campaign_mst)} further rows "
         f"over 25 fuzzing iterations)")
    # Shape 1: the trace-derived MST matches the simulator ground truth.
    assert len(seed_mst) == ground_truth
    # Shape 2: rows carry real misspeculations — every opener is a
    # control-flow instruction and every window has positive duration.
    for window in seed_mst.rows:
        assert decode(window.word).is_control_flow()
        assert window.end > window.start
    # Shape 3: the rendered table has the paper's columns.
    text = seed_mst.render()
    for column in ("ID", "Start", "End", "Instruction", "Instruction(Readable)"):
        assert column in text
    # Fuzzing keeps finding misspeculated windows.
    assert len(campaign_mst) > 0
