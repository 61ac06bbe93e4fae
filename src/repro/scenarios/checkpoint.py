"""Mid-shard checkpoints: snapshot and restore a running campaign.

A checkpoint captures *everything* the remaining iterations of a shard
depend on that cannot be rebuilt — the fuzzer's RNG streams (input
scheduling and the mutation engine), its corpus (programs, discovery
counts, pick counters), the partial
:class:`~repro.fuzz.fuzzer.CampaignResult` (discovery log and
findings), and the online phase's accumulated state (work counts,
misspeculation table, covered PDLCs) — so a shard resumed from its
checkpoint makes exactly the draws and discoveries an uninterrupted run
would have made from that iteration on.  The wall-clock timings are
left out, so a record is a pure function of the shard's seed and
iteration.  The fuzzer's coverage set is rebuilt from the discovery
log; the coverage curve and the report list are derived from the
result.  The fidelity contract is pinned by test: checkpointed-resume
``report.txt`` is byte-identical to a straight run.

Records are JSON (one per shard, written atomically into the run
directory's checkpoint directory, :mod:`repro.utils.rundir`) and
validate against the ``checkpoint`` record type in
``docs/telemetry.schema.json``.  The golden-trace memo is deliberately
*not* captured: it is a pure cache, so a cold memo after resume changes
wall-clock counters only, never campaign output.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.detection.windows import DetectedWindow
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.scenarios.store import (
    campaign_result_from_dict,
    campaign_result_to_dict,
    online_stats_from_dict,
    program_from_dict,
    program_to_dict,
    window_to_dict,
)
from repro.utils import rundir

#: Bump when the state layout changes; mismatched checkpoints are
#: ignored (the shard restarts from iteration 0 — always correct).
CHECKPOINT_VERSION = 3


def save_checkpoint(directory: str | Path, shard: int, record: dict) -> None:
    """Atomically write one shard's checkpoint, so a crash mid-write
    leaves the previous checkpoint intact."""
    rundir.write_atomic(Path(directory) / rundir.shard_file(shard),
                        json.dumps(record) + "\n")


def load_checkpoint(directory: str | Path, shard: int) -> dict | None:
    """Read a shard's checkpoint; a missing, torn, or mislabelled file
    degrades to None (restart from iteration 0 — always correct)."""
    try:
        record = rundir.read_json_object(
            Path(directory) / rundir.shard_file(shard), ValueError)
    except (OSError, ValueError):
        return None
    if record.get("type") != "checkpoint" or record.get("shard") != shard:
        return None
    return record


def checkpoint_record(shard: int, seed: int, next_iteration: int,
                      campaign, result) -> dict:
    """Snapshot a mid-run ``SpecureCampaign`` into a JSON-able record.

    ``result`` is the partial :class:`CampaignResult` the fuzz loop
    hands to its ``on_checkpoint`` hook; ``next_iteration`` is the
    first iteration the resumed shard will execute.
    """
    fuzzer, online = campaign.fuzzer, campaign.online
    state = {
        "rng": fuzzer.rng.getstate(),
        "mutator_rng": fuzzer.mutator.rng.getstate(),
        "corpus": [
            {
                "program": program_to_dict(entry.program),
                "new_items": entry.new_items,
                "picks": entry.picks,
            }
            for entry in fuzzer.corpus.entries
        ],
        "result": campaign_result_to_dict(result),
        "online": {
            # Work counts only: the wall-clock timings would make the
            # record differ between two runs of the same campaign.
            "stats": online.stats.counts(),
            "mst": [window_to_dict(w) for w in online.mst.rows],
            "lp_covered": sorted(online.lp_covered),
        },
    }
    return {
        "type": "checkpoint",
        "version": CHECKPOINT_VERSION,
        "shard": shard,
        "seed": seed,
        "next_iteration": next_iteration,
        "state": state,
    }


def restore_campaign(record: dict, campaign):
    """Load a checkpoint into a freshly-built ``SpecureCampaign``.

    Returns ``(start_iteration, resume_result)`` for
    :meth:`SpecureCampaign.run`, or ``(0, None)`` when the record's
    version does not match this build (restart from scratch).
    """
    if record.get("version") != CHECKPOINT_VERSION:
        return 0, None
    state = record["state"]
    fuzzer, online = campaign.fuzzer, campaign.online

    fuzzer.rng.setstate(state["rng"])
    fuzzer.mutator.rng.setstate(state["mutator_rng"])
    fuzzer.corpus = Corpus(
        max_entries=fuzzer.corpus.max_entries,
        entries=[
            CorpusEntry(program_from_dict(entry["program"]),
                        entry["new_items"], picks=entry["picks"])
            for entry in state["corpus"]
        ],
    )

    saved = state["online"]
    online.stats = online_stats_from_dict(saved["stats"])
    online.mst.rows = [DetectedWindow(**w) for w in saved["mst"]]
    online.lp_covered = set(saved["lp_covered"])

    result = campaign_result_from_dict(state["result"])
    fuzzer.coverage = {item for _iteration, item in result.discovery_log}
    return record["next_iteration"], result
