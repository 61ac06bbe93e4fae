"""VCD (Value Change Dump) export of signal traces.

The paper's Microarchitecture Visualizer extracts "waveforms that show
PUT's signal values for each simulation clock cycle"; a
:class:`~repro.rtl.trace.SignalTrace` *is* that waveform in memory, and
this module serialises it to standard VCD so any waveform viewer
(GTKWave etc.) can inspect a fuzzing run — invaluable when triaging a
root-cause report by eye.

Hierarchical dotted names become nested ``$scope`` modules; widths are
taken from an optional width map (64 by default).

No campaign path calls this exporter, so it lives beside its tests
(``tests/test_rtl_vcd.py``) rather than in the package.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.rtl.trace import SignalTrace

_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Compact VCD identifier for signal ``index`` (base-94 encoding)."""
    if index < 0:
        raise ValueError("negative signal index")
    digits = []
    while True:
        index, rem = divmod(index, len(_ID_ALPHABET))
        digits.append(_ID_ALPHABET[rem])
        if index == 0:
            return "".join(reversed(digits))
        index -= 1  # bijective numeration: no leading-zero ambiguity


def _scope_tree(names: list[str]) -> dict:
    """Nest dotted names into a scope tree: {scope: subtree, ...}.

    Leaves map to their signal index (int); inner nodes map to dicts.
    """
    root: dict = {}
    for index, name in enumerate(names):
        parts = name.split(".")
        node = root
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"signal {name!r} nests under a leaf")
        leaf = parts[-1]
        if leaf in node:
            raise ValueError(f"duplicate VCD leaf {name!r}")
        node[leaf] = index
    return root


def write_vcd(
    trace: SignalTrace,
    widths: Mapping[str, int] | None = None,
    timescale: str = "1 ns",
    comment: str = "repro.rtl.vcd export",
) -> str:
    """Serialise a trace to VCD text (one timestep per clock cycle)."""
    widths = widths or {}
    lines = [
        f"$comment {comment} $end",
        f"$timescale {timescale} $end",
    ]

    def width_of(name: str) -> int:
        return widths.get(name, 64)

    def emit_scope(node: dict, depth: int) -> None:
        pad = "  " * depth
        for key in node:
            child = node[key]
            if isinstance(child, dict):
                lines.append(f"{pad}$scope module {key} $end")
                emit_scope(child, depth + 1)
                lines.append(f"{pad}$upscope $end")
            else:
                name = trace.signal_names[child]
                lines.append(
                    f"{pad}$var wire {width_of(name)} "
                    f"{_identifier(child)} {key} $end"
                )

    emit_scope(_scope_tree(trace.signal_names), 0)
    lines.append("$enddefinitions $end")

    lines.append("$dumpvars")
    for index, value in enumerate(trace.initial):
        lines.append(f"b{value:b} {_identifier(index)}")
    lines.append("$end")

    current_cycle = None
    for event in trace.events:
        if event.cycle != current_cycle:
            current_cycle = event.cycle
            lines.append(f"#{event.cycle}")
        lines.append(f"b{event.new:b} {_identifier(event.signal)}")
    if trace.final_cycle >= 0 and trace.final_cycle != current_cycle:
        lines.append(f"#{trace.final_cycle}")
    return "\n".join(lines) + "\n"


def parse_vcd_values(text: str) -> dict[str, list[tuple[int, int]]]:
    """Minimal VCD reader: per-signal (time, value) change lists.

    Supports exactly the subset :func:`write_vcd` emits; used by the
    round-trip tests and handy for quick programmatic inspection.
    """
    id_to_name: dict[str, str] = {}
    scopes: list[str] = []
    changes: dict[str, list[tuple[int, int]]] = {}
    time = 0
    in_definitions = True
    in_dump = False  # inside $dumpvars..$end: initial values, not changes
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_definitions:
            if line.startswith("$scope"):
                scopes.append(line.split()[2])
            elif line.startswith("$upscope"):
                scopes.pop()
            elif line.startswith("$var"):
                parts = line.split()
                identifier, leaf = parts[3], parts[4]
                full = ".".join(scopes + [leaf])
                id_to_name[identifier] = full
                changes[full] = []
            elif line.startswith("$enddefinitions"):
                in_definitions = False
            continue
        if line.startswith("$dumpvars"):
            in_dump = True
        elif line.startswith("$end"):
            in_dump = False
        elif line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b") and not in_dump:
            value_text, identifier = line[1:].split()
            name = id_to_name[identifier]
            changes[name].append((time, int(value_text, 2)))
    return changes
