"""Tests for VCD export of signal traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl.trace import SignalTrace
from tests.vcd import _identifier, parse_vcd_values, write_vcd


def small_trace() -> SignalTrace:
    trace = SignalTrace(["top.a", "top.sub.b", "top.sub.c"], [0, 5, 9])
    trace.record(0, 0, 0, 1)
    trace.record(2, 1, 5, 6)
    trace.record(2, 2, 9, 0)
    trace.close(4)
    return trace


class TestIdentifiers:
    def test_unique_for_many_indices(self):
        ids = {_identifier(i) for i in range(20_000)}
        assert len(ids) == 20_000

    def test_compact(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(93)) == 1
        assert len(_identifier(94)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _identifier(-1)


class TestWriteVcd:
    def test_header_and_scopes(self):
        text = write_vcd(small_trace())
        assert "$timescale 1 ns $end" in text
        assert "$scope module top $end" in text
        assert "$scope module sub $end" in text
        assert text.count("$upscope $end") == 2
        assert "$enddefinitions $end" in text

    def test_initial_dump(self):
        text = write_vcd(small_trace())
        dump = text.split("$dumpvars")[1].split("$end")[0]
        assert "b101 " in dump  # initial 5
        assert "b1001 " in dump  # initial 9

    def test_widths(self):
        text = write_vcd(small_trace(), widths={"top.a": 1})
        assert "$var wire 1 " in text
        assert "$var wire 64 " in text

    def test_roundtrip_through_reader(self):
        trace = small_trace()
        values = parse_vcd_values(write_vcd(trace))
        assert set(values) == {"top.a", "top.sub.b", "top.sub.c"}
        assert values["top.a"] == [(0, 1)]
        assert values["top.sub.b"] == [(2, 6)]
        assert values["top.sub.c"] == [(2, 0)]

    def test_real_core_trace_exports(self):
        from repro.boom import BoomConfig, BoomCore
        from repro.fuzz.seeds import mispredict_seed

        core = BoomCore(BoomConfig.small())
        result = core.run(mispredict_seed())
        widths = {s.name: s.width for s in core.netlist.signals.values()}
        text = write_vcd(result.trace, widths=widths)
        values = parse_vcd_values(text)
        # Every traced change survives the round trip.
        for event in result.trace.events[:50]:
            name = result.trace.signal_names[event.signal]
            assert (event.cycle, event.new) in values[name]

    @given(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 1),
                  st.integers(0, 2**32 - 1)),
        max_size=40,
    ))
    @settings(max_examples=30)
    def test_roundtrip_property(self, raw_events):
        trace = SignalTrace(["m.x", "m.y"], [0, 0])
        state = [0, 0]
        for cycle, signal, value in sorted(raw_events, key=lambda e: e[0]):
            if value != state[signal]:
                trace.record(cycle, signal, state[signal], value)
                state[signal] = value
        trace.close(31)
        values = parse_vcd_values(write_vcd(trace))
        recovered = [
            (c, 0, v) for c, v in values["m.x"]
        ] + [
            (c, 1, v) for c, v in values["m.y"]
        ]
        expected = [(e.cycle, e.signal, e.new) for e in trace.events]
        assert sorted(recovered) == sorted(expected)
