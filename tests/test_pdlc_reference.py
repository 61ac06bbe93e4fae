"""The PDLC kernel and LP grouping against their slow references.

:mod:`tests.pdlc_reference` keeps the extractor and the grouping that
the one-kernel DFS and the name-prefix grouping replaced.  Both
directions must yield the same ``(index, source, dest, path)`` list as
the reference on every shipped design and on random graphs (cycles
included), and :class:`~repro.coverage.lp.LpCoverage` must build the
same groups.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.coverage.lp import LpCoverage
from repro.ifg.builder import build_ifg_from_design, build_ifg_from_netlist
from repro.ifg.graph import Ifg
from repro.ifg.labeling import label_architectural
from repro.ifg.pdlc import extract_pdlc_forward, extract_pdlc_reverse
from repro.puts.spec_cpu import spec_cpu_design
from tests.pdlc_reference import reference_lp_groups, reference_pdlc

EXTRACTORS = {True: extract_pdlc_forward, False: extract_pdlc_reverse}


def _fields(items) -> list[tuple]:
    return [(item.index, item.source, item.dest, item.path) for item in items]


def _boom_ifg(preset: str) -> tuple[Ifg, list[str]]:
    core = BoomCore(getattr(BoomConfig, preset)(VulnConfig.all()))
    ifg = build_ifg_from_netlist(core.netlist)
    label_architectural(ifg)
    return ifg, core.signal_names()


def _spec_cpu_ifg() -> tuple[Ifg, list[str]]:
    design = spec_cpu_design()
    ifg = build_ifg_from_design(design)
    label_architectural(ifg)
    return ifg, list(design.signals)


@pytest.fixture(scope="module", params=["small", "medium", "large",
                                        "spec_cpu"])
def design_ifg(request):
    if request.param == "spec_cpu":
        return _spec_cpu_ifg()
    return _boom_ifg(request.param)


@pytest.mark.parametrize("forward", [True, False],
                         ids=["forward", "reverse"])
def test_extraction_matches_reference(design_ifg, forward):
    ifg, _ = design_ifg
    expected = reference_pdlc(ifg, forward=forward)
    assert expected
    assert _fields(EXTRACTORS[forward](ifg)) == expected


@pytest.mark.parametrize("mode", ["path", "source"])
def test_lp_groups_match_reference(design_ifg, mode):
    ifg, signal_names = design_ifg
    pdlc = extract_pdlc_reverse(ifg)
    for include in (None, frozenset(range(0, len(pdlc), 3))):
        coverage = LpCoverage(pdlc, signal_names, mode=mode, include=include)
        assert coverage._groups == reference_lp_groups(
            pdlc, signal_names, mode=mode, include=include)


@st.composite
def random_ifgs(draw) -> Ifg:
    """A small random graph: any edges (cycles allowed), random state
    and architectural labels."""
    count = draw(st.integers(min_value=1, max_value=16))
    names = [f"g.s{i}" for i in range(count)]
    ifg = Ifg()
    for name in names:
        ifg.add_vertex(name, is_state=draw(st.booleans()))
        ifg.info[name].is_arch = draw(st.booleans())
    edges = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
        max_size=3 * count))
    for src, dst in edges:
        ifg.add_edge(names[src], names[dst])
    return ifg


@given(random_ifgs())
@settings(max_examples=200, deadline=None)
def test_random_graphs_match_reference(ifg):
    for forward, extract in EXTRACTORS.items():
        items = extract(ifg)
        assert _fields(items) == reference_pdlc(ifg, forward=forward)
        names = ifg.vertices()
        for mode in ("path", "source"):
            assert LpCoverage(items, names, mode=mode)._groups == \
                reference_lp_groups(items, names, mode=mode)
