"""Shared fixtures for the paper-artifact benchmarks.

Every benchmark regenerates one table or figure of the paper and prints
it (run pytest with ``-s`` to see the artifacts inline); assertions
check the *shape* of each result, not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core.offline import run_offline
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="session")
def vuln_config():
    """The experiment configuration: small core, both hooks armed."""
    return BoomConfig.small(VulnConfig.all())


@pytest.fixture(scope="session")
def vuln_core(vuln_config):
    return BoomCore(vuln_config)


@pytest.fixture(scope="session")
def offline(vuln_core):
    return run_offline(vuln_core.netlist)


def campaign_spec(**knobs) -> ScenarioSpec:
    """A campaign on the experiment configuration: the scenario defaults
    are the small core with both hooks armed, i.e. ``vuln_config``."""
    return ScenarioSpec(name="benchmark", **knobs)


def emit(text: str) -> None:
    """Print a regenerated paper artifact, framed for visibility."""
    print()
    print(text)
