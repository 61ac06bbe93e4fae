"""The paper's emulated vulnerabilities: (M)WAIT and Zenbleed (§4.2).

Built on the ``zenbleed-mwait`` registry scenario (the same campaign as
``python -m repro run zenbleed-mwait``), this demonstrates on its armed
core:

* the (M)WAIT direct channel — a *squashed* speculative load touches the
  monitored cache line and the ``mwait_timer`` CSR (architectural state!)
  is zeroed by hardware, with the root cause pinned to the
  dcache → mwait_timer leakage path;
* the Zenbleed direct channel — with ``zenbleed_en`` set, wrong-path
  register writes survive the misprediction squash into the
  architectural register file, root-caused through the rename stage;
* that neither leak exists on an *unarmed* core — the same scenario with
  the vulnerability hooks disarmed (``override(vulns=())``) — the hooks,
  not the detector, are the vulnerability.

Run:  python examples/zenbleed_mwait.py
"""

from repro.core.online import OnlinePhase
from repro.fuzz.triggers import mwait_trigger, zenbleed_trigger
from repro.scenarios import get_scenario


def online_for(scenario) -> OnlinePhase:
    """The scenario's online pipeline, for single-program runs."""
    return scenario.build_specure().build_online()


def demonstrate(online: OnlinePhase, name: str, program) -> None:
    print(f"-- {name} --")
    result, reports = online.run_once(program)
    if not reports:
        print("no direct-channel leak detected")
    for report in reports:
        print(report.render())
    if name.startswith("(M)WAIT"):
        timer = result.csr_values[0x802]
        print(f"final mwait_timer = {timer} (armed to 99 by software)")
    print()


def main() -> None:
    scenario = get_scenario("zenbleed-mwait")
    print(f"== Armed core (scenario {scenario.name!r}): both emulated "
          f"vulnerabilities wired in ==")
    armed = online_for(scenario)
    demonstrate(armed, "(M)WAIT emulation", mwait_trigger())
    demonstrate(armed, "Zenbleed emulation", zenbleed_trigger())

    print("== Unarmed core: same programs, no hooks ==")
    unarmed = online_for(scenario.override(vulns=()))
    demonstrate(unarmed, "(M)WAIT emulation (unarmed)", mwait_trigger())
    demonstrate(unarmed, "Zenbleed emulation (unarmed)", zenbleed_trigger())


if __name__ == "__main__":
    main()
