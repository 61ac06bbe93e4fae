"""A parameterized out-of-order RISC-V core — the processor-under-test.

This package is the reproduction's stand-in for BOOM + Chipyard: a
cycle-level, genuinely speculative out-of-order core with

* a frontend with gshare direction prediction, a BTB for indirect
  targets, and a return-address stack (:mod:`repro.boom.bpu`);
* P6-style renaming (rename table + snapshots, architectural register
  file written at commit) (:mod:`repro.boom.rename`);
* a re-order buffer whose entries carry the ``unsafe`` flag and whose
  branch-resolution bus mirrors BOOM's ``brupdate`` — the signals the
  paper's Leakage Detector keys on (:mod:`repro.boom.rob`);
* an L1 data cache that speculative loads fill (the Spectre channel),
  a TLB, and a CSR file (:mod:`repro.boom.dcache`, :mod:`repro.boom.tlb`,
  :mod:`repro.boom.csr`);
* the paper's two emulated vulnerabilities — (M)WAIT (three custom CSRs
  + a data-cache monitor hook) and Zenbleed (``zenbleed_en`` suppressing
  rollback of register-file changes) (:mod:`repro.boom.vulns`);
* a register-level netlist of all of the above for the offline phase
  (:mod:`repro.boom.netlist`).

Running a program yields a :class:`~repro.boom.core.CoreResult`: the
change-event signal trace (snapshots), the commit log, the ground-truth
speculation windows, and behavioural coverage points.
"""

from repro.boom.config import BoomConfig
from repro.boom.vulns import VulnConfig
from repro.boom.core import BoomCore, CoreResult, Commit
from repro.boom.netlist import build_boom_netlist

__all__ = [
    "BoomConfig",
    "VulnConfig",
    "BoomCore",
    "CoreResult",
    "Commit",
    "build_boom_netlist",
]
