"""Public API surface tests: imports, exports, the module entry point,
and the machine-readable campaign report."""

import json
import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_facade_classes_importable_from_root(self):
        from repro import (  # noqa: F401
            BoomConfig,
            BoomCore,
            Fuzzer,
            Iss,
            LeakageDetector,
            MisspeculationTable,
            Specure,
            TestProgram,
            VulnerabilityDetector,
            VulnConfig,
        )

    def test_subpackage_docstrings(self):
        """Every subpackage documents itself (the library contract)."""
        import importlib

        for name in ("utils", "isa", "rtl", "ifg", "golden", "boom",
                     "fuzz", "coverage", "detection", "contracts", "core",
                     "baselines", "harness"):
            module = importlib.import_module(f"repro.{name}")
            assert module.__doc__, f"repro.{name} lacks a docstring"
            assert len(module.__doc__.strip()) > 40


class TestReportExport:
    def test_to_dict_is_json_serialisable(self):
        from repro import ScenarioSpec, Specure

        specure = Specure(ScenarioSpec(name="export", seed=4,
                                       monitor_dcache=True))
        report = specure.campaign(iterations=8)
        payload = report.to_dict()
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["campaign"]["iterations"] == 8
        assert restored["offline"]["pdlc"] > 0
        assert isinstance(restored["detections"], list)

    def test_detection_entries(self):
        from repro import ScenarioSpec, Specure
        from repro.core.specure import stop_on_kind

        specure = Specure(ScenarioSpec(name="export", seed=3,
                                       monitor_dcache=True))
        report = specure.campaign(60, stop_when=stop_on_kind("spectre_v1"))
        payload = report.to_dict()
        kinds = {entry["kind"] for entry in payload["detections"]}
        assert "spectre_v1" in kinds
        entry = next(e for e in payload["detections"]
                     if e["kind"] == "spectre_v1")
        assert entry["reports"] >= 1
        assert entry["first_iteration"] is not None


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """The self-check runs clean and verifies all four detections."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        for kind in ("spectre_v1", "spectre_v2", "mwait", "zenbleed"):
            assert f"ok   {kind}" in completed.stdout
        assert "Experiment registry" in completed.stdout
