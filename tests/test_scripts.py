"""Smoke runs of the study scripts at tiny sizes."""
import json
import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, flags, output", [
    ("run_velocity_sweep.py",
     ["--train-count", "8", "--test-count", "10", "--max-steps", "2"], "sweep.json"),
    ("run_beamforming_comparison.py",
     ["--train-count", "8", "--test-count", "10", "--max-steps", "2"], "sum_rates.json"),
    ("run_lora_adaptation.py",
     ["--train-count", "8", "--pretrain-steps", "2", "--adapt-steps", "2"], "adaptation.json"),
], ids=["velocity", "beamforming", "lora"])
def test_script_writes_results(script, flags, output, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [script, "--out", str(out), *flags])
    runpy.run_path(os.path.join(SCRIPTS, script), run_name="__main__")
    doc = json.loads((out / output).read_text())
    assert doc
