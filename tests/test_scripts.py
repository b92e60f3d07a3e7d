"""The example scripts run to completion: both call the eigenvalue scan."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


def test_double_well_scan(tmp_path):
    proc = run_script(
        "double_well_scan.py", "--out-dir", str(tmp_path), "--points", "20", "--barriers", "10", "25"
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doublewell_h10.csv", "doublewell_h25.csv"]
    assert len((tmp_path / "doublewell_h10.csv").read_text().splitlines()) == 21


def test_box_perturbation_demo():
    proc = run_script("box_perturbation_demo.py", "--orders", "3")
    assert proc.returncode == 0, proc.stderr
    assert "remainder" in proc.stdout
