"""Import hygiene: the package runs on numpy alone.

Neither `import stepwell` nor any command (scan, spectrum, perturb,
validate) loads a scipy module, or numpy.ma (about 5 ms and 1.8 MB a
process; np.unique loads it).  Checked in a fresh interpreter, because the
test process itself imports both.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def unwanted_modules():
    return sorted(m for m in sys.modules if m in ("scipy", "numpy.ma") or m.startswith("scipy."))

import stepwell
from stepwell.cli import main

report = {"import": unwanted_modules()}
for argv in json.loads(sys.argv[1]):
    report[" ".join(argv[:3])] = [main(argv), unwanted_modules()]
print(json.dumps(report))
"""

FIXTURES = {
    "box": ([0.0, math.pi], [0.0]),
    "step": ([0.0, 1.0, 2.0], [0.0, 5.0]),
    "double_well": ([0.0, 1.0, 2.0, math.pi], [0.0, 10.0, 0.0]),
}


def test_no_command_loads_scipy(tmp_path):
    runs = []
    for name, (bp, heights) in FIXTURES.items():
        spec = tmp_path / f"{name}.json"
        tilt = {"global_poly": [0.0, 0.5]}
        spec.write_text(json.dumps({"breakpoints": bp, "heights": heights, "perturbation": tilt}))
        out = str(tmp_path / f"{name}.out")
        runs += [
            ["scan", "--spec", str(spec), "--k-lo", "0.5", "--k-hi", "3.5", "--out", out],
            ["spectrum", "--spec", str(spec), "--out", out],
            ["perturb", "--spec", str(spec), "--orders", "4", "--out", out],
        ]
    runs += [["validate", "--spec", str(tmp_path / f"{n}.json"), "--out", out] for n in FIXTURES]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(proc.stdout)
    assert report.pop("import") == []
    for argv in runs:
        assert report[" ".join(argv[:3])] == [0, []], argv
