"""Import hygiene: the solver runs on numpy alone.

`import stepwell` and the scan, spectrum and perturb commands load no scipy
module; validate loads scipy.linalg for the finite-difference oracle and
nothing else of scipy's solvers.  Checked in a fresh interpreter, because
the test process itself imports scipy.
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

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import stepwell
from stepwell.cli import main

report = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    report[" ".join(argv[:3])] = [main(argv), scipy_modules()]
print(json.dumps(report))
"""

FIXTURES = {
    "box": ([0.0, math.pi], [0.0]),
    "step": ([0.0, 1.0, 2.0], [0.0, 5.0]),
    "double_well": ([0.0, 1.0, 2.0, math.pi], [0.0, 10.0, 0.0]),
}


def test_only_validate_loads_scipy_and_only_its_linalg(tmp_path):
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
    # validate last: modules stay loaded, so every earlier run saw none
    runs += [["validate", "--spec", str(tmp_path / f"{n}.json"), "--out", out] for n in FIXTURES]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(proc.stdout)
    assert report.pop("import") == []
    for argv in runs:
        rc, loaded = report[" ".join(argv[:3])]
        assert rc == 0, argv
        if argv[0] == "validate":
            assert "scipy.linalg" in loaded
            assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize"))]
        else:
            assert loaded == [], argv
