"""Import hygiene: the package runs on numpy alone.

Neither `import stepwell` nor any command (scan, spectrum, perturb,
validate) loads a scipy module, or numpy.ma (about 5 ms and 1.8 MB a
process; np.unique loads it).  `import stepwell`, scan and spectrum load
no numpy.polynomial either (3-7 ms and 0.75 MB a process), which numpy 2
loads on first use; perturb and validate use it.  Checked in a fresh
interpreter per command, because the test process itself imports all
three, and one command's imports would hide the next one's.
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
    return sorted(
        m for m in sys.modules
        if m in ("scipy", "numpy.ma", "numpy.polynomial") or m.startswith("scipy.")
    )

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
    commands = {"scan": [], "spectrum": [], "perturb": [], "validate": []}
    for name, (bp, heights) in FIXTURES.items():
        spec = tmp_path / f"{name}.json"
        tilt = {"global_poly": [0.0, 0.5]}
        spec.write_text(json.dumps({"breakpoints": bp, "heights": heights, "perturbation": tilt}))
        out = str(tmp_path / f"{name}.out")
        commands["scan"].append(["scan", "--spec", str(spec), "--k-lo", "0.5", "--k-hi", "3.5", "--out", out])
        commands["spectrum"].append(["spectrum", "--spec", str(spec), "--out", out])
        commands["perturb"].append(["perturb", "--spec", str(spec), "--orders", "4", "--out", out])
        commands["validate"].append(["validate", "--spec", str(spec), "--out", out])
    for command, runs in commands.items():
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, json.dumps(runs)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True, timeout=120,
        )
        report = json.loads(proc.stdout)
        assert report.pop("import") == []
        # the series and the exact energies evaluate polynomials
        allowed = ["numpy.polynomial"] if command in ("perturb", "validate") else []
        for argv in runs:
            code, loaded = report[" ".join(argv[:3])]
            assert code == 0, argv
            assert [m for m in loaded if m not in allowed] == [], (argv, loaded)
