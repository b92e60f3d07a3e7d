"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

At tiny sizes (one problem per run) it checks that every workload runs with
and without tracing and emits exactly the metric names of BENCHMARK.json,
that a seed regenerates the same inputs, that a deliberately perturbed
reference makes the gate fail problems, that a repeat with other results is
caught, and that a missed level of the documented kind is caught and classed
as a known defect.  Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from stepwell import PotentialSpec  # noqa: E402
from stepwell.oracle import fd_eigenvalues  # noqa: E402


def shifted_fd(*args, **kwargs):
    """The FD oracle with every level moved by 1e-3: a wrong reference."""
    res = fd_eigenvalues(*args, **kwargs)
    return dataclasses.replace(res, values=res.values + 1e-3)


def test_every_workload_emits_declared_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: [m["name"] for m in doc["end_to_end"]],
        1: [m["name"] for m in doc["per_layer"]],
    }
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            _, result = bench.run(name, 1, 0.0, bool(trace), limit=1, setup_reps=1)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["attempted"] == 1, (name, trace, result)
            assert list(result["metrics"]) == declared[trace], (name, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], float), (name, metric)


def test_seed_regenerates_inputs():
    for name, make in wl.GENERATORS.items():
        same = [make(7, i) == make(7, i) for i in range(12)]
        other = [make(7, i) != make(8, i) for i in range(12)]
        assert all(same) and all(other), name
    workdir = bench.RUNS / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        specs = [
            {g: f.read_bytes() for g, f in bench.cli_specs(seed, workdir).items()}
            for seed in (7, 7, 8)
        ]
    finally:
        shutil.rmtree(workdir)
    assert specs[0] == specs[1] != specs[2]


def test_perturbed_reference_fails_problems():
    p = wl.well_problem(1, 0)
    out = wl.run_spectrum(p)
    assert wl.check_spectrum(p, out) == []
    misses = wl.check_spectrum(p, out, fd=shifted_fd)
    assert misses and not any(m.known for m in misses)

    p = wl.series_problem(1, 0)
    out = wl.run_series_problem(p)
    assert wl.check_series(p, out) == []
    assert wl.check_series(p, out, fd=shifted_fd)

    checks = dict(wl.CHECKS)
    wl.CHECKS["spectrum_wells"] = functools.partial(wl.check_spectrum, fd=shifted_fd)
    try:
        _, result = bench.run("spectrum_wells", 1, 0.0, False, limit=1, setup_reps=1)
    finally:
        wl.CHECKS.update(checks)
    assert result["failed"] == 1 and not result["correct"], result
    assert result["metrics"]["passed_frac"]["value"] == 0.0


def test_differing_repeat_is_reported():
    """A problem whose repeats give other results is caught by the timed loop."""
    counter = itertools.count()
    _, _, lat, differed, _ = bench.timed_rounds(
        ["a", "b"], lambda item: next(counter), lambda i, out: out, 0.001
    )
    assert len(lat[0]) >= 2 and 0 in differed, (lat, differed)


def test_missed_level_is_known_defect():
    """The 600-point scan misses E = 34.4154 on this well, found by an
    earlier version of the spectrum_wells generator: the n = 3 Dirichlet
    resonance of the interval (2.04, 3.86), at 34.476, shares its scan cell,
    so the two sign changes cancel."""
    spec = PotentialSpec(
        (0.0, 0.50637393469499, 2.038585080606609, 3.8611876532332343, 4.256384469983626),
        (44.08244444786399, 26.499457430250782, 7.736490421209891, 22.866090385858357),
    )
    floor = min(spec.heights)
    p = wl.Problem("documented", spec, floor, floor + 40.0)
    misses = wl.check_spectrum(p, wl.run_spectrum(p))
    assert [m.known for m in misses] == [True], misses
    assert "34.4154" in misses[0].what, misses


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
