"""The solver names that the benchmark in perfbench/ looks up, and the bits
of its results.

The tracer wraps functions by (module, attribute), and the workloads import
solver names, read DEFAULT_SCAN.points and call the solver with their own
argument shapes.  A rename or a changed signature would otherwise break
only the benchmark, which the test suite does not run.
"""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_sites_resolve():
    tracer = _load("tracer")
    sites = [*tracer.SPANS.values(), *tracer.SITE_SPANS.values(), *tracer.LEAVES.values()]
    assert sites
    for module, attr in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_workloads_import_and_read_the_scan_grid():
    workloads = _load("workloads")
    assert isinstance(workloads.DEFAULT_SCAN.points, int)


def test_workload_runners_call_the_solver_under_the_tracer():
    tracer, workloads = _load("tracer"), _load("workloads")
    tr = tracer.Tracer()
    tr.install()
    try:
        outcomes = [
            workloads.RUNNERS["spectrum_wells"](workloads.well_problem(1, 0)),
            workloads.RUNNERS["series_orders"](workloads.series_problem(1, 0)),
        ]
    finally:
        tr.uninstall()
    assert [out.error for out in outcomes] == [None, None]
    assert "zero_order.find_eigenvalues" in {span[0] for span in tr.spans}


def test_benchmark_checks_pass_on_one_problem_each():
    """The benchmark's correctness checks on a spectrum and a series
    problem.  series_problem(1, 1) is the plain box, whose exact energy
    comes from the power-series determinant at N = 0."""
    workloads = _load("workloads")
    problems = {
        "spectrum_wells": workloads.well_problem(1, 0),
        "series_orders": workloads.series_problem(1, 1),
    }
    assert problems["series_orders"].spec.n_interior == 0
    for name, problem in problems.items():
        outcome = workloads.RUNNERS[name](problem)
        assert workloads.CHECKS[name](problem, outcome) == [], name


# sha256 of the spectrum_wells results of seeds 1 and 2 (48 problems), as
# perfbench/workloads.serialize writes them: every level and coefficient to
# 17 significant digits.  A change that moves any of those bits must say so.
WELLS_SEEDS_1_2 = "676b017077a0f2ca8adadaec0c98943fc2ef5f8ce776240faf3d574c19604553"


def test_spectrum_wells_results_are_bit_identical():
    workloads = _load("workloads")
    run = workloads.RUNNERS["spectrum_wells"]
    texts = []
    for seed in (1, 2):
        for index in range(workloads.ROUND_SIZE["spectrum_wells"]):
            problem = workloads.well_problem(seed, index)
            texts.append(workloads.serialize(problem, run(problem)))
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == WELLS_SEEDS_1_2
