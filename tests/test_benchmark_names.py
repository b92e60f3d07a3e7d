"""The solver names that the benchmark in perfbench/ looks up.

The tracer wraps functions by (module, attribute), and the workloads import
solver names and read DEFAULT_SCAN.points.  A rename would otherwise break
only the benchmark, which the test suite does not run.
"""

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
