"""Spans and counters for the benchmark's traced run.

Wrappers go where each calling module looks a name up: ``from x import y``
binds y in the importing module, so wrapping the defining module alone
would miss most calls.  ``install`` therefore replaces the attribute in
every loaded ``stepwell`` module that holds the original object, plus the
class attribute ``TrigPoly.eval`` and the two scipy entry points that
stand for a layer (``zero_order.brentq`` for root refinement,
``perturbation.quad`` for the overlap diagnostics).

A span records name, start, end and parent and stays in memory until the
run ends.  Hot leaf calls (``TrigPoly.eval``, ``local_frequency``: over
10^5 a run) are aggregated per parent span instead of stored one by one.
Self time is a span's duration minus its children's, leaves included.
No layer has a queue, so no waiting time is recorded.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from stepwell.errors import (
    DegeneracyParadoxError,
    NormalizationObstructionError,
    SolverError,
)
from stepwell.trigbasis import TrigPoly

# span name -> (defining module, attribute); installed at every site
SPANS = {
    "zero_order.find_eigenvalues": ("stepwell.zero_order", "find_eigenvalues"),
    "zero_order.secular_determinant": ("stepwell.zero_order", "secular_determinant"),
    "zero_order.match_coefficients": ("stepwell.zero_order", "match_coefficients"),
    "zero_order.spurious_check": ("stepwell.zero_order", "_is_spurious_root"),
    "trigbasis.particular_solution": ("stepwell.trigbasis", "particular_solution"),
    "trigbasis.mul_polynomial": ("stepwell.trigbasis", "mul_polynomial"),
    "perturbation.run_series": ("stepwell.perturbation", "run_series"),
    "perturbation.build_omega": ("stepwell.perturbation", "build_omega"),
    "perturbation.build_tau": ("stepwell.perturbation", "build_tau"),
    "perturbation.build_order_basis": ("stepwell.perturbation", "build_order_basis"),
    "perturbation.solve_order": ("stepwell.perturbation", "solve_order"),
    "perturbation.equation_residual": ("stepwell.perturbation", "equation_residual"),
    "oracle.fd_eigenvalues": ("stepwell.oracle", "fd_eigenvalues"),
    "oracle.rs_first_order": ("stepwell.oracle", "rs_first_order"),
}
# span name -> (module, attribute); installed at that one site only
SITE_SPANS = {
    "zero_order.refine": ("stepwell.zero_order", "brentq"),
    "perturbation.overlap_quad": ("stepwell.perturbation", "quad"),
}
LEAVES = {"potential.local_frequency": ("stepwell.potential", "local_frequency")}
EVAL = "trigbasis.TrigPoly.eval"
ORDER_STAGES = ("perturbation.build_tau", "perturbation.build_order_basis", "perturbation.solve_order")


class Tracer:
    """Collects spans, leaf aggregates and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.leaves: dict[int, dict[str, list]] = {}  # parent -> name -> [calls, s]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_degree = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _span(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except SolverError as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                tracer.close(idx)
            tracer._on_result(name, result)
            return result

        return wrapper

    def _leaf(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg = tracer.leaves.setdefault(tracer.stack[-1] if tracer.stack else -1, {})
                rec = agg.get(name)
                if rec is None:
                    agg[name] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    def _on_result(self, name: str, result) -> None:
        if name == "zero_order.find_eigenvalues":
            self.counts["skipped"] += len(result.skipped)
        elif name == "zero_order.spurious_check":
            self.counts["spurious" if result else "genuine"] += 1
        elif name == "trigbasis.particular_solution":
            self.max_degree = max(self.max_degree, result.degree)
        elif name == "perturbation.solve_order":
            self.counts["orders_solved"] += 1

    def _on_error(self, name: str, exc: SolverError) -> None:
        if name == "zero_order.match_coefficients" and isinstance(
            exc, (DegeneracyParadoxError, NormalizationObstructionError)
        ):
            self.counts["match_warnings"] += 1
        elif name in ORDER_STAGES:
            self.counts["order_failures"] += 1

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "stepwell"]
        for name, (mod, attr) in list(SPANS.items()) + list(LEAVES.items()):
            original = getattr(sys.modules[mod], attr)
            wrapper = (self._leaf if name in LEAVES else self._span)(original, name)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._replace(m, attr, wrapper)
        for name, (mod, attr) in SITE_SPANS.items():
            m = sys.modules[mod]
            self._replace(m, attr, self._span(getattr(m, attr), name))
        self._replace(TrigPoly, "eval", self._leaf(TrigPoly.eval, EVAL))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def profile(self) -> dict:
        """Mergeable totals: per name [calls, total s, self s], plus counters."""
        names: dict[str, list] = {}
        child = [0.0] * len(self.spans)
        in_scan = [False] * len(self.spans)
        det_in_scan = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_scan[i] = in_scan[parent] or self.spans[parent][0] == "zero_order.find_eigenvalues"
            if name == "zero_order.secular_determinant" and in_scan[i]:
                det_in_scan += 1
        for parent, agg in self.leaves.items():
            for name, (calls, secs) in agg.items():
                if parent >= 0:
                    child[parent] += secs
                rec = names.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += secs
                rec[2] += secs
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = names.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        counts = dict(self.counts)
        counts["det_calls_in_scan"] = det_in_scan
        return {"names": names, "counts": counts, "max_degree": self.max_degree}


def merge_profiles(profiles: list[dict]) -> dict:
    names: dict[str, list] = {}
    counts: Counter = Counter()
    max_degree = 0
    for prof in profiles:
        for name, rec in prof["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        counts.update(prof["counts"])
        max_degree = max(max_degree, prof["max_degree"])
    return {"names": names, "counts": dict(counts), "max_degree": max_degree}


def layer_metrics(prof: dict, problems: int) -> dict[str, float]:
    """Per-layer metrics, per problem unless the name says otherwise."""
    names, counts = prof["names"], prof["counts"]

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0] / problems

    def ms(name):
        return names.get(name, [0, 0.0, 0.0])[1] * 1e3 / problems

    def self_ms(name):
        return names.get(name, [0, 0.0, 0.0])[2] * 1e3 / problems

    det = "zero_order.secular_determinant"
    det_calls = names.get(det, [0, 0.0, 0.0])[0]
    genuine = counts.get("genuine", 0)
    candidates = genuine + counts.get("spurious", 0)
    solved = counts.get("orders_solved", 0)
    order_ms = sum(names.get(n, [0, 0.0, 0.0])[1] for n in ORDER_STAGES) * 1e3
    return {
        f"{det}.calls": calls(det),
        f"{det}.self_ms": self_ms(det),
        f"{det}.us_per_call": names[det][1] * 1e6 / det_calls if det_calls else 0.0,
        "zero_order.find_eigenvalues.ms": ms("zero_order.find_eigenvalues"),
        "zero_order.find_eigenvalues.self_ms": self_ms("zero_order.find_eigenvalues"),
        "zero_order.refine.calls": calls("zero_order.refine"),
        "zero_order.refine.ms": ms("zero_order.refine"),
        "zero_order.det_calls_per_root": counts.get("det_calls_in_scan", 0) / genuine if genuine else 0.0,
        "zero_order.root_yield": genuine / candidates if candidates else 0.0,
        "zero_order.skipped": counts.get("skipped", 0) / problems,
        "zero_order.match_coefficients.ms": ms("zero_order.match_coefficients"),
        "zero_order.match_warnings": counts.get("match_warnings", 0) / problems,
        f"{EVAL}.calls": calls(EVAL),
        f"{EVAL}.self_ms": self_ms(EVAL),
        "trigbasis.particular_solution.calls": calls("trigbasis.particular_solution"),
        "trigbasis.particular_solution.self_ms": self_ms("trigbasis.particular_solution"),
        "trigbasis.mul_polynomial.calls": calls("trigbasis.mul_polynomial"),
        "trigbasis.max_degree": float(prof["max_degree"]),
        "potential.local_frequency.calls": calls("potential.local_frequency"),
        "potential.local_frequency.self_ms": self_ms("potential.local_frequency"),
        "perturbation.build_omega.ms": ms("perturbation.build_omega"),
        "perturbation.build_tau.ms": ms("perturbation.build_tau"),
        "perturbation.build_order_basis.ms": ms("perturbation.build_order_basis"),
        "perturbation.solve_order.ms": ms("perturbation.solve_order"),
        "perturbation.equation_residual.ms": ms("perturbation.equation_residual"),
        "perturbation.overlap_quad.ms": ms("perturbation.overlap_quad"),
        "perturbation.overlap_quad.calls": calls("perturbation.overlap_quad"),
        "perturbation.orders_solved": solved / problems,
        "perturbation.order_failures": counts.get("order_failures", 0) / problems,
        "perturbation.ms_per_order": order_ms / solved if solved else 0.0,
        "oracle.fd_eigenvalues.ms": ms("oracle.fd_eigenvalues"),
        "oracle.rs_first_order.ms": ms("oracle.rs_first_order"),
    }
