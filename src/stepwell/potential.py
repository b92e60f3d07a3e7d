"""Problem definitions: breakpoints, interval heights, perturbation polynomials.

Units are hbar = 2m = 1, so the operator is -d^2/dx^2 + V(x).  The outer
walls at the first and last breakpoint are infinitely high and enter only
through the implicit Dirichlet conditions; heights describe the finite
interior landscape.  Polynomial coefficient sequences (zero-order interval
polynomials and perturbations alike) are given in the global coordinate x,
lowest power first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import BETA_MIN
from .errors import DegenerateEnergyError, SchemaError

__all__ = [
    "PotentialSpec",
    "PerturbationSpec",
    "parse_spec",
    "parse_spec_mapping",
    "spec_document",
    "load_spec",
    "local_frequency",
    "local_frequencies",
    "potential_value",
]


def _finite_floats(values, path: str) -> tuple[float, ...]:
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{path}[{i}]: expected a number, got {v!r}")
        f = float(v)
        if not math.isfinite(f):
            raise SchemaError(f"{path}[{i}]: must be finite")
        out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class PotentialSpec:
    """Piecewise description of the zero-order potential on (L_0, L_last).

    breakpoints: strictly increasing, length N + 2 for N interior
        discontinuities (N >= 0).  Dirichlet conditions at both ends are
        implicit and not configurable.
    heights: one constant per interval, length N + 1.
    zero_order_polys: optional per-interval polynomial added on top of the
        interval height (global-coordinate coefficients); the zero-order
        problem is then solved on extrapolated piecewise-constant
        staircases (zero_order._staircase).
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]
    zero_order_polys: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        bp = _finite_floats(self.breakpoints, "breakpoints")
        if len(bp) < 2:
            raise SchemaError("breakpoints: need at least 2 entries")
        for i in range(1, len(bp)):
            if not bp[i] > bp[i - 1]:
                raise SchemaError(
                    f"breakpoints[{i}]: must exceed breakpoints[{i - 1}]"
                    f" ({bp[i]} <= {bp[i - 1]})"
                )
        hs = _finite_floats(self.heights, "heights")
        if len(hs) != len(bp) - 1:
            raise SchemaError(
                f"heights: expected {len(bp) - 1} entries (one per interval), got {len(hs)}"
            )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hs)
        if self.zero_order_polys is not None:
            polys = tuple(
                _finite_floats(p, f"zero_order_polys[{i}]")
                for i, p in enumerate(self.zero_order_polys)
            )
            if len(polys) != len(hs):
                raise SchemaError(
                    f"zero_order_polys: expected {len(hs)} entries, got {len(polys)}"
                )
            object.__setattr__(self, "zero_order_polys", polys)

    @property
    def n_interior(self) -> int:
        return len(self.breakpoints) - 2

    @property
    def n_intervals(self) -> int:
        return len(self.heights)

    @property
    def x_min(self) -> float:
        return self.breakpoints[0]

    @property
    def x_max(self) -> float:
        return self.breakpoints[-1]

    @cached_property
    def value_ranges(self) -> tuple[tuple[float, float], ...]:
        """Least and greatest value of V on each interval, computed on first
        read (the spec is immutable): the height on a flat interval, else
        sampled at 201 points."""
        return tuple(_value_range(self, i) for i in range(self.n_intervals))

    def interval_index(self, x):
        """Index of the interval containing x; breakpoints go to the right interval.

        ``x`` is a scalar, giving an int, or an array, giving an int array.
        """
        xs = np.asarray(x, dtype=float)
        outside = (xs < self.x_min) | (xs > self.x_max)
        if outside.any():
            raise ValueError(f"x = {xs[outside].flat[0]} outside the box ({self.x_min}, {self.x_max})")
        i = np.clip(np.searchsorted(self.breakpoints, xs, side="right") - 1, 0, self.n_intervals - 1)
        return int(i) if xs.ndim == 0 else i

    def gauge_shifted(self, shift: float) -> "PotentialSpec":
        """Add a constant to every height; spectra shift by the same constant."""
        return replace(self, heights=tuple(h + shift for h in self.heights))

    def with_fictitious_breakpoint(self, x: float) -> "PotentialSpec":
        """Split the interval containing x at x without changing the potential."""
        if not self.x_min < x < self.x_max:
            raise ValueError("fictitious breakpoint must lie strictly inside the box")
        if any(abs(x - b) < 1e-12 for b in self.breakpoints):
            raise ValueError("fictitious breakpoint coincides with an existing one")
        i = self.interval_index(x)
        bp = self.breakpoints[: i + 1] + (float(x),) + self.breakpoints[i + 1 :]
        hs = self.heights[: i + 1] + self.heights[i:]
        polys = None
        if self.zero_order_polys is not None:
            polys = self.zero_order_polys[: i + 1] + self.zero_order_polys[i:]
        return PotentialSpec(bp, hs, polys)


@dataclass(frozen=True)
class PerturbationSpec:
    """Piecewise-polynomial perturbation, one polynomial per interval.

    Coefficients are in the global coordinate x.  A single global
    polynomial is broadcast to every interval at parse time.  ``coupling``
    is parsed, validated and written back by spec_document, but nothing
    computes with it: the series produces the coefficients of coupling^k.
    """

    interval_polys: tuple[tuple[float, ...], ...]
    coupling: float = 1.0

    def __post_init__(self) -> None:
        polys = tuple(
            _finite_floats(p, f"perturbation.interval_polys[{i}]")
            for i, p in enumerate(self.interval_polys)
        )
        if not polys:
            raise SchemaError("perturbation.interval_polys: must not be empty")
        if all(all(c == 0.0 for c in p) for p in polys):
            raise SchemaError("perturbation: at least one interval polynomial must be nonzero")
        if not math.isfinite(self.coupling):
            raise SchemaError("perturbation.coupling: must be finite")
        object.__setattr__(self, "interval_polys", polys)
        object.__setattr__(self, "coupling", float(self.coupling))

    def split_interval(self, i: int) -> "PerturbationSpec":
        """Duplicate interval i's polynomial, mirroring a fictitious breakpoint."""
        polys = self.interval_polys[: i + 1] + self.interval_polys[i:]
        return replace(self, interval_polys=polys)

    def value(self, spec: PotentialSpec, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for n, xv in enumerate(xs):
            i = spec.interval_index(xv)
            out[n] = np.polynomial.polynomial.polyval(xv, self.interval_polys[i])
        return out if np.ndim(x) else float(out[0])


def _value_range(spec: PotentialSpec, i: int) -> tuple[float, float]:
    """PotentialSpec.value_ranges of interval i."""
    if spec.zero_order_polys is None:
        return spec.heights[i], spec.heights[i]
    xs = np.linspace(spec.breakpoints[i], spec.breakpoints[i + 1], 201)
    vals = spec.heights[i] + np.polynomial.polynomial.polyval(xs, spec.zero_order_polys[i])
    return float(np.min(vals)), float(np.max(vals))


def potential_value(spec: PotentialSpec, x) -> np.ndarray:
    """Zero-order potential V(x); right-continuous at breakpoints."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    for n, xv in enumerate(xs):
        i = spec.interval_index(xv)
        v = spec.heights[i]
        if spec.zero_order_polys is not None:
            v += np.polynomial.polynomial.polyval(xv, spec.zero_order_polys[i])
        out[n] = v
    return out if np.ndim(x) else float(out[0])


def degenerate_energy_error(
    spec: PotentialSpec, interval: int, energy: float
) -> DegenerateEnergyError:
    """The error for an energy within BETA_MIN^2 of an interval height."""
    return DegenerateEnergyError(
        f"E = {energy} degenerate with height {spec.heights[interval]} on interval "
        f"{interval}; move the energy window (or scan grid) off this height "
        "(a gauge shift cannot help: it leaves E - H unchanged)"
    )


def local_frequency(spec: PotentialSpec, interval: int, energy: float) -> complex:
    """Principal square root beta_i = sqrt(E - H_i) for one interval.

    Real and positive above the height, purely imaginary with positive
    imaginary part below it: the principal root of E - H_i + 0j is already
    so, and needs no sign flip.  Energies within BETA_MIN^2 of the height
    are rejected with DegenerateEnergyError; move the energy off the height
    (a gauge shift of heights and window together moves nothing, because
    E - H_i is unchanged).
    """
    diff = energy - spec.heights[interval]
    if abs(diff) <= BETA_MIN**2:
        raise degenerate_energy_error(spec, interval, energy)
    return complex(np.sqrt(complex(diff)))


def local_frequencies(
    spec: PotentialSpec, energies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """local_frequency for every interval at each energy of a 1-D array.

    The same rule, vectorised; the scalar form stays for the per-energy
    bases and is the reference the batched determinant is tested against.
    Each beta is the principal root of E - H_i + 0j: real and positive, or
    purely imaginary with positive imaginary part.  Returns beta, shape
    (M, n_intervals), and the mask of entries within BETA_MIN^2 of their
    height, where local_frequency would raise; beta is set to 1 there so
    that callers can evaluate without warnings and discard those energies
    afterwards.
    """
    diff = np.asarray(energies, dtype=float)[:, None] - np.asarray(spec.heights)
    degenerate = np.abs(diff) <= BETA_MIN**2
    beta = np.sqrt(diff.astype(complex))
    beta[degenerate] = 1.0
    return beta, degenerate


# -- input document handling ------------------------------------------

_TOP_KEYS = {"breakpoints", "heights", "boundary", "zero_order_polys", "perturbation"}
_PERT_KEYS = {"global_poly", "interval_polys", "coupling"}


def parse_spec_mapping(obj) -> tuple[PotentialSpec, PerturbationSpec | None]:
    """Validate a decoded document and build the spec pair."""
    if not isinstance(obj, dict):
        raise SchemaError("document root: expected an object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    for key in ("breakpoints", "heights"):
        if key not in obj:
            raise SchemaError(f"{key}: required")
        if not isinstance(obj[key], list):
            raise SchemaError(f"{key}: expected an array")
    boundary = obj.get("boundary", "dirichlet")
    if boundary != "dirichlet":
        raise SchemaError(f'boundary: only "dirichlet" is supported, got {boundary!r}')
    polys = obj.get("zero_order_polys")
    if polys is not None and not (
        isinstance(polys, list) and all(isinstance(p, list) for p in polys)
    ):
        raise SchemaError("zero_order_polys: expected an array of coefficient arrays")
    spec = PotentialSpec(
        tuple(obj["breakpoints"]),
        tuple(obj["heights"]),
        None if polys is None else tuple(tuple(p) for p in polys),
    )

    pert = None
    if "perturbation" in obj:
        p = obj["perturbation"]
        if not isinstance(p, dict):
            raise SchemaError("perturbation: expected an object")
        unknown = set(p) - _PERT_KEYS
        if unknown:
            raise SchemaError(f"perturbation: unknown keys {sorted(unknown)}")
        has_global = "global_poly" in p
        has_interval = "interval_polys" in p
        if has_global == has_interval:
            raise SchemaError(
                "perturbation: exactly one of global_poly or interval_polys is required"
            )
        if has_global:
            if not isinstance(p["global_poly"], list):
                raise SchemaError("perturbation.global_poly: expected an array")
            polys = tuple(tuple(p["global_poly"]) for _ in range(spec.n_intervals))
        else:
            ip = p["interval_polys"]
            if not (isinstance(ip, list) and all(isinstance(q, list) for q in ip)):
                raise SchemaError("perturbation.interval_polys: expected an array of arrays")
            if len(ip) != spec.n_intervals:
                raise SchemaError(
                    f"perturbation.interval_polys: expected {spec.n_intervals} entries, "
                    f"got {len(ip)}"
                )
            polys = tuple(tuple(q) for q in ip)
        pert = PerturbationSpec(polys, coupling=p.get("coupling", 1.0))
    return spec, pert


def parse_spec(text: str) -> tuple[PotentialSpec, PerturbationSpec | None]:
    """Parse a JSON document into the spec pair; see the format reference."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    return parse_spec_mapping(obj)


def spec_document(spec: PotentialSpec, pert: PerturbationSpec | None = None) -> str:
    """Serialize a spec pair to its canonical JSON document."""
    obj: dict = {
        "breakpoints": list(spec.breakpoints),
        "heights": list(spec.heights),
        "boundary": "dirichlet",
    }
    if spec.zero_order_polys is not None:
        obj["zero_order_polys"] = [list(p) for p in spec.zero_order_polys]
    if pert is not None:
        obj["perturbation"] = {
            "interval_polys": [list(p) for p in pert.interval_polys],
            "coupling": pert.coupling,
        }
    return json.dumps(obj)


def load_spec(path) -> tuple[PotentialSpec, PerturbationSpec | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())
