"""Command-line front end: scan, spectrum, perturb, validate.

All numeric output is serialized with 17 significant digits so that every
double round-trips exactly; identical configurations produce byte-identical
files.  Exit codes: 0 success, 1 validation failure, 2 input error,
3 internal numerical error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import oracle
from .config import ScanConfig
from .errors import (
    DegeneracyParadoxError,
    NonFiniteDeterminantError,
    PipelineError,
    SchemaError,
    SolverError,
)
from .perturbation import run_series
from .potential import PotentialSpec, load_spec
from .zero_order import (
    _determinants,
    eval_pieces,
    find_eigenvalues,
    match_coefficients,
    reference_floor,
    secular_determinant,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trip safe for doubles."""
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """Small JSON writer with deterministic float formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in obj)
        if flat:
            return "[" + ", ".join(_to_json(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _energy_window(args, spec: PotentialSpec) -> tuple[float, float]:
    """Resolve the (k or E) window flags into an energy window."""
    has_k = args.k_lo is not None or args.k_hi is not None
    has_e = getattr(args, "e_lo", None) is not None or getattr(args, "e_hi", None) is not None
    if has_k and has_e:
        raise SchemaError("give either a momentum window or an energy window, not both")
    floor = reference_floor(spec)
    if has_k:
        if args.k_lo is None or args.k_hi is None:
            raise SchemaError("momentum window needs both --k-lo and --k-hi")
        if not 0 <= args.k_lo < args.k_hi:
            raise SchemaError("momentum window must satisfy 0 <= k_lo < k_hi")
        return floor + args.k_lo**2, floor + args.k_hi**2
    if has_e:
        if args.e_lo is None or args.e_hi is None:
            raise SchemaError("energy window needs both --e-lo and --e-hi")
        if not args.e_lo < args.e_hi:
            raise SchemaError("energy window must satisfy e_lo < e_hi")
        return args.e_lo, args.e_hi
    # default window: a few low-lying states
    return floor + 1e-4, floor + 50.0


def cmd_scan(args) -> int:
    spec, _ = load_spec(args.spec)
    if args.k_lo is None or args.k_hi is None:
        raise SchemaError("scan needs a momentum window (--k-lo and --k-hi)")
    if not 0 <= args.k_lo < args.k_hi:
        raise SchemaError("momentum window must satisfy 0 <= k_lo < k_hi")
    if args.points < 2:
        raise SchemaError("scan resolution must be at least 2 points")
    floor = reference_floor(spec)
    ks = np.linspace(args.k_lo, args.k_hi, args.points)
    energies = floor + ks * ks
    dets, degenerate, overflow = _determinants(spec, energies)
    reasons = np.where(
        degenerate.any(axis=1), "degenerate", np.where(overflow.any(axis=1), "non-finite", "")
    ).tolist()
    rows = [(k, None if why else d, why) for k, d, why in zip(ks.tolist(), dets.tolist(), reasons)]
    skipped = [(k, why) for k, d, why in rows if d is None]
    if args.format == "json":
        doc = {
            "format_version": FORMAT_VERSION,
            "momentum_floor": floor,
            "rows": [[k, d] for k, d, _ in rows if d is not None],
            "skipped_k": [k for k, _ in skipped],
        }
        if skipped:
            doc["skipped_reasons"] = [why for _, why in skipped]
        _write_output(_to_json(doc), args.out)
    else:
        lines = ["k,determinant"]
        for k, det, why in rows:
            if det is None:
                lines.append(f"# skipped {why} k={_fmt(k)}")
            else:
                lines.append(f"{_fmt(k)},{_fmt(det)}")
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spec, _ = load_spec(args.spec)
    e_lo, e_hi = _energy_window(args, spec)
    scan = find_eigenvalues(spec, e_lo, e_hi, count=args.count, scan=ScanConfig(points=args.points))
    states = []
    warnings = []
    for e in scan.energies:
        entry: dict = {"energy": e}
        if spec.n_interior >= 1:
            try:
                st = match_coefficients(spec, e)
                entry["residual"] = st.residual
                entry["coefficients"] = [[float(c), float(d)] for c, d in st.coeffs]
            except DegeneracyParadoxError as exc:
                entry["residual"] = abs(secular_determinant(spec, e))
                entry["coefficients"] = None
                warnings.append(f"E={_fmt(e)}: {exc}")
            except NonFiniteDeterminantError as exc:
                # the determinant overflows with the boundary values
                entry["residual"] = None
                entry["coefficients"] = None
                warnings.append(f"E={_fmt(e)}: {exc}")
        else:
            entry["residual"] = abs(secular_determinant(spec, e))
            entry["coefficients"] = []
        states.append(entry)
    doc = {
        "format_version": FORMAT_VERSION,
        "window": {"e_lo": e_lo, "e_hi": e_hi},
        "eigenvalues": states,
        "complete": scan.complete,
        "skipped": list(scan.skipped),
        "spurious": list(scan.spurious),
        "near_degenerate": list(scan.near_degenerate),
    }
    if len(scan.energies) >= 2:
        doc["doublet_splitting"] = scan.energies[1] - scan.energies[0]
    if not scan.energies:
        warnings.append("no eigenvalues in the window")
    if warnings:
        doc["warnings"] = warnings
    _write_output(_to_json(doc), args.out)
    return EXIT_OK


def cmd_perturb(args) -> int:
    spec, pert = load_spec(args.spec)
    if pert is None:
        raise SchemaError("perturbation: required for the perturb command")
    e_lo, e_hi = _energy_window(args, spec)
    result = run_series(
        spec, pert, (e_lo, e_hi), args.orders, max_states=args.max_states
    )
    wspec = result.embedded_spec or spec
    xs = np.linspace(spec.x_min, spec.x_max, args.grid_points)
    states = []
    for series in result.states:
        psi_orders = [series.matched.eval(xs).tolist()]
        for order in series.orders:
            psi_orders.append(eval_pieces(wspec, order.global_pieces, xs).tolist())
        states.append(
            {
                "energies": list(series.energies),
                "x_grid": [float(v) for v in xs],
                "psi_orders": psi_orders,
                "diagnostics": series.diagnostics(),
            }
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "orders": args.orders,
        "window": {"e_lo": e_lo, "e_hi": e_hi},
        "states": states,
        "complete": result.scan.complete,
    }
    _write_output(_to_json(doc), args.out)
    return EXIT_OK


def _validate_checks(spec, pert, e_lo, e_hi, orders) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, measured: float, tolerance: float, detail: str = "") -> None:
        checks.append(
            {
                "name": name,
                "passed": bool(measured <= tolerance),
                "measured": float(measured),
                "tolerance": float(tolerance),
                "detail": detail,
            }
        )

    scan = find_eigenvalues(spec, e_lo, e_hi, count=6)
    energies = scan.energies
    if not energies:
        record("spectrum-nonempty", 1.0, 0.0, "no eigenvalues in window")
        return checks

    # solver vs finite-difference oracle, each eigenvalue within its estimate;
    # moderate grid keeps the Richardson residual well under the estimate
    # (finer grids hit the eps/h^2 eigensolver floor)
    fd = oracle.fd_eigenvalues(spec, None, 0.0, m=3000, count=len(energies))
    worst = 0.0
    for i, e in enumerate(energies):
        if i < len(fd.values):
            ratio = abs(e - fd.values[i]) / fd.estimate[i]
            worst = max(worst, ratio)
    record("fd-oracle-agreement", worst, 1.0, "|E - E_fd| / estimate over window")

    # gauge shift invariance
    shifted = spec.gauge_shifted(3.5)
    scan2 = find_eigenvalues(shifted, e_lo + 3.5, e_hi + 3.5, count=len(energies))
    n = min(len(energies), len(scan2.energies))
    gauge_err = max(
        (abs(scan2.energies[i] - 3.5 - energies[i]) for i in range(n)), default=np.inf
    )
    record("gauge-shift-invariance", gauge_err, 1e-9)

    # fictitious breakpoint invariance
    widths = [
        spec.breakpoints[i + 1] - spec.breakpoints[i] for i in range(spec.n_intervals)
    ]
    iw = int(np.argmax(widths))
    mid = 0.5 * (spec.breakpoints[iw] + spec.breakpoints[iw + 1])
    aug = spec.with_fictitious_breakpoint(mid)
    scan3 = find_eigenvalues(aug, e_lo, e_hi, count=len(energies))
    n = min(len(energies), len(scan3.energies))
    fict_err = max(
        (abs(scan3.energies[i] - energies[i]) for i in range(n)), default=np.inf
    )
    record("fictitious-breakpoint-invariance", fict_err, 1e-9)

    # matched-state smoothness (needs at least one interior breakpoint): the
    # ground state, matched on the fictitious-breakpoint copy for a plain box.
    # A polynomial zero order has no closed-form pieces: both piece checks
    # read its finest staircase's level with the ground state's Sturm index.
    detail = ""
    if spec.zero_order_polys is not None:
        base, ground = scan.staircase, scan.staircase_energies[0]
        detail = f"on the finest staircase ({base.n_intervals} cells) at E = {_fmt(ground)}"
    elif spec.n_interior == 0:
        base, ground = aug, scan3.energies[0]
    else:
        base, ground = spec, energies[0]
    st = match_coefficients(base, ground)
    cont = 0.0
    pieces = st.global_pieces()
    for j in range(1, base.n_interior + 1):
        xb = base.breakpoints[j]
        cont = max(
            cont,
            abs(pieces[j - 1].eval(xb) - pieces[j].eval(xb)),
            abs(pieces[j - 1].eval_deriv(xb) - pieces[j].eval_deriv(xb)),
        )
    record("psi0-smoothness", cont, 1e-9, detail)

    wr = 0.0
    for basis in st.bases:
        for side, lo, hi in (
            ("left", basis.x_lo, basis.anchor),
            ("right", basis.anchor, basis.x_hi),
        ):
            c = basis.piece("c", side)
            s = basis.piece("s", side)
            xs = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 20)
            w = c.eval(xs) * s.eval_deriv(xs) - c.eval_deriv(xs) * s.eval(xs)
            wr = max(wr, float(np.max(np.abs(w - 1.0))))
    record("wronskian-constancy", wr, 1e-10, detail)

    if pert is None:
        return checks

    series = run_series(spec, pert, (e_lo, e_hi), max(orders, 1), max_states=1)
    st_series = series.states[0]
    e1_int = oracle.rs_first_order(st_series.matched, _match_pert(series, pert))
    rel = abs(st_series.energies[1] - e1_int) / max(abs(e1_int), 1e-30)
    record("first-order-integral", rel, 1e-8, "relative |E1 - <V1>|")

    if orders >= 2:
        record(
            "equation-residual",
            st_series.diagnostics()["max_equation_residual"],
            1e-9,
        )
        lams = (1e-2, 3e-3, 1e-3)
        rems = []
        for lam in lams:
            e_exact = oracle.exact_perturbed_energy(
                spec, pert, lam, st_series.energies[0] + lam * st_series.energies[1]
            )
            rems.append(abs(e_exact - st_series.energy_at(lam)))
        # a series that terminates (constant shift) leaves pure solver noise;
        # the O(lambda^3) law is then satisfied trivially
        noise_floor = max(rems) < 1e-11
        slope = float(np.polyfit(np.log(lams), np.log(np.maximum(rems, 1e-300)), 1)[0])
        checks.append(
            {
                "name": "series-consistency-slope",
                "passed": bool(slope >= 2.7 or noise_floor),
                "measured": slope,
                "tolerance": 2.7,
                "detail": (
                    "remainder at solver precision; series terminates"
                    if noise_floor
                    else "log-log slope of |E(lambda) - partial sum|, >= is passing"
                ),
            }
        )
    return checks


def _match_pert(series, pert):
    """Perturbation aligned with the (possibly embedded) working spec."""
    if series.embedded_spec is None:
        return pert
    return pert.split_interval(0)


def cmd_validate(args) -> int:
    spec, pert = load_spec(args.spec)
    e_lo, e_hi = _energy_window(args, spec)
    checks = _validate_checks(spec, pert, e_lo, e_hi, args.orders)
    passed = all(c["passed"] for c in checks)
    doc = {
        "format_version": FORMAT_VERSION,
        "checks": checks,
        "passed": passed,
    }
    _write_output(_to_json(doc), args.out)
    return EXIT_OK if passed else EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepwell",
        description=(
            "Bound states of piecewise-constant potentials by wave-function "
            "matching, with closed-form perturbation series"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="path to the JSON problem file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--k-lo", type=float, default=None, help="momentum window low edge")
        p.add_argument("--k-hi", type=float, default=None, help="momentum window high edge")

    p_scan = sub.add_parser("scan", help="tabulate the secular determinant over k")
    common(p_scan)
    p_scan.add_argument("--points", type=int, default=600)
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    p_spec = sub.add_parser("spectrum", help="eigenvalues and matched coefficients")
    common(p_spec)
    p_spec.add_argument("--e-lo", type=float, default=None)
    p_spec.add_argument("--e-hi", type=float, default=None)
    p_spec.add_argument("--points", type=int, default=600)
    p_spec.add_argument("--count", type=int, default=None)
    p_spec.add_argument("--format", choices=("json",), default="json")

    p_pert = sub.add_parser("perturb", help="perturbation series for window states")
    common(p_pert)
    p_pert.add_argument("--e-lo", type=float, default=None)
    p_pert.add_argument("--e-hi", type=float, default=None)
    p_pert.add_argument("--orders", type=int, default=2)
    p_pert.add_argument("--max-states", type=int, default=1)
    p_pert.add_argument("--grid-points", type=int, default=201)
    p_pert.add_argument("--format", choices=("json",), default="json")

    p_val = sub.add_parser("validate", help="solver-versus-oracle invariant suite")
    common(p_val)
    p_val.add_argument("--e-lo", type=float, default=None)
    p_val.add_argument("--e-hi", type=float, default=None)
    p_val.add_argument("--orders", type=int, default=2)
    p_val.add_argument("--format", choices=("json",), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "scan": cmd_scan,
        "spectrum": cmd_spectrum,
        "perturb": cmd_perturb,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (SchemaError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
