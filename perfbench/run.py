"""The stepwell benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectrum_wells --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the solver is imported from ./src, never
from an installed copy.  Each workload is a closed loop with one caller in
one process: the next problem starts when the last one is done.  A run
repeats a fixed round of problems, drawn from the seed, until the time is
up.  After the timed loop every output of the first round is checked
against an independent route (the FD oracle, quadrature, the power-series
backend), outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
half the time untraced, then replays the round once, each problem untraced
and then with the span tracer installed, and prints the per-layer metrics
plus the tracing overhead.

The last line of standard output is the result object; the line before it
is the run record (seed, machine, versions, load, latency tail details,
output fingerprints, failures), which is also written to
.bench_runs/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("spectrum_wells", "spectrum_staircase", "series_orders", "cli_cold")
SETUP_REPS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import stepwell; "
    "print(time.perf_counter() - t); print(stepwell.__file__)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(reps: int) -> dict:
    """Fresh-interpreter import of stepwell, and a bare interpreter start."""
    env = child_env()
    imports, spawns = [], []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        spawns.append(perf_counter() - t0)
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        )
        seconds, origin = probe.stdout.split("\n")[:2]
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"stepwell imported from {origin}, not from {SRC}")
        imports.append(float(seconds))
    return {"import_s": imports, "spawn_s": spawns}


def latency_summary(lat: list[list[float]]) -> dict:
    """Median and tail of every timed problem of a run, repeats included.

    The tail is the highest percentile with at least 10 samples beyond it
    (nearest rank: the 11th slowest), or the slowest sample in a run of
    fewer than 11; the record keeps the percentile and the sample count.
    ``problems_per_s`` is the number of problems timed over the time spent in
    them: the loop's one caller waits for each, so this is 1 / mean latency.
    """
    s = sorted(x for times in lat for x in times)
    n = len(s)
    rank = n - 11 if n > 10 else n - 1
    return {
        "samples": n,
        "repeats": [len(times) for times in lat],
        "latencies_ms": [[x * 1e3 for x in times] for times in lat],
        "p50_ms": statistics.median(s) * 1e3,
        "tail_ms": s[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / n,
        "tail_samples_beyond": n - 1 - rank,
        "problems_per_s": n / sum(s),
    }


def timed_rounds(items: list, run, digest, seconds: float):
    """Closed loop over a fixed round of problems: run the round once, then
    go round again until ``seconds`` have passed.

    The first round always completes, so the problems a run attempts and
    checks depend on the seed alone.  ``digest(i, out)`` is taken outside the
    timed region; a repeat whose digest differs from the first round's is
    reported by index.  Returns the first round's outputs and digests, each
    problem's latencies, the indices whose repeats differed and the wall time.
    """
    outs, digests, lat, differed = [], [], [[] for _ in items], []
    start = perf_counter()
    deadline = start + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        for i, item in enumerate(items):
            t0 = perf_counter()
            out = run(item)
            t1 = perf_counter()
            lat[i].append(t1 - t0)
            d = digest(i, out)
            if rounds == 0:
                outs.append(out)
                digests.append(d)
            elif d != digests[i]:
                differed.append(i)
            if rounds and t1 >= deadline:
                break
        rounds += 1
    return outs, digests, lat, differed, perf_counter() - start


# -- in-process workloads ------------------------------------------------------


def run_inprocess(name: str, seed: int, seconds: float, trace: bool, limit=None) -> dict:
    import tracer as tracing
    import workloads as wl

    make = wl.GENERATORS[name]
    problems = [make(seed, i) for i in range(limit or wl.ROUND_SIZE[name])]
    run, check = wl.RUNNERS[name], wl.CHECKS[name]
    # lazy imports and first-call set-up happen here, untimed, on problem -1
    # (an N = 16 staircase, an N = 4 well)
    run(make(seed, -1))

    outs, prints, lat, differed, wall = timed_rounds(
        problems, run, lambda i, out: wl.fingerprint(problems[i], out),
        seconds / 2 if trace else seconds,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec: dict = {"problem_kinds": [p.kind for p in problems], "fingerprints": prints}
    rec["fingerprint"] = hashlib.sha256("".join(prints).encode()).hexdigest()
    run_errors = [f"a repeat of problem {i} ({problems[i].kind}) gave other results" for i in differed]
    if trace:
        # each problem runs untraced and then traced, back to back, so that
        # the overhead is not swamped by the machine's slow and fast phases
        tr = tracing.Tracer()
        traced = untraced = 0.0
        for p, fp in zip(problems, prints):
            t0 = perf_counter()
            run(p)
            untraced += perf_counter() - t0
            tr.install()
            try:
                idx = tr.open("problem")
                t0 = perf_counter()
                out = run(p)
                traced += perf_counter() - t0
                tr.close(idx)
            finally:
                tr.uninstall()
            if wl.fingerprint(p, out) != fp:
                run_errors.append(f"traced result differs on {p.kind}")
        rec["layers"] = tracing.layer_metrics(tr.profile(), len(problems))
        rec["layers"]["trace.overhead_frac"] = traced / untraced - 1.0
    misses = [check(p, o) for p, o in zip(problems, outs)]
    rec["warnings"] = sum(o.warnings for o in outs)
    if name == "series_orders":
        rec["series_diagnostics"] = wl.series_diagnostics(outs)
    rec["failures"] = [
        {"index": i, "kind": problems[i].kind, "known": m.known, "what": m.what}
        for i, ms in enumerate(misses) for m in ms
    ]
    rec["failed"] = sum(1 for ms in misses if ms)
    rec["unknown_failures"] = sum(1 for ms in misses for m in ms if not m.known)
    rec["run_errors"] = run_errors
    rec["latency"] = latency_summary(lat)
    rec["wall_s"] = wall
    rec["peak_rss_mb"] = peak_rss_mb
    return rec


# -- cli_cold ------------------------------------------------------------------

GEOMETRIES = {
    "box": ([0.0, math.pi], [0.0]),
    "step": ([0.0, 1.0, 2.0], [0.0, 5.0]),
    "double_well": ([0.0, 1.0, 2.0, math.pi], [0.0, 10.0, 0.0]),
}
# Every subcommand on every geometry once a round, in a fixed order that
# interleaves slow and fast invocations.  Validate on the double well, the
# slowest and the one that runs both the FD oracle and the power-series
# backend in full, comes twice, so identical invocations are compared for
# identical bytes within a round as well as across the round's repeats.
CLI_ROUND = (
    ("validate", "double_well"), ("spectrum", "box"), ("scan", "step"),
    ("perturb", "double_well"), ("spectrum", "step"), ("validate", "box"),
    ("validate", "double_well"), ("scan", "double_well"), ("perturb", "box"),
    ("spectrum", "double_well"), ("validate", "step"), ("scan", "box"),
    ("perturb", "step"),
)
CLI_FLAGS = {
    "scan": ["--k-lo", "0.5", "--k-hi", "3.5"],
    "spectrum": [],
    "perturb": ["--orders", "4"],
    "validate": [],
}


def cli_specs(seed: int, workdir: Path) -> dict[str, Path]:
    """The fixture geometries with a seeded linear tilt, written as JSON."""
    import random

    rng = random.Random(f"cli_cold:{seed}")
    paths = {}
    for geom, (bp, heights) in GEOMETRIES.items():
        doc = {
            "breakpoints": bp,
            "heights": heights,
            "perturbation": {"global_poly": [0.0, rng.uniform(0.2, 1.0)]},
        }
        paths[geom] = workdir / f"{geom}.json"
        paths[geom].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def run_cli(seed: int, seconds: float, trace: bool, limit=None) -> dict:
    import tracer as tracing

    env = child_env()
    workdir = RUNS / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        specs = cli_specs(seed, workdir)
        invs = []
        for i, (cmd, geom) in enumerate(CLI_ROUND[:limit]):
            out = workdir / f"{i}.out"
            args = [cmd, "--spec", str(specs[geom]), *CLI_FLAGS[cmd], "--out", str(out)]
            invs.append((cmd, geom, out, args))

        def untraced(inv):
            return subprocess.run(
                [sys.executable, "-m", "stepwell.cli", *inv[3]],
                cwd=ROOT, env=env, capture_output=True, text=True,
            ).returncode

        def digest(i, rc):
            """Exit code, size, sha256 and, for validate, its verdict; the
            output is removed so that a repeat must write it again."""
            cmd, _, out, _ = invs[i]
            data = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            passed = json.loads(data)["passed"] if cmd == "validate" and rc == 0 else None
            return rc, len(data), hashlib.sha256(data).hexdigest(), passed

        _, digests, lat, differed, wall = timed_rounds(
            invs, untraced, digest, seconds / 2 if trace else seconds
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        rec: dict = {"invocations": [f"{c}:{g}" for c, g, _, _ in invs], "fingerprints": {}}
        for i, (key, d) in enumerate(zip(rec["invocations"], digests)):
            if rec["fingerprints"].setdefault(key, d[2]) != d[2]:
                differed.append(i)
        misses, run_errors = [], []
        for i, (key, (rc, _, _, passed)) in enumerate(zip(rec["invocations"], digests)):
            if rc != 0:
                misses.append({"index": i, "kind": key, "known": False, "what": f"exit code {rc}"})
            elif passed is False:
                misses.append({"index": i, "kind": key, "known": False, "what": "validate did not pass"})
        for i in sorted(set(differed)):
            key = rec["invocations"][i]
            misses.append({"index": i, "kind": key, "known": False, "what": "repeat gave other bytes"})
        if trace:
            # untraced and traced invocations alternate, as in-process
            summaries = []
            traced = untraced_s = 0.0
            for i, (cmd, geom, out, args) in enumerate(invs):
                t0 = perf_counter()
                untraced(invs[i])
                untraced_s += perf_counter() - t0
                out.unlink(missing_ok=True)
                summary = workdir / f"trace-{i}.json"
                t0 = perf_counter()
                subprocess.run(
                    [sys.executable, str(HERE / "trace_cli.py"), str(summary), *args],
                    cwd=ROOT, env=env, capture_output=True, text=True,
                )
                traced += perf_counter() - t0
                if not summary.exists():
                    run_errors.append(f"traced {cmd}:{geom} wrote no trace summary")
                    continue
                doc = json.loads(summary.read_text(encoding="utf-8"))
                doc["command"] = cmd
                summaries.append(doc)
                if digest(i, 0)[2] != digests[i][2]:
                    run_errors.append(f"traced {cmd}:{geom} wrote other bytes")
            layers = tracing.layer_metrics(
                tracing.merge_profiles([s["profile"] for s in summaries]), len(invs)
            )
            layers["cli.import_ms"] = statistics.mean(s["import_s"] for s in summaries) * 1e3
            for cmd in CLI_FLAGS:
                main = [s["main_s"] for s in summaries if s["command"] == cmd]
                layers[f"cli.main_ms.{cmd}"] = statistics.mean(main) * 1e3 if main else 0.0
            layers["cli.output_bytes"] = float(statistics.mean(d[1] for d in digests))
            layers["trace.overhead_frac"] = traced / untraced_s - 1.0
            rec["layers"] = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec["failures"] = misses
    rec["failed"] = len({m["index"] for m in misses})
    rec["unknown_failures"] = sum(1 for m in misses if not m["known"])
    rec["run_errors"] = run_errors
    rec["latency"] = latency_summary(lat)
    rec["wall_s"] = wall
    rec["peak_rss_mb"] = peak_rss_mb
    return rec


# -- entry point ---------------------------------------------------------------


def declared_metrics() -> tuple[dict, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": threads,
        "loadavg_start": os.getloadavg(),
    }


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: recorded at the start and end of
    each run, so that a slow run can be told from a slow machine."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, *, limit=None, setup_reps=SETUP_REPS):
    """One benchmark run; returns (record, result object)."""
    e2e_units, layer_units = declared_metrics()
    rec = machine_record(seed)
    rec.update(workload=workload, seconds=seconds, trace=int(trace), speed_probe_start_s=speed_probe())
    setup = measure_setup(setup_reps)
    if workload == "cli_cold":
        body = run_cli(seed, seconds, trace, limit)
    else:
        body = run_inprocess(workload, seed, seconds, trace, limit)
    rec.update(body)
    rec["setup"] = setup
    rec["loadavg_end"] = os.getloadavg()
    rec["speed_probe_end_s"] = speed_probe()
    lat = body["latency"]
    attempted = len(lat["repeats"])
    if trace:
        metrics = dict(body["layers"])
        metrics["cli.spawn_ms"] = statistics.median(setup["spawn_s"]) * 1e3
        metrics.setdefault("cli.import_ms", statistics.median(setup["import_s"]) * 1e3)
        for cmd in CLI_FLAGS:
            metrics.setdefault(f"cli.main_ms.{cmd}", 0.0)
        metrics.setdefault("cli.output_bytes", 0.0)
        units = layer_units
    else:
        metrics = {
            "problems_per_s": lat["problems_per_s"],
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "setup_s": statistics.median(setup["import_s"]),
            "peak_rss_mb": body["peak_rss_mb"],
            "passed_frac": 1.0 - body["failed"] / attempted,
        }
        units = e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    correct = body["unknown_failures"] == 0 and not body["run_errors"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": body["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return rec, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stepwell" / "__init__.py").is_file():
        print(f"error: no stepwell sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    rec, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1), encoding="utf-8")
    print(json.dumps({"record": rec}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
