"""Run one workload of mek's benchmark and print its metrics.

    python3 benchmarks/run.py --workload pair-squeeze --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; mek is imported from ``src/``.

``--trace 0`` is the timed run: it prints setup_s, points_per_s, peak_rss_mb
and pass_frac. ``--trace 1`` alternates untraced and traced passes over the
same grids, prints the per-layer metrics and writes the spans under
``benchmarks/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` and
``failed`` count the output rows of the seed's reference grid (pass 0, which
every run evaluates once), so they depend on the seed alone, never on how many
passes fit in ``--seconds``. The rows of every pass are checked: ``correct``
is false when any of them fails outside the failure classes known at the base
commit (see README.md); known failures still count in ``failed``. The line
before the result holds the environment and the failure breakdown of both the
reference grid and all passes.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# One BLAS thread for the base and every later change: the machine is shared
# and small, and a fixed count keeps runs comparable.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mek benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run giving the per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(workload, seed: int) -> list:
    """Import mek, warm BLAS and draw the first grid: what ``setup_s`` times."""
    import numpy as np

    import workloads

    warm = np.full((128, 128), 0.5 + 0.5j)
    float((warm @ warm).real.sum())
    return workloads.pass_grid(workload, seed, 0)


def warm_up(workload, grid: list) -> None:
    """Evaluate the first point once, untimed and outside ``setup_s``."""
    import checks
    import workloads

    workloads.run_point(workload, *grid[0], checks.Tally())


def measure_setup(args) -> float:
    """Median time from starting a fresh process until the workload can run."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe exited with {child.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def timed_passes(workload, seed: int, seconds: float, grid: list):
    """Whole passes until the next one would overrun ``seconds`` (at least one).

    Pass 0 evaluates ``grid``; each later pass draws the next grid of the seed.
    Returns the points-per-second rate of each pass, the tally of pass 0 and
    the tally of all passes.
    """
    import checks
    import workloads

    first = checks.Tally()
    total = checks.Tally()
    rates = []
    start = time.perf_counter()
    index = 0
    while True:
        tally = first if index == 0 else checks.Tally()
        t0 = time.perf_counter()
        workloads.run_pass(workload, grid, tally)
        now = time.perf_counter()
        rates.append(len(grid) / (now - t0))
        total.merge(tally)
        index += 1
        if (now - start) + (now - t0) > seconds:
            return rates, first, total
        grid = workloads.pass_grid(workload, seed, index)


def traced_passes(workload, seed: int, seconds: float, grid: list):
    """Pairs of an untraced and a traced pass over one grid, order alternating.

    Returns (tracer, traced points, traced wall seconds, overhead fraction,
    tally of the first evaluation of pass 0's grid, tally of all passes).
    """
    import checks
    import spans
    import workloads
    from mek import analytic, cli, fockspace, spectra, thermo

    modules = (fockspace, spectra, analytic, thermo, cli)
    tracer = spans.Tracer()
    first = None
    total = checks.Tally()
    rates = {False: [], True: []}
    traced_points = 0
    traced_wall = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        pair_start = time.perf_counter()
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            tally = checks.Tally()
            t0 = time.perf_counter()
            if traced:
                with tracer.installed(modules):
                    workloads.run_pass(workload, grid, tally, tracer)
            else:
                workloads.run_pass(workload, grid, tally)
            duration = time.perf_counter() - t0
            rates[traced].append(len(grid) / duration)
            total.merge(tally)
            if first is None:
                first = tally
            if traced:
                traced_points += len(grid)
                traced_wall += duration
        index += 1
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > seconds:
            break
        grid = workloads.pass_grid(workload, seed, index)
    overhead = 1.0 - statistics.median(rates[True]) / statistics.median(rates[False])
    return tracer, traced_points, traced_wall, overhead, first, total


def write_spans(tracer, path: Path, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        **header,
        "span_fields": ["id", "name", "start_s", "end_s", "parent_id", "point_id"],
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
        "functions": {
            name: {"calls": s.calls, "self_s": s.self_s, "errors": s.errors}
            for name, s in sorted(tracer.stats.items())
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mek" / "__init__.py").is_file():
        print(f"run.py: mek sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    grid = prepare(workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    warm_up(workload, grid)

    detail = {"workload": workload.name, "trace": args.trace, "env": environment(args.seed)}
    if args.trace:
        import spans

        tracer, points, wall, overhead, first, total = traced_passes(
            workload, args.seed, args.seconds, grid)
        values = spans.layer_metrics(tracer, points, total.max_abs_dev, overhead)
        units = dict(spans.PER_LAYER)
        trace_path = RESULTS_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        write_spans(tracer, trace_path, {"workload": workload.name, "env": detail["env"]})
        detail.update(
            traced_points=points,
            traced_wall_s=wall,
            self_s_total=tracer.total_self_s(),
            layer_self_s=tracer.layer_self_s(),
            dominant_layer=spans.dominant_layer(tracer),
            spans_file=str(trace_path.relative_to(ROOT)),
        )
    else:
        setup_s = measure_setup(args)
        rates, first, total = timed_passes(workload, args.seed, args.seconds, grid)
        values = {
            "setup_s": setup_s,
            "points_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - first.fail_frac,
        }
        units = dict(END_TO_END)
        detail.update(
            passes=len(rates),
            points=len(rates) * len(grid),
        )
    detail.update(
        fail_frac={"value": first.fail_frac, "unit": "ratio", "failed_rows": first.failed,
                   "attempted_rows": first.attempted},
        failure_reasons=dict(first.reasons),
        all_passes={"failed_rows": total.failed, "attempted_rows": total.attempted,
                    "failure_reasons": dict(total.reasons)},
        unexpected_failures=total.unexpected,
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": total.unexpected == 0,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
