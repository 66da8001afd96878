"""Tests of the benchmark itself: inputs, checks, tracing and output contract.

Run with ``python -m pytest benchmarks/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from mek import analytic, cli, fockspace, spectra, thermo

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAYER_MODULES = (fockspace, spectra, analytic, thermo, cli)
SMALL_ORACLE = workloads.Workload(
    "small-oracle", ("squeezed", "displaced-squeezed"), 0.3, 0.6, 2,
    workloads.ORACLE_ORDERS, oracle=True,
)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_grid_is_determined_by_seed_and_pass(name):
    workload = workloads.WORKLOADS[name]
    grid = workloads.pass_grid(workload, 7, 0)
    assert grid == workloads.pass_grid(workload, 7, 0)
    assert grid != workloads.pass_grid(workload, 8, 0)
    assert grid != workloads.pass_grid(workload, 7, 1)
    assert len(grid) == workload.strata * len(workload.families)


def test_stratified_draw_puts_one_value_in_each_stratum():
    rng = workloads.np.random.default_rng(0)
    values = workloads.stratified(1e-3, 1e3, 6, rng, log_uniform=True)
    assert [math.floor(math.log10(v)) for v in values] == [-3, -2, -1, 0, 1, 2]
    values = workloads.stratified(0.0, 1.0, 4, rng)
    assert [math.floor(4 * v) for v in values] == [0, 1, 2, 3]


def test_metric_and_workload_names_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [BENCH_DIR.name]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_benchmark_json_metrics(trace, section):
    spec = _spec()
    result = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "closed-form", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("trace", [0, 1])
def test_row_counts_depend_on_the_seed_not_on_the_run_length(trace):
    spec = _spec()
    counts = set()
    for seconds in ("0.2", "1.5"):
        result = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "closed-form", "--seed", "5",
             "--seconds", seconds, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        last = json.loads(result.stdout.strip().splitlines()[-1])
        counts.add((last["attempted"], last["failed"]))
    closed = workloads.WORKLOADS["closed-form"]
    tally = checks.Tally()
    workloads.run_pass(closed, workloads.pass_grid(closed, 5, 0), tally)
    assert counts == {(tally.attempted, tally.failed)}
    assert tally.failed > 0  # the known thermal failures stay visible


def test_per_layer_self_times_fit_in_the_traced_wall_time():
    tracer = spans.Tracer()
    tally = checks.Tally()
    grid = workloads.pass_grid(SMALL_ORACLE, 0, 0)
    start = time.perf_counter()
    with tracer.installed(LAYER_MODULES):
        workloads.run_pass(SMALL_ORACLE, grid, tally, tracer)
    wall = time.perf_counter() - start
    assert not hasattr(cli.run_sweep, "__wrapped__")  # wrappers removed

    layer_totals = tracer.layer_self_s()
    assert 0.0 < sum(layer_totals.values()) <= wall
    values = spans.layer_metrics(tracer, len(grid), tally.max_abs_dev, 0.0)
    per_point = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert per_point * len(grid) <= wall
    assert values["fockspace.operator_exponential_calls"] > 0  # displacement exponentials
    assert values["spectra.partial_trace_calls"] == 1.0
    assert 0.0 < values["spectra.useful_eig_frac"] <= 1.0
    # every span's parent opened before it and closed after it
    by_id = {span[0]: span for span in tracer.spans}
    for _, _, begin, end, parent, _ in tracer.spans:
        if parent is not None:
            assert by_id[parent][2] <= begin <= end <= by_id[parent][3]


def test_errors_are_counted_in_the_layer_that_raised():
    tracer = spans.Tracer()
    tally = checks.Tally()
    with tracer.installed(LAYER_MODULES):
        workloads.run_point(workloads.WORKLOADS["closed-form"], "squeezed", 500.0, tally)
    assert tracer.stats["thermo.oscillator_model_from_squeezing"].errors == 2
    assert tracer.stats["cli.run_sweep"].errors == 0
    assert tally.failed == tally.attempted == 6 and tally.unexpected == 0


def test_corrupted_oracle_row_counts_in_fail_frac(monkeypatch):
    workload = workloads.Workload(
        "one-point", ("squeezed",), 0.5, 0.5, 1, workloads.ORACLE_ORDERS, oracle=True
    )
    clean = checks.Tally()
    workloads.run_point(workload, "squeezed", 0.5, clean)
    assert (clean.attempted, clean.failed) == (4, 0)

    real_run_sweep = cli.run_sweep

    def corrupting_run_sweep(config):
        header, rows, code = real_run_sweep(config)
        rows[1][header.index("oracle_S_mu")] += 1e-6
        return header, rows, code

    monkeypatch.setattr(cli, "run_sweep", corrupting_run_sweep)
    tally = checks.Tally()
    workloads.run_point(workload, "squeezed", 0.5, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (4, 1, 1)
    assert tally.fail_frac == 0.25
    assert tally.reasons == {"oracle:gate": 1}


def test_known_failures_stay_failures_but_are_not_unexpected():
    tally = checks.Tally()
    closed = workloads.WORKLOADS["closed-form"]
    workloads.run_point(closed, "squeezed", 400.0, tally)
    workloads.run_point(closed, "silbey-harris", 400.0, tally)
    assert tally.reasons == {"raised:OverflowError": 6, "raised:ZeroDivisionError": 6}
    displaced = workloads.Workload(
        "displaced", ("displaced-squeezed",), 1.0, 1.0, 1, (0.5,), oracle=True
    )
    workloads.run_point(displaced, "displaced-squeezed", 1.0, tally)
    assert (tally.failed, tally.unexpected) == (13, 0)
    assert tally.reasons["oracle:gate"] == 1

    # the same exception at a small parameter is not a known failure
    assert not checks.raised("squeezed", 2.0, OverflowError()).known


def test_closed_form_identities_catch_a_wrong_column():
    header, rows, _ = cli.run_sweep(cli.SweepConfig("squeezed", [0.7], [2.0]))
    row = dict(zip(header, rows[0]))
    assert not checks.check_sweep_row("squeezed", row).failed
    row["S_2"] *= 1.0 + 1e-9
    assert checks.check_sweep_row("squeezed", row).reason == "identity:S_2"

    header, rows, _ = cli.run_sweep(cli.SweepConfig("silbey-harris", [0.3], [0.5]))
    row = dict(zip(header, rows[0]))
    assert not checks.check_sweep_row("silbey-harris", row).failed
    row["S_mu"] += 1e-6
    assert checks.check_sweep_row("silbey-harris", row).reason == "identity:S_mu"


def test_only_closed_form_bypasses_the_oracle_and_adds_a_thermo_table():
    bypassing = [w.name for w in workloads.WORKLOADS.values() if not w.oracle]
    assert bypassing == ["closed-form"]
    closed = workloads.WORKLOADS["closed-form"]
    sweep_rows, table_rows = workloads.run_point(closed, "squeezed", 0.7, checks.Tally())
    assert (len(sweep_rows), len(table_rows)) == (len(closed.orders), 1)
    sweep_rows, table_rows = workloads.run_point(SMALL_ORACLE, "squeezed", 0.3, checks.Tally())
    assert (len(sweep_rows), len(table_rows)) == (len(SMALL_ORACLE.orders), 0)


def test_fails_without_printing_a_result_when_mek_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = _spec()
    result = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "closed-form", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""
