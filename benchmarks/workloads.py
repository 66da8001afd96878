"""The benchmark's workloads: seeded grids, and one pass of evaluating them.

Each workload is a fixed family list, parameter interval and order list. A
pass draws one parameter per equal sub-interval (stratum) of the interval,
jittered uniformly inside it, from a generator seeded by (seed, pass index):
cost grows steeply with the parameter, so stratifying keeps the work of
different seeds close. mek receives only the drawn grid and the orders.

A point is one (family, parameter) evaluation: one `cli.run_sweep` call with
all orders (and, for `closed-form`, one `cli.run_thermo_table` call), plus the
checks of every row it returns. One call per point means a failing point
fails only its own rows.
"""

import math
from dataclasses import dataclass

import numpy as np

import checks
from mek import cli

ORACLE_ORDERS = (0.5, 1.0, 2.0, math.inf)
CLOSED_FORM_ORDERS = (0.5, 1.0, 2.0, 5.0, math.inf)


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    lo: float
    hi: float
    strata: int  # points per family per pass
    orders: tuple
    # True: oracle columns on every sweep row. False (closed-form): a
    # thermo-table call per point, and every row of the pass rendered once as
    # CSV and as JSON
    oracle: bool = False
    log_uniform: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # dense d^2 x d^2 pair exponential (d ~ 25-47); ROADMAP item 2 shows here
        Workload("pair-squeeze", ("squeezed-coherent",), 0.3, 0.8, 16, ORACLE_ORDERS, oracle=True),
        # Jacobi eigensolve on d ~ 64-266, pair squeeze bypassed; item 3 shows here
        Workload("displaced-eigen", ("displaced-squeezed",), 1.0, 1.8, 16, ORACLE_ORDERS, oracle=True),
        # large, already diagonal reduced matrices (d ~ 280-2050): partial_trace
        # and the embedding dominate, not rotations
        Workload("wide-diagonal", ("squeezed",), 1.5, 2.5, 16, ORACLE_ORDERS, oracle=True),
        # oracle bypassed: analytic, thermo and rendering carry the load
        Workload(
            "closed-form", ("squeezed", "silbey-harris"), 1e-3, 1e3, 100, CLOSED_FORM_ORDERS,
            log_uniform=True,
        ),
    )
}


def stratified(lo: float, hi: float, count: int, rng, log_uniform: bool = False) -> list:
    """One uniformly jittered value in each of ``count`` equal sub-intervals."""
    a, b = (math.log10(lo), math.log10(hi)) if log_uniform else (lo, hi)
    width = (b - a) / count
    values = a + width * (np.arange(count) + rng.random(count))
    if log_uniform:
        values = 10.0 ** values
    return [float(v) for v in values]


def pass_grid(workload: Workload, seed: int, index: int) -> list:
    """The (family, parameter) points of pass ``index``; same seed, same grid."""
    rng = np.random.default_rng([seed, index])
    return [
        (family, param)
        for family in workload.families
        for param in stratified(workload.lo, workload.hi, workload.strata, rng, workload.log_uniform)
    ]


def _call(tally: checks.Tally, family: str, param: float, expected_rows: int, run, config, check):
    """Run one CLI command function for one point and check its rows; returns the rows."""
    try:
        header, rows, _ = run(config)
    except Exception as exc:  # a failing point fails its rows, never the run
        tally.add(checks.raised(family, param, exc), expected_rows)
        return []
    for row in rows:
        tally.add(check(family, dict(zip(header, row))))
    if len(rows) != expected_rows:
        tally.add(checks.Verdict(True, reason="rows:missing"), max(0, expected_rows - len(rows)))
    return rows


def run_point(workload: Workload, family: str, param: float, tally: checks.Tally):
    """Evaluate and check one point; returns (sweep rows, thermo-table rows)."""
    sweep = cli.SweepConfig(family, [param], list(workload.orders), oracle=workload.oracle)
    sweep_rows = _call(tally, family, param, len(workload.orders), cli.run_sweep, sweep,
                       checks.check_sweep_row)
    if workload.oracle:
        return sweep_rows, []
    table = cli.SweepConfig(family, [param], [1.0])
    return sweep_rows, _call(tally, family, param, 1, cli.run_thermo_table, table,
                             checks.check_thermo_row)


def render_tables(sweep_rows: list, thermo_rows: list, tally: checks.Tally) -> None:
    """Render the pass's rows as CSV and JSON, and check the framing of each."""
    for header, rows in ((cli.SWEEP_HEADER, sweep_rows), (cli.THERMO_HEADER, thermo_rows)):
        text = cli.render_output(header, rows, "csv")
        if text.count("\n") != len(rows) + 1:
            tally.unexpected_event("render:csv")
        text = cli.render_output(header, rows, "json")
        if not (text.startswith("{") and text.endswith("}\n")):
            tally.unexpected_event("render:json")


def run_pass(workload: Workload, points: list, tally: checks.Tally, tracer=None) -> None:
    """Evaluate every point of one pass (and render, for closed-form)."""
    sweep_rows, thermo_rows = [], []
    for point_id, (family, param) in enumerate(points):
        if tracer is not None:
            tracer.point = point_id
        rows, table_rows = run_point(workload, family, param, tally)
        sweep_rows.extend(rows)
        thermo_rows.extend(table_rows)
    if tracer is not None:
        tracer.point = None
    if not workload.oracle:
        render_tables(sweep_rows, thermo_rows, tally)
