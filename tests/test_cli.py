import dataclasses
import inspect
import json
import math
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mek import analytic, cli, fockspace, spectra, thermo
from mek.exceptions import MemoryBudgetError
from mek.cli import (
    SweepConfig,
    SWEEP_HEADER,
    SWEEP_ORACLE_HEADER,
    THERMO_HEADER,
    parse_grid,
    parse_mu_list,
    render_output,
    run_sweep,
    run_thermo_table,
    run_verification,
)


def _reference_fmt(value) -> str:
    """The CSV scalar format as it was before the renderer memoised values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.12g}" if value == 0.0 else f"{value:.12g}"
    return str(value)


def _reference_csv(header, rows) -> str:
    """The CSV renderer as it was before it memoised values: one format per value."""
    lines = [",".join(header)]
    lines.extend(",".join(_reference_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_json(header, rows) -> str:
    """The JSON renderer as it was before it wrote its own layout: ``json.dumps`` at indent 2."""
    payload = {
        "columns": list(header),
        "rows": [{key: _reference_json_safe(v) for key, v in zip(header, row)} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _reference_json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _reference_fmt(value)
    return value


_TEXT = st.text(alphabet=st.sampled_from(['"', "\\", "%", "s", "é", "Ω", "a", ",", " "]),
                max_size=4)
_SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, True, False, 1, 1.0, "%s"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**20, max_value=10**20),
    _TEXT,
)


@st.composite
def _tables(draw):
    """A header and rows drawn from a few distinct rows, so values repeat down the columns."""
    header = tuple(draw(st.lists(_TEXT, unique=True, max_size=5)))
    row = st.lists(_SCALARS, min_size=len(header), max_size=len(header))
    pool = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    return header, [list(pool[i]) for i in picks]


class _Overrun(Exception):
    """Raised by the ``deadline`` alarm: no type that ``cli.main`` turns into exit 2."""


@pytest.fixture
def deadline():
    """Arm an alarm that fails the test after the given seconds instead of letting it hang."""
    def expire(signum, frame):
        raise _Overrun("still running at the deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


class TestParsing:
    def test_grid_comma_list(self):
        assert parse_grid("0,0.5,1") == [0.0, 0.5, 1.0]

    def test_grid_linspace(self):
        assert parse_grid("0:2:5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_grid_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_grid(" , ")

    @pytest.mark.parametrize("grid", ["1:2", "1:2:-1"])
    def test_malformed_range_names_the_form(self, grid, capsys):
        # a missing or negative count used to surface as an unpacking or numpy message
        assert cli.main(["sweep", "--grid", grid, "--mu", "1"]) == 2
        assert capsys.readouterr().err == (
            f"mek: grid '{grid}' must read 'start:stop:count' with a count >= 1\n"
        )

    @pytest.mark.parametrize("grid", ["1:2:1.5", "1:2:1e9", "1:x:3", "x:2:3", "1:2:x"])
    def test_unparsable_range_names_the_form(self, grid, capsys):
        # a count that is not an integer, or a bound that is not a number,
        # used to surface as Python's int() or float() message
        assert cli.main(["sweep", "--grid", grid, "--mu", "1"]) == 2
        assert capsys.readouterr().err == (
            f"mek: grid '{grid}' must read 'start:stop:count' with a count >= 1\n"
        )

    def test_mu_list(self):
        assert parse_mu_list("0.5,1,inf") == [0.5, 1.0, math.inf]

    def test_power_aware_tail(self):
        assert cli.OraclePlan.squeezed(0.5, 1e-12, [1.0, 2.0, math.inf]).tail_tol == 1e-12
        plan = cli.OraclePlan.squeezed(0.5, 1e-12, [0.5, 2.0])
        assert plan.tail_tol == pytest.approx(1e-24, rel=1e-6)


class TestSweepConfig:
    def test_valid(self):
        SweepConfig("squeezed", [0.5], [1.0])

    def test_bad_family(self):
        with pytest.raises(ValueError):
            SweepConfig("thermal", [0.5], [1.0])

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            SweepConfig("squeezed", [], [1.0])

    def test_tolerance_window(self):
        SweepConfig("squeezed", [0.5], [1.0], tail_tolerance=1e-10)
        for bad in (1e-3, 2e-10, 0.0):
            with pytest.raises(ValueError, match=r"\(0, 1e-10\]"):
                SweepConfig("squeezed", [0.5], [1.0], tail_tolerance=bad)

    def test_negative_parameter(self):
        with pytest.raises(ValueError):
            SweepConfig("squeezed", [-0.5], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameter(self, bad):
        with pytest.raises(ValueError):
            SweepConfig("squeezed", [0.5, bad], [1.0])

    @pytest.mark.parametrize("field", ["hbar_omega", "delta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_energy_scale_must_be_finite_and_positive(self, field, bad):
        with pytest.raises(ValueError):
            SweepConfig("coherent", [0.5], [1.0], **{field: bad})


class TestFamilyTable:
    def test_oracles_call_no_closed_form(self, monkeypatch):
        # the truncated-basis route is an independent check only if it never
        # reaches the closed forms or the thermal models
        def forbidden(*args, **kwargs):
            raise AssertionError("oracle reached a closed form")

        for module in (analytic, thermo):
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    monkeypatch.setattr(module, name, forbidden)
        config = SweepConfig(cli.FAMILIES[0], [0.1], [0.5, 1.0, 2.0])
        for name, family in cli.FAMILY_TABLE.items():
            probs = family.oracle(family.params(0.1), config).probabilities
            assert np.all(probs >= 0.0), name
            assert abs(float(np.sum(probs)) - 1.0) < 1e-10, name


class TestOraclePlan:
    def test_rules_keep_their_cutoffs(self):
        # n_max of each rule as recorded before the rules moved into the plan
        tol = fockspace.DEFAULT_TAIL_TOL
        rules = cli.OraclePlan

        def n_max(plans):
            return [p.cutoff.n_max for p in plans]

        squeezed = [rules.squeezed(r, tol, [1.0]) for r in (0.5, 1.0, 1.5)]
        assert n_max(squeezed) == [17, 50, 138]
        assert n_max(rules.squeezed(r, tol, [0.5, 1.0]) for r in (0.5, 1.0, 1.5)) == [35, 101, 277]
        displaced = [rules.displaced(r, cli.SWEEP_DISPLACEMENT, tol) for r in (0.0, 0.5, 1.0, 1.5)]
        assert n_max(displaced) == [13, 30, 63, 151]
        coherent = map(cli.FAMILY_TABLE["coherent"].params, (0.0, 1.0, 3.0))
        products = [rules.coherent_product((d.alpha, d.beta_b), tol) for d in coherent]
        assert n_max(products) == [0, 14, 38]
        sh = map(cli.FAMILY_TABLE["silbey-harris"].params, (0.5, 1.5, 3.0))
        assert n_max(rules.coherent_product(params.f, tol) for params in sh) == [9, 13, 17]
        for p in squeezed + displaced:
            assert (p.tail_tol, p.leak_tol, p.rank_tol) == (tol, 1e-10, 0.0)
        for p in products:
            assert (p.tail_tol, p.leak_tol, p.rank_tol) == (tol, 1e-10, spectra.DEFAULT_RANK_TOL)

    @pytest.mark.parametrize("family, fields", [
        ("squeezed", {"build_squeezed_vacuum": "tail_tol"}),
        ("displaced-squeezed", {"build_squeezed_vacuum": "tail_tol",
                                "apply_two_mode_displacement": "leak_tol"}),
        ("squeezed-coherent", {"build_squeezed_coherent": "leak_tol"}),
        ("coherent", {"build_coherent_two_mode": "tail_tol"}),
        ("silbey-harris", {"build_silbey_harris": "tail_tol"}),
    ])
    def test_builders_take_every_tolerance_from_the_plan(self, family, fields, monkeypatch):
        # a builder default reached from an oracle would be a second place
        # deciding the truncation
        received, plans = [], []
        for name in fields:
            original = getattr(fockspace, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                bound = inspect.signature(_original).bind(*args, **kwargs).arguments
                received.append((_name, bound.get("tail_tol"), bound.get("cutoff")))
                return _original(*args, **kwargs)

            monkeypatch.setattr(fockspace, name, recording)
        reduce = cli._reduced_spectrum

        def capturing(state, plan, keep_factor=0):
            plans.append(plan)
            return reduce(state, plan, keep_factor)

        monkeypatch.setattr(cli, "_reduced_spectrum", capturing)
        run_sweep(SweepConfig(family, [0.3], [0.5, 1.0], oracle=True, tail_tolerance=1e-11))
        [plan] = plans
        assert plan.tail_tol != plan.leak_tol
        assert [name for name, _, _ in received] == list(fields)
        for name, tol, cutoff in received:
            assert tol == getattr(plan, fields[name]), name
            assert cutoff in (None, plan.cutoff), name


def _budget_refusal(call, monkeypatch):
    """(d, bytes) that ``call``'s MemoryBudgetError names under a 1-byte budget."""
    monkeypatch.setenv("MEK_MEM_BUDGET", "1")
    with pytest.raises(MemoryBudgetError) as err:
        call()
    match = re.search(r" d = (\d+) needs (\d+) bytes, over the budget of 1 bytes", str(err.value))
    assert match and "MEK_MEM_BUDGET" in str(err.value), str(err.value)
    return int(match[1]), int(match[2])


class TestMemoryBudget:
    """Each plan rule checks its route's peak bytes against MEK_MEM_BUDGET, before any build."""

    RULES = {
        "squeezed": lambda: cli.OraclePlan.squeezed(1.0, 1e-12, [0.5, 1.0]),
        "displaced": lambda: cli.OraclePlan.displaced(1.0, cli.SWEEP_DISPLACEMENT, 1e-12),
        "coherent-product": lambda: cli.OraclePlan.coherent_product((1.0, 0.5), 1e-12),
        "qubit-boson": lambda: cli.OraclePlan.coherent_product((0.4, 0.3, 0.2), 1e-12),
    }

    @pytest.mark.parametrize("rule", RULES)
    def test_rule_refuses_below_its_estimate_and_admits_at_it(self, rule, monkeypatch):
        dim, need = _budget_refusal(self.RULES[rule], monkeypatch)
        monkeypatch.setenv("MEK_MEM_BUDGET", str(need - 1))
        with pytest.raises(MemoryBudgetError, match=f"needs {need} bytes, over the budget of"):
            self.RULES[rule]()
        monkeypatch.setenv("MEK_MEM_BUDGET", str(need))
        assert self.RULES[rule]().cutoff.dim == dim

    def test_grown_squeezed_coherent_box_is_budgeted(self, monkeypatch):
        # the plan's box at r = 1.5 fits the budget, the box grown past its outside mass does not
        reordered = fockspace.reordered_displacement(
            fockspace.SqueezedStateParams(1.5), cli.SWEEP_DISPLACEMENT
        )
        dim, need = _budget_refusal(
            lambda: cli.OraclePlan.displaced(1.5, reordered, 1e-10), monkeypatch
        )
        monkeypatch.setenv("MEK_MEM_BUDGET", str(need))
        config = SweepConfig("squeezed-coherent", [1.5], [1.0], oracle=True, tail_tolerance=1e-10)
        with pytest.raises(MemoryBudgetError, match=f" d = {dim + 1} needs "):
            run_sweep(config)

    @pytest.mark.parametrize("plan", [
        lambda a, b: cli.OraclePlan.displaced(1.0, fockspace.DisplacementParams(a, b), 1e-12),
        lambda a, b: cli.OraclePlan.coherent_product((a, b), 1e-12),
    ], ids=["displaced", "coherent-product"])
    def test_complex_parameters_count_16_bytes_an_entry(self, plan, monkeypatch):
        # same moduli, so the same d; each entry is a complex128
        dim, need = _budget_refusal(lambda: plan(0.5, 0.3), monkeypatch)
        assert _budget_refusal(lambda: plan(0.5j, -0.3j), monkeypatch) == (dim, 2 * need)

    @pytest.mark.parametrize("family, param", [
        ("squeezed", 4.5),             # d = 111,949, on the Schmidt route
        ("displaced-squeezed", 1.8),   # d = 266
        ("squeezed-coherent", 1.5),    # d = 317
        ("coherent", 15.0),            # d = 341
        ("silbey-harris", 288.0),      # d = 238 on each of 2 modes
    ])
    def test_estimate_bounds_the_measured_peak(self, family, param, monkeypatch):
        entry = cli.FAMILY_TABLE[family]
        config = SweepConfig(family, [param], [0.5, 1.0, 2.0, math.inf], oracle=True)
        params = entry.params(param)
        _, estimate = _budget_refusal(lambda: entry.oracle(params, config), monkeypatch)
        monkeypatch.delenv("MEK_MEM_BUDGET")
        tracemalloc.start()  # numpy reports its allocations to tracemalloc
        try:
            entry.oracle(params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 1.5 * peak, (peak, estimate)

    def test_schmidt_route_runs_past_the_old_entry_cap(self, monkeypatch, capsys):
        # d = 41,183 at order 0.5: d^2 was 1.7e9 entries against a cap of 2^28
        monkeypatch.delenv("MEK_MEM_BUDGET", raising=False)
        argv = ["sweep", "--family", "squeezed", "--oracle", "--grid", "4", "--mu", "0.5,1,2,inf"]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4 and max(float(row.split(",")[-1]) for row in rows) <= 1e-8

    def test_dense_route_is_refused_before_it_allocates(self, monkeypatch, deadline, capsys):
        # d = 15,482: eleven float64 d x d arrays at the peak, past the default 2^32 bytes
        monkeypatch.delenv("MEK_MEM_BUDGET", raising=False)
        deadline(10.0)
        argv = ["sweep", "--family", "squeezed-coherent", "--oracle", "--grid", "3.5",
                "--mu", "0.5,1"]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 10**7
        err = capsys.readouterr().err
        assert " d = 15482 needs " in err and "over the budget of 4294967296 bytes" in err

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "-0.0", "inf", "nan", "1e400", "2^32"])
    def test_unreadable_budget_exits_2_naming_the_variable(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("MEK_MEM_BUDGET", raw)
        code = cli.main(["sweep", "--family", "squeezed", "--oracle", "--grid", "0.5", "--mu", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"MEK_MEM_BUDGET must be a positive number of bytes, got '{raw}'"
        assert captured.err == f"mek: {message}\n"

    @pytest.mark.parametrize("raw, budget", [
        ("1e9", 10**9), ("4e9", 4 * 10**9), ("4294967296", 2**32), (" 12345.7 ", 12345),
    ])
    def test_budget_is_any_positive_number_of_bytes(self, raw, budget, monkeypatch):
        monkeypatch.setenv("MEK_MEM_BUDGET", raw)
        fockspace.check_budget(budget, "a point")
        with pytest.raises(MemoryBudgetError, match=f"over the budget of {budget} bytes"):
            fockspace.check_budget(budget + 1, "a point")
        assert cli.main(["sweep", "--family", "squeezed", "--oracle", "--grid", "0.5",
                         "--mu", "1", "--out", "/dev/null"]) == 0


class TestReducedSpectrum:
    @pytest.mark.parametrize("family", cli.FAMILIES)
    def test_one_reduction_per_state(self, family, monkeypatch):
        calls = []
        for name in ("partial_trace", "hermitian_eigenvalues"):
            original = getattr(spectra, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(spectra, name, counting)
        config = SweepConfig(family, [0.3, 0.6], [0.5, 1.0, 2.0, math.inf], oracle=True)
        run_sweep(config)
        assert calls == ["partial_trace", "hermitian_eigenvalues"] * 2


class TestRunSweep:
    def test_analytic_only_schema_and_monotonicity(self):
        config = SweepConfig("squeezed", [0.0, 0.5, 1.0, 1.5], [1.0, 2.0, math.inf])
        header, rows, code = run_sweep(config)
        assert header == SWEEP_HEADER
        assert code == 0
        assert len(rows) == 12
        for mu in (1.0, 2.0, math.inf):
            values = [row[2] for row in rows if row[1] == mu]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_each_closed_form_is_evaluated_once_per_order(self, monkeypatch):
        # orders 1, 2 and inf reuse the S_vn, S_2 and S_inf columns of the point
        calls = []
        original = analytic.renyi_squeezed

        def counting(r, mu):
            calls.append(mu)
            return original(r, mu)

        monkeypatch.setattr(analytic, "renyi_squeezed", counting)
        _, rows, _ = run_sweep(SweepConfig("squeezed", [0.7], [0.5, 1.0, 2.0, math.inf]))
        assert sorted(calls) == [0.5, 1.0, 2.0, math.inf]
        assert [row[2] for row in rows] == [original(0.7, mu) for mu in (0.5, 1.0, 2.0, math.inf)]

    def test_one_kernel_call_per_oracle_point(self, monkeypatch):
        # every order of a point is read off one spectrum in one renyi_orders call
        calls = []
        real = analytic.renyi_orders

        def counted(spectrum, mu_list):
            calls.append(list(mu_list))
            return real(spectrum, mu_list)

        monkeypatch.setattr(analytic, "renyi_orders", counted)
        _, rows, code = run_sweep(
            SweepConfig("squeezed", [0.3, 0.6, 0.9], [0.5, 1.0, 2.0, math.inf], oracle=True)
        )
        assert calls == [[0.5, 1.0, 2.0, math.inf]] * 3
        assert len(rows) == 12 and code == 0

    def test_nan_deviation_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(analytic, "renyi_orders", lambda spectrum, mu_list: [math.nan] * len(mu_list))
        _, rows, code = run_sweep(SweepConfig("squeezed", [0.5], [2.0], oracle=True))
        assert math.isnan(rows[0][-1])
        assert code == 1
        # only an infinite closed form (order 0 of a squeezed family) stays excused
        _, rows, code = run_sweep(SweepConfig("squeezed", [0.5], [0.0], oracle=True))
        assert math.isinf(rows[0][2]) and math.isnan(rows[0][-1])
        assert code == 0

    def test_oracle_squeezed(self):
        config = SweepConfig(
            "squeezed", [0.0, 0.3, 0.6], [0.5, 1.0, 2.0, math.inf], oracle=True
        )
        header, rows, code = run_sweep(config)
        assert header == SWEEP_ORACLE_HEADER
        assert code == 0
        devs = [row[-1] for row in rows]
        assert max(devs) < 1e-9

    def test_oracle_order_zero_reports_inf_without_failing(self):
        config = SweepConfig("squeezed", [0.5], [0.0], oracle=True)
        _, rows, code = run_sweep(config)
        assert math.isinf(rows[0][2])
        assert math.isinf(rows[0][-1])
        assert code == 0

    def test_oracle_coherent_zero_entropy(self):
        config = SweepConfig("coherent", [0.0, 0.7, 1.2], [0.5, 1.0, 2.0], oracle=True)
        _, rows, code = run_sweep(config)
        assert code == 0
        assert max(abs(row[2]) for row in rows) == 0.0
        assert max(row[-2] for row in rows) < 1e-10

    def test_sh_family_approaches_max_entropy(self):
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        config = SweepConfig("silbey-harris", grid, [1.0])
        _, rows, code = run_sweep(config)
        values = [row[2] for row in rows]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - math.log(2.0)) < 1e-2

    def test_displaced_families_share_entropies(self):
        mus = [1.0, 2.0]
        reference = run_sweep(SweepConfig("squeezed", [0.8], mus))[1]
        for family in ("displaced-squeezed", "squeezed-coherent"):
            rows = run_sweep(SweepConfig(family, [0.8], mus))[1]
            assert [row[2] for row in rows] == [row[2] for row in reference]

    def test_squeezed_coherent_orders_below_one_pass(self):
        # the box follows the squeezed rule's tail for order 0.5 and is padded
        # for the reordered displacement; on the recurrence's exact block every
        # order then sits far inside the gate
        config = SweepConfig("squeezed-coherent", parse_grid("0.3:0.8:6"),
                             [0.5, 1.0, 2.0, math.inf], oracle=True)
        _, rows, code = run_sweep(config)
        assert code == 0
        assert max(row[-1] for row in rows) <= 1e-12

    def test_squeezed_coherent_oracle_at_a_tight_tail(self):
        # the mass outside the box stays below the leak tolerance for tails
        # below it (it once exited 2 at 1e-11 on the boundary leak)
        config = SweepConfig("squeezed-coherent", parse_grid("0:1.5:4"),
                             [0.5, 1.0, 2.0, math.inf], oracle=True, tail_tolerance=1e-11)
        _, rows, code = run_sweep(config)
        assert code == 0
        assert max(row[-1] for row in rows) < cli.ORACLE_DEV_LIMIT

    def test_squeezed_coherent_box_grows_until_its_outside_mass_fits(self, monkeypatch):
        # at the 1e-10 tail the plan's box for r = 1.5 (n_max = 139) puts 3.5e-10
        # outside it, past the 1e-10 leak tolerance; the oracle grows the box instead
        # of exiting 2
        reordered = fockspace.reordered_displacement(
            fockspace.SqueezedStateParams(1.5), cli.SWEEP_DISPLACEMENT
        )
        assert cli.OraclePlan.displaced(1.5, reordered, 1e-10).cutoff.n_max == 139
        plans = []
        reduce = cli._reduced_spectrum

        def capturing(state, plan, keep_factor=0):
            plans.append(plan)
            return reduce(state, plan, keep_factor)

        monkeypatch.setattr(cli, "_reduced_spectrum", capturing)
        _, rows, code = run_sweep(SweepConfig("squeezed-coherent", [1.5], [1.0, 2.0, math.inf],
                                              oracle=True, tail_tolerance=1e-10))
        assert code == 0
        assert max(row[-1] for row in rows) < 1e-8
        [plan] = plans
        assert plan.cutoff.n_max > 139

    def test_displaced_oracle_matches(self):
        config = SweepConfig("displaced-squeezed", [0.5], [1.0, 2.0], oracle=True)
        _, rows, code = run_sweep(config)
        assert code == 0
        assert max(row[-1] for row in rows) < 1e-9

    def test_oracle_deviation_fails_exit_code(self, monkeypatch):
        # negative control: a tampered oracle spectrum must flip the exit code
        original = cli.oracle_squeezed_spectrum

        def corrupted(*args, **kwargs):
            spectrum = original(*args, **kwargs)
            probs = spectrum.probabilities.copy()
            probs[0] -= 1e-6
            probs[1] += 1e-6
            spectrum.probabilities = probs
            return spectrum

        monkeypatch.setattr(cli, "oracle_squeezed_spectrum", corrupted)
        config = SweepConfig("squeezed", [0.8], [2.0], oracle=True)
        _, rows, code = run_sweep(config)
        assert code == 1
        assert rows[0][-1] > 1e-8


class TestThermoTable:
    def test_squeezed_rows(self):
        header, rows, code = run_thermo_table(SweepConfig("squeezed", [0.0, 1.0], [1.0]))
        assert header == THERMO_HEADER
        assert code == 0
        zero, one = rows
        assert math.isinf(zero[1]) and zero[2] == 1.0 and zero[5] == 0.0
        assert one[1] == pytest.approx(0.5446829378236631, abs=1e-12)
        assert one[2] == pytest.approx(2.3810978455418157, abs=1e-12)
        assert one[7] is True

    def test_sh_rows(self):
        _, rows, code = run_thermo_table(SweepConfig("silbey-harris", [1.0], [1.0]))
        assert code == 0
        row = rows[0]
        assert row[1] == pytest.approx(0.2723414689118316, abs=1e-12)
        assert row[2] == pytest.approx(1.7615941559557649, abs=1e-12)
        assert row[6] == pytest.approx(1.0 / 1.7615941559557649, abs=1e-12)


class TestRendering:
    def test_csv_formats_infinity(self):
        text = render_output(("a", "b"), [[math.inf, 1.5]], "csv")
        assert text == "a,b\ninf,1.5\n"

    def test_json_mirrors_fields(self):
        text = render_output(("a", "b"), [[math.inf, 1.5]], "json")
        payload = json.loads(text)
        assert payload["columns"] == ["a", "b"]
        assert payload["rows"][0] == {"a": "inf", "b": 1.5}

    @settings(max_examples=400, deadline=None)
    @given(table=_tables())
    @example(table=(("a", "b"), [[0.5, 0.0], [0.5, -0.0], [-0.0, 0.5], [0.0, 0.5], [0.5, 0.0]]))
    @example(table=(("t", "x"), [[True, 1.0], [1, 1.0], [1.0, True], [1.0, 1]]))
    @example(table=((), [[], []]))
    @example(table=(("a%s", 'q"'), []))
    def test_both_formats_match_the_reference_bytes(self, table):
        header, rows = table
        assert render_output(header, rows, "csv") == _reference_csv(header, rows)
        assert render_output(header, rows, "json") == _reference_json(header, rows)

    def test_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match="'xml'"):
            render_output(("a",), [[1.0]], "xml")

    @pytest.mark.parametrize("header, rows", [
        (("a", "a"), [[1.0, 2.0]]),
        (("a", "b"), [[1.0, 2.0], [1.0]]),
        (("a",), [[1.0, 2.0]]),
    ], ids=["repeated-column", "short-row", "long-row"])
    def test_misshapen_tables_are_refused(self, header, rows):
        # a JSON object cannot hold a column twice, and a row of the wrong
        # width has no value for some column
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match="one value per column"):
                render_output(header, rows, fmt)


def _moved_weight(spectrum):
    """The spectrum with 1e-6 of its top entry moved to the next: normalized, and wrong."""
    probs = spectrum.probabilities.copy()
    probs[:2] += (-1e-6, 1e-6)
    return spectra.EntanglementSpectrum(probs, spectrum.rank_tolerance)


def _moved_on(when):
    """A fault of an oracle spectrum function: ``_moved_weight`` on the calls ``when`` accepts."""
    def factory(real):
        def fault(*args, **kwargs):
            spectrum = real(*args, **kwargs)
            return _moved_weight(spectrum) if when(*args, **kwargs) else spectrum
        return fault
    return factory


def _second_bumped(real):
    """``real``, whose second coefficient gains 1e-6."""
    def fault(*args):
        coefficients = real(*args).copy()
        coefficients[1] += 1e-6
        return coefficients
    return fault


def _first_call_scaled(real):
    """``real``, whose first result loses a tenth of its weight; later calls are clean."""
    calls = []

    def fault(*args, **kwargs):
        spectrum = real(*args, **kwargs)
        if not calls:
            spectrum.probabilities = spectrum.probabilities * 0.9
        calls.append(args)
        return spectrum
    return fault


def _entangled(real):
    """``real`` with a small entangling amplitude added to its state, renormalized."""
    def fault(*args):
        amps = real(*args).amplitudes.copy()
        amps[0, 1] += 1e-4
        return fockspace.ComplexAmplitudeTensor(amps / np.linalg.norm(amps))
    return fault


def _factor_one_mixed(real):
    """``real``, whose reduction of factor 1 mixes in 1e-6 of |0><0|: Hermitian, trace 1."""
    def fault(state, keep_factor):
        rho = real(state, keep_factor)
        if keep_factor != 1:
            return rho
        entries = rho.entries * (1.0 - 1e-6)
        entries[0, 0] += 1e-6
        return spectra.ReducedDensityMatrix(entries)
    return fault


def _shifted_model(real):
    """``real``, whose free energy is off by 1e-9."""
    def fault(*args):
        model = real(*args)
        return dataclasses.replace(model, free_energy=model.free_energy + 1e-9)
    return fault


# one fault per check of ``mek verify``: (owner, attribute, fault from the real
# attribute); each reaches only the check it names, at seed 0
VERIFY_FAULTS = {
    "spectrum-normalization": (cli, "oracle_squeezed_spectrum", _first_call_scaled),
    "builder-norm": (
        fockspace.ComplexAmplitudeTensor, "norm", lambda real: lambda state: real(state) * (1 + 1e-6)
    ),
    # the two-mode displacement always passes scales, so only the battery's own
    # unscaled exponentials see this
    "exponential-unitarity": (
        fockspace, "operator_exponential",
        lambda real: lambda gen, scales=None: real(gen, scales) * (1.0 + 1e-9 * (scales is None)),
    ),
    "coherent-rank-one": (spectra, "schmidt_coefficients", _second_bumped),
    # only the coherent plan's spectra carry a positive rank tolerance to renyi_orders
    "coherent-zero-entropy": (
        analytic, "renyi_orders",
        lambda real: lambda spectrum, mu_list: [
            value + 1e-6 * (spectrum.rank_tolerance > 0) for value in real(spectrum, mu_list)
        ],
    ),
    "squeezed-oracle-equivalence": (
        cli, "oracle_squeezed_spectrum", _moved_on(lambda *args, mu_list=(), **kwargs: mu_list)
    ),
    "theta-independence": (
        cli, "oracle_squeezed_spectrum", _moved_on(lambda r, theta=0.0, *args, **kwargs: theta)
    ),
    "displacement-invariance": (cli, "build_displaced_squeezed", _entangled),
    # the displaced spectra stay invariant whatever displacement reorders them
    "squeeze-displace-reorder": (
        fockspace, "reordered_displacement",
        lambda real: lambda *args: dataclasses.replace(real(*args), alpha=real(*args).alpha + 1e-6),
    ),
    # psi and its transpose share singular values, so no fault in a state reaches this
    "partition-symmetry": (spectra, "partial_trace", _factor_one_mixed),
    "sh-oracle-equivalence": (cli, "oracle_sh_spectrum", _moved_on(lambda *args, **kwargs: True)),
    "sh-dot-product-invariance": (
        analytic, "renyi_sh", lambda real: lambda params, mu: real(params, mu) + 1e-6 * params.f[0]
    ),
    "oscillator-thermal-consistency": (thermo, "oscillator_model_from_squeezing", _shifted_model),
    "two-level-thermal-consistency": (thermo, "two_level_model_from_sh", _shifted_model),
    "purity-identity": (
        analytic, "renyi_squeezed", lambda real: lambda r, mu: real(r, mu) if r else 1e-9
    ),
    "renyi-monotonicity": (
        analytic, "renyi_squeezed", lambda real: lambda r, mu: real(r, mu) + (mu == 10.0)
    ),
    # S_mu off by 1e-12 next to the order 1, which no other check evaluates
    "von-neumann-limit": (
        analytic, "renyi_squeezed",
        lambda real: lambda r, mu: real(r, mu) + 1e-12 * (0.0 < abs(mu - 1.0) < 1e-2),
    ),
}


class TestVerification:
    def test_battery_passes(self):
        results = run_verification(seed=0)
        assert len(results) >= 10
        assert all(check.passed for check in results)

    def test_seed_variation_keeps_structure(self):
        names = None
        for seed in (0, 1, 2):
            results = run_verification(seed=seed)
            assert all(check.passed for check in results)
            if names is None:
                names = [check.name for check in results]
            else:
                assert names == [check.name for check in results]

    @pytest.mark.parametrize("check", VERIFY_FAULTS)
    def test_corrupted_spectrum_is_caught(self, check, capsys, monkeypatch):
        # each fault reaches one check of the battery, and that check alone fails
        owner, attr, fault = VERIFY_FAULTS[check]
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        results = run_verification(seed=0)
        assert {result.name for result in results} == set(VERIFY_FAULTS)
        assert [result.name for result in results if not result.passed] == [check]
        code = cli.print_verification(results)
        assert code == 1
        out = capsys.readouterr().out
        assert f"FAIL {check}" in out


class TestMainEntry:
    @pytest.mark.parametrize("args", [
        ["--family", "squeezed", "--oracle", "--grid", "1,5", "--mu", "1e306,9e307,1e308"],
        ["--family", "squeezed", "--oracle", "--grid", "5", "--mu", "1e308"],
        ["--family", "displaced-squeezed", "--oracle", "--grid", "2", "--mu", "1e308"],
        ["--grid", "300.5", "--mu", "1e306,1.7e308"],
    ])
    def test_huge_orders_read_the_single_copy_entropy(self, args, capsys):
        # mu ln p overflows past ~2.4e305; S_mu is S_inf to double precision there
        assert cli.main(["sweep", *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["S_mu"] == row["S_inf"]
            if "abs_dev" in row:
                assert math.isfinite(float(row["oracle_S_mu"]))
                assert float(row["abs_dev"]) < 1e-12

    def test_sweep_writes_deterministic_csv(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", "--family", "squeezed", "--grid", "0:2:5", "--mu", "1,2,inf"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        first_line = out_a.read_text().splitlines()[0]
        assert first_line == ",".join(SWEEP_HEADER)

    def test_sweep_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = cli.main(
            ["sweep", "--family", "silbey-harris", "--grid", "0,1", "--mu", "1",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == list(SWEEP_HEADER)
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("family", cli.FAMILIES)
    def test_tiny_parameters_give_finite_entropies(self, family, tmp_path):
        out = tmp_path / "tiny.json"
        args = ["sweep", "--family", family, "--grid", "1e-300,1e-160,1e-8",
                "--mu", "0.5,1,2,inf", "--format", "json", "--out", str(out)]
        assert cli.main(args) == 0
        payload = json.loads(out.read_text())
        for entropies in payload["rows"]:
            for column in ("S_mu", "S_vn", "S_2", "S_inf"):
                assert math.isfinite(entropies[column]) and entropies[column] >= 0.0

    def test_thermo_table_inf_row(self, tmp_path):
        out = tmp_path / "table.csv"
        code = cli.main(
            ["thermo-table", "--family", "squeezed", "--grid", "0,1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(THERMO_HEADER)
        assert lines[1].startswith("0,inf,1,0,0,0,1,true")

    def test_verify_exit_zero(self, capsys):
        assert cli.main(["verify", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--seed", "1"),
        ("thermo-table", "--seed", "1"),
        ("thermo-table", "--tail-tol", "1e-12"),
        ("verify", "--tail-tol", "1e-12"),
        ("verify", "--seed", "-1"),
    ], ids=["sweep", "thermo-table", "thermo-table-tail-tol", "verify-tail-tol",
            "verify-negative-seed"])
    def test_grid_commands_take_no_seed(self, command, flag, value, capsys):
        # sweeps are grid-driven, so only verify draws pseudo-random parameters;
        # only a sweep's oracle reads a tail tolerance, so only sweep takes one;
        # numpy's generator takes no negative seed, so verify refuses one
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_underflowing_order_tail_names_the_order(self, capsys):
        # 1e-12^(1/0.02) = 1e-600 underflows; the message names the order, not a
        # tolerance of 0.0 the user never gave
        code = cli.main(["sweep", "--family", "squeezed", "--oracle", "--grid", "0.5",
                         "--mu", "0.02"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mek: ") and "order 0.02" in err and "1e-600" in err
        assert "got 0.0" not in err
        # an exponent of -1.2e301 is written as such, not as its 302 digits
        code = cli.main(["sweep", "--family", "squeezed", "--oracle", "--grid", "0.5",
                         "--mu", "1e-300"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mek: ") and "order 1e-300" in err and len(err) < 200
        # below mu ~ 1e-307 the exponent itself overflows float64; it is sized from its log
        for mu, size in [("5e-324", "10^(-2.43e+324)"), ("1e-310", "10^(-1.2e+311)")]:
            code = cli.main(["sweep", "--family", "squeezed", "--oracle", "--grid", "0.5",
                             "--mu", mu])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("mek: ") and f"~ {size}," in err and len(err) < 200
            assert f"order {float(mu):g}" in err and "inf" not in err

    @pytest.mark.parametrize("family, grid", [("squeezed", "1"), ("silbey-harris", "0.5")])
    def test_orders_near_one_pass_the_oracle_gate(self, family, grid, capsys):
        # the direct formulas divide a near-cancellation by mu - 1 (the oracle gave
        # -7.0 and 10.2 here); the exact forms about S_1 keep both routes in the gate
        code = cli.main(["sweep", "--family", family, "--oracle", "--grid", grid,
                         "--mu", "0.9999999999999,1,1.0000000000001"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert all(float(row.split(",")[-1]) < cli.ORACLE_DEV_LIMIT for row in rows)

    @pytest.mark.parametrize("tail_tol", [[], ["--tail-tol", "1e-10"]], ids=["default", "1e-10"])
    @pytest.mark.parametrize("family, grid, mu", [
        *((family, "0:2:5", "1.00001,1.0001,1.1,1.24") for family in cli.FAMILIES),
        ("squeezed", "1", "1.00001,1.00003,1.0001"),
    ])
    def test_truncation_defect_is_not_divided_by_the_distance_to_one(self, family, grid, mu,
                                                                     tail_tol, capsys):
        # a log-sum-exp would shift S_mu of a spectrum summing to 1 - delta by
        # about delta / |mu - 1|, up to 9.5e-6 on these grids; inside |mu - 1| <
        # 1/4 the kernel reads delta as S_1 does
        code = cli.main(["sweep", "--family", family, "--oracle", "--grid", grid, "--mu", mu,
                         *tail_tol])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(float(row.split(",")[-1]) < cli.ORACLE_DEV_LIMIT for row in rows)

    @pytest.mark.parametrize("grid", ["38.5", "100"])
    def test_underflowing_coherent_amplitude_is_named(self, grid, capsys):
        # e^{-|alpha|^2/2} leaves the normal float range above |alpha| ~ 37.64;
        # the trace check used to blame the state's normalization instead
        code = cli.main(["sweep", "--family", "coherent", "--oracle", "--grid", grid,
                         "--mu", "0.5,1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"mek: coherent amplitude |alpha| = {grid} is above 37.64, "
            "where e^(-|alpha|^2/2) underflows float64\n"
        )

    @pytest.mark.parametrize("grid", ["1000", "1e6"])
    def test_huge_coherent_amplitude_exits_before_the_cutoff_search(self, grid, monkeypatch,
                                                                     capsys):
        # the search steps once per occupation number near |alpha|^2 (22.7 s at
        # 3000, unbounded at 1e6); the amplitude limit must stop it first
        def forbidden(*args, **kwargs):
            raise AssertionError("cutoff search ran")

        monkeypatch.setattr(fockspace, "coherent_tail_mass", forbidden)
        code = cli.main(["sweep", "--family", "coherent", "--oracle", "--grid", grid])
        assert code == 2
        assert "is above 37.64" in capsys.readouterr().err

    def test_unwritable_path(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--grid", "0,1", "--mu", "1", "--out", str(tmp_path / "nope" / "x.csv")]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_invalid_tolerance(self, capsys):
        # a tail above the trace tolerance leaves a norm defect that partial_trace
        # rejects, so the command line refuses it before building anything
        for tol in ("0.01", "1e-8"):
            code = cli.main(["sweep", "--grid", "1", "--oracle", "--tail-tol", tol, "--mu", "1"])
            assert code == 2
            assert capsys.readouterr().err == "mek: tail tolerance must lie in (0, 1e-10]\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "nan"],
        ["sweep", "--grid", "inf"],
        ["thermo-table", "--hbar-omega", "nan"],
        ["thermo-table", "--family", "silbey-harris", "--delta", "inf"],
    ])
    def test_non_finite_input_exits_cleanly(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mek: ")

    @pytest.mark.parametrize("argv, run, family, param, error", [
        (["thermo-table", "--grid", "372"], run_thermo_table, "squeezed", 372.0, OverflowError),
        (["sweep", "--family", "silbey-harris", "--grid", "1e6"], run_sweep, "silbey-harris",
         1e6, ZeroDivisionError),
    ])
    def test_arithmetic_fault_exits_cleanly(self, argv, run, family, param, error, capsys):
        # the library keeps raising the same type; the command line turns it into exit 2
        with pytest.raises(error):
            run(SweepConfig(family, [param], [1.0, 2.0, math.inf]))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"mek: {error.__name__}: ")

    @pytest.mark.parametrize("command", ["sweep", "thermo-table"])
    @pytest.mark.parametrize("family, flag", [
        ("squeezed", "--hbar-omega"),
        ("silbey-harris", "--delta"),
    ])
    def test_overflowing_beta_exits_cleanly(self, command, family, flag, capsys):
        # an entangled state must not print the separable sentinel beta_eff=inf, F=0
        code = cli.main([command, "--family", family, "--grid", "0.5", flag, "1e-320"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("mek: ")
        assert "1e-320" in captured.err

    def test_oracle_memory_budget_exceeded(self, monkeypatch, capsys):
        # the plan refuses a point whose peak bytes pass MEK_MEM_BUDGET, naming d and the bytes
        argv = ["sweep", "--family", "squeezed-coherent", "--grid", "0.5", "--mu", "1",
                "--oracle"]
        plans = []
        reduce = cli._reduced_spectrum

        def capturing(state, plan, keep_factor=0):
            plans.append(plan)
            return reduce(state, plan, keep_factor)

        monkeypatch.setattr(cli, "_reduced_spectrum", capturing)
        assert cli.main(argv) == 0
        dim = plans[0].cutoff.dim
        monkeypatch.setenv("MEK_MEM_BUDGET", "1")
        capsys.readouterr()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        match = re.fullmatch(
            rf"mek: .* d = {dim} needs (\d+) bytes, over the budget of 1 bytes; .*MEK_MEM_BUDGET\n",
            captured.err,
        )
        assert match and captured.out == "", captured.err
        need = int(match[1])
        monkeypatch.setenv("MEK_MEM_BUDGET", str(need - 1))
        assert cli.main(argv) == 2
        assert f"needs {need} bytes, over the budget of {need - 1} bytes" in capsys.readouterr().err
        monkeypatch.setenv("MEK_MEM_BUDGET", str(need))
        assert cli.main(argv) == 0
        assert len(plans) == 2

    @pytest.mark.parametrize("family", ["squeezed", "displaced-squeezed", "squeezed-coherent"])
    @pytest.mark.parametrize("grid", ["10", "27", "28", "40"])
    def test_large_squeezing_exits_promptly(self, family, grid, deadline, capsys):
        # the squeezed cutoff search once stepped n_max one at a time past 2^53,
        # where float64 cannot tell n_max from n_max + 1, and the reordered
        # displacement reaches |alpha'| ~ 8,800 at r = 10
        deadline(10.0)
        code = cli.main(["sweep", "--family", family, "--oracle", "--grid", grid, "--mu", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("mek: ")

    def test_reordered_displacement_past_the_coherent_limit_is_explained(self, capsys):
        # the sweep displaces by (0.5, 0.3); only the reordering moves it to
        # |alpha'| = 0.5 cosh 10 + 0.3 sinh 10, which the user never gave
        code = cli.main(["sweep", "--family", "squeezed-coherent", "--oracle", "--grid", "10",
                         "--mu", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mek: squeezing r = 10 moves the displacement "
                              "(alpha, beta) = (0.5, 0.3) to |alpha'| = 8810.59")
        assert "S D(alpha, beta) = D(alpha', beta') S" in err and "above 37.64" in err
        with pytest.raises(ValueError, match="underflows float64"):
            cli.oracle_squeezed_coherent_spectrum(10.0, cli.SWEEP_DISPLACEMENT)

    def test_squeezed_vacuum_memory_budget_exceeded(self, monkeypatch, capsys):
        # the Schmidt route is checked against the budget too, in bytes
        monkeypatch.setenv("MEK_MEM_BUDGET", "1000")
        code = cli.main(["sweep", "--family", "squeezed", "--oracle", "--grid", "1", "--mu", "1"])
        assert code == 2
        assert "MEK_MEM_BUDGET" in capsys.readouterr().err

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "mek.cli", "sweep", "--family", "coherent",
             "--grid", "0,0.5", "--mu", "1,inf", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        rows = out.read_text().splitlines()
        assert len(rows) == 5
