import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mek import analytic, cli, fockspace, spectra, thermo
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

    def test_corrupted_spectrum_is_caught(self, capsys):
        results = run_verification(seed=0, _corrupt="normalization")
        code = cli.print_verification(results)
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL spectrum-normalization" in out


class TestMainEntry:
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
    ], ids=["sweep", "thermo-table", "thermo-table-tail-tol", "verify-tail-tol"])
    def test_grid_commands_take_no_seed(self, command, flag, value, capsys):
        # sweeps are grid-driven, so only verify draws pseudo-random parameters;
        # only a sweep's oracle reads a tail tolerance, so only sweep takes one
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

    @pytest.mark.parametrize("family, grid", [("squeezed", "1"), ("silbey-harris", "0.5")])
    def test_orders_near_one_pass_the_oracle_gate(self, family, grid, capsys):
        # the direct formulas divide a near-cancellation by mu - 1 (the oracle gave
        # -7.0 and 10.2 here); the expansion about S_1 keeps both routes in the gate
        code = cli.main(["sweep", "--family", family, "--oracle", "--grid", grid,
                         "--mu", "0.9999999999999,1,1.0000000000001"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert all(float(row.split(",")[-1]) < cli.ORACLE_DEV_LIMIT for row in rows)

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
        monkeypatch.setenv("MEK_MEM_BUDGET", "1000")
        code = cli.main(
            ["sweep", "--family", "squeezed-coherent", "--grid", "0.5", "--mu", "1",
             "--oracle"]
        )
        assert code == 2
        assert "MEK_MEM_BUDGET" in capsys.readouterr().err

    def test_squeezed_vacuum_memory_budget_exceeded(self, monkeypatch, capsys):
        # the squeezed-vacuum state (dim^2 entries) is checked against the budget too
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
