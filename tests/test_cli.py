import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ninionics import cli, fractal, identities, occupation, oracle, rotor, thermo
from ninionics.cli import main, parse_angle
from ninionics.errors import MEMORY_BUDGET, ROW_BUDGET, DomainError, PoleError
from ninionics.occupation import Family, occupation_from_eps

PI_SQ = math.pi ** 2


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def expected_table(fmt, command, fields, rows, extras):
    """The bytes csv.writer or json.dump(indent=2) writes for a table of tuple rows."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)
        return out.getvalue()
    payload = {"schema_version": cli.SCHEMA_VERSION, "command": command, **extras,
               "rows": [dict(zip(fields, row)) for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("0.5", 0.5),
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("-pi/3", -math.pi / 3),
        ("2pi", 2 * math.pi),
        ("-2.5", -2.5),
    ])
    def test_values(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    def test_rejects_junk(self):
        with pytest.raises(Exception):
            parse_angle("pie")


class TestThomaeCommand:
    def test_near_half_fraction(self, capsys):
        code, out, _ = run_cli(["thomae", "--fraction", "999/2000"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["thomae_num"] == "1"
        assert rows[0]["thomae_den"] == "2000"
        assert float(rows[0]["thomae_value"]) == 1 / 2000

    def test_decimal_routed_through_approximation(self, capsys):
        code, out, _ = run_cli(["thomae", "--fraction", "0.333333", "--q-max", "100"],
                               capsys)
        assert code == 0
        assert read_csv(out)[0]["chi_den"] == "3"

    def test_json_schema_version(self, capsys):
        code, out, _ = run_cli(["thomae", "--fraction", "1/2", "--format", "json"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["rows"][0]["q"] == 2


class TestIdentityCommand:
    def test_scan_reports_max_residual(self, capsys):
        code, out, err = run_cli(
            ["identity", "--family", "bose", "--q-max", "16", "--gamma", "1.0",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_residual"] < 1e-12
        assert "max residual" in err

    def test_single_fraction(self, capsys):
        code, out, _ = run_cli(
            ["identity", "--family", "fermi", "--p", "1", "--q", "2",
             "--gamma", "1.0"], capsys)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["rhs"]) == pytest.approx(math.log1p(math.exp(-2.0)))
        assert float(row["residual"]) < 1e-12

    @pytest.mark.parametrize("q", ["10007", "30011"])
    def test_large_q_pair_passes_its_cancellation_check(self, capsys, q):
        # the rounding of a 2q-term sum grows with q; an absolute bound refused these
        code, out, err = run_cli(["identity", "--family", "fermi", "--p", "1", "--q", q,
                                  "--gamma", "1"], capsys)
        assert code == 0, err
        assert float(read_csv(out)[0]["residual"]) < 1e-12

    def test_large_gamma_term_of_exactly_zero_passes(self, capsys):
        # log(1 - e^-40) rounds to exactly 0, and so does its cancellation bound
        code, out, err = run_cli(["identity", "--family", "bose", "--p", "1", "--q", "1",
                                  "--gamma", "40"], capsys)
        assert code == 0, err
        assert float(read_csv(out)[0]["residual"]) < 1e-17

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["--family", "fermi", "--q-max", "30", "--gamma", "40"],
        ["--family", "bose", "--q-max", "40", "--gamma", "0.3"],
        ["--family", "fermi", "--p", "2", "--q", "19", "--gamma", "40"],
        ["--family", "bose", "--p", "3", "--q", "7", "--gamma", "1"],
    ], ids=["fermi-scan-zero-rhs", "bose-scan", "fermi-pair", "bose-pair"])
    def test_bytes_equal_the_tuple_rows(self, capsys, argv, fmt):
        code, out, _ = run_cli(["identity", *argv, "--format", fmt], capsys)
        assert code == 0
        args = cli.build_parser().parse_args(["identity", *argv])
        if args.p is None:
            checks = identities.scan_identity_residuals(args.family, args.q_max, args.gamma)
        else:
            check = (identities.check_boson_identity if args.family == "bose"
                     else identities.check_fermion_identity)
            checks = [check(args.p, args.q, args.gamma)]
        if args.gamma == 40 and args.family == "fermi":
            # e^-760 is 0, so rhs is log1p(-0.0) = -0.0 at odd p + q and 0.0 at even
            # ones; 0.0 == -0.0, so text looked up by value would print one for the other
            assert {repr(c.rhs) for c in checks if c.q == 19} == (
                {"0.0", "-0.0"} if args.p is None else {"0.0"})
        rows = [(args.family, c.p, c.q, c.gamma, c.lhs, c.rhs, c.residual) for c in checks]
        fields = ["family", "p", "q", "gamma", "lhs", "rhs", "residual"]
        extras = {"max_residual": max(c.residual for c in checks)}
        assert out == expected_table(fmt, "identity", fields, rows, extras)

    def test_usage_error_bad_gamma(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identity", "--family", "bose", "--gamma", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--q-max", "100000"],
         r"an identity scan to q_max 100000 has an estimated 3\.04e\+09 rows, over the "
         r"budget of 5000000 rows \(ninionics\.errors\.ROW_BUDGET\)"),
        (["--p", "1", "--q", "10000000000000"],
         r"the phase sum at q = 10000000000000 needs an estimated [\d.e+]+ MiB, over the "
         r"1024 MiB memory budget \(ninionics\.errors\.MEMORY_BUDGET\)"),
    ])
    def test_over_budget_is_refused_before_any_work(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(["identity", "--family", "bose", "--gamma", "1", *argv],
                                 capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error\[DomainError\]: " + message + "\n", err)


class TestThermoCommand:
    def test_closed_boson_half_turn(self, capsys):
        code, out, _ = run_cli(["thermo", "--family", "bose", "--chi", "1/2"], capsys)
        assert code == 0
        row = read_csv(out)[0]
        assert int(row["q_effective"]) == 2
        assert float(row["beta4_energy"]) == pytest.approx(PI_SQ / 480.0, rel=1e-12)
        assert float(row["beta3_entropy"]) == pytest.approx(PI_SQ / 180.0, rel=1e-12)

    def test_closed_fermion_full_turn_is_ghost(self, capsys):
        code, out, _ = run_cli(["thermo", "--family", "fermi", "--chi", "1/1"], capsys)
        assert code == 0
        row = read_csv(out)[0]
        assert row["out_family"] == "boson_ghost"
        assert float(row["weight"]) == -1.0
        assert float(row["beta4_f"]) == pytest.approx(PI_SQ / 90.0, rel=1e-12)

    def test_quadrature_blackbody(self, capsys):
        code, out, _ = run_cli(
            ["thermo", "--family", "bose", "--chi", "0/1", "--method", "quadrature"],
            capsys)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["beta4_f"]) == pytest.approx(-PI_SQ / 90.0, rel=1e-6)

    @pytest.mark.parametrize("chi", ["1/2", "1/3", "5/3", "7/4", "-1/3"])
    @pytest.mark.parametrize("family", ["fermi", "bose"])
    def test_methods_share_the_fermion_map(self, capsys, family, chi):
        rows = {}
        for method in ("closed", "quadrature"):
            code, out, _ = run_cli(["thermo", "--family", family, f"--chi={chi}",
                                    "--degeneracy", "2", "--method", method], capsys)
            assert code == 0
            rows[method] = read_csv(out)[0]
        closed, quad = rows["closed"], rows["quadrature"]
        for key in ("q_effective", "out_family", "weight"):
            assert closed[key] == quad[key]
        assert float(quad["beta4_f"]) == pytest.approx(float(closed["beta4_f"]), rel=1e-5)

    def test_closed_form_rejects_massive(self, capsys):
        code, _, err = run_cli(
            ["thermo", "--family", "bose", "--chi", "1/2", "--mass", "1.0"], capsys)
        assert code == 1
        assert "error[DomainError]" in err

    def test_oversized_quadrature_is_refused_before_any_integral(self, capsys, monkeypatch):
        rows, exp_sinh = [], oracle._exp_sinh

        def counting(tol, *row):
            rows.append(row)
            return exp_sinh(tol, *row)

        monkeypatch.setattr(oracle, "_exp_sinh", counting)
        start = time.perf_counter()
        code, out, err = run_cli(["thermo", "--method", "quadrature", "--chi", "1/999983"],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out, rows) == (1, "", [])
        assert err.startswith("error[DomainError]: quadrature needs 999983 rows, one per "
                              "residue and mu branch, over the budget of "
                              f"{thermo.QUADRATURE_ROW_BUDGET} rows")
        # positive control: the spy sits where the oracle looks, so an admitted run trips it,
        # once per distance of a/7 turns to the nearest whole turn: 0, 1/7, 2/7 and 3/7
        code, _, _ = run_cli(["thermo", "--method", "quadrature", "--chi", "1/7"], capsys)
        assert (code, len(rows)) == (0, 4)

    def test_ten_thousand_residues_fit_the_budget(self, capsys):
        code, out, _ = run_cli(["thermo", "--method", "quadrature", "--chi", "0.7071"], capsys)
        assert code == 0
        assert read_csv(out)[0]["chi_den"] == "10000"

    @pytest.mark.parametrize("mu", ["0.5", "1e-3", "-1e-3"])
    def test_node_on_the_ghost_singularity_is_refused(self, capsys, mu):
        # at 1/3 the fermion's phase-0 row is the bosonic logarithm at mu, and its scale
        # beta |mu| puts the t = 0 node on the log singularity: f is inf, not printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["thermo", "--family", "fermi", "--method", "quadrature",
                                      "--chi", "1/3", "--mu", mu], capsys)
        assert (code, out) == (1, "")
        assert err == ("error[DomainError]: the quadrature free energy f is inf; every value "
                       "in the table must be finite\n")

    def test_massless_entropy_is_empty_at_nonzero_mu(self, capsys):
        # the entropy is beta (E + P - mu n), not 4 beta P, once mu != 0; E = 3P still holds
        code, out, _ = run_cli(["thermo", "--family", "fermi", "--mu", "3", "--method",
                                "quadrature", "--chi", "0/1"], capsys)
        assert code == 0
        row = read_csv(out)[0]
        f = float(row["beta4_f"])
        assert f == pytest.approx(-(7 * PI_SQ / 720 + 9 / 24 + 81 / (48 * PI_SQ)), rel=1e-9)
        assert (float(row["beta4_energy"]), float(row["beta4_pressure"])) == (-3 * f, -f)
        assert row["beta3_entropy"] == ""


class TestWallsCommand:
    def test_non_rotating(self, capsys):
        code, out, _ = run_cli(["walls"], capsys)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["beta4_energy"]) == pytest.approx(PI_SQ / 120.0, rel=1e-12)
        assert float(row["beta3_entropy"]) == pytest.approx(PI_SQ / 90.0, rel=1e-12)

    def test_rotating_emits_both_value_sets(self, capsys):
        code, out, _ = run_cli(["walls", "--rotating"], capsys)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["beta4_energy"]) == pytest.approx(-PI_SQ / 1920.0, rel=1e-12)
        assert float(row["per_mode_quadrature"]) == pytest.approx(
            float(row["per_mode_closed_form"]), rel=1e-6)
        assert float(row["relative_deviation"]) > 1.0


class TestOccupationCommand:
    def test_curve_values(self, capsys):
        code, out, _ = run_cli(
            ["occupation", "--family", "bose", "--xi", "0,pi/2",
             "--omega-min", "0.5", "--omega-max", "2.0", "--omega-count", "4"],
            capsys)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 8
        first = rows[0]
        assert float(first["occupation"]) == pytest.approx(
            1.0 / math.expm1(0.5), rel=1e-12)

    def test_pole_is_computational_error(self, capsys):
        code, _, err = run_cli(
            ["occupation", "--family", "bose", "--xi", "0",
             "--omega-min", "0", "--omega-max", "1", "--omega-count", "3"], capsys)
        assert code == 1
        assert "error[PoleError]" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["--family", "bose", "--xi", "0,pi/12,5pi/12,pi/2,pi", "--omega-count", "3000"],
        ["--family", "fermi", "--xi", "0,pi/3,pi,2.5", "--beta", "2.7", "--mu", "1.3",
         "--omega-min=-3", "--omega-max", "4", "--omega-count", "301"],
        ["--family", "bose", "--xi", "pi/4", "--mu", "0.7", "--omega-min=-3",
         "--omega-max", "4", "--omega-count", "777"],
        ["--family", "fermi", "--xi=-7,pi/3", "--mu=-1.3", "--omega-min=-3",
         "--omega-max", "4", "--omega-count", "500"],
        ["--family", "bose", "--xi", "0.3,pi/2", "--mu", "0.2", "--omega-min", "5",
         "--omega-max=-5", "--omega-count", "11"],
    ], ids=["bose-five-angles", "fermi-mu", "bose-one-angle-mu", "fermi-negative-mu",
            "falling-grid"])
    def test_bytes_equal_the_per_point_rows(self, capsys, argv, fmt):
        code, out, _ = run_cli(["occupation", *argv, "--format", fmt], capsys)
        assert code == 0
        args = cli.build_parser().parse_args(["occupation", *argv])
        family = Family(args.family)
        step = (args.omega_max - args.omega_min) / (args.omega_count - 1)
        rows = []
        for xi in args.xi:
            for i in range(args.omega_count):
                omega = args.omega_min + i * step
                n = occupation_from_eps(family, xi, args.beta * (omega - args.mu))
                rows.append((args.family, xi, omega, args.beta * omega, n))
        fields = ["family", "xi", "omega", "beta_omega", "occupation"]
        assert out == expected_table(fmt, "occupation", fields, rows, {})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("family,xi", [("bose", "0"), ("fermi", "pi")])
    def test_pole_leaves_no_output(self, capsys, tmp_path, family, xi, fmt):
        # the pole is the last point: the last omega of the last angle has eps = 0
        argv = ["occupation", "--family", family, "--xi", f"1,{xi}", "--omega-min=-1",
                "--omega-max", "0", "--omega-count", "5", "--format", fmt]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[PoleError]: ")
        kept = tmp_path / "kept.out"
        kept.write_text("previous\n")
        code, out, err = run_cli(argv + ["--output", str(kept)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[PoleError]: ")
        assert os.listdir(tmp_path) == ["kept.out"]
        assert kept.read_text() == "previous\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,message", [
        (["--omega-min=-1e308", "--omega-max", "1e308", "--omega-count", "3"],
         "the omega step is inf"),
        (["--omega-min", "9.254299222747123e+307", "--omega-max", "1.7976931348623157e+308",
          "--omega-count", "47"], "omega is inf"),
        (["--beta", "1e308", "--omega-count", "2"], "beta*omega is inf"),
        (["--mu=-1e308", "--omega-min", "1e308", "--omega-max", "1e308", "--omega-count", "2"],
         "beta*(omega - mu) is inf"),
    ], ids=["step", "omega", "beta-omega", "eps"])
    def test_non_finite_value_is_refused_before_any_row(self, capsys, argv, message, fmt):
        code, out, err = run_cli(["occupation", "--family", "bose", "--xi", "pi/4", *argv,
                                  "--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error[DomainError]: {message}; every value in the table must be "
                       f"finite\n")

    def test_oversized_table_is_refused_before_any_evaluation(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["occupation", "--family", "bose", "--xi", "0,pi/4",
                                  "--omega-count", "100000000"], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == ("error[DomainError]: an occupation table has an estimated 2e+08 rows, "
                       "over the budget of 5000000 rows (ninionics.errors.ROW_BUDGET)\n")

    def test_row_budget_edge(self, capsys, monkeypatch):
        def first_point(family, xis, eps_values):  # reached only past the budget check
            raise PoleError("first point reached")

        monkeypatch.setattr(occupation, "occupation_grid", first_point)
        argv = ["occupation", "--family", "fermi", "--xi", "0,pi/2", "--omega-count"]
        code, out, err = run_cli(argv + [str(ROW_BUDGET // 2)], capsys)
        assert (code, out, err) == (1, "", "error[PoleError]: first point reached\n")
        code, out, err = run_cli(argv + [str(ROW_BUDGET // 2 + 1)], capsys)
        assert (code, out) == (1, "")
        assert "over the budget of 5000000 rows" in err


class TestScanCommand:
    def test_order_one_two_rows(self, capsys):
        code, out, _ = run_cli(["scan", "--order", "1", "--window", "0,1"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2

    def test_spec_columns(self, capsys):
        _, out, _ = run_cli(["scan", "--order", "5", "--window", "0,1"], capsys)
        header = out.splitlines()[0]
        assert header == ("chi_numerator,chi_denominator,chi_real,q,"
                          "energy_ratio,entropy_ratio")

    def test_order_50_count_and_values(self, capsys):
        code, out, _ = run_cli(["scan", "--order", "50", "--window", "0,1"], capsys)
        rows = read_csv(out)
        assert len(rows) == 775
        for row in rows[:20]:
            q = int(row["q"])
            assert float(row["energy_ratio"]) == 1.0 / q ** 4

    def test_window_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--order", "3", "--window", "1,0"])
        assert exc.value.code == 2

    # sha256 of the exact outputs, as bench/digests.json records them
    @pytest.mark.parametrize("argv, digest", [
        (["--order", "700"],
         "d769d38e2237029d85a2edc354f923abf8320a9d5b9a9671072196ef5074add9"),
        (["--order", "100000", "--window", "39371/60000,3281/5000"],
         "6a6570534987f5c39937dc9397d5b3b574869e2c071fb752b899d49bd90e41de"),
        (["--order", "200", "--format", "json"],
         "57cec6baa7b610864b720037554ca434552b79352211061a4acb31d40d95864e"),
    ])
    def test_pinned_bytes(self, capsys, tmp_path, argv, digest):
        target = tmp_path / "scan.out"
        code, _, _ = run_cli(["scan", *argv, "--output", str(target)], capsys)
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @staticmethod
    def assert_refused_before_enumeration(capsys, monkeypatch, producer, fmt):
        def unreachable(order, window):
            raise AssertionError("rows enumerated before the refusal")

        monkeypatch.setattr(fractal, producer, unreachable)
        start = time.perf_counter()
        code, out, err = run_cli(["scan", "--order", "100000", "--format", fmt], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert out == ""
        assert err.startswith("error[DomainError]: a scan of order 100000 has an estimated "
                              "3.04e+09 rows, ")
        assert (f"over the budget of {ROW_BUDGET} rows (ninionics.errors.ROW_BUDGET)"
                in err)

    def test_json_scan_over_the_memory_budget_is_refused(self, capsys, monkeypatch):
        # the row budget refuses it now that JSON streams in constant memory
        self.assert_refused_before_enumeration(capsys, monkeypatch, "iter_scan_rows", "json")

    def test_csv_scan_over_the_row_budget_is_refused(self, capsys, monkeypatch):
        self.assert_refused_before_enumeration(capsys, monkeypatch, "iter_scan_lines", "csv")

    @pytest.mark.parametrize("order", [str(10 ** 200), str(10 ** 400)])
    def test_huge_json_order_is_refused(self, capsys, order):
        code, out, err = run_cli(["scan", "--order", order, "--format", "json"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[DomainError]: a scan of order {order} has an "
                              f"estimated inf rows, ")

    @pytest.mark.parametrize("order", [str(10 ** 200), str(10 ** 400)])
    def test_huge_csv_order_is_refused(self, capsys, order):
        code, out, err = run_cli(["scan", "--order", order], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[DomainError]: a scan of order {order} has an "
                              f"estimated inf rows, ")

    @pytest.mark.parametrize("fmt, producer", [("csv", "iter_scan_lines"),
                                               ("json", "iter_scan_rows")])
    def test_row_budget_edge_on_the_full_window(self, capsys, monkeypatch, fmt, producer):
        # 3 n^2 / pi^2 + n + 1 is 4,999,670 rows at order 4054 and 5,002,136 at 4055
        calls = []
        monkeypatch.setattr(fractal, producer, lambda order, window: calls.append(order) or ())
        code, _, _ = run_cli(["scan", "--order", "4054", "--format", fmt], capsys)
        assert (code, calls) == (0, [4054])
        code, out, err = run_cli(["scan", "--order", "4055", "--format", fmt], capsys)
        assert (code, out, calls) == (1, "", [4054])
        assert "estimated 5.002e+06 rows, over the budget of 5000000 rows" in err

    def test_narrow_json_window_at_the_same_order_succeeds(self, capsys):
        code, out, _ = run_cli(["scan", "--order", "100000", "--format", "json",
                                "--window", "39371/60000,3281/5000"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 50_672
        assert all(row["q"] == row["chi_denominator"] for row in payload["rows"])


# one launch per command and table kind: None and bool values (walls), extras with a
# list of notices (nogo), a float extra (rotor's Z_0) and an empty table (the scan window)
JSON_LAUNCHES = {
    "thomae": ["thomae", "--fraction", "3/7"],
    "identity-scan": ["identity", "--family", "bose", "--q-max", "12", "--gamma", "1"],
    "identity-pair": ["identity", "--family", "fermi", "--p", "1", "--q", "7", "--gamma", "0.5"],
    "thermo-closed": ["thermo", "--family", "fermi", "--chi", "1/3"],
    "thermo-quadrature": ["thermo", "--method", "quadrature", "--chi", "2/5"],
    "walls": ["walls"],
    "walls-rotating": ["walls", "--rotating"],
    "occupation": ["occupation", "--family", "fermi", "--xi", "0,pi/3", "--omega-count", "5"],
    "scan": ["scan", "--order", "30"],
    "scan-empty": ["scan", "--order", "2", "--window", "1/3,2/5"],
    "nogo-notices": ["nogo", "--mode", "fixed", "--m-indices", "1,2,3"],
    "nogo-near": ["nogo", "--mode", "near", "--count", "3", "--min-denominator", "1000"],
    "rotor-weights": ["rotor", "--table", "weights", "--m-cut", "10"],
    "rotor-zk": ["rotor", "--chi-points", "4", "--m-cut", "10"],
}


class TestStreamedJson:
    @pytest.mark.parametrize("argv", JSON_LAUNCHES.values(), ids=JSON_LAUNCHES.keys())
    def test_bytes_equal_the_materialised_payload(self, capsys, argv):
        argv = [*argv, "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        args = cli.build_parser().parse_args(argv)
        fields, rows, extras = args.handler(args)
        payload = {"schema_version": cli.SCHEMA_VERSION, "command": args.command, **extras,
                   "rows": [dict(zip(fields, row)) for row in rows]}
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_every_value_kind_encodes_as_json_dump_does(self):
        row = (True, None, float("nan"), -0.0, 'a "quoted" \\ str', np.float64(1.5), False,
               float("-inf"), 2 ** 70, -3, 1e-300, "\u03c7")
        fields = [f"col{i}" for i in range(len(row))]
        out = io.StringIO()
        cli._write(argparse.Namespace(format="json", command="probe"), out, fields,
                   iter([row, row[::-1]]), {"note": ["x", None]})
        payload = {"schema_version": "1", "command": "probe", "note": ["x", None],
                   "rows": [dict(zip(fields, row)), dict(zip(fields, row[::-1]))]}
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_scan_streams_in_constant_memory(self, capsys):
        # 27,457 rows; the materialised payload held about 430 B for each
        tracemalloc.start()
        try:
            code = main(["scan", "--order", "300", "--format", "json", "--output", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 ** 20


class TestNogoCommand:
    def test_fixed_mode_constant_ratio(self, capsys):
        code, out, _ = run_cli(
            ["nogo", "--mode", "fixed", "--prime-index", "1", "--count", "6"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert rows
        assert all(float(r["energy_ratio"]) == 1.0 / 16.0 for r in rows)
        assert all(r["chi_num"] == "1" and r["chi_den"] == "2" for r in rows)

    def test_near_mode_collapse(self, capsys):
        code, out, _ = run_cli(
            ["nogo", "--mode", "near", "--target", "1/2", "--count", "3",
             "--min-denominator", "5000", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["limit_estimate"] < 1e-12
        for row in payload["rows"]:
            assert row["distance_to_target"] < 0.01

    def test_ghost_flag_columns(self, capsys):
        _, out, _ = run_cli(
            ["nogo", "--mode", "growing", "--prime-index", "1", "--count", "4"], capsys)
        for row in read_csv(out):
            parity = (int(row["chi_num"]) + int(row["chi_den"])) % 2
            expected = "boson_ghost" if parity == 0 else "fermion"
            assert row["fermi_branch"] == expected

    def test_many_indices_share_one_sieve(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(["nogo", "--mode", "fixed", "--count", "2000"], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert len(read_csv(out)) == 2000

    def test_huge_count_is_refused_before_any_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["nogo", "--mode", "fixed", "--count", "1000000000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert "MiB, over the 1024 MiB memory budget" in err

    @pytest.mark.parametrize("argv,rows", [
        (["--mode", "fixed", "--count", str(2 ** 20 + 1)], 2 ** 20 + 1),
        (["--mode", "growing", "--count", "5000000"], 5_000_000),
        (["--mode", "near", "--count", "2000000"], 2_000_000),
    ], ids=["fixed", "growing", "near"])
    def test_table_over_the_memory_budget_is_refused_before_the_sieve(
            self, capsys, monkeypatch, argv, rows):
        def unreachable(n):
            raise AssertionError("sieve started before the refusal")

        monkeypatch.setattr(fractal, "primes_up_to", unreachable)
        start = time.perf_counter()
        code, out, err = run_cli(["nogo", *argv], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == (f"error[DomainError]: a nogo table of {rows} rows needs an estimated "
                       f"{rows * cli._NOGO_ROW_BYTES / 2 ** 20:.4g} MiB, over the 1024 MiB "
                       f"memory budget (ninionics.errors.MEMORY_BUDGET)\n")

    def test_memory_budget_edge(self, capsys, monkeypatch):
        def probe(*args):  # reached only past the budget check
            raise DomainError("probe reached")

        monkeypatch.setattr(fractal, "prime_sequence_probe", probe)
        edge = MEMORY_BUDGET // cli._NOGO_ROW_BYTES
        code, out, err = run_cli(["nogo", "--count", str(edge)], capsys)
        assert (code, out, err) == (1, "", "error[DomainError]: probe reached\n")
        code, out, err = run_cli(["nogo", "--count", str(edge + 1)], capsys)
        assert (code, out) == (1, "")
        assert "MiB, over the 1024 MiB memory budget" in err

    def test_m_indices_set_the_row_count(self, capsys):
        code, out, _ = run_cli(["nogo", "--m-indices", "2,3,4", "--count", "1000000000"],
                               capsys)
        assert code == 0
        assert len(read_csv(out)) == 3

    def test_non_positive_m_index_is_refused(self, capsys):
        code, out, err = run_cli(["nogo", "--m-indices", "5,0"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[DomainError]: prime index is 1-based")

    @pytest.mark.parametrize("argv", [
        ["nogo", "--mode", "near", "--target", "1/3", "--min-denominator", str(10 ** 12),
         "--count", "2"],
        ["nogo", "--mode", "fixed", "--prime-index", str(10 ** 11), "--count", "2"],
        ["nogo", "--mode", "fixed", "--prime-index", "1", "--m-indices", str(10 ** 11)],
        ["nogo", "--mode", "fixed", "--prime-index", str(10 ** 400), "--count", "2"],
    ], ids=["near", "prime-index", "m-indices", "past-float-range"])
    def test_oversized_sieve_is_refused_before_allocating(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert re.match(r"error\[DomainError\]: a prime sieve up to \d+ needs an estimated "
                        r"([\d.e+]+|inf) MiB, over the 1024 MiB memory budget", err)


class TestBetaRange:
    @pytest.mark.parametrize("argv", [
        ["thermo", "--beta", "1e-300", "--chi", "1/2"],
        ["thermo", "--beta", "1e-300", "--chi", "1/2", "--method", "quadrature"],
        ["walls", "--beta", "1e-300"],
        ["thermo", "--beta", "1e100", "--chi", "1/2"],
        ["thermo", "--beta", "1e100", "--chi", "1/2", "--method", "quadrature"],
        ["walls", "--rotating", "--beta", "1e100"],
        ["thermo", "--chi", f"1/{10 ** 80 + 1}"],  # closed form at q beta = 1e80
    ], ids=["tiny", "tiny-quadrature", "tiny-walls", "huge", "huge-quadrature",
            "huge-rotating-walls", "huge-q"])
    def test_beta_outside_the_float_range_is_a_domain_error(self, capsys, argv):
        # beta^4 or its inverse would leave the normal floats: division by zero or overflow
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[DomainError]: beta=")
        assert "outside [1.22e-77, 8.19e+76]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    @pytest.mark.parametrize("family", ["bose", "fermi"])
    def test_refusal_names_the_beta_given(self, capsys, family, method):
        code, out, err = run_cli(["thermo", "--family", family, "--beta", "1e-300",
                                  "--chi", "1/2", "--method", method], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[DomainError]: beta=1e-300 ")

    def test_edge_of_the_range_still_computes(self, capsys):
        code, out, _ = run_cli(["thermo", "--beta", "1e76", "--chi", "1/2"], capsys)
        assert code == 0
        assert float(read_csv(out)[0]["beta4_f"]) == pytest.approx(-PI_SQ / 1440.0, rel=1e-12)


class TestRotorCommand:
    def test_weights_table(self, capsys):
        code, out, _ = run_cli(
            ["rotor", "--m-cut", "10", "--beta", "1.0", "--table", "weights"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 21
        total = sum(float(r["weight"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zk_table(self, capsys):
        code, out, _ = run_cli(
            ["rotor", "--m-cut", "10", "--chi-points", "8", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["Z_0"] > 0
        assert len(payload["rows"]) == 8
        last = payload["rows"][-1]
        assert last["chi"] == pytest.approx(math.pi)
        assert abs(last["z_imag"]) < 1e-13

    def test_truncation_is_computational_error(self, capsys):
        code, _, err = run_cli(["rotor", "--m-cut", "2", "--beta", "0.1"], capsys)
        assert code == 1
        assert "error[TruncationError]" in err

    @pytest.mark.parametrize("argv", [["--inertia", "1e308", "--m-cut", "5"],
                                      ["--beta", "1e-300"]])
    def test_unreachable_truncation_bound(self, capsys, argv):
        code, _, err = run_cli(["rotor", *argv], capsys)
        assert code == 1
        assert err.startswith("error[TruncationError]")
        assert "no m_cut within the memory budget" in err
        assert len(err) < 200

    def test_oversized_request_is_refused(self, capsys):
        code, _, err = run_cli(["rotor", "--m-cut", "1000000000"], capsys)
        assert code == 1
        assert re.match(r"error\[DomainError\]: .* needs an estimated [\d.e+]+ MiB", err)

    @pytest.mark.parametrize("argv", [
        ["--m-cut", "100000", "--beta", "1e-6", "--table", "weights"],
        ["--m-cut", "100000", "--beta", "1e-6", "--chi-points", "10000"],
    ], ids=["weights", "zk"])
    def test_over_term_budget_is_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(["rotor", *argv], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error\[DomainError\]: .* sums an estimated [\d.e+]+ terms, over "
                            rf"the budget of {rotor.TERM_BUDGET} terms "
                            r"\(ninionics\.rotor\.TERM_BUDGET\)\n", err)

    def test_integer_phases_print_no_negative_zero(self, capsys):
        # Im Z is 0.0 and K = -ln(Z/Z0) is real for integer phases; -(+0.0) would be -0.0
        code, out, _ = run_cli(["rotor", "--m-cut", "40", "--beta", "0.6",
                                "--chi-points", "64"], capsys)
        assert code == 0
        rows = read_csv(out)
        assert {(r["z_imag"], r["k_imag"]) for r in rows} == {("0.0", "0.0")}
        assert rows[31]["k_real"] == "0.0"  # chi = 0
        assert "-0.0" not in re.split(r"[,\n]", out)

    def test_vanishing_partition_names_chi(self, capsys):
        code, out, err = run_cli(
            ["rotor", "--beta", "0.05", "--m-cut", "1000", "--chi-points", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "error[DomainError]: partition function vanishes at chi=3.14159" in err

    def test_ratio_below_rounding_floor_is_refused(self, capsys):
        # |Z(pi)/Z(0)| = 2.4e-14 here, within a few hundred ulps of Z(0): K(pi) would
        # carry an error of about 2e-3, so it is refused rather than printed
        code, out, err = run_cli(
            ["rotor", "--beta", "0.154", "--m-cut", "200", "--chi-points", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "error[DomainError]: partition function vanishes at chi=3.14159" in err
        assert f"below the floor {rotor.RATIO_FLOOR:g}" in err


class TestDeterminism:
    def test_byte_identical_across_runs(self, capsys):
        args = ["scan", "--order", "30", "--window", "0,1"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_byte_identical_across_thread_counts(self, capsys, monkeypatch):
        args = ["identity", "--family", "bose", "--q-max", "12", "--gamma", "0.5"]
        monkeypatch.setenv("NINIONICS_THREADS", "1")
        _, one, _ = run_cli(args, capsys)
        monkeypatch.setenv("NINIONICS_THREADS", "4")
        _, four, _ = run_cli(args, capsys)
        assert one == four

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            ["scan", "--order", "3", "--window", "0,1", "--output", str(target)],
            capsys)
        assert code == 0
        assert out == ""
        rows = read_csv(target.read_text())
        assert [r["chi_numerator"] for r in rows] == ["0", "1", "1", "2", "1"]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["thomae"])
        assert exc.value.code == 2

    def test_negative_beta(self):
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "--chi", "1/2", "--beta", "-2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["occupation", "--family", "bose", "--xi", "0", "--omega-count", "1"],
         "--omega-count"),
        (["identity", "--family", "bose", "--gamma", "1", "--p", "1"], "--q"),
        (["identity", "--family", "bose", "--gamma", "1", "--q", "3"], "--p"),
        (["occupation", "--family", "bose", "--xi", ","], "--xi"),
        (["occupation", "--family", "bose", "--xi", "0,inf"], "--xi"),
        (["occupation", "--family", "bose", "--xi", "nan"], "--xi"),
        (["nogo", "--m-indices", ","], "--m-indices"),
    ], ids=["one-omega-point", "p-without-q", "q-without-p", "empty-xi", "infinite-xi",
            "nan-xi", "empty-m-indices"])
    def test_incomplete_request_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "error[" not in err

    @pytest.mark.parametrize("flag,command", [("--chi", "thermo"), ("--fraction", "thomae")])
    @pytest.mark.parametrize("text", ["abc", "1/x", "1/0", "1.5/2"])
    def test_bad_turns_are_usage_errors(self, capsys, flag, command, text):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert flag in err

    # argparse reads only -5 and -.5 as negative numbers; these forms it took for options
    @pytest.mark.parametrize("argv,flag,value", [
        (["thermo"], "--chi", "-1/3"),
        (["thermo", "--family", "fermi", "--method", "quadrature", "--chi", "1/2"], "--mu",
         "-1e-3"),
        (["occupation", "--family", "bose", "--omega-count", "3"], "--xi", "-pi/4"),
        (["occupation", "--family", "bose", "--xi", "0", "--omega-count", "3"], "--omega-max",
         "-1.7e308"),
    ], ids=["chi", "mu", "xi", "omega-max"])
    def test_negative_value_as_separate_argument(self, capsys, argv, flag, value):
        separate = run_cli([*argv, flag, value], capsys)
        assert separate == run_cli([*argv, f"{flag}={value}"], capsys)
        code, out, err = separate
        assert code == 0 and out.count("\n") > 1 and err == ""

    @pytest.mark.parametrize("argv", [
        ["thermo", "--chi"],
        ["thermo", "--mu", "--chi", "1/2"],
        ["thermo", "--chi", "1/2", "--mu", "-h"],
        ["thermo", "--chi", "-x"],
    ], ids=["at-end", "before-option", "before-help", "not-a-number"])
    def test_missing_value_is_still_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thermo", "--chi", "-1/3", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ninionics thermo")


class TestOutputFile:
    def test_missing_directory_is_named_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(["scan", "--order", "3", "--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[FileNotFoundError]: cannot write ")
        assert "Traceback" not in err

    @staticmethod
    def fail_mid_stream(monkeypatch, producer):
        real = getattr(fractal, producer)

        def failing(order, window):
            yield from real(50, window)
            raise DomainError("injected failure mid-stream")

        monkeypatch.setattr(fractal, producer, failing)

    @staticmethod
    def assert_failed_scans_leave_no_file(capsys, tmp_path, argv):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("previous\n")
        for target in (fresh, kept):
            code, _, err = run_cli(argv + ["--output", str(target)], capsys)
            assert code == 1
            assert "error[DomainError]: injected failure mid-stream" in err
        assert sorted(os.listdir(tmp_path)) == ["kept.csv"]
        assert kept.read_text() == "previous\n"

    # every CSV scan streams; 4054 is the highest order the row budget admits on [0, 1]
    @pytest.mark.parametrize("order", ["4054", "3"])
    def test_failed_streamed_scan_leaves_no_file(self, capsys, tmp_path, monkeypatch, order):
        self.fail_mid_stream(monkeypatch, "iter_scan_lines")  # the CSV producer
        self.assert_failed_scans_leave_no_file(capsys, tmp_path, ["scan", "--order", order])

    def test_failed_json_scan_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        self.fail_mid_stream(monkeypatch, "iter_scan_rows")  # the JSON producer
        self.assert_failed_scans_leave_no_file(
            capsys, tmp_path, ["scan", "--order", "3", "--format", "json"])

    def test_success_replaces_existing_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        target.write_text("previous\n")
        code, _, _ = run_cli(["scan", "--order", "2", "--output", str(target)], capsys)
        assert code == 0
        assert os.listdir(tmp_path) == ["scan.csv"]
        assert [r["chi_numerator"] for r in read_csv(target.read_text())] == ["0", "1", "1"]

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        target.write_text("previous\n")
        target.chmod(0o640)
        code, _, _ = run_cli(["scan", "--order", "2", "--output", str(target)], capsys)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_symlink_is_written_through(self, capsys, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("previous\n")
        link.symlink_to(real)
        code, _, _ = run_cli(["scan", "--order", "2", "--output", str(link)], capsys)
        assert code == 0
        assert link.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]
        assert [r["chi_numerator"] for r in read_csv(real.read_text())] == ["0", "1", "1"]

    def test_fifo_is_written_not_replaced(self, capsys, tmp_path):
        # a special file (a FIFO here, /dev/null in use) must never be renamed over
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(["scan", "--order", "2", "--output", str(fifo)], capsys)
            data = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]
        assert [r["chi_numerator"] for r in read_csv(data)] == ["0", "1", "1"]


def fresh_python(code, *argv):
    """Run code in a fresh interpreter that imports this checkout's ninionics; it must
    exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=120)


def test_cli_import_loads_only_what_parsing_needs():
    # thermo and occupation load in the commands that use them, so a scan does not
    # carry them
    code = ("import sys, ninionics.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('ninionics')))\n")
    out = fresh_python(code)
    assert out.stdout == str(["ninionics", "ninionics.cli", "ninionics.errors",
                              "ninionics.fractal", "ninionics.rationals"]) + "\n"


def loaded_after(argv, extra=""):
    """numpy and scipy in sys.modules of a fresh child: after `import ninionics`, after
    `import ninionics.cli`, and after the command (then `extra`) has run. The command's
    own output lies between the second line and the last."""
    code = ("import sys\n"
            "def loaded():\n"
            "    print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
            "import ninionics\n"
            "loaded()\n"
            "import ninionics.cli\n"
            "loaded()\n"
            "status = ninionics.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            f"{extra}"
            "loaded()\n"
            "sys.exit(status)\n")  # every command must succeed
    lines = fresh_python(code, *argv).stdout.splitlines()
    return [*lines[:2], lines[-1]]


@pytest.mark.parametrize("argv", [
    [],
    ["thomae", "--fraction", "3/7"],
    ["thermo", "--family", "bose", "--chi", "1/3", "--method", "closed"],
    ["thermo", "--family", "fermi", "--chi", "1/3", "--method", "closed"],
    ["walls"],
    ["nogo", "--mode", "near", "--count", "3"],
    ["nogo", "--mode", "fixed", "--count", "3"],
    ["occupation", "--family", "bose", "--xi", "pi/4", "--omega-count", "3"],
    ["scan", "--order", "5"],
    ["scan", "--order", "5", "--format", "json"],
    ["identity", "--family", "bose", "--q-max", "4", "--gamma", "1"],
    ["identity", "--family", "bose", "--p", "3", "--q", "7", "--gamma", "1"],
    ["rotor", "--m-cut", "20", "--chi-points", "4"],
    ["rotor", "--m-cut", "20", "--table", "weights"],
    ["thermo", "--method", "quadrature", "--chi", "1/2"],
    ["walls", "--rotating"],
], ids=["import", "thomae", "thermo-closed-bose", "thermo-closed-fermi", "walls", "nogo-near",
        "nogo-fixed", "occupation", "scan-csv", "scan-json", "identity", "identity-pair",
        "rotor", "rotor-weights", "thermo-quadrature", "walls-rotating"])
def test_import_leaves_scipy_unloaded(argv):
    # no command loads numpy or scipy: the rotor sums, the quadrature oracle and the
    # phase sums are plain Python
    assert loaded_after(argv) == ["False False"] * 3


def test_import_check_sees_a_loaded_numpy():
    # the positive control: the check above reads True once the child loads numpy
    assert loaded_after([], extra="import numpy\n")[-1] == "True False"


@pytest.mark.parametrize("argv", [
    [],
    ["thomae", "--fraction", "3/7"],
    ["thermo", "--family", "fermi", "--chi", "1/3", "--method", "closed"],
    ["walls"],
    ["nogo", "--mode", "near", "--count", "3"],
    ["nogo", "--mode", "fixed", "--count", "3", "--format", "json"],
    ["occupation", "--family", "bose", "--xi", "pi/4", "--omega-count", "3"],
    ["occupation", "--family", "bose", "--xi", "pi/4", "--omega-count", "3", "--format",
     "json"],
    ["scan", "--order", "5"],
    ["scan", "--order", "5", "--format", "json"],
    ["identity", "--family", "bose", "--q-max", "4", "--gamma", "1"],
    ["rotor", "--m-cut", "20", "--chi-points", "4", "--format", "json"],
    ["thermo", "--method", "quadrature", "--chi", "1/2"],
    ["walls", "--rotating"],
], ids=["import", "thomae", "thermo-closed", "walls", "nogo-near", "nogo-json",
        "occupation", "occupation-json", "scan", "scan-json", "identity", "rotor-json",
        "thermo-quadrature", "walls-rotating"])
def test_launch_loads_no_dataclasses_and_json_only_for_json(argv):
    # dataclasses imports inspect, ast, dis and tokenize; no launch loads numpy, which
    # imports inspect itself, so every launch goes without it
    code = ("import sys, ninionics.cli\n"
            "status = ninionics.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(*(m in sys.modules for m in ('dataclasses', 'inspect', 'json')))\n"
            "sys.exit(status)\n")
    dataclasses, inspect, json_ = fresh_python(code, *argv).stdout.split()[-3:]
    assert dataclasses == "False"
    assert inspect == "False"
    assert json_ == str("json" in argv)
