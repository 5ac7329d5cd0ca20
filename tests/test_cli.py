import argparse
import contextlib
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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ninionics import cli, fractal, identities, occupation, oracle, rotor, thermo
from ninionics.cli import main, parse_angle
from ninionics.errors import MEMORY_BUDGET, ROW_BUDGET, DomainError, PoleError
from ninionics.occupation import Family, occupation_from_eps
from ninionics.rationals import _farey_terms_bound
from test_occupation import reference  # the 800-digit defining formula
from test_rationals import brute_force_best_rational  # exhaustive over denominators

PI_SQ = math.pi ** 2
NINES = "9" * 400  # a coefficient past the float range
OCCUPATION_BLOCK = cli._OCCUPATION_BLOCK
# decimals of up to 400 digits, some past the float range
DECIMALS = st.one_of(st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(1, 400)),
                     st.from_regex(r"\d{1,20}(\.\d{1,20})?", fullmatch=True))


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

    @given(st.one_of(
        st.text("0123456789.+-eEinfatypi/ _", max_size=30),
        st.builds("{}{}pi/{}".format, st.sampled_from(["", "-", "+"]), DECIMALS, DECIMALS),
        st.from_regex(cli._ANGLE_RE, fullmatch=True),
    ))
    def test_every_accepted_angle_is_finite(self, text):
        try:
            x = parse_angle(text)
        except argparse.ArgumentTypeError:
            return
        assert math.isfinite(x)


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
        # 1 - e^-40 rounds to exactly 1, but the lhs keeps the digits of e^-40
        code, out, err = run_cli(["identity", "--family", "bose", "--p", "1", "--q", "1",
                                  "--gamma", "40"], capsys)
        assert code == 0, err
        row = read_csv(out)[0]
        assert float(row["residual"]) < 1e-17
        assert float(row["lhs"]) == pytest.approx(-math.exp(-40.0), rel=1e-15)

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
        assert err.startswith("error[DomainError]: a quadrature of one row per residue and mu "
                              "branch at q = 999983 has an estimated 1e+06 rows, over the "
                              f"budget of {thermo.QUADRATURE_ROW_BUDGET} rows")
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, f", [
        (["--chi", "1/1", "--beta", "1.3e-77", "--degeneracy", "1000"], "-inf"),
        # the ghost branch's negative weight flips the sign of f
        (["--family", "fermi", "--chi", "1/3", "--beta", "1e-76", "--degeneracy", "1e308"],
         "inf"),
    ])
    def test_closed_form_overflow_is_refused(self, capsys, argv, f, fmt):
        # the degeneracy over beta^4 overflows f; JSON would print it as -Infinity, not JSON
        code, out, err = run_cli(["thermo", *argv, "--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error[DomainError]: the closed free energy f is {f}; every value "
                       "in the table must be finite\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["--beta", "0.5", "--degeneracy", "1e308"],
        ["--beta", "1.19e-31", "--degeneracy", "1.44e185"],
    ], ids=["degeneracy-1e308", "beta-1.19e-31"])
    def test_overflowing_column_is_refused(self, capsys, argv, fmt):
        # f is finite, but -3 f and -4 f overflow: JSON would print them as Infinity
        code, out, err = run_cli(["thermo", "--family", "bose", "--chi", "1", *argv,
                                  "--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert err == ("error[DomainError]: beta4_energy is inf; every value in the table "
                       "must be finite\n")

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
        ["--family", "fermi", "--xi", "pi/4,pi", "--beta", "2.5", "--omega-min=-0.0",
         "--omega-max", "1", "--omega-count", "9"],
    ], ids=["bose-five-angles", "fermi-mu", "bose-one-angle-mu", "fermi-negative-mu",
            "falling-grid", "negative-zero-omega"])
    def test_bytes_equal_the_per_point_rows(self, capsys, argv, fmt):
        self.assert_per_point_bytes(capsys, argv, fmt)

    # the omega text is held in blocks of OCCUPATION_BLOCK lines: each side of one block
    # and of two, and tables of 16 and 32 blocks
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("xi", ["pi/4", "0.3,pi/2,-7"], ids=["one-angle", "three-angles"])
    @pytest.mark.parametrize("count", [OCCUPATION_BLOCK - 1, OCCUPATION_BLOCK,
                                       OCCUPATION_BLOCK + 1, 2 * OCCUPATION_BLOCK + 1,
                                       4095, 4096, 4097, 8193])
    def test_bytes_at_block_boundaries(self, capsys, count, xi, fmt):
        argv = ["--family", "fermi", "--xi", xi, "--mu", "0.4", "--omega-count", str(count)]
        self.assert_per_point_bytes(capsys, argv, fmt)

    @staticmethod
    def assert_per_point_bytes(capsys, argv, fmt):
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
    @pytest.mark.parametrize("family,xi", [("bose", "0"), ("bose", "1e-200")])
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

    # the float angles pi and 2pi are not the poles: at omega = mu they print the
    # universal -+1/2 that every angle off the pole gives at eps = 0
    @pytest.mark.parametrize("family,xi,n", [("fermi", "pi", "0.5"), ("bose", "2pi", "-0.5")])
    def test_float_pole_angle_prints_the_universal_half(self, capsys, family, xi, n):
        code, out, err = run_cli(["occupation", "--family", family, "--xi", xi, "--mu", "1",
                                  "--omega-min", "1", "--omega-max", "2", "--omega-count", "2"],
                                 capsys)
        assert (code, err) == (0, "")
        assert read_csv(out)[0]["occupation"] == n

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

    def test_bench_shaped_table_in_compact_memory(self):
        # 3 angles x 30,000 omega; a float object per n and a str per omega peaked at
        # 6.6 MiB, an array per angle and blocks of joined omega text at 2.6 MiB; each n
        # computed as its line is written leaves the joined omega text, about 1.4 MiB
        assert self.traced_peak(["--xi", "0pi/12,5pi/12,11pi/12", "--omega-count",
                                 "30000"]) < 2 * 2 ** 20

    def test_one_angle_streams_in_constant_memory(self):
        # one angle keeps no omega text: its peak does not grow with the table
        argv = ["--xi", "0", "--omega-count"]
        small, large = (self.traced_peak(argv + [count]) for count in ("3000", "300000"))
        assert large < small + 64 * 2 ** 10

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            code = main(["occupation", "--family", "bose", *argv, "--output", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_row_budget_edge(self, capsys, monkeypatch):
        def first_point(family, xis, eps_values):  # reached only past the budget check
            raise PoleError("first point reached")

        monkeypatch.setattr(occupation, "occupation_columns", first_point)
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
        self.assert_refused_before_enumeration(capsys, monkeypatch, "iter_scan_lines", "json")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_budget_edge_on_the_full_window(self, capsys, monkeypatch, fmt):
        # 3 n^2 / pi^2 + n + 1 is 4,999,670 rows at order 4054 and 5,002,136 at 4055
        calls = []
        monkeypatch.setattr(fractal, "iter_scan_lines",
                            lambda order, window: calls.append(order) or ())
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


BENCH_DIGESTS = json.loads((Path(__file__).parents[1] / "bench" / "digests.json").read_text())


class TestBenchDigests:
    # ids without spaces, as some test-report parsers split on them
    @pytest.mark.parametrize("key", BENCH_DIGESTS, ids=lambda key: key.replace(" ", "_"))
    def test_pinned_digest(self, capsys, tmp_path, key):
        # each key is the argv of a launch with exact output, its value the sha256 of it
        target = tmp_path / "table.out"
        code, _, _ = run_cli([*key.split(), "--output", str(target)], capsys)
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == BENCH_DIGESTS[key]


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
# the launches whose handler formats each row as CSV text
TEXT_LAUNCHES = {name: argv for name, argv in JSON_LAUNCHES.items()
                 if argv[0] in ("identity", "occupation", "scan")}


def typed(cell):
    """A CSV cell as the value it holds: an int, else a float, else the word."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


class TestStreamedJson:
    @pytest.mark.parametrize("argv", JSON_LAUNCHES.values(), ids=JSON_LAUNCHES.keys())
    def test_bytes_equal_the_materialised_payload(self, capsys, argv):
        argv = [*argv, "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        args = cli.build_parser().parse_args(argv)
        fields, rows, extras = args.handler(args)
        rows = [[typed(c) for c in row[:-1].split(",")] if isinstance(row, str) else row
                for row in rows]
        payload = {"schema_version": cli.SCHEMA_VERSION, "command": args.command, **extras,
                   "rows": [dict(zip(fields, row)) for row in rows]}
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("argv", TEXT_LAUNCHES.values(), ids=TEXT_LAUNCHES.keys())
    def test_json_rows_equal_the_typed_csv_rows(self, capsys, argv):
        args = cli.build_parser().parse_args(argv)
        assert all(isinstance(row, str) for row in args.handler(args)[1])
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        csv_rows = [{k: typed(v) for k, v in row.items()} for row in read_csv(out)]
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0
        # compared as JSON text, so -0.0 and 0.0 or 1 and 1.0 do not pass for each other
        assert json.dumps(json.loads(out)["rows"]) == json.dumps(csv_rows)

    def test_text_row_cells_encode_as_json_dump_does(self):
        line = "fermi,-0.0,1e-300,-3,2.5e+20,7\n"
        fields = [f"col{i}" for i in range(6)]
        out = io.StringIO()
        cli._write(argparse.Namespace(format="json", command="probe"), out, fields,
                   iter([line, line]), {})
        row = dict(zip(fields, ["fermi", -0.0, 1e-300, -3, 2.5e20, 7]))
        payload = {"schema_version": "1", "command": "probe", "rows": [row, row]}
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

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

    def test_near_numerator_is_below_the_denominator(self, capsys):
        # round(0.99999 P) is P itself for these P, once printed as 1,1 with ratio P^-4
        code, out, _ = run_cli(["nogo", "--mode", "near", "--target", "99999/100000",
                                "--count", "3"], capsys)
        assert code == 0
        assert [(r["chi_num"], r["chi_den"], r["q"]) for r in read_csv(out)] == [
            ("100019", "100043", "100043"), ("100003", "100019", "100019"),
            ("99991", "100003", "100003")]

    def test_near_sieve_ends_at_the_bound_of_its_last_prime(self, capsys, monkeypatch):
        # pi(100000) < 10901 by Rosser-Schoenfeld, so the sieve bounds prime 10901 + count
        sieves = []

        def record(n):
            sieves.append(n)
            raise DomainError("sieve reached")

        monkeypatch.setattr(fractal, "primes_up_to", record)
        code, out, err = run_cli(["nogo", "--mode", "near", "--count", "1048576"], capsys)
        assert (code, out, err, sieves) == (1, "", "error[DomainError]: sieve reached\n",
                                            [17_484_824])

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

    # rows * cli._NOGO_ROW_BYTES in MiB, with the digits that show it over 1024
    @pytest.mark.parametrize("argv,rows,mib", [
        (["--mode", "fixed", "--count", str(2 ** 20 + 1)], 2 ** 20 + 1, "1024.001"),
        (["--mode", "growing", "--count", "5000000"], 5_000_000, "4883"),
        (["--mode", "near", "--count", "2000000"], 2_000_000, "1953"),
    ], ids=["fixed", "growing", "near"])
    def test_table_over_the_memory_budget_is_refused_before_the_sieve(
            self, capsys, monkeypatch, argv, rows, mib):
        def unreachable(n):
            raise AssertionError("sieve started before the refusal")

        monkeypatch.setattr(fractal, "primes_up_to", unreachable)
        start = time.perf_counter()
        code, out, err = run_cli(["nogo", *argv], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == (f"error[DomainError]: a nogo table of {rows} rows needs an estimated "
                       f"{mib} MiB, over the 1024 MiB "
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


HUGE = str(10 ** 401 + 1)  # past the float range, so a float estimate of it overflows


class TestHugeIntegers:
    @pytest.mark.parametrize("argv", [
        ["identity", "--family", "bose", "--gamma", "1", "--p", "1", "--q", HUGE],
        ["identity", "--family", "bose", "--gamma", "1", "--q-max", HUGE],
        ["rotor", "--m-cut", HUGE, "--table", "weights"],
        ["rotor", "--m-cut", HUGE, "--table", "zk"],
        ["rotor", "--chi-points", HUGE],
        ["nogo", "--mode", "fixed", "--count", HUGE],
        ["nogo", "--mode", "growing", "--count", HUGE],
        ["nogo", "--mode", "near", "--count", HUGE],
        ["nogo", "--prime-index", HUGE],
        ["nogo", "--mode", "near", "--min-denominator", HUGE],
        ["occupation", "--family", "bose", "--xi", "0", "--omega-count", HUGE],
        ["scan", "--order", HUGE],
        ["thermo", "--family", "bose", "--method", "closed", "--chi", f"1/{HUGE}"],
        ["thermo", "--family", "fermi", "--method", "closed", "--chi", f"1/{HUGE}"],
        ["thermo", "--family", "bose", "--method", "quadrature", "--chi", f"1/{HUGE}"],
        ["thermo", "--family", "fermi", "--method", "quadrature", "--chi", f"1/{HUGE}"],
    ], ids=["identity-q", "identity-q-max", "rotor-m-cut-weights", "rotor-m-cut-zk",
            "rotor-chi-points", "nogo-count-fixed", "nogo-count-growing", "nogo-count-near",
            "nogo-prime-index", "nogo-min-denominator", "occupation-omega-count",
            "scan-order", "thermo-closed-bose", "thermo-closed-fermi",
            "thermo-quadrature-bose", "thermo-quadrature-fermi"])
    def test_is_refused_as_a_domain_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err.startswith("error[DomainError]: ") and err.count("\n") == 1, err[:200]
        assert "Traceback" not in err


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
        assert err.endswith("; no m_cut up to 4194303 suffices\n")
        assert len(err) < 200

    def test_oversized_request_is_refused(self, capsys):
        for m_cut in ["4194304", "1000000000", HUGE]:  # 4194304 is the first past the range
            start = time.perf_counter()
            code, out, err = run_cli(["rotor", "--m-cut", m_cut], capsys)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (1, "")
            assert err == "error[DomainError]: m_cut must be at most 4194303\n"

    def test_largest_m_cut_prints_the_unit_ratio_table(self, capsys):
        # Z and K do not read m_cut once the truncation check passes
        code, out, err = run_cli(["rotor", "--m-cut", "4194303", "--chi-points", "8"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "chi,z_real,z_imag,k_real,k_imag\n"
            "-2.356194490192345,0.157280953603328,0.0,2.7686600980635223,0.0\n"
            "-1.5707963267948966,0.7300003283226455,0.0,1.2336488336380014,0.0\n"
            "-0.7853981633974483,1.8413771958851126,0.0,0.3084247708783252,0.0\n"
            "0.0,2.5066282880429056,0.0,0.0,0.0\n"
            "0.7853981633974483,1.8413771958851126,0.0,0.3084247708783252,0.0\n"
            "1.5707963267948966,0.7300003283226455,0.0,1.2336488336380014,0.0\n"
            "2.356194490192345,0.157280953603328,0.0,2.7686600980635223,0.0\n"
            "3.141592653589793,0.0360547563351249,0.0,4.2416550253353105,0.0\n")

    # the weights' memory gate admits m_cut 1398100 and refuses 1398101; at beta 1e-6
    # the term budget then refuses the admitted one, before any weight: its support is
    # S = 38603 levels, so the one cosine pass sums (S + 1)^2 terms on 2 S + 1 points
    @pytest.mark.parametrize("m_cut, message", [
        ("1398100", "m_cut=1398100 on 77207 grid points sums an estimated 1.49e+09 terms, "
                    "over the budget of 10000000 terms (ninionics.rotor.TERM_BUDGET)"),
        ("1398101", "m_cut=1398101 with 2796203 grid points needs an estimated 1024.0001 MiB, "
                    "over the 1024 MiB memory budget (ninionics.errors.MEMORY_BUDGET)"),
    ], ids=["term-budget", "memory-budget"])
    def test_weights_memory_gate_edge(self, capsys, m_cut, message):
        start = time.perf_counter()
        code, out, err = run_cli(["rotor", "--table", "weights", "--beta", "1e-6",
                                  "--m-cut", m_cut], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", f"error[DomainError]: {message}\n")

    def test_widest_support_under_the_term_budget_prints(self, capsys):
        # S = m_cut = 3000 at beta 1e-4: (S + 1)^2 = 9.0e6 terms, under TERM_BUDGET
        code, out, err = run_cli(["rotor", "--table", "weights", "--m-cut", "3000",
                                  "--beta", "1e-4"], capsys)
        assert (code, err) == (0, "")
        rows = [(int(row["m"]), float(row["weight"])) for row in read_csv(out)]
        assert [m for m, _ in rows] == list(range(-3000, 3001))
        weights = dict(rows)
        boltzmann = [math.exp(-1e-4 * m * m / 2.0) for m in range(-3000, 3001)]
        z0 = math.fsum(boltzmann)
        assert max(abs(w - b / z0) for (_, w), b in zip(rows, boltzmann)) < 1e-12
        assert all(weights[-m] == weights[m] for m in range(1, 3001))

    # S = m_cut = 3162 at beta 1e-4 is the first support whose (S + 1)^2 terms pass 10^7
    @pytest.mark.parametrize("argv", [
        ["--m-cut", "100000", "--beta", "1e-6", "--table", "weights"],
        ["--m-cut", "3162", "--beta", "1e-4", "--table", "weights"],
    ], ids=["weights", "weights-edge"])
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

    # K at the cusp chi = pi, where Z(pi)/Z(0) is 2.4e-14 and 3.8e-43; values from the
    # decimal oracle in test_rotor.py
    @pytest.mark.parametrize("beta,m_cut,k", [("0.154", "200", 31.351022952847064),
                                              ("0.05", "1000", 98.00289683033363)])
    def test_k_at_the_cusp(self, capsys, beta, m_cut, k):
        code, out, err = run_cli(
            ["rotor", "--beta", beta, "--m-cut", m_cut, "--chi-points", "2"], capsys)
        assert (code, err) == (0, "")
        first, last = read_csv(out)
        assert (first["chi"], first["k_real"]) == ("0.0", "0.0")
        assert float(last["chi"]) == math.pi
        assert float(last["k_real"]) == pytest.approx(k, rel=1e-13)
        assert float(last["z_real"]) == pytest.approx(
            float(first["z_real"]) * math.exp(-k), rel=1e-13)

    def test_wide_support_table_is_admitted(self, capsys):
        # a support of 38,626 levels and a K of 4.9e6 at pi, where Z underflows to 0.0
        start = time.perf_counter()
        code, out, err = run_cli(["rotor", "--m-cut", "100000", "--beta", "1e-6",
                                  "--chi-points", "10000", "--format", "json"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 10_000
        assert rows[-1]["z_real"] == 0.0
        assert rows[-1]["k_real"] == pytest.approx(PI_SQ / 2e-6 - math.log(2.0), rel=1e-13)

    # beta and I near the top of the double range, where beta * 1492 or 2 pi I overflow:
    # only their ratio is used, so the output is that of beta = I = 1, byte for byte
    @pytest.mark.parametrize("table", ["zk", "weights"])
    def test_huge_beta_and_inertia_print_unit_ratio(self, capsys, table):
        argv = ["rotor", "--table", table, "--format", "json"]
        code, out, err = run_cli(argv + ["--beta", "1e306", "--inertia", "1e306"], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(argv, capsys)[1]

    def test_huge_inertia_prints_finite_k(self, capsys):
        # beta/I = 1e-8: Z(0) = sqrt(2 pi / r), and K(pi) = pi^2 / (2 r) - ln 2
        code, out, err = run_cli(["rotor", "--inertia", "1e308", "--beta", "1e300",
                                  "--m-cut", "100000", "--chi-points", "4", "--format",
                                  "json"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["Z_0"] == pytest.approx(math.sqrt(2e8 * math.pi), rel=1e-13)
        assert payload["rows"][-1]["k_real"] == pytest.approx(
            PI_SQ * 5e7 - math.log(2.0), rel=1e-13)

    def test_subnormal_beta_and_inertia(self, capsys):
        # beta/I = 5 from two subnormals; 1/I alone overflows, which once dropped w_1
        r = 5e-310 / 1e-310
        code, out, err = run_cli(["rotor", "--inertia", "1e-310", "--beta", "5e-310",
                                  "--format", "json"], capsys)
        assert (code, err) == (0, "")
        z0 = math.fsum([1.0] + [2.0 * math.exp(-r * m * m / 2) for m in range(1, 20)])
        assert json.loads(out)["Z_0"] == pytest.approx(z0, rel=1e-15)

    def test_tiny_inertia_is_truncated_on_beta_over_inertia(self, capsys):
        # beta/I = 1e-7 leaves a tail of e^{-0.2} at m_cut 2000, although 1/I overflows
        code, out, err = run_cli(["rotor", "--inertia", "1e-305", "--beta", "1e-312",
                                  "--m-cut", "2000", "--table", "weights"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[TruncationError]: m_cut=2000 leaves Boltzmann tail "
                              "8.187e-01")

    # beta/I = 1e300: every weight but w_0 is 0.0, so Z = 1 and K = 0 at every angle
    @pytest.mark.parametrize("argv", [["--beta", "1e300"], ["--inertia", "1e-300"]],
                             ids=["beta", "inertia"])
    def test_extreme_ratio_prints_unit_z(self, capsys, argv):
        code, out, err = run_cli(["rotor", *argv], capsys)
        assert (code, err) == (0, "")
        rows = read_csv(out)
        assert len(rows) == 64
        assert {(r["z_real"], r["z_imag"], r["k_real"], r["k_imag"]) for r in rows} == {
            ("1.0", "0.0", "0.0", "0.0")}


def _reject_constant(name: str):
    raise ValueError(f"JSON output holds {name}")


def run_contract(argv, kinds=None, with_err=False):
    """Run the CLI in process: exit 0 returns stdout, or (stdout, stderr) with_err; exit 1
    must write one error line, of one of the given kinds if any, and nothing on stdout,
    and returns None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1)
    if code == 1:
        line = re.fullmatch(r"error\[(\w+)\]: [^\n]+\n", err)
        assert out == "" and line and (kinds is None or line[1] in kinds), err
        return None
    return (out, err) if with_err else out


def run_usage_error(argv):
    """Run the CLI in process and return stderr; it must exit 2, as argparse does, with
    nothing on stdout and no error[<Kind>] line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and out.getvalue() == "" and "error[" not in err.getvalue()
    return err.getvalue()


def numeric_cells(out, fmt):
    """Every number in a table, JSON parsed with NaN and Infinity refused."""
    if fmt == "json":
        rows = json.loads(out, parse_constant=_reject_constant)["rows"]
        return [v for row in rows for v in row.values() if isinstance(v, float)]
    cells = []
    for row in read_csv(out):
        for text in row.values():
            with contextlib.suppress(ValueError):
                cells.append(float(text))
    return cells


LOG_LOW, LOG_HIGH = -323.3, 308.25  # 10 ** LOG_LOW rounds to 5e-324, the least double
POSITIVE_DOUBLES = st.floats(LOG_LOW, LOG_HIGH).map(lambda e: 10.0 ** e)


def _clip(exponent):
    return min(LOG_HIGH, max(LOG_LOW, exponent))


@st.composite
def rotor_scales(draw):
    """(beta, I), each log-uniform over the positive doubles, 5e-324 to 1.78e308; half
    the draws put I within 15 decades of beta, where most requests are admitted."""
    exponents = st.floats(LOG_LOW, LOG_HIGH)
    beta = draw(exponents)
    near = st.floats(-15.0, 15.0).map(lambda r: _clip(beta + r))
    return 10.0 ** beta, 10.0 ** draw(st.one_of(exponents, near))


class TestRotorContract:
    """Every Z/K request exits 0 with a finite K >= 0 in every row, or 1 with one error
    line and nothing on stdout; JSON never holds NaN or Infinity."""

    @settings(max_examples=200, deadline=None)
    @given(rotor_scales(),
           st.one_of(st.integers(1, 10_000), st.sampled_from([4194303, 4194304, int(HUGE)])),
           st.integers(1, 64), st.booleans(), st.sampled_from(["csv", "json"]))
    def test_exit_and_k(self, scales, m_cut, points, half_shift, fmt):
        beta, inertia = scales
        argv = ["rotor", "--beta", repr(beta), "--inertia", repr(inertia), "--m-cut",
                str(m_cut), "--chi-points", str(points), "--format", fmt]
        out = run_contract(argv + ["--half-shift"] * half_shift)
        if out is None:
            return
        if fmt == "json":
            ks = [row["k_real"] for row in json.loads(out, parse_constant=_reject_constant)["rows"]]
        else:
            ks = [float(row["k_real"]) for row in read_csv(out)]
        assert len(ks) == points
        assert all(math.isfinite(k) and k >= 0.0 for k in ks)

    @settings(max_examples=100, deadline=None)
    @given(rotor_scales(), st.one_of(st.integers(1, 300), st.just(1398101)),
           st.sampled_from(["csv", "json"]))
    def test_weights(self, scales, m_cut, fmt):
        """Exit 0 prints 2 m_cut + 1 finite weights in ascending m, summing to 1, with
        R(-m) == R(m) bit for bit. m_cut 1398101 is the first the memory gate refuses."""
        beta, inertia = scales
        out = run_contract(["rotor", "--table", "weights", "--beta", repr(beta), "--inertia",
                            repr(inertia), "--m-cut", str(m_cut), "--format", fmt])
        if out is None:
            return
        if fmt == "json":
            rows = json.loads(out, parse_constant=_reject_constant)["rows"]
        else:
            rows = [{"m": int(row["m"]), "weight": float(row["weight"])} for row in read_csv(out)]
        assert [row["m"] for row in rows] == list(range(-m_cut, m_cut + 1))
        weights = [row["weight"] for row in rows]
        assert all(map(math.isfinite, weights))
        assert abs(math.fsum(weights) - 1.0) < 1e-12
        assert weights == weights[::-1]

    # an admitted m_cut 1398100 prints 2,796,201 rows, which took 4.9 s as CSV and 9.4 s
    # as JSON in process at 230-330 MB peak RSS; so the draws at the largest admitted
    # m_cut take only beta/I < 1e-4, where a support over 3161 levels or the truncation
    # check refuses it. Its printed rows are those of any m_cut past the support.
    @settings(max_examples=20, deadline=None)
    @given(rotor_scales().filter(lambda scales: scales[0] / scales[1] < 1e-4),
           st.sampled_from(["csv", "json"]))
    def test_weights_at_the_largest_admitted_m_cut(self, scales, fmt):
        beta, inertia = scales
        start = time.perf_counter()
        out = run_contract(["rotor", "--table", "weights", "--beta", repr(beta), "--inertia",
                            repr(inertia), "--m-cut", "1398100", "--format", fmt])
        assert time.perf_counter() - start < 0.5
        assert out is None


@st.composite
def thermo_scales(draw):
    """(beta, degeneracy, p, q): beta and the degeneracy log-uniform over the positive
    doubles, chi = p/q with q up to 10^6. Half the draws put beta in [1e-77, 1e77], which
    thermo accepts, and half put the degeneracy within a decade of where
    |f| = g pi^2 / (90 (q beta)^4) overflows, so that -3 f or -4 f may overflow."""
    beta = draw(st.one_of(st.floats(LOG_LOW, LOG_HIGH), st.floats(-77.0, 77.0)))
    q = draw(st.integers(1, 10 ** 6))
    p = draw(st.integers(-q, q))
    edge = LOG_HIGH + 4.0 * (beta + math.log10(q // math.gcd(p, q))) + math.log10(90 / PI_SQ)
    near = st.floats(-1.0, 1.0).map(lambda r: _clip(edge + r))
    degeneracy = draw(st.one_of(st.floats(LOG_LOW, LOG_HIGH), near))
    return 10.0 ** beta, 10.0 ** degeneracy, p, q


class TestThermoWallsContract:
    """Every `thermo --method closed` and `walls` request exits 0 with every numeric
    cell finite, or 1 with one error line and nothing on stdout."""

    @settings(max_examples=200, deadline=None)
    @given(thermo_scales(), st.sampled_from(["bose", "fermi"]),
           st.sampled_from(["csv", "json"]))
    def test_thermo_closed(self, scales, family, fmt):
        beta, degeneracy, p, q = scales
        out = run_contract(["thermo", "--method", "closed", "--family", family, "--beta",
                            repr(beta), "--degeneracy", repr(degeneracy), "--chi", f"{p}/{q}",
                            "--format", fmt])
        if out is not None:
            assert all(map(math.isfinite, numeric_cells(out, fmt)))

    @settings(max_examples=100, deadline=None)
    @given(POSITIVE_DOUBLES, st.booleans(), st.sampled_from(["csv", "json"]))
    def test_walls(self, beta, rotating, fmt):
        out = run_contract(["walls", "--beta", repr(beta), "--format", fmt]
                           + ["--rotating"] * rotating)
        if out is not None:
            assert all(map(math.isfinite, numeric_cells(out, fmt)))


# a magnitude log-uniform from 1e-300 to 1e300 or from 1e-3 to 1e3, or an edge: 0 (a
# usage error where the option must be positive) and the ends of the wide range
WIDE = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                 st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                 st.sampled_from([0.0, 1e-300, 1e300]))


@st.composite
def quadrature_requests(draw):
    """argv of one `thermo --method quadrature` request: chi = p/q with q <= 13, or at the
    first q the row budget refuses (one row per residue and mu branch); beta, mass, mu and
    --inner-tol from WIDE, mu of either sign, and --inner-tol also left at its default."""
    mu = draw(WIDE) * draw(st.sampled_from([-1.0, 1.0]))
    edge = thermo.QUADRATURE_ROW_BUDGET // (1 if mu == 0.0 else 2) + 1
    q = draw(st.sampled_from([*range(1, 14), edge]))
    p = draw(st.integers(-q, q) if q <= 13 else st.sampled_from([1, -1, 7, q - 1]))
    tol = draw(st.one_of(st.none(), WIDE))
    return (["thermo", "--method", "quadrature", "--family",
             draw(st.sampled_from(["bose", "fermi"])), "--chi", f"{p}/{q}",
             f"--beta={draw(WIDE)!r}", f"--mass={draw(WIDE)!r}", f"--mu={mu!r}"]
            + ([] if tol is None else [f"--inner-tol={tol!r}"]))


class TestQuadratureContract:
    """Every `thermo --method quadrature` request exits 0 with every numeric cell finite,
    1 with one error line and nothing on stdout, or 2 on a non-positive option. Shape
    only: the values wait for an error estimate that counts the oracle's cancellation."""

    @settings(max_examples=200, deadline=5000)
    @given(quadrature_requests(), st.sampled_from(["csv", "json"]))
    def test_exit_and_cells(self, argv, fmt):
        try:
            out = run_contract(argv + ["--format", fmt])
        except SystemExit as exc:
            assert exc.code == 2
            event("exit 2")
            return
        event("exit 1" if out is None else "exit 0")
        if out is not None:
            assert all(map(math.isfinite, numeric_cells(out, fmt)))


EDGE_DOUBLES = st.sampled_from([0.0, -0.0, 1e-308, -1e-308, 5e-324, 1e308, -1e308])
# a magnitude: log-uniform from 1e-170 up, or from 1e-9 to 1e-3, where the cancelling form of
# the occupation formula lost the most digits
SCALES = st.one_of(st.floats(-170.0, LOG_HIGH), st.floats(-9.0, -3.0)).map(lambda e: 10.0 ** e)
SIGNED_DOUBLES = st.one_of(EDGE_DOUBLES, st.builds(float.__mul__, st.sampled_from([-1.0, 1.0]),
                                                   SCALES))
# the edges, the float poles (k pi) and signed offsets from them
XI_TEXTS = st.one_of(
    st.sampled_from(["0", "-0.0", "1e-308", "1e308", "2pi", "1e-200", "pi", "-pi", "5e-324"]),
    st.builds(lambda k, d: repr(k * math.pi + d), st.integers(-3, 3),
              SIGNED_DOUBLES.filter(lambda d: abs(d) < 4.0)),
    st.floats(-1e3, 1e3).map(repr))


@st.composite
def occupation_requests(draw):
    """(family, xi texts, beta, mu, omega_min, omega_max, count): each omega end is mu
    plus a signed offset, so eps = beta (omega - mu) reaches 0 and every scale."""
    mu = draw(st.one_of(st.just(0.0), SIGNED_DOUBLES))
    ends = [mu + draw(SIGNED_DOUBLES) for _ in range(2)]
    assume(all(map(math.isfinite, ends)))
    return (draw(st.sampled_from(["bose", "fermi"])), draw(st.lists(XI_TEXTS, min_size=1,
                                                                     max_size=2)),
            draw(st.one_of(st.sampled_from([1.0, 5e-324, 1e-308, 1e308]), POSITIVE_DOUBLES)),
            mu, *ends, draw(st.one_of(st.integers(2, 3), st.just(int(HUGE)))))


class TestOccupationContract:
    """Every occupation request exits 0 with each n within 1e-13 S of the 800-digit
    defining formula at the printed xi and the eps the CLI formed, S = (g + w t) / den
    of the gap form, or 1 with one PoleError or DomainError line and nothing on stdout."""

    @settings(max_examples=150, deadline=None)
    @given(occupation_requests(), st.sampled_from(["csv", "json"]))
    def test_rows_match_the_reference(self, request, fmt):
        family, xis, beta, mu, lo, hi, count = request
        out = run_contract(["occupation", "--family", family, f"--xi={','.join(xis)}",
                            f"--beta={beta!r}", f"--mu={mu!r}", f"--omega-min={lo!r}",
                            f"--omega-max={hi!r}", f"--omega-count={count}", "--format", fmt],
                           kinds=("PoleError", "DomainError"))
        if out is None:
            return
        cells = numeric_cells(out, fmt)
        assert len(cells) == 4 * len(xis) * count and all(map(math.isfinite, cells))
        for xi, omega, beta_omega, n in zip(*[iter(cells)] * 4):
            assert beta_omega == beta * omega
            want, scale, _ = reference(Family(family), xi, beta * (omega - mu))
            assert abs(n - want) <= 1e-13 * scale


# chi as p/q with 400-digit terms, or as a decimal: the edges and log-uniform doubles
CHI_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.one_of(st.integers(-10 ** 6, 10 ** 6), st.just(int(NINES)),
                                        st.just(-int(NINES))),
              st.one_of(st.integers(1, 10 ** 6), st.just(int(NINES)))),
    st.one_of(EDGE_DOUBLES, SIGNED_DOUBLES, st.floats(-2.0, 2.0)).map(repr))


def assert_nearest(chi, x, n):
    """chi, of denominator <= n, is no farther from x than its neighbours among the
    fractions of denominator <= n, and as near only ahead of them in (denominator, value),
    the order brute_force_best_rational breaks ties in. Those neighbours are the terms of
    F_n next to chi's fractional part, shifted by its whole part."""
    whole = chi.numerator // chi.denominator
    part = chi - whole
    before, after = farey_neighbours(part.numerator, part.denominator, n)
    for other in (Fraction(*before) if before else Fraction(-1, n), Fraction(*after)):
        other += whole
        assert (abs(chi - x), chi.denominator, chi) < (abs(other - x), other.denominator, other)


class TestThomaeContract:
    """Every thomae request exits 0 with chi the parsed p/q, or the nearest fraction to a
    decimal with denominator at most --q-max, and Thomae's 1/q rounded once."""

    @settings(max_examples=200, deadline=None)
    @given(CHI_TEXTS, st.one_of(st.integers(1, 200), st.integers(1, 10 ** 6),
                                st.just(int(NINES))),
           st.sampled_from(["csv", "json"]))
    def test_cells_are_the_fractions_rounded_once(self, text, q_max, fmt):
        out = run_contract(["thomae", f"--fraction={text}", f"--q-max={q_max}", "--format", fmt],
                           kinds=())
        if fmt == "json":
            (row,) = json.loads(out, parse_constant=_reject_constant)["rows"]
        else:
            (row,) = read_csv(out)
        chi, q = Fraction(int(row["chi_num"]), int(row["chi_den"])), int(row["q"])
        assert (chi.numerator, chi.denominator) == (int(row["chi_num"]), int(row["chi_den"]))
        if "/" in text:
            assert chi == Fraction(text)
        else:
            x = Fraction(float(text))
            assert chi.denominator <= q_max
            if x.denominator <= q_max:
                assert chi == x
            elif q_max <= 200:
                assert chi == brute_force_best_rational(x, q_max)
            else:
                assert_nearest(chi, x, q_max)
        assert (q, int(row["thomae_num"]), int(row["thomae_den"])) == (chi.denominator, 1, q)
        assert numeric_cells(out, fmt)[-1] == float(Fraction(1, q))


def simplest_between(lo, hi):
    """The fraction of least denominator in [lo, hi], 0 <= lo <= hi, by continued fractions."""
    whole = lo.numerator // lo.denominator
    if whole == lo or whole + 1 <= hi:
        return Fraction(whole if whole == lo else whole + 1)
    return whole + 1 / simplest_between(1 / (hi - whole), 1 / (lo - whole))


def farey_neighbours(a, b, n):
    """The terms of F_n before and after a/b in [0, 1], None past either end: the
    largest denominators d <= n with a d - b c = 1 and b c - a d = 1 respectively."""
    before = pow(a, -1, b)
    before += b * ((n - before) // b)
    after = -pow(a, -1, b) % b
    after += b * ((n - after) // b)
    return (((a * before - 1) // b, before) if a else None,
            ((a * after + 1) // b, after) if a < b else None)


def scan_budget_edge(width):
    """The largest order a scan of a window this wide is admitted at."""
    lo, hi = 1, ROW_BUDGET
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _farey_terms_bound(mid, width) <= ROW_BUDGET else (lo, mid - 1)
    return lo


@st.composite
def scan_requests(draw):
    """(order, lo, hi, admitted): wide windows at small orders, the ends 0 and 1, windows
    that hold one term of F_n, and narrow windows at and just past the order where the
    row estimate meets ROW_BUDGET (admitted is None where the estimate is well under it)."""
    kind = draw(st.sampled_from(["wide", "one-term", "edge"]))
    if kind == "wide":
        order, den = draw(st.integers(1, 120)), draw(st.integers(1, 200))
        lo, hi = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=2, unique=True)))
        return order, Fraction(lo, den), Fraction(hi, den), None
    if kind == "one-term":  # a/b and a/b + 1/(b (n + 1)), which the next term of F_n passes
        order = draw(st.integers(1, 10 ** 7))
        b = draw(st.integers(1, order))
        lo = Fraction(draw(st.integers(0, b - 1)), b)
        return order, lo, lo + Fraction(1, b * (order + 1)), None
    q = draw(st.integers(10 ** 6, 10 ** 12))
    lo = Fraction(draw(st.integers(0, q - 1)), q)
    hi = min(Fraction(1), lo + Fraction(1, draw(st.integers(10 ** 9, 10 ** 11))))
    edge = scan_budget_edge(float(hi - lo))
    past = draw(st.booleans())
    return edge + past, lo, hi, not past


class TestScanContract:
    """Every scan row holds c, d, c/d, d, d^-4 and d^-3 of a term of F_n in the window,
    each float the Fraction rounded once; the rows are the whole window in ascending
    order, each a Farey neighbour of the one before; past ROW_BUDGET it refuses."""

    @settings(max_examples=150, deadline=2000)
    @given(scan_requests(), st.sampled_from(["csv", "json"]))
    def test_rows_are_the_window_of_the_farey_sequence(self, request, fmt):
        order, lo, hi, admitted = request
        out = run_contract(["scan", "--order", str(order), "--window", f"{lo},{hi}",
                            "--format", fmt], kinds=("DomainError",))
        if admitted is not None:
            assert (out is not None) == admitted
        if out is None:
            return
        if fmt == "json":
            rows = [list(row.values())
                    for row in json.loads(out, parse_constant=_reject_constant)["rows"]]
        else:
            rows = [[int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4]), float(r[5])]
                    for r in csv.reader(io.StringIO(out)) if r[0] != "chi_numerator"]
        pairs = [(c, d) for c, d, *_ in rows]
        for row, (c, d) in zip(rows, pairs):
            assert row == [c, d, float(Fraction(c, d)), d, float(Fraction(1, d ** 4)),
                           float(Fraction(1, d ** 3))]
            assert math.gcd(c, d) == 1 and d <= order and lo <= Fraction(c, d) <= hi
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            assert b * c - a * d == 1 and b + d > order
        if not pairs:
            assert simplest_between(lo, hi).denominator > order
            return
        before, _ = farey_neighbours(*pairs[0], order)
        _, after = farey_neighbours(*pairs[-1], order)
        assert before is None or Fraction(*before) < lo
        assert after is None or Fraction(*after) > hi


NOGO_EDGE = MEMORY_BUDGET // cli._NOGO_ROW_BYTES  # the largest --count admitted
# targets near 0 and 1, p/q, a 400-digit one, decimals, and the refused 0, 1 and beyond
NOGO_TARGETS = st.one_of(
    st.integers(1, 15).map(lambda k: f"1/{10 ** k}"),
    st.integers(1, 15).map(lambda k: f"{10 ** k - 1}/{10 ** k}"),
    st.integers(2, 10 ** 6).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}")),
    st.sampled_from([f"{NINES}/1{'0' * 400}", f"1/1{'0' * 400}", "0.5", "0.999999", "0", "1",
                     "-1/2", "3/2"]))
BRANCHES = [("boson_ghost", -2.0), ("fermion", 1.0)]  # by the parity of chi_num + chi_den


@st.composite
def nogo_requests(draw):
    """(argv, the library call that gives its points, or None for a usage error): every
    mode, counts up to 300 and past the memory edge, --m-indices out of order, repeated,
    holding the fixed index (a notice) or a non-positive one, sieves past the memory
    budget, and targets outside (0, 1) and minimum denominators below 3."""
    mode = draw(st.sampled_from(["fixed", "growing", "near"]))
    count = draw(st.one_of(st.integers(1, 300), st.sampled_from([NOGO_EDGE + 1, int(HUGE)])))
    argv = ["nogo", "--mode", mode, "--count", str(count)]
    if mode == "near":
        target = draw(NOGO_TARGETS)
        min_den = draw(st.one_of(st.integers(1, 10 ** 6), st.sampled_from([10 ** 9, int(HUGE)])))
        argv += ["--target", target, "--min-denominator", str(min_den)]
        if not 0 < Fraction(target) < 1 or min_den < 3:  # refused by the option types
            return argv, None
        return argv, lambda: fractal.prime_ratio_sequence_near(Fraction(target), count, min_den)
    n = draw(st.one_of(st.integers(1, 300), st.just(10 ** 11)))
    argv += ["--prime-index", str(n)]
    m_indices = draw(st.one_of(st.none(), st.lists(st.one_of(st.integers(1, 400), st.just(n),
                                                              st.integers(-2, 0)),
                                                    min_size=1, max_size=30)))
    if m_indices:
        argv += ["--m-indices", ",".join(map(str, m_indices))]
    name = f"{mode}_denominator"
    return argv, lambda: fractal.prime_sequence_probe(
        n, m_indices or range(n + 1, n + 1 + count), name)


class TestNogoContract:
    """Every nogo row is a lowest-terms c/d with q = d, c/d and d^-4 the Fractions
    rounded once, the Fermi branch of the parity of c + d, and the distance to the
    target; the rows are SequenceProbe.points of the same request, as floats."""

    @settings(max_examples=150, deadline=2000)
    @given(nogo_requests(), st.sampled_from(["csv", "json"]))
    def test_rows_are_the_probe_points(self, request, fmt):
        argv, probe = request
        if probe is None:
            run_usage_error(argv + ["--format", fmt])
            return
        out = run_contract(argv + ["--format", fmt], kinds=("DomainError",))
        if out is None:
            return
        probe = probe()
        if fmt == "json":
            payload = json.loads(out, parse_constant=_reject_constant)
            rows = [list(row.values()) for row in payload["rows"]]
            assert (payload["target"], payload["limit_estimate"], payload["notices"]) == (
                probe.target, probe.limit_estimate, list(probe.notices))
        else:
            rows = [[int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4]), r[5],
                     float(r[6]), float(r[7])]
                    for r in csv.reader(io.StringIO(out)) if r[0] != "chi_num"]
        for c, d, chi, q, energy, branch, weight, distance in rows:
            assert math.gcd(c, d) == 1 and q == d
            assert (chi, energy) == (float(Fraction(c, d)), float(Fraction(1, d ** 4)))
            assert (branch, weight) == BRANCHES[(c + d) % 2]
            assert distance == abs(chi - probe.target)
        assert rows == [[chi.numerator, chi.denominator, float(chi), chi.denominator,
                         float(ratio), *BRANCHES[(chi.numerator + chi.denominator) % 2],
                         abs(float(chi) - probe.target)] for chi, ratio in probe.points]

    @pytest.mark.parametrize("argv,rows", [
        (["--mode", "fixed", "--count", "50"], 50),
        (["--mode", "growing", "--prime-index", "3", "--m-indices", "9,3,4,4,2"], 4),
        (["--mode", "near", "--target", "99999/100000", "--count", "50"], 50),
    ], ids=["fixed", "growing", "near"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_the_cli_builds_no_fraction_per_row(self, monkeypatch, argv, rows, fmt):
        def no_fraction(*args, **kwargs):
            raise AssertionError("nogo built a Fraction in ninionics.fractal")

        monkeypatch.setattr(fractal, "Fraction", no_fraction)
        out = run_contract(["nogo", *argv, "--format", fmt], kinds=())
        assert out.count("boson_ghost") + out.count("fermion") == rows


# gamma at the floor and the double below it, the ends of the double range, and
# log-uniform positive doubles, over all of them and over the admitted 1e-6 to 700
IDENTITY_GAMMAS = st.one_of(
    st.sampled_from([identities.GAMMA_FLOOR, math.nextafter(identities.GAMMA_FLOOR, 0.0),
                     1e-308, 1e308]),
    POSITIVE_DOUBLES, st.floats(-6.0, 2.845).map(lambda e: 10.0 ** e))
PAIR_MEMORY_EDGE = MEMORY_BUDGET // identities._PAIR_BYTES + 1  # the least q refused


def identity_rows(out, fmt):
    """(family, p, q, gamma, lhs, rhs, residual) per row, and the JSON max_residual."""
    if fmt == "json":
        payload = json.loads(out, parse_constant=_reject_constant)
        return [tuple(row.values()) for row in payload["rows"]], payload["max_residual"]
    return [(f, int(p), int(q), float(g), float(lhs), float(rhs), float(res))
            for f, p, q, g, lhs, rhs, res in list(csv.reader(io.StringIO(out)))[1:]], None


class TestIdentityContract:
    """Every identity request exits 0 with one row per irreducible p/q in q-then-p order
    (or the one pair), residual |lhs - rhs| bit for bit, the maximum and the count on
    stderr (and JSON) those of the rows, and lhs the library's phase sum; or exits 1 with
    one DomainError line and nothing on stdout."""

    def check_table(self, out, err, fmt, family, gamma, fractions):
        rows, max_residual = identity_rows(out, fmt)
        assert [(p, q) for _, p, q, *_ in rows] == fractions
        assert {(f, g) for f, _, _, g, *_ in rows} == {(family, gamma)}
        residuals = [res for *_, res in rows]
        assert list(map(repr, residuals)) == [repr(abs(lhs - rhs)) for *_, lhs, rhs, _ in rows]
        assert all(map(math.isfinite, numeric_cells(out, fmt)))
        assert max_residual in (None, max(residuals))
        assert err == f"max residual over {len(rows)} fractions: {max(residuals):.3e}\n"
        check = (identities.check_boson_identity if family == "bose"
                 else identities.check_fermion_identity)
        for _, p, q, _, lhs, rhs, _ in rows[::max(1, len(rows) // 8)] + rows[-1:]:
            assert (repr(lhs), repr(rhs)) == tuple(map(repr, check(p, q, gamma)[3:]))

    @settings(max_examples=100, deadline=2000)
    @given(st.sampled_from(["bose", "fermi"]), IDENTITY_GAMMAS,
           st.one_of(st.integers(1, 64), st.sampled_from([4055, int(NINES)])),
           st.sampled_from(["csv", "json"]))
    def test_scan_rows_are_the_irreducible_fractions(self, family, gamma, q_max, fmt):
        got = run_contract(["identity", "--family", family, "--gamma", repr(gamma),
                            "--q-max", str(q_max), "--format", fmt],
                           kinds=("DomainError",), with_err=True)
        if q_max > 4054:  # over ROW_BUDGET
            assert got is None
        if got is not None:
            fractions = [(p, q) for q in range(1, q_max + 1) for p in range(1, q + 1)
                         if math.gcd(p, q) == 1]
            self.check_table(*got, fmt, family, gamma, fractions)

    @settings(max_examples=100, deadline=2000)
    @given(st.sampled_from(["bose", "fermi"]), IDENTITY_GAMMAS,
           st.one_of(st.integers(1, 10 ** 4), st.sampled_from([PAIR_MEMORY_EDGE, int(NINES)]))
           .flatmap(lambda q: st.tuples(st.one_of(st.integers(-3 * q, 3 * q),
                                                  st.integers(-10 ** 6, 10 ** 6)), st.just(q))),
           st.sampled_from(["csv", "json"]))
    def test_pair_row_is_the_phase_sum(self, family, gamma, pair, fmt):
        p, q = pair
        got = run_contract(["identity", "--family", family, "--gamma", repr(gamma),
                            f"--p={p}", f"--q={q}", "--format", fmt],
                           kinds=("DomainError",), with_err=True)
        if math.gcd(p, q) != 1 or q >= PAIR_MEMORY_EDGE:
            assert got is None
        if got is not None:
            self.check_table(*got, fmt, family, gamma, [(p, q)])


class TestDeterminism:
    def test_byte_identical_across_runs(self, capsys):
        args = ["scan", "--order", "30", "--window", "0,1"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_identity_byte_identical_across_runs(self, capsys):
        args = ["identity", "--family", "bose", "--q-max", "12", "--gamma", "0.5"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

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
        (["occupation", "--family", "bose", "--xi", NINES + "pi"], "--xi"),
        (["occupation", "--family", "bose", "--xi", "-" + NINES + "pi"], "--xi"),
        (["occupation", "--family", "bose", "--xi", f"{NINES}pi/{NINES}"], "--xi"),
        (["nogo", "--m-indices", ","], "--m-indices"),
        (["nogo", "--mode", "near", "--target", "3/2"], "--target"),
        (["nogo", "--mode", "near", "--target", "0"], "--target"),
        (["nogo", "--mode", "near", "--target", "1"], "--target"),
        (["nogo", "--mode", "near", "--target", "-1/2"], "--target"),
        (["nogo", "--mode", "fixed", "--target", "3/2"], "--target"),
        (["nogo", "--mode", "near", "--min-denominator", "2"], "--min-denominator"),
        (["nogo", "--mode", "near", "--min-denominator", "1"], "--min-denominator"),
        (["nogo", "--mode", "growing", "--min-denominator", "2"], "--min-denominator"),
    ], ids=["one-omega-point", "p-without-q", "q-without-p", "empty-xi", "infinite-xi",
            "nan-xi", "infinite-pi-xi", "minus-infinite-pi-xi", "nan-pi-xi",
            "empty-m-indices", "target-above-one", "target-zero", "target-one",
            "negative-target", "fixed-mode-target", "min-denominator-two",
            "min-denominator-one", "growing-mode-min-denominator"])
    def test_incomplete_request_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "error[" not in err

    @pytest.mark.parametrize("flag,command", [("--chi", "thermo"), ("--fraction", "thomae")])
    @pytest.mark.parametrize("text", ["abc", "1/x", "1/0", "1.5/2", "nan", "inf", "-inf",
                                      "1e400"])
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
        self.fail_mid_stream(monkeypatch, "iter_scan_lines")
        self.assert_failed_scans_leave_no_file(capsys, tmp_path, ["scan", "--order", order])

    def test_failed_json_scan_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        self.fail_mid_stream(monkeypatch, "iter_scan_lines")  # JSON writes its cells
        self.assert_failed_scans_leave_no_file(
            capsys, tmp_path, ["scan", "--order", "3", "--format", "json"])

    # each streamed table, refused by a budget or by a value it cannot give: every
    # refusal comes before the first row, so nothing is written anywhere
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["scan", "--order", "4055"],
        ["identity", "--family", "bose", "--gamma", "1", "--q-max", "100000"],
        ["occupation", "--family", "bose", "--xi", "1,0", "--omega-min=-1",
         "--omega-max", "0", "--omega-count", "5"],
        ["rotor", "--chi-points", "5000001"],
        ["rotor", "--m-cut", "2", "--beta", "0.1"],
    ], ids=["scan-rows", "identity-rows", "occupation-pole", "rotor-rows", "rotor-truncation"])
    def test_refused_table_leaves_existing_file(self, capsys, tmp_path, argv, fmt):
        argv = [*argv, "--format", fmt]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error\[\w+\]: [^\n]+\n", err)
        kept = tmp_path / "kept.out"
        kept.write_bytes(b"previous\n")
        assert run_cli(argv + ["--output", str(kept)], capsys) == (1, "", err)
        assert os.listdir(tmp_path) == ["kept.out"]
        assert kept.read_bytes() == b"previous\n"

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
            "print(sorted(m for m in sys.modules if m.startswith('ninionics')))\n"
            "print('csv' in sys.modules, 'json' in sys.modules)\n")
    out = fresh_python(code)
    assert out.stdout == str(["ninionics", "ninionics.cli", "ninionics.errors",
                              "ninionics.fractal", "ninionics.rationals"]) + "\nFalse False\n"


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
