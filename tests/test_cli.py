import argparse
import json
import math
import os
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from expsums import Polynomial, circle, cli, enumeration
from expsums.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PRECONDITION,
    _build_parser,
    _subparsers,
    build_config,
    main,
    run,
)
from expsums.circle import CircleMethodReport
from expsums.geometry import exponent_sheet
from expsums.polynomials import parse_polynomial
from expsums.reports import dumps_csv, dumps_json, serialize_report, to_jsonable
from expsums.zeta import CountKind, CountTable, count_zeros_mod


def run_cli(argv):
    return run(build_config(argv))


class TestSumCommand:
    def test_square_mod_nine(self):
        code, report = run_cli(["sum", "--poly", "x1^2", "--p", "3", "--m", "2", "--a", "1"])
        assert code == EXIT_OK
        assert abs(report["result"]["value"].real - 1 / 3) < 1e-6
        assert abs(report["result"]["value"].imag) < 1e-12
        assert report["poly"] == "1*x1^2"

    def test_parse_error_offset(self):
        code, report = run_cli(["sum", "--poly", "x1^2 -", "--p", "3", "--m", "2", "--a", "1"])
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["offset"] == 7

    def test_non_ascii_digit_is_a_parse_error(self):
        # int() of the superscript two raised, and the run exited as PRECONDITION
        code, report = run_cli(["sum", "--poly", "x1^\u00b2", "--p", "3", "--m", "2", "--a", "1"])
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["offset"] == 4

    @pytest.mark.parametrize("poly, offset", [("7^6000*x1", 2), ("1" * 5000 + "*x1", 1)],
                             ids=["power", "literal"])
    def test_oversized_coefficient_is_a_parse_error(self, poly, offset):
        # 7^6000 crashed rendering the report; the 5000-digit literal exited
        # as PRECONDITION with int()'s "Exceeds the limit (4300 digits)"
        code, report = run_cli(["sum", "--poly", poly, "--p", "5", "--m", "1", "--a", "1"])
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["offset"] == offset

    def test_budget_exceeded(self):
        code, report = run_cli(
            ["sum", "--poly", "x1+x2", "--p", "5", "--m", "4", "--a", "1",
             "--method", "naive", "--budget", "100"]
        )
        assert code == EXIT_BUDGET
        assert report["error"]["code"] == "BUDGET_EXCEEDED"

    def test_crt_path(self):
        code, report = run_cli(
            ["sum", "--poly", "x1^2", "--a", "1", "--N", "45", "--method", "crt"]
        )
        assert code == EXIT_OK
        assert abs(report["result"]["abs"] - (1 / 3) * 5**-0.5) < 1e-9

    def test_naive_method_with_N_refused(self):
        # used to run the CRT route and report "method": "crt"
        code, report = run_cli(
            ["sum", "--poly", "x1^2", "--a", "1", "--N", "45", "--method", "naive"]
        )
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        code, report = run_cli(["sum", "--poly", "x1^2", "--a", "1", "--N", "45"])
        assert code == EXIT_OK
        assert report["params"]["method"] == "crt"

    @pytest.mark.parametrize("extra", [[], ["--p", "5"]], ids=["no-modulus", "p-only"])
    def test_crt_without_full_modulus_refused(self, extra):
        # 0**0 and 5**0 used to run at N = 1 and report value 1
        argv = ["sum", "--poly", "x1^2", "--a", "1", "--method", "crt"]
        code, report = run_cli(argv + extra)
        assert code == EXIT_PRECONDITION
        assert report["error"]["message"] == "crt method requires --N or --p/--m"
        code, report = run_cli(argv + ["--p", "5", "--m", "2"])
        assert code == EXIT_OK
        assert report["params"]["N"] == 25

    @pytest.mark.parametrize("N", ["0", "-5"])
    def test_crt_modulus_below_one_named(self, N):
        # a given --N below 1 used to be refused as if no modulus were given
        argv = ["sum", "--poly", "x1", "--N", N, "--a", "1"]
        for extra in ([], ["--method", "crt"]):
            code, report = run_cli(argv + extra)
            assert code == EXIT_PRECONDITION
            assert report["error"]["message"] == f"modulus must be >= 1, got {N}"

    @pytest.mark.parametrize("p, m, message", [
        ("5", "0", "conductor must be >= 1, got 0"),
        ("6", "2", "6 is not prime"),
    ], ids=["m-0", "composite-p"])
    def test_crt_prime_power_checked_like_the_pruned_route(self, p, m, message):
        # --method crt took p^m unchecked: it ran at N = 1 for m = 0 and at N = 36 for p = 6
        for method in ("crt", "pruned"):
            code, report = run_cli(["sum", "--poly", "x1^2", "--a", "1", "--p", p, "--m", m,
                                    "--method", method])
            assert code == EXIT_PRECONDITION
            assert report["error"]["message"] == message

    def test_nonprime_p_precondition(self):
        code, report = run_cli(["sum", "--poly", "x1", "--p", "6", "--m", "2", "--a", "1"])
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"

    @pytest.mark.parametrize("argv", [
        ["sum", "--poly", "x1^2+x2^2", "--p", "2", "--m", "512", "--a", "1"],
        ["verify", "--poly", "x1^3+x2^3+x3^3", "--primes", "7", "--max-m", "130", "--s", "0"],
    ], ids=["sum", "verify"])
    def test_sum_past_the_float_range_is_a_precondition(self, argv):
        # p^(mn) >= 2^1024 raised an uncaught OverflowError: no report at all
        code, report = run_cli(argv)
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        assert "past the float range" in report["error"]["message"]


class TestOtherCommands:
    def test_zeta_with_crosscheck(self):
        code, report = run_cli(
            ["zeta", "--poly", "x1^2", "--p", "3", "--max-m", "2", "--crosscheck"]
        )
        assert code == EXIT_OK
        entries = report["result"]["entries"]
        assert entries[0]["count"] == 1  # level 0 convention
        assert entries[1]["count"] == 1 and entries[2]["count"] == 3
        assert all(row.abs_diff == 0 for row in report["result"]["crosscheck"])

    def test_zeta_walks_deep_fibers_without_recursion(self):
        # the fiber walk is about m/2 deep; a recursive one died near m = 1950
        code, report = run_cli(["zeta", "--poly", "x1^2+x2^2", "--p", "2", "--max-m", "2000"])
        assert code == EXIT_OK
        # x^2 + y^2 = 0 mod 2^m forces x, y even from m = 2 on, so
        # N(2^m) = 4 N(2^(m-2)) with N(2) = 2 and N(4) = 4: N(2^m) = 2^m
        assert [e["count"] for e in report["result"]["entries"]] == [2**m for m in range(2001)]

    def test_readme_examples_run(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Examples:", 1)[1].split("```")[1]
        stated = re.search(r"The `zeta` example reports\s+`points_consumed`\s+(\d+)", readme)
        commands = [shlex.split(line) for line in block.strip().splitlines()]
        assert commands and all(argv[0] == "expsums" for argv in commands)
        for argv in commands:
            code, report = run_cli(argv[1:])
            assert code == EXIT_OK and report["result"], argv
            if argv[1] == "zeta":
                assert report["budget"]["points_consumed"] == int(stated.group(1)) == 690

    def test_zeta_crosscheck_reads_the_table(self):
        # the README example: the table's tree (40 points), then one direct
        # count per level (25 + 625), with the left sides read off the table
        code, report = run_cli(
            ["zeta", "--poly", "x1^2+x2^3", "--p", "5", "--max-m", "2", "--crosscheck"]
        )
        assert code == EXIT_OK
        rows = report["result"]["crosscheck"]
        assert [row.count for row in rows] == [c["count"] for c in report["result"]["entries"][1:]]
        assert all(row.abs_diff == 0 for row in rows)
        assert report["budget"]["points_consumed"] == 690

    def test_ideal_crosscheck_walks_the_tree_once(self):
        # 198 (the ideal's table: the 2 gradient components on the 3^k grids,
        # k = 1, 1, 2) + 27 (one zero-count tree to m = 3) + 9 + 81 + 729
        # (direct); the pair-product grid made it 3,303, a tree per level 3,330
        code, report = run_cli(["zeta", "--poly", "x1^2+x2^3", "--p", "3", "--max-m", "3",
                                "--ideal", "jf2", "--crosscheck"])
        assert code == EXIT_OK
        rows = report["result"]["crosscheck"]
        assert [row.count for row in rows] == [count_zeros_mod(parse_polynomial("x1^2+x2^3"), 3, m)
                                               for m in (1, 2, 3)]
        assert all(row.abs_diff == 0 for row in rows)
        assert report["budget"]["points_consumed"] == 1044

    def test_fermat_ideal_reaches_level_six(self, monkeypatch):
        # (f) + J_f^2 reads grad f at level ceil(m/2): m = 6 charges 4 * 5^9
        # points, where the pair-product grid refused m = 4 (7 * 5^12)
        monkeypatch.delenv("IGUSA_BUDGET", raising=False)
        argv = ["zeta", "--poly", "x1^3+x2^3+x3^3", "--p", "5", "--ideal", "f+jf2", "--max-m"]
        code, report = run_cli(argv + ["6"])
        assert code == EXIT_OK
        assert [e["count"] for e in report["result"]["entries"]] == [
            1, 1, 125, 15625, 390625, 1953125, 244140625]
        code, report = run_cli(argv + ["7"])
        assert code == EXIT_BUDGET
        assert report["error"]["message"].startswith("zero-count enumeration needs 976562500 points")

    def test_zeta_squared_jacobian_ideal(self):
        code, report = run_cli(
            ["zeta", "--poly", "x1^2", "--p", "3", "--max-m", "2", "--ideal", "jf2"]
        )
        assert code == EXIT_OK
        assert report["result"]["kind"] is CountKind.order_ge_ideal

    def test_squared_jacobian_counts_past_the_int64_modulus(self):
        # J_f^2 reads grad f mod p^k alone, k = ceil(m/2), so the modulus is
        # 2^16 at m = 31: it was counted mod p^m and refused from 2^31 on
        argv = ["zeta", "--poly", "x1^2", "--p", "2", "--max-m", "31", "--ideal"]
        code, report = run_cli(argv + ["jf2"])
        assert code == EXIT_OK
        assert [e["count"] for e in report["result"]["entries"][1:]] == [
            2 ** (m - (m + 1) // 2 + 1) for m in range(1, 32)]
        code, report = run_cli(argv + ["f+jf2"])  # f is still read mod p^m
        assert code == EXIT_PRECONDITION
        assert report["error"]["message"] == "modulus 2147483648 too large for the int64 kernel"

    def test_zeta_combined_ideal(self):
        code, report = run_cli(
            ["zeta", "--poly", "x1^2+x2^3", "--p", "2", "--max-m", "2", "--ideal", "f+jf2"]
        )
        assert code == EXIT_OK
        entries = report["result"]["entries"]
        # order >= m for f and all squared-gradient products together is at
        # least as restrictive as for f alone
        code2, plain = run_cli(["zeta", "--poly", "x1^2+x2^3", "--p", "2", "--max-m", "2"])
        assert code2 == EXIT_OK
        for row, base in zip(entries[1:], plain["result"]["entries"][1:]):
            assert row["count"] <= base["count"]

    def test_geometry(self):
        code, report = run_cli(["geometry", "--poly", "x1^2*x2", "--primes", "5,7,11,13"])
        assert code == EXIT_OK
        assert report["result"]["s"] == 1
        assert report["result"]["s_provenance"] == "fitted"
        assert report["result"]["exponents"].sigma_theorem == Fraction(1, 4)

    def test_geometry_empty_prime_list(self):
        # an empty --primes used to reach estimate_s as None: a TypeError traceback
        code, report = run_cli(["geometry", "--poly", "x1^2", "--primes", ""])
        assert code == EXIT_PRECONDITION
        assert "at least 3 primes" in report["error"]["message"]

    def test_geometry_override(self):
        code, report = run_cli(
            ["geometry", "--poly", "x1^2+x2^2", "--primes", "5,7,11", "--s", "1"]
        )
        assert code == EXIT_OK
        assert report["result"]["s"] == 1
        assert report["result"]["s_provenance"] == "override"

    def test_verify(self):
        code, report = run_cli(
            ["verify", "--poly", "x1^3+x2^3", "--primes", "7,11", "--max-m", "4"]
        )
        assert code == EXIT_OK
        assert len(report["result"]["fits"]) == 2

    def test_verify_enumerates_each_level_one_once(self, monkeypatch, empty_store):
        # level 1's spectrum is kept for the sums, and levels 4 and 7 read
        # its atoms through the fiber over 0, which is the Fermat cubic itself
        grids, histogram = [], enumeration.residue_histogram
        monkeypatch.setattr(enumeration, "residue_histogram", lambda *a: grids.append(a[1:]) or histogram(*a))
        argv = ["verify", "--poly", "x1^3+x2^3+x3^3", "--primes", "5,7,11", "--max-m", "7", "--s", "0"]
        code, report = run_cli(argv)
        assert code == EXIT_OK and report["budget"]["points_consumed"] == 53970
        assert grids == [(5, 5), (7, 7), (11, 11)]

    @pytest.mark.parametrize("primes", ["5,5,7", "5,7,7,5"])
    def test_verify_fits_s_on_distinct_primes(self, primes):
        # repeated primes used to count towards the three that s is fitted
        # on, so these exited 1 with "need at least 3 primes, got 2"
        argv = ["verify", "--poly", "x1^3+x2^3", "--max-m", "3", "--primes"]
        code, report = run_cli(argv + [primes])
        want = run_cli(argv + ["5,7"])[1]
        assert code == EXIT_OK
        assert report["params"]["s"] == want["params"]["s"]
        assert report["result"]["fits"] == want["result"]["fits"]

    def test_verify_violation_exit_code(self):
        from expsums.cli import EXIT_VERIFY_FAILED

        # a vanishing slack turns every nonzero sample into a violation
        code, report = run_cli(
            ["verify", "--poly", "x1^2", "--primes", "5", "--max-m", "2",
             "--s", "0", "--slack", "1e-9"]
        )
        assert code == EXIT_VERIFY_FAILED
        assert report["result"]["violations"] is True

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_slack_is_a_precondition(self, value):
        # nan and inf used to run the whole check into a traceback
        code, report = run_cli(
            ["verify", "--poly", "x1^2", "--primes", "5", "--max-m", "2", "--slack", value]
        )
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        assert "slack" in report["error"]["message"]

    def test_max_units_is_the_exact_supremum(self):
        # four random units used to read 0.276 at --seed 0 and 0.724 at --seed 7
        argv = ["verify", "--poly", "x1^3+x1", "--primes", "5", "--max-m", "3"]
        data = [serialize_report(run_cli(argv + ["--max-units", "--seed", seed])[1])
                for seed in ("0", "7")]
        assert data[0] == data[1]
        report = json.loads(data[0])
        assert report["params"]["max_units"] is True
        assert report["result"]["fits"][0]["samples"][0] == [1, 0.72360679774997894]
        report = run_cli(argv)[1]  # the unit a = 1
        assert report["params"]["max_units"] is False
        assert report["result"]["fits"][0].samples[0] == (1, 0.27639320225002101)

    @pytest.mark.parametrize("extra, want, what", [
        (["--primes", "5", "--budget", "124"], EXIT_BUDGET, "unit spectrum needs 125 points"),
        (["--primes", "6"], EXIT_PRECONDITION, "6 is not prime"),
    ])
    def test_max_units_refusals(self, extra, want, what):
        argv = ["verify", "--poly", "x1^2", "--max-m", "3", "--s", "0"] + extra
        if want == EXIT_BUDGET:  # the sums alone fit the budget
            assert run_cli(argv)[0] == EXIT_OK
        code, report = run_cli(argv + ["--max-units"])
        assert code == want
        assert what in report["error"]["message"]

    def test_verify_self_test(self):
        code, report = run_cli(["verify", "--self-test", "--seed", "0"])
        assert code == EXIT_OK
        assert report["result"]["failures"] == 0
        assert report["result"]["cells"] > 10

    def test_verify_without_poly_refused(self):
        # parse_polynomial(None) used to end in a TypeError traceback
        code, report = run_cli(["verify", "--primes", "5", "--max-m", "2"])
        assert code == EXIT_PRECONDITION
        assert report["error"] == {"code": "PRECONDITION", "message": "verify requires --poly"}

    def test_self_test_with_bad_poly_is_a_parse_error(self, monkeypatch):
        # the whole self-test used to run, then the report's parse raised uncaught
        def no_work(cfg):
            raise AssertionError("the self-test ran")

        monkeypatch.setattr(cli, "_self_test", no_work)
        code, report = run_cli(["verify", "--self-test", "--poly", "x1+"])
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["offset"] == 4

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=3\nm=2\na=1\n")
        code, report = run(
            build_config(["--config", str(cfg), "sum", "--poly", "x1^2"])
        )
        assert code == EXIT_OK
        assert report["params"]["p"] == 3

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=5\n")
        code, report = run(
            build_config(["--config", str(cfg), "sum", "--poly", "x1^2",
                          "--p", "3", "--m", "2", "--a", "1"])
        )
        assert code == EXIT_OK
        assert report["params"]["p"] == 3


    @pytest.mark.parametrize("raw, want", [("false", False), ("true", True)])
    def test_config_file_store_true_flags(self, tmp_path, raw, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"max-units={raw}\nself-test={raw}\n")
        assert build_config(["--config", str(cfg), "verify"]).max_units is want
        assert build_config(["--config", str(cfg), "verify"]).self_test is want
        cfg.write_text(f"crosscheck={raw}\n")
        zeta = build_config(["--config", str(cfg), "zeta", "--poly", "x1", "--p", "3", "--max-m", "1"])
        assert zeta.crosscheck is want


def _long_flags(parser):
    """The long-flag actions of a parser, --help left out."""
    return [a for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _sample(action):
    """A valid value for the flag that differs from its default."""
    if action.choices:
        return action.choices[-1]
    return {int: "3", float: "0.5"}.get(action.type, "5,7")


class TestConfigFile:
    SUM = ["sum", "--poly", "x1^2", "--p", "3", "--m", "2", "--a", "1"]
    ZETA = ["zeta", "--poly", "x1^2", "--p", "3", "--max-m", "2"]

    @pytest.mark.parametrize("line, argv", [
        ("method=foo", SUM), ("ideal=foo", ZETA), ("format=xml", SUM),
    ])
    def test_value_outside_choices_exits_1(self, tmp_path, monkeypatch, capsys, line, argv):
        # these used to run: method=foo as pruned under the label "foo",
        # ideal=foo as J_f^2, and format=xml into a traceback after the run
        def no_run(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "run", no_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg)] + argv) == EXIT_PRECONDITION
        assert "expected one of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_subparsers(_build_parser())))
    def test_every_key_matches_its_flag(self, tmp_path, command):
        actions = _long_flags(_subparsers(_build_parser())[command])
        base = [command] + [x for a in actions if a.required for x in (a.option_strings[0], _sample(a))]
        cfg = tmp_path / "run.cfg"

        def settings(argv):
            return {k: v for k, v in vars(build_config(argv)).items() if k != "config"}

        for action in actions:
            if action.required:
                continue
            flag = action.option_strings[0]
            if isinstance(action, argparse._StoreTrueAction):
                raw, given = "true", [flag]
            else:
                raw = _sample(action)
                given = [flag, raw]
            cfg.write_text(f"{flag[2:]}={raw}\n")
            by_flag = settings(base + given)
            assert by_flag != settings(base), flag
            assert settings(["--config", str(cfg)] + base) == by_flag, flag

    def test_readme_synopsis_names_every_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        parser = _build_parser()
        commands = _subparsers(parser)
        sections = dict.fromkeys(commands, "")
        shared, command = "", None
        for line in block.splitlines():
            if line.startswith("expsums "):
                command = line.split()[1]
            if command in sections:
                sections[command] += line + "\n"
            else:  # the line of flags every command takes
                shared += line + "\n"

        def named(flag, text):
            return re.search(re.escape(flag) + r"(?![\w-])", text) is not None

        for action in _long_flags(parser):
            assert named(action.option_strings[0], shared)
        for name, sp in commands.items():
            flags = {a.option_strings[0] for a in _long_flags(sp)}
            for flag in flags:
                assert named(flag, sections[name]) or named(flag, shared), (name, flag)
            for flag in re.findall(r"--[\w-]+", sections[name]):
                assert flag in flags, (name, flag)


class TestCircleInputs:
    ARGS = {"--B": "8", "--delta": "0.25", "--center": "0.5,0.25"}

    def _argv(self, **override):
        args = {**self.ARGS, **override}
        return ["circle", "--poly", "x1^2-x2^2", "--rho", "0.5"] + [x for kv in args.items() for x in kv]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--B", "--delta", "--center"])
    def test_non_finite_input_is_a_precondition(self, flag, value):
        if flag == "--center":
            value += ",0.25"
        code, report = run_cli(self._argv(**{flag: value}))
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        assert "finite" in report["error"]["message"]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_quad_tol_is_a_precondition(self, value):
        # 0 used to run at the default 1e-6; -1 and nan climbed the whole ladder
        code, report = run_cli(self._argv(**{"--quad-tol": value}))
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        assert "quadrature tolerance" in report["error"]["message"]

    def test_overflowing_B_power_is_a_precondition(self):
        # B**delta raised an uncaught OverflowError
        code, report = run_cli(self._argv(**{"--delta": "1000"}))
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        assert "overflows" in report["error"]["message"]

    @pytest.mark.parametrize("flag, value", [("--delta", "12"), ("--R-series", "100000000000")])
    def test_series_cutoff_above_the_budget_refused(self, flag, value):
        # the series built an (R + 1)-entry list and sieved up to R unchecked
        code, report = run_cli(self._argv(**{flag: value}))
        assert code == EXIT_BUDGET
        assert report["error"]["message"].startswith("singular series needs")

    def test_coefficient_past_the_float_range_is_a_precondition(self):
        # J(R)'s float(c) raised an uncaught OverflowError after the series ran
        argv = ["circle", "--poly", "10^400*x1^2+x2^2-x3^2", "--B", "4", "--delta", "0.25",
                "--rho", "0.5", "--center", "0.5,0.25,0"]
        code, report = run_cli(argv)
        assert code == EXIT_PRECONDITION
        assert report["error"]["message"] == "coefficient too large for the float quadrature"
        assert report["error"]["code"] == "PRECONDITION"

    def test_sinc_overflow_refused_before_the_series(self, monkeypatch):
        # the series ran first; J(R)'s 2 pi R f then overflowed and the ladder
        # climbed on inf/nan values to QUADRATURE_DIVERGED
        calls = []
        monkeypatch.setattr(circle, "singular_series", lambda *args: calls.append(args))
        argv = ["circle", "--poly", "10^308*x1^2+x2^2-x3^2", "--B", "4", "--delta", "0.25",
                "--rho", "0.5", "--center", "0.5,0.25,0"]
        code, report = run_cli(argv)
        assert code == EXIT_PRECONDITION
        assert report["error"]["code"] == "PRECONDITION"
        assert "may overflow a float" in report["error"]["message"]
        assert calls == []

    def test_shaky_dimension_fit_is_warned(self):
        # s = 0 fitted with residual 0.727 on the default primes, silently
        argv = ["circle", "--poly", "(x1^2+x2^2)^2+x3^4", "--B", "6", "--delta", "0.25",
                "--rho", "0.5", "--center", "0.5,0.25,0.1"]
        code, report = run_cli(argv)
        assert code == EXIT_OK
        assert report["result"]["s_provenance"] == "fitted"
        assert report["result"]["report"].warnings[-1] == "dimension fit residual 0.727 exceeds 0.15"

    def test_six_variables_refused_before_the_series(self):
        # the series ran first and exited 2 on its enumerations
        argv = ["circle", "--poly", "x1^2+x2^2+x3^2+x4^2+x5^2-x6^2", "--B", "10000",
                "--delta", "0.5", "--rho", "0.5", "--center", "0.1,0,0,0,0,0.1"]
        code, report = run_cli(argv)
        assert code == EXIT_PRECONDITION
        assert "n <= 5" in report["error"]["message"]

    @pytest.mark.parametrize("extra, needed", [
        (["--R-series", "1000"], 997**3),
        (["--R-series", "400", "--budget", "6600"], 397**3),
    ], ids=["zero-count", "budget-6600"])
    def test_series_prime_grid_above_the_budget_refused_at_once(self, extra, needed):
        # the series used to enumerate every smaller prime first (11.6 s for R = 1000);
        # the largest prime p <= R comes first, and p^2 > R makes its grid a zero count
        argv = ["circle", "--poly", "x1^2-x2^2+x3^2", "--B", "8", "--delta", "0.25",
                "--rho", "0.5", "--center", "0.5,0.25,0"] + extra
        budget = 6600 if "--budget" in extra else enumeration.DEFAULT_BUDGET
        started = time.monotonic()
        code, report = run_cli(argv)
        assert time.monotonic() - started < 1.0
        assert code == EXIT_BUDGET
        assert serialize_report(report) == serialize_report({"error": {
            "code": "BUDGET_EXCEEDED",
            "message": f"zero-count enumeration needs {needed} points, budget is {budget}",
            "needed": needed, "budget": budget}})

    def test_negative_first_center_coordinate(self, capsys):
        argv = self._argv()[:-2]
        with pytest.raises(SystemExit):  # argparse reads "-0.5,0.25" as an option
            build_config(argv + ["--center", "-0.5,0.25"])
        assert "expected one argument" in capsys.readouterr().err
        code, report = run_cli(argv + ["--center=-0.5,0.25"])
        assert code == EXIT_OK
        assert report["params"]["center"] == [-0.5, 0.25]


@pytest.mark.parametrize("poly, centre", [
    ("x1^2+x2^2+x3^2-x4^2", "0.5,0.25,0.3,0.4"),
    ("x1^3+x2^3-x3^3", "0.5,0.25,0.3"),
], ids=["unmirrored", "cubic"])
def test_circle_bytes_equal_across_worker_counts(poly, centre, monkeypatch):
    # c11 covers the mirrored quadric only; one chunk per axis-0 value puts
    # J(R)'s grids, the lattice walk (the fiber solver, then the general
    # path) and the series' zero counts on two threads
    box_chunks, chunk_counts = enumeration._box_chunks, []

    def counted_chunks(sizes):
        chunks = box_chunks(sizes)
        chunk_counts.append(len(chunks))
        return chunks

    monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1)
    monkeypatch.setattr(enumeration, "_box_chunks", counted_chunks)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["circle", "--poly", poly, "--B", "12", "--delta", "0.25", "--rho", "0.6",
            "--center", centre]
    out = []
    for workers in ("1", "2"):
        monkeypatch.setenv("IGUSA_WORKERS", workers)
        code, report = run_cli(argv)
        assert code == EXIT_OK
        out.append(serialize_report(report))
    assert min(chunk_counts) > 1
    assert out[0] == out[1]


ONE_OF_EACH = [
    ["sum", "--poly", "x1^2", "--p", "3", "--m", "2", "--a", "1"],
    ["zeta", "--poly", "x1^2", "--p", "3", "--max-m", "2"],
    ["geometry", "--poly", "x1^2+x2^2", "--primes", "5,7,11"],
    ["circle", "--poly", "x1^2-x2^2", "--B", "8", "--delta", "0.25", "--rho", "0.5",
     "--center", "0.5,0.25"],
    ["verify", "--poly", "x1^2", "--primes", "5", "--max-m", "2", "--s", "0"],
    ["verify", "--self-test", "--poly", "x1^2"],
]


@pytest.mark.parametrize("argv", ONE_OF_EACH,
                         ids=["sum", "zeta", "geometry", "circle", "verify", "self-test"])
def test_poly_parsed_once_per_run(monkeypatch, argv):
    # run used to parse --poly again for report["poly"]
    calls = []

    def counting(text):
        calls.append(text)
        return parse_polynomial(text)

    monkeypatch.setattr(cli, "parse_polynomial", counting)
    code, report = run_cli(argv)
    assert code == EXIT_OK
    assert calls == [argv[argv.index("--poly") + 1]]
    assert report["poly"] == parse_polynomial(calls[0]).render()


def test_unknown_command_is_a_precondition():
    cfg = argparse.Namespace(command="nope", budget=None, poly_text="x1")
    assert run(cfg) == (EXIT_PRECONDITION, {
        "error": {"code": "PRECONDITION", "message": "unknown command 'nope'"}})


class TestSerialization:
    def test_exponent_sheet_rationals(self):
        sheet = exponent_sheet(5, 2, 0)
        text = dumps_json(sheet)
        data = json.loads(text)
        assert data["sigma_theorem"] == {"num": 5, "den": 2}

    def test_empty_count_table(self):
        table = CountTable(p=3, entries=[], kind=CountKind.zeros_of_f)
        data = json.loads(dumps_json(table))
        assert data["entries"] == []

    def test_circle_report_round_trip(self):
        rep = CircleMethodReport(
            B=40.0, delta=0.25, R=40.0**0.25, R_series=3,
            S_truncated=1.0, J_truncated=0.127051, direct_count=10819.438,
            prediction=8131.29, ratio=1.3306, trusted=True, warnings=[],
        )
        data = json.loads(serialize_report(rep))
        rebuilt = CircleMethodReport(**{**data, "warnings": list(data["warnings"])})
        assert to_jsonable(rebuilt) == to_jsonable(rep)

    def test_float_17_digits(self):
        text = dumps_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_negative_zero_round_trips(self):
        # "-0" would read back as the int 0 and lose the sign
        x = json.loads(dumps_json({"x": -0.0}))["x"]
        assert isinstance(x, float) and math.copysign(1.0, x) == -1.0
        assert "x,-0.0" in dumps_csv({"x": -0.0}).splitlines()
        assert dumps_json({"x": 0.0}) == '{\n  "x": 0\n}\n'  # positive zero keeps its bytes

    def test_csv_header_and_paths(self):
        text = dumps_csv({"a": {"b": [1, 2]}, "c": None})
        lines = text.strip().splitlines()
        assert lines[0] == "key,value"
        assert "a.b[0],1" in lines
        assert "c," in lines

    def test_determinism_same_config(self):
        args = ["sum", "--poly", "x1^2+x2^2", "--p", "3", "--m", "3", "--a", "2"]
        _, rep1 = run_cli(args)
        _, rep2 = run_cli(args)
        assert serialize_report(rep1) == serialize_report(rep2)

    def test_determinism_across_worker_counts(self):
        args = ["sum", "--poly", "x1^2+x2^2", "--p", "5", "--m", "3", "--a", "1",
                "--method", "naive"]
        old = os.environ.get("IGUSA_WORKERS")
        try:
            os.environ["IGUSA_WORKERS"] = "1"
            _, rep1 = run_cli(args)
            os.environ["IGUSA_WORKERS"] = "4"
            _, rep2 = run_cli(args)
        finally:
            if old is None:
                os.environ.pop("IGUSA_WORKERS", None)
            else:
                os.environ["IGUSA_WORKERS"] = old
        assert serialize_report(rep1) == serialize_report(rep2)


class TestMainEntry:
    def test_stdout_json(self, capsys):
        code = main(["sum", "--poly", "x1", "--p", "5", "--m", "1", "--a", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == "sum"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["sum", "--poly", "x1", "--p", "5", "--m", "1", "--a", "1",
                     "--out", str(target)])
        assert code == EXIT_OK
        assert json.loads(target.read_text())["command"] == "sum"
        assert capsys.readouterr().out == ""

    def test_csv_format(self, capsys):
        code = main(["sum", "--poly", "x1", "--p", "5", "--m", "1", "--a", "1",
                     "--format", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "key,value"

    # the second enumerates nothing, so only the settings check can refuse it
    SUMS = (["sum", "--poly", "x1^2+x2^2", "--p", "5", "--m", "2", "--a", "1"],
            ["sum", "--poly", "x1", "--N", "1", "--a", "1"])

    def _refused(self, argv, capsys):
        code = main(argv)
        error = json.loads(capsys.readouterr().out)["error"]
        return code, error["code"]

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_igusa_workers_below_one_exits_1(self, monkeypatch, capsys, value):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setenv("IGUSA_WORKERS", value)
        monkeypatch.setattr(enumeration, "ThreadPoolExecutor", no_pool)
        for argv in self.SUMS:
            assert self._refused(argv, capsys) == (EXIT_PRECONDITION, "PRECONDITION"), argv

    @pytest.mark.parametrize("flag, env", [("0", None), (None, "0"), (None, "abc")],
                             ids=["flag-0", "env-0", "env-abc"])
    def test_budget_below_one_exits_1(self, monkeypatch, capsys, flag, env):
        if env is None:
            monkeypatch.delenv("IGUSA_BUDGET", raising=False)
        else:
            monkeypatch.setenv("IGUSA_BUDGET", env)
        extra = [] if flag is None else ["--budget", flag]
        for argv in self.SUMS:
            assert self._refused(argv + extra, capsys) == (EXIT_PRECONDITION, "PRECONDITION"), argv

    @pytest.mark.parametrize("name, value", [("IGUSA_WORKERS", "abc"), ("IGUSA_WORKERS", "1.5"),
                                             ("IGUSA_BUDGET", "1e6")])
    def test_non_integer_setting_is_named(self, monkeypatch, capsys, name, value):
        monkeypatch.setenv(name, value)
        for argv in self.SUMS:
            assert main(argv) == EXIT_PRECONDITION, argv
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["message"] == f"{name} must be an integer, got '{value}'"

    @pytest.mark.parametrize("argv, want", [
        (["sum", "--poly", "x1", "--p", "5", "--m", "1", "--a", "1"], EXIT_OK),
        (["sum", "--poly", "x1+x2", "--p", "5", "--m", "2", "--a", "1", "--method", "naive"],
         EXIT_BUDGET),
    ], ids=["ok", "budget-exceeded"])
    def test_run_budget_does_not_outlive_the_run(self, monkeypatch, argv, want):
        monkeypatch.delenv("IGUSA_BUDGET", raising=False)
        code, report = run_cli(argv + ["--budget", "10"])
        assert code == want
        assert (report["budget"]["limit"] if code == EXIT_OK else report["error"]["budget"]) == 10
        hist = enumeration.residue_histogram(Polynomial(2, {(1, 0): 1}), 5, 5)  # 25 points
        assert hist.tolist() == [5] * 5
        assert enumeration.enumeration_budget() == enumeration.DEFAULT_BUDGET

    def test_igusa_budget_env(self, capsys):
        old = os.environ.get("IGUSA_BUDGET")
        try:
            os.environ["IGUSA_BUDGET"] = "50"
            code = main(["sum", "--poly", "x1+x2", "--p", "5", "--m", "2", "--a", "1",
                         "--method", "naive"])
        finally:
            if old is None:
                os.environ.pop("IGUSA_BUDGET", None)
            else:
                os.environ["IGUSA_BUDGET"] = old
        assert code == EXIT_BUDGET
