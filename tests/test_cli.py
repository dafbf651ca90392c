"""CLI surface: polynomial parsing, report schema, subcommands, exit codes."""

import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import irreducia
from irreducia.cli import (
    EXIT_ERROR,
    EXIT_NO_CONCLUSION,
    EXIT_OK,
    EXIT_SOUNDNESS,
    main,
    render_coeff_list,
    render_factorization,
    report_to_dict,
    report_to_json,
)
from irreducia import corpus, criteria
from irreducia.criteria import AnalyzeConfig, Conclusion, CriterionOutcome, analyze
from irreducia.oracle import factor
from irreducia.poly import MAX_INPUT_DEGREE, Polynomial, PolyParseError, parse_poly
from irreducia.rootloc import CertificateMode


needs_int_str_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-string digit limit"
)


class TestParsePoly:
    def test_list_format(self):
        assert parse_poly("4,4,0,1") == Polynomial([4, 4, 0, 1])

    def test_sparse_format(self):
        assert parse_poly("z^3+4z+4") == Polynomial([4, 4, 0, 1])
        assert parse_poly("z^3 + 4*z + 4") == Polynomial([4, 4, 0, 1])

    def test_duplicate_powers_summed(self):
        assert parse_poly("2z^2 - z^2") == Polynomial([0, 0, 1])

    def test_unary_minus_and_bare_terms(self):
        assert parse_poly("-z^4 + z - 7") == Polynomial([-7, 1, 0, 0, -1])
        assert parse_poly("z") == Polynomial([0, 1])
        assert parse_poly("-3") == Polynomial([-3])

    def test_whitespace_insensitive(self):
        assert parse_poly("  z ^ 2 ".replace(" ", "")) == parse_poly("z^2")
        assert parse_poly(" 1 , 2 , 3 ") == Polynomial([1, 2, 3])

    def test_spaces_and_stars_between_tokens(self):
        assert parse_poly("2 z") == Polynomial([0, 2])
        assert parse_poly("4*z^2") == Polynomial([0, 0, 4])
        assert parse_poly("z ^ 2") == Polynomial([0, 0, 1])
        assert parse_poly(" 1 , 2 ") == Polynomial([1, 2])

    @pytest.mark.parametrize("text", ["z^2*3", "2*3", "z^1 0 + 3", "1 2z"])
    def test_digits_split_by_space_or_star_rejected(self, text):
        # once spaces and stars were dropped these read as z^23, 23, z^10 + 3
        # and 12z
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert str(info.value) == f"digits split by a space or '*' in {text!r}"

    def test_empty_rejected(self):
        with pytest.raises(PolyParseError, match="empty"):
            parse_poly("   ")

    def test_malformed_rejected(self):
        for bad in ("z^", "2x+1", "1,,2", "z**2", "++", "3^2"):
            with pytest.raises(PolyParseError):
                parse_poly(bad)

    def test_degree_above_maximum_rejected(self):
        top = MAX_INPUT_DEGREE
        assert parse_poly(f"z^{top} + 1").degree == top
        assert parse_poly(",".join(["1"] * (top + 1))).degree == top
        for text in (f"z^{top + 1} + 1", f"1 + z^{top + 1} - z^{top + 1}",
                     ",".join(["1"] * (top + 2)), "z^1000000000"):
            with pytest.raises(PolyParseError, match="above the maximum"):
                parse_poly(text)

    def test_exponent_digits_checked_before_conversion(self):
        # an exponent past Python's int-to-str digit limit is refused by its
        # digit count, before int() sees it; leading zeros do not count
        assert parse_poly(f"z^{MAX_INPUT_DEGREE:0>4301}").degree == MAX_INPUT_DEGREE
        with pytest.raises(PolyParseError) as info:
            parse_poly("z^" + "9" * 4301)
        assert str(info.value) == f"degree of 4301 digits above the maximum {MAX_INPUT_DEGREE}"

    @needs_int_str_limit
    def test_coefficient_above_int_str_limit_rejected(self):
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        assert parse_poly(f"{nines}z + 1").coeffs == (1, int(nines))
        for text, power, digits in (
            (f"9{nines}z + 1", 1, limit + 1),  # a literal
            (f"1,2,-9{nines}", 2, limit + 1),
            (f"{nines}z + {nines}z", 1, limit + 1),  # a sum of literals
            (f"{nines}z + 1 + {nines}z", 1, limit + 1),
        ):
            with pytest.raises(PolyParseError) as info:
                parse_poly(text)
            assert str(info.value).startswith(f"coefficient of z^{power} has {digits} digits")
            assert len(str(info.value)) < 200

    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=8))
    def test_render_parse_round_trip(self, coeffs):
        f = Polynomial(coeffs)
        assert parse_poly(f.to_sparse_string()) == f
        if not f.is_zero():
            assert parse_poly(render_coeff_list(f)) == f


class TestReportJson:
    def test_stable_keys_and_strings(self):
        report = analyze(parse_poly("z^3+4z+4"))
        d = report_to_dict(report)
        assert list(d) == [
            "schema", "input", "normalization", "outcomes", "strongest",
            "oracle", "warnings",
        ]
        assert d["schema"] == "irreducia/1"
        assert d["input"]["coeffs"] == ["4", "4", "0", "1"]
        assert d["normalization"] == {"content": "1", "zPower": 0}
        assert d["strongest"]["criterion"] == "eisenstein_generalized"
        assert d["strongest"]["conclusion"] == {"kind": "Irreducible"}
        assert d["strongest"]["witnesses"] == {"p": "2", "k": "2", "j": "3"}
        assert all(isinstance(w["coeffs"], list) for w in d["oracle"]["factors"])

    def test_round_trip_byte_identical(self):
        for text in ("z^3+4z+4", "z^4-1", "50,5,1", "0,8,4"):
            report = analyze(parse_poly(text))
            blob = report_to_json(report)
            assert json.dumps(json.loads(blob), indent=2) == blob

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_applicable_is_whether_the_conclusion_fired(self, mode):
        config = AnalyzeConfig(root_mode=CertificateMode(mode), oracle="off")
        fired = 0
        for f in [*list(corpus.gen_exhaustive(4, 4))[::40], parse_poly("z^2-4z+4")]:
            for o in report_to_dict(analyze(f, config))["outcomes"]:
                assert o["applicable"] is (o["conclusion"]["kind"] != "NoConclusion")
                fired += o["applicable"]
        assert fired > 0

    def test_no_oracle_key_when_disabled(self):
        report = analyze(parse_poly("z^2+z+1"), AnalyzeConfig(oracle="off"))
        assert "oracle" not in report_to_dict(report)


class TestRenderFactorization:
    def test_reference_output(self):
        assert render_factorization(factor(parse_poly("6z^2+5z+1"))) == "(2z+1)(3z+1)"

    def test_bare_z(self):
        assert render_factorization(factor(parse_poly("z"))) == "(z)"

    def test_content_and_multiplicity(self):
        f = Polynomial([0, 0, -4, -8, -4])
        assert render_factorization(factor(f)) == "-4(z)^2(z+1)^2"


class TestExitCodes:
    def test_analyze_conclusive(self, capsys):
        assert main(["analyze", "--poly", "z^3+4z+4", "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["strongest"]["conclusion"]["kind"] == "Irreducible"

    def test_analyze_inconclusive(self, capsys):
        assert main(["analyze", "--poly", "z^4-1"]) == EXIT_NO_CONCLUSION
        assert "3 irreducible factors" in capsys.readouterr().out

    def test_poly_with_leading_minus(self, capsys):
        # 1 - z^2 = (1-z)(1+z): no criterion concludes, so exit 3, not 2
        assert main(["analyze", "--poly", "-z^2+1", "--format", "json"]) == EXIT_NO_CONCLUSION
        out = json.loads(capsys.readouterr().out)
        assert out["input"]["coeffs"] == ["1", "0", "-1"]
        assert main(["analyze", "--poly", "-z^3-4z-4"]) == EXIT_OK
        assert "strongest: Irreducible" in capsys.readouterr().out
        assert main(["factor", "--poly", "-1,0,1"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("(z-1)(z+1)")

    def test_analyze_empty_input(self, capsys):
        assert main(["analyze", "--poly", ""]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_analyze_split_digits_is_input_error(self, capsys):
        assert main(["analyze", "--poly", "z^1 0 + 3"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: digits split by a space or '*' in 'z^1 0 + 3'\n"
        )

    def test_analyze_degree_above_maximum(self, capsys):
        assert main(["analyze", "--poly", "z^1000000000"]) == EXIT_ERROR
        assert "above the maximum" in capsys.readouterr().err

    @needs_int_str_limit
    @pytest.mark.parametrize("form", ["{n}z + 1", "1,{n}"])
    def test_analyze_coefficient_above_int_str_limit(self, capsys, form):
        n = "9" * (sys.get_int_max_str_digits() + 1)
        assert main(["analyze", "--poly", form.format(n=n)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: coefficient of z^1 has {len(n)} digits")
        assert len(err) < 200 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["9" * 5000 + "x", "1," + "9" * 3000 + "x",
                                      "z^" + "9" * 4301])
    def test_analyze_long_bad_input_is_not_echoed(self, capsys, text):
        assert main(["analyze", "--poly", text]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.encode()) < 200 and "Traceback" not in err

    def test_analyze_numeric_float_overflow(self, capsys):
        # a_0 / a_m = 10^400 has no float value: the disk criteria that need
        # roots give no conclusion and say why, with no traceback
        code = main(["analyze", "--poly", "1" + "0" * 400 + ",1,1",
                     "--root-mode", "numeric", "--oracle", "off", "--format", "json"])
        assert code in (EXIT_OK, EXIT_NO_CONCLUSION)
        out = json.loads(capsys.readouterr().out)
        outcomes = {o["criterion"]: o["conclusion"]["kind"] for o in out["outcomes"]}
        assert outcomes["constant_term"] == "NoConclusion"
        assert "constant_term: no conclusion: root iteration did not converge " \
               "(best residual inf)" in out["warnings"]

    def test_analyze_numeric_widely_scaled_quadratic(self, capsys):
        # roots near -10 and 10^10 + 10: the disk criteria read them without
        # a root-iteration warning
        code = main(["analyze", "--poly", "z^2-10000000000z-100000000000",
                     "--root-mode", "numeric", "--oracle", "off", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["warnings"] == []

    def test_analyze_numeric_degree_1000_is_bounded(self, capsys):
        rng = random.Random(1000)
        coeffs = [rng.randint(-10, 10) for _ in range(1001)]
        coeffs[0], coeffs[-1] = coeffs[0] or 1, coeffs[-1] or 1
        start = time.perf_counter()
        code = main(["analyze", "--poly", ",".join(map(str, coeffs)),
                     "--root-mode", "numeric", "--oracle", "off", "--format", "json"])
        assert time.perf_counter() - start < 10.0
        assert code in (EXIT_OK, EXIT_NO_CONCLUSION)
        assert not any("did not converge" in w
                       for w in json.loads(capsys.readouterr().out)["warnings"])

    def test_analyze_oracle_limit(self, capsys):
        # 10^9 + z + z^2 is above the oracle's coefficient bound: auto skips
        # the oracle and says why, on makes it an input error
        assert main(["analyze", "--poly", "1000000000,1,1", "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert "oracle" not in out
        assert out["warnings"] == ["oracle skipped: oracle limit: coefficient magnitude"]
        code = main(["analyze", "--poly", "1000000000,1,1", "--oracle", "on"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: oracle limit: coefficient magnitude\n"

    def test_analyze_constant_primitive_part(self, capsys):
        assert main(["analyze", "--poly", "6z^2"]) == EXIT_NO_CONCLUSION
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "warning: primitive part is constant; criteria skipped"

    def test_analyze_text_strongest_and_warning(self, capsys):
        assert main(["analyze", "--poly", "2z^3 - z^2 - 3z"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "strongest: AtMostFactors(2) via dominant_coefficient" in lines
        assert lines[-1] == ("warning: input splits as content * z^1 * primitive part; "
                             "add 1 to any factor-count bound for the original input")

    def test_analyze_empty_criteria_list(self, capsys):
        assert main(["analyze", "--poly", "z+1", "--criteria", ","]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: empty criteria list\n"

    def test_analyze_unknown_criterion(self, capsys):
        assert main(["analyze", "--poly", "z+1", "--criteria", "bogus"]) == EXIT_ERROR
        # the --criteria help does not list the names, so the error does
        err = capsys.readouterr().err
        assert "unknown criteria: bogus (known: " in err
        assert all(name in err for name in criteria.CRITERIA)

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["analyze", "--poly", "z+1", "--format", "xml"],
        ["factor", "--poly", "z+1", "--max-degree", "x"],
        [],
    ])
    def test_usage_error_is_input_error(self, capsys, argv):
        # argparse's own exit code 2 would read as audit violations
        assert main(argv) == EXIT_ERROR
        assert "usage: irreducia" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--criteria" in capsys.readouterr().out

    def test_analyze_criteria_subset(self, capsys):
        code = main([
            "analyze", "--poly", "z^3+4z+4",
            "--criteria", "perron_nonmonic", "--format", "json",
        ])
        assert code == EXIT_NO_CONCLUSION
        out = json.loads(capsys.readouterr().out)
        assert [o["criterion"] for o in out["outcomes"]] == ["perron_nonmonic"]

    def test_analyze_repeated_criterion_reported_once(self, capsys):
        argv = ["analyze", "--poly", "z^3+4z+4",
                "--criteria", "eisenstein_generalized,eisenstein_generalized"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.split()[0] == "eisenstein_generalized" for line in lines) == 1
        assert main([*argv, "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert [o["criterion"] for o in out["outcomes"]] == ["eisenstein_generalized"]

    def test_analyze_soundness_error(self, capsys, monkeypatch):
        # a criterion that calls z^2 - 1 = (z-1)(z+1) irreducible must end
        # in its own exit code, never in a conclusion or an input error
        def lying(f):
            return CriterionOutcome("perron_nonmonic", {}, Conclusion.irreducible())

        monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic", lying)
        code = main(["analyze", "--poly", "z^2-1", "--oracle", "on"])
        assert code == EXIT_SOUNDNESS
        captured = capsys.readouterr()
        assert captured.err.startswith("error: soundness: criterion perron_nonmonic")
        assert captured.out == ""

    def test_factor_output(self, capsys):
        assert main(["factor", "--poly", "6z^2+5z+1"]) == EXIT_OK
        assert "(2z+1)(3z+1)" in capsys.readouterr().out

    def test_factor_json(self, capsys):
        assert main(["factor", "--poly", "z^4-1", "--format", "json"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["schema"] == "irreducia/1"
        assert out["input"] == {"text": "z^4 - 1", "coeffs": ["-1", "0", "0", "0", "1"]}
        assert out["oracle"] == {
            "content": "1",
            "factors": [
                {"coeffs": ["-1", "1"], "multiplicity": 1},
                {"coeffs": ["1", "1"], "multiplicity": 1},
                {"coeffs": ["1", "0", "1"], "multiplicity": 1},
            ],
        }

    def test_factor_limit_is_error(self, capsys):
        assert main(["factor", "--poly", "z^9+2", "--max-degree", "8"]) == EXIT_ERROR

    def test_audit_small_clean(self, capsys):
        code = main(["audit", "--max-degree", "2", "--coeff-bound", "2"])
        assert code == EXIT_OK
        assert "total violations: 0" in capsys.readouterr().out

    def test_audit_families_with_coeff_bound_audits_the_corpus(self, capsys):
        # either bound asks for the corpus audit beside the families
        assert main(["audit", "--families", "P1", "--coeff-bound", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("family P1: 90 instances, 0 violations")
        assert f"audited {sum(1 for _ in corpus.gen_exhaustive(3, 2))} polynomials" in out

    def test_audit_invalid_bound(self, capsys):
        assert main(["audit", "--max-degree", "0"]) == EXIT_ERROR
        assert "invalid bound" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_audit_bad_job_count_is_usage_error(self, capsys, value):
        assert main(["audit", "--max-degree", "1", "--coeff-bound", "1", "--jobs", value]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: irreducia audit")
        assert err.endswith(
            f"irreducia audit: error: argument --jobs: bad job count '{value}' "
            "(use an integer >= 1)\n"
        )

    def test_audit_families(self, capsys):
        assert main(["audit", "--families", "P4"]) == EXIT_OK
        assert "family P4" in capsys.readouterr().out

    def test_audit_unknown_family(self, capsys):
        assert main(["audit", "--families", "P9"]) == EXIT_ERROR
        assert capsys.readouterr().err.strip() == "error: unknown family 'P9'"
        # the families named before it are still audited and reported
        assert main(["audit", "--families", "P1,P9"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out.startswith("family P1: 90 instances, 0 violations")
        assert captured.err.strip() == "error: unknown family 'P9'"

    def test_gen_family(self, capsys):
        code = main(["gen", "--family", "P1", "--p", "2", "--m", "3", "--n", "2",
                     "--sign", "+"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "4,4,0,1"

    def test_gen_family_violation(self, capsys):
        code = main(["gen", "--family", "P2", "--p", "5", "--k", "1", "--d", "1",
                     "--m", "2", "--tail", "3,1"])
        assert code == EXIT_ERROR
        assert "dominance" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name, params", [
        (["--family", "P1", "--p", "3", "--m", "4", "--n", "3", "--sign", "-"],
         "P1", {"p": 3, "m": 4, "n": 3, "sign": -1}),
        (["--family", "P2", "--p", "5", "--k", "2", "--d", "2", "--m", "2",
          "--tail", "1,1", "--sign", "-"],
         "P2", {"p": 5, "k": 2, "d": 2, "m": 2, "tail": [1, 1], "sign": -1}),
        (["--family", "p3", "--p", "5", "--k", "1", "--d", "1", "--m", "2",
          "--a0", "11", "--middle", "1"],
         "P3", {"p": 5, "k": 1, "d": 1, "m": 2, "a0": 11, "middle": [1], "sign": 1}),
        (["--family", "P4", "--a", "5", "--b", "1", "--m", "4", "--j", "2"],
         "P4", {"a": 5, "b": 1, "m": 4, "j": 2}),
        (["--family", "P4", "--a", "5", "--b", "1", "--m", "4", "--j", "2", "--signs=-+-"],
         "P4", {"a": 5, "b": 1, "m": 4, "j": 2, "signs": [-1, 1, -1]}),
    ])
    def test_gen_family_matches_corpus(self, capsys, argv, name, params):
        assert main(["gen", *argv]) == EXIT_OK
        expected = render_coeff_list(corpus.gen_family(name, params))
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("argv, message", [
        (["--family", "P3", "--p", "5", "--k", "1", "--d", "1", "--m", "2", "--a0", "11"],
         "family P3 needs --middle"),
        (["--family", "P1", "--p", "2", "--m", "3", "--n", "2", "--sign", "x"],
         "bad sign 'x'"),
        (["--family", "P1", "--p", "2", "--m", "3"], "family P1 needs --n"),
        (["--family", "P9"], "unknown family 'P9'"),
        # psi_13 = 1287836182261 * 2575672364521 passes every Miller-Rabin base
        (["--family", "P1", "--p", "3317044064679887385961981", "--m", "2", "--n", "2"],
         "p must be a proven prime, got 3317044064679887385961981"),
    ])
    def test_gen_family_input_errors(self, capsys, argv, message):
        assert main(["gen", *argv]) == EXIT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--sign", "x", "argument --sign: bad sign 'x' (use + or -)"),
        ("--signs=-x-", None, "argument --signs: bad sign 'x' (use + or -)"),
        ("--tail", "3,x", "argument --tail: bad integer list '3,x'"),
        ("--middle", "", "argument --middle: bad integer list ''"),
    ])
    def test_gen_bad_value_is_usage_error(self, capsys, option, value, message):
        argv = ["gen", "--family", "P1", "--p", "2", "--m", "3", "--n", "2", option]
        assert main(argv if value is None else [*argv, value]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: irreducia gen")
        assert err.endswith(f"irreducia gen: error: {message}\n")

    @pytest.mark.parametrize("argv, value", [
        (["--family", "P2", "--p", "5", "--k", "1", "--d", "1", "--m", "2", "--tail"], "-1,1"),
        (["--family", "P3", "--p", "5", "--k", "1", "--d", "1", "--m", "3", "--a0", "17",
          "--middle"], "-1,1"),
        (["--family", "P4", "--a", "5", "--b", "1", "--m", "3", "--j", "1", "--signs"], "-+"),
    ])
    def test_gen_list_value_with_leading_minus(self, capsys, argv, value):
        # argparse alone takes "-1,1" or "-+" for an option and exits 1
        assert main(["gen", *argv[:-1], f"{argv[-1]}={value}"]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["gen", *argv, value]) == EXIT_OK
        assert capsys.readouterr().out == expected
        if argv[1] == "P2":
            assert expected == "5,-1,1\n"

    def test_gen_needs_a_source(self, capsys):
        assert main(["gen"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: gen needs --family, --exhaustive, or --random\n"

    def test_gen_exhaustive(self, capsys):
        code = main(["gen", "--exhaustive", "--max-degree", "1", "--coeff-bound", "1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == ["-1,1", "1,1"]

    def test_gen_random_seeded(self, capsys):
        main(["gen", "--random", "--count", "3", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gen", "--random", "--count", "3", "--seed", "9"])
        assert capsys.readouterr().out == first


def _src_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_analyze_power_rich_constant_term_in_seconds():
    # 10^1000 + z + z^2: eisenstein_generalized at j = m-1 asks for the
    # rational-root flag, which a divisor scan took about 12 s to settle
    text = "1" + "0" * 1000 + ",1,1"
    proc = subprocess.run(
        [sys.executable, "-m", "irreducia", "analyze", "--oracle", "off", "--poly", text],
        capture_output=True, text=True, env=_src_env(), timeout=5,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert any(
        line.split()[:2] == ["eisenstein_generalized", "Irreducible"]
        for line in proc.stdout.splitlines()
    )


class TestColdImports:
    """`import irreducia` loads no submodule, and each command loads only
    the modules it runs: `factor` never loads the criteria, and nothing on
    the analyze path loads numpy, multiprocessing or dataclasses."""

    def _loaded(self, *args: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-v", *args],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode in (EXIT_OK, EXIT_NO_CONCLUSION), proc.stderr
        # one "import 'name' # loader" line per module loaded; -X importtime
        # would miss a submodule loaded by `from . import name`
        return {
            line.split("'")[1]
            for line in proc.stderr.splitlines()
            if line.startswith("import '")
        }

    def test_import_package(self):
        loaded = self._loaded("-c", "import irreducia")
        assert "irreducia" in loaded
        assert not {name for name in loaded if name.startswith("irreducia.")}
        assert not loaded & {"dataclasses", "argparse", "numpy", "multiprocessing"}

    def test_first_access_loads_its_submodule(self):
        loaded = self._loaded("-c", "import irreducia; irreducia.factor")
        assert "irreducia.oracle" in loaded
        assert not loaded & {"irreducia.criteria", "irreducia.rootloc", "irreducia.corpus"}

    def test_factor_command(self):
        loaded = self._loaded("-m", "irreducia", "factor", "--poly", "z^4-1")
        assert "irreducia.oracle" in loaded
        assert not loaded & {
            "irreducia.criteria", "irreducia.rootloc", "irreducia.corpus", "dataclasses"
        }

    def test_analyze_command(self):
        loaded = self._loaded("-m", "irreducia", "analyze", "--poly", "z^2+1")
        assert {"irreducia.cli", "irreducia.criteria"} <= loaded
        assert not loaded & {"irreducia.corpus", "dataclasses", "multiprocessing", "numpy"}


class TestLazyExports:
    SUBMODULES = ("poly", "numtheory", "rootloc", "criteria", "oracle", "corpus")

    def test_names_are_their_submodules_objects(self):
        assert sorted(irreducia.__all__) == sorted(irreducia._EXPORTS)
        for name, module in irreducia._EXPORTS.items():
            assert module in self.SUBMODULES
            source = importlib.import_module(f"irreducia.{module}")
            assert getattr(irreducia, name) is getattr(source, name), name

    def test_submodules_resolve_as_attributes(self):
        # in a fresh interpreter, where no submodule has been imported yet
        code = ("import irreducia\n"
                f"print(*(getattr(irreducia, m).__name__ for m in {self.SUBMODULES!r}))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        assert proc.stdout.split() == [f"irreducia.{module}" for module in self.SUBMODULES]
        assert irreducia.criteria.PolyFacts is criteria.PolyFacts

    def test_dir_lists_all(self):
        assert {*irreducia.__all__, *self.SUBMODULES} <= set(dir(irreducia))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            irreducia.no_such_name

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from irreducia import *", namespace)
        assert set(irreducia.__all__) <= set(namespace)
        from irreducia import audit  # not exported: loaded as a submodule

        assert audit.__name__ == "irreducia.audit"


def test_closed_pipe_exits_without_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "irreducia", "gen", "--exhaustive",
         "--max-degree", "4", "--coeff-bound", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.readline() == b"-4,1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_ERROR
    assert b"Traceback" not in err
