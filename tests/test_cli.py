import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from germcalc.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_PRECONDITION,
    EXIT_VERIFY_FAILED,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exp_example(capsys):
    code, out, _ = run(capsys, "exp", "--dim", "1", "--order", "4", "x1^2 d1")
    assert code == EXIT_OK
    assert out.strip() == "result: (x1 + x1^2 + x1^3 + x1^4)"


def test_global_options_before_subcommand(capsys):
    code, out, _ = run(capsys, "--dim", "1", "--order", "4", "exp", "x1^2 d1")
    assert code == EXIT_OK and "x1^4" in out


def test_soluble_length_example(capsys):
    code, out, _ = run(
        capsys,
        "soluble-length", "--dim", "1", "--order", "6", "--mode", "jet",
        "--gens", "x1 d1; x1^2 d1",
    )
    assert code == EXIT_OK
    assert out.strip() == "soluble-length: 2"


def test_series_commands_close_the_generators(capsys):
    # x1^2 d1 and x1^3 d1 generate x1^j d1 for j = 2..10, whose derived
    # series has length 3; the span of the two generators alone gives 2
    code, out, _ = run(
        capsys,
        "soluble-length", "--dim", "1", "--order", "10", "--mode", "jet",
        "--gens", "x1^2 d1; x1^3 d1",
    )
    assert code == EXIT_OK
    assert out.strip() == "soluble-length: 3"


def test_central_series_runs_past_256_terms(capsys):
    # x1^2 d1 and x1^3 d1 generate x1^j d1 for j = 2..260: C^j is spanned
    # by x1^(j+3) d1, ..., x1^260 d1, so the class is 258 (259 terms after g)
    code, out, _ = run(
        capsys,
        "nilpotency-class", "--dim", "1", "--order", "260", "--mode", "jet",
        "--gens", "x1^2 d1; x1^3 d1",
    )
    assert code == EXIT_OK
    assert out.strip() == "nilpotency-class: 258"


@pytest.mark.parametrize(
    "argv",
    [
        ["--heavy-solvable-n3", "verify", "solvable", "--n", "3"],
        ["verify", "solvable", "--n", "3", "--heavy-solvable-n3"],
    ],
)
def test_heavy_solvable_flag_is_an_unknown_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE_ERROR
    assert "unrecognized arguments: --heavy-solvable-n3" in capsys.readouterr().err


def test_jet_mode_rejects_non_formal_generators(capsys):
    code, _, err = run(
        capsys,
        "derived-series", "--dim", "1", "--order", "4", "--mode", "jet",
        "--gens", "1 d1; x1^2 d1",
    )
    assert code == EXIT_PRECONDITION and "formal" in err


def test_log_round_trip(capsys):
    code, out, _ = run(capsys, "log", "--dim", "1", "--order", "4", "(x1 + x1^2 + x1^3 + x1^4)")
    assert code == EXIT_OK
    assert out.strip() == "result: x1^2 d1"


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "--dim", "1", "x1 d1", "x1^2 d1")
    assert code == EXIT_OK
    assert out.strip() == "result: x1^2 d1"


def test_compose_invert_commutator(capsys):
    code, out, _ = run(capsys, "invert", "--dim", "1", "--order", "3", "(x1 + x1^2)")
    assert code == EXIT_OK and "result: (x1 - x1^2 + 2*x1^3)" == out.strip()
    code, out, _ = run(
        capsys, "compose", "--dim", "1", "--order", "3", "(x1 + x1^2)", "(x1 - x1^2 + 2*x1^3)"
    )
    assert code == EXIT_OK and out.strip() == "result: (x1)"
    code, out, _ = run(
        capsys, "commutator", "--dim", "1", "--order", "4", "(x1 + x1^2)", "(2*x1)"
    )
    assert code == EXIT_OK


def test_jet_matrix_and_jc(capsys):
    code, out, _ = run(capsys, "jet-matrix", "--dim", "1", "--order", "2", "--diffeo", "(x1 + x1^2)")
    assert code == EXIT_OK and "basis: x1 x1^2" in out
    code, out, _ = run(capsys, "jordan-chevalley", "--matrix", "1,1;0,2")
    assert code == EXIT_OK
    assert "semisimple" in out and "unipotent" in out


def test_kappa_json(capsys):
    code, out, _ = run(
        capsys,
        "kappa", "--dim", "1", "--mode", "jet", "--order", "6", "--format", "json",
        "--gens", "x1 d1; x1^2 d1",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"kappa": [1, 1, 0]}


SL2 = ["--dim", "1", "--gens", "1 d1; x1 d1; x1^2 d1"]
LINEAR_SL2_AT_3 = ["--dim", "2", "--mode", "jet", "--order", "3", "--gens", "x1 d2; x2 d1"]
AFFINE = ["--dim", "1", "--gens", "x1 d1; x1^2 d1"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # sl2 is exact: its stable nonzero term proves it is not solvable
        (["kappa", *SL2], EXIT_PRECONDITION, "not solvable"),
        (["kappa", *LINEAR_SL2_AT_3], EXIT_BUDGET, "at jet order 3"),
        (["soluble-length", *SL2], EXIT_PRECONDITION, "not solvable; soluble length"),
        (["soluble-length", *LINEAR_SL2_AT_3], EXIT_BUDGET, "at jet order 3; soluble length"),
        # the affine algebra is solvable, but its central series stays at
        # [g, g] = <x1^2 d1>
        (["nilpotency-class", *AFFINE], EXIT_PRECONDITION, "not nilpotent; nilpotency class"),
        (["nilpotency-class", "--mode", "jet", "--order", "5", *AFFINE],
         EXIT_BUDGET, "central series does not terminate at jet order 5"),
    ],
)
def test_kappa_of_a_series_that_does_not_terminate(capsys, argv, code, message):
    result, out, err = run(capsys, *argv)
    assert result == code and message in err and out == ""


def test_closed_stdout_ends_quietly():
    # the jet matrix is far longer than a pipe buffer, so the writer meets
    # the closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["jet-matrix", "--dim", "3", "--order", "12", "--diffeo", "(x1 + x2^2, x2, x3)"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "germcalc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"result:\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(60) == EXIT_BROKEN_PIPE
    assert err == b""


def test_exit_codes(capsys):
    code, _, err = run(capsys, "exp", "--dim", "1", "--order", "4", "x1 +")
    assert code == EXIT_PARSE_ERROR and "parse error" in err
    code, _, err = run(capsys, "exp", "--dim", "1", "--order", "4", "x1 d1")
    assert code == EXIT_PRECONDITION and "nilpotent" in err
    # the closure's budget bounds its brackets and its generators
    for gens, message in (("x1^2 d1; x1^3 d1", "bracket degree 9 exceeds budget 8"),
                          ("x1^2 d1; x1^9 d1", "field degree 9 exceeds budget 8")):
        code, _, err = run(capsys, "nilpotency-class", "--dim", "1", "--degree-budget", "8",
                           "--gens", gens)
        assert code == EXIT_BUDGET and message in err


def test_matrix_parse_error_reports_its_column_in_the_operand(capsys):
    code, _, err = run(capsys, "jordan-chevalley", "--matrix", "1, 2; 3, @")
    assert code == EXIT_PARSE_ERROR
    assert "unexpected character '@' at line 1, column 10" in err


@pytest.mark.parametrize("matrix", ["1,2", "1,2;3"])
def test_jordan_chevalley_rejects_a_matrix_that_is_not_square(capsys, matrix):
    # one row of two entries, and a ragged pair of rows
    code, out, err = run(capsys, "jordan-chevalley", "--matrix", matrix)
    assert code == EXIT_PRECONDITION
    assert out == "" and err == "error: matrix is not square\n"


@pytest.mark.parametrize("k_param", ["1", "0"])
def test_verify_intro_rejects_small_k_param(capsys, k_param):
    # the planar family needs k_param >= 2
    code, out, err = run(capsys, "verify", "intro", "--k-param", k_param)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "k_param" in err


def test_verify_solvable_n3_matches_the_committed_report(capsys):
    code, out, _ = run(capsys, "verify", "solvable", "--n", "3", "--format", "json")
    assert code == EXIT_OK
    assert out == (Path(__file__).parent / "data" / "solvable_n3.json").read_text()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["intro", "--k-param", "4"], "verify_intro_k4.json"),
        (["solvable", "--n", "2"], "verify_solvable_n2.json"),
        (["witness", "--n", "2"], "verify_witness_n2.json"),
    ],
)
def test_single_target_verify_matches_the_committed_report(capsys, argv, name):
    # each target at its default order and sample count
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == EXIT_OK
    assert out == (Path(__file__).parent / "data" / name).read_text()


UNGRADED = "x2^2 d1 + x2^3 d1; x2 d2"


def test_series_of_fields_without_a_weight_match_the_committed_output(capsys):
    # every level of the closure and of both series holds fields that are
    # not weight-homogeneous, so each bracket goes through VectorField.bracket
    out = ""
    for mode in (["--mode", "exact"], ["--mode", "jet", "--order", "6"]):
        for command in ("derived-series", "central-series", "kappa"):
            code, text, _ = run(capsys, command, "--dim", "2", *mode, "--format", "json",
                                "--gens", UNGRADED)
            assert code == EXIT_OK
            out += text
    assert out == (Path(__file__).parent / "data" / "ungraded_series.txt").read_text()
    for mode, expected in ((["--mode", "exact"], EXIT_PRECONDITION),
                           (["--mode", "jet", "--order", "6"], EXIT_BUDGET)):
        code, _, _ = run(capsys, "nilpotency-class", "--dim", "2", *mode, "--gens", UNGRADED)
        assert code == expected


def test_verify_solvable_n4_exceeds_the_budget_at_once(capsys):
    code, out, err = run(capsys, "verify", "solvable", "--n", "4")
    assert code == EXIT_BUDGET and out == ""
    assert "1456882 generators" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_verify_solvable_rejects_dimension_below_one(capsys, n):
    code, out, err = run(capsys, "verify", "solvable", "--n", n)
    assert code == EXIT_PRECONDITION and out == ""
    assert err == "error: the solvable chain needs dimension >= 1\n"


@pytest.mark.parametrize("argv", [
    ["jet-matrix", "--diffeo", "(x1, x2, x3)"],
    ["jet-matrix", "--field", "x1^2 d1"],
    ["jordan-chevalley", "--diffeo", "(2*x1, x2, x3)"],
])
def test_dense_jet_matrix_over_budget_exits_before_the_basis(capsys, monkeypatch, argv):
    from germcalc import jets

    def fail(*args):
        raise AssertionError("built the jet basis")

    monkeypatch.setattr(jets, "jet_basis", fail)
    code, out, err = run(capsys, *argv, "--dim", "3", "--order", "40")
    assert code == EXIT_BUDGET and out == ""
    assert "12340x12340" in err


def test_verify_witness_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "witness", "--n", "1", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "witness", "--n", "1", "--format", "json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["claims"][0]["claim_id"] == "group-witness-n1"
    assert payload["claims"][0]["status"] == "pass"


def test_verify_nilpotent_text(capsys):
    code, out, _ = run(capsys, "verify", "nilpotent", "--n", "2")
    assert code == EXIT_OK and "nilpotent-family-n2" in out


def test_exp_with_time_scalar(capsys):
    # leading-minus values need the = form, as usual with argparse
    code, out, _ = run(
        capsys, "exp", "--dim", "1", "--order", "3", "--time=-1/2", "x1^2 d1"
    )
    assert code == EXIT_OK
    assert out.strip() == "result: (x1 - 1/2*x1^2 + 1/4*x1^3)"


def test_verify_intro_cli(capsys):
    code, out, _ = run(capsys, "verify", "intro", "--k-param", "3")
    assert code == EXIT_OK and "intro-nilpotency-k3" in out


def test_verify_all_end_to_end(capsys):
    import json as _json

    code, out, _ = run(capsys, "verify", "all", "--format", "json", "--seed", "0")
    assert code == EXIT_OK
    # the default report must stay byte-identical to the stored reference
    reference = Path(__file__).resolve().parents[1] / "perfbench/reference/verify-all/seed-0.json"
    assert out == reference.read_text()
    payload = _json.loads(out)
    ids = [c["claim_id"] for c in payload["claims"]]
    assert ids == sorted(ids)
    assert all(c["status"] == "pass" for c in payload["claims"])
    assert len(payload["claims"]) == 11
    # with seed 18 no sampled depth-3 commutator of the k = 5 planar family is
    # nontrivial: that claim is unstable and the run exits 1, as stored
    code, out, _ = run(capsys, "verify", "all", "--format", "json", "--seed", "18")
    assert code == EXIT_VERIFY_FAILED
    assert out == reference.with_name("seed-18.json").read_text()


def test_jet_matrix_matches_the_committed_output(capsys):
    # the columns are read by packed key from the derivation and
    # substitution caches; the output is the one built from X.apply and
    # SubstitutionCache.image of each basis monomial
    out = ""
    for source in (
        ["--field", "x2 d1 + x3 d2 + 1/2*i*x1*x3 d1 - x2^2 d3 + x1^3 d2 + x1 d1"],
        ["--diffeo", "(x1 + 2*x2^2 - x1*x3, x2 + 1/3*x1^2 + i*x3^2, -x3 + x1*x2 + x2^3)"],
    ):
        code, text, _ = run(capsys, "jet-matrix", "--dim", "3", "--order", "3", *source)
        assert code == EXIT_OK
        out += text
    assert out == (Path(__file__).parent / "data" / "jet_matrix_n3_k3.txt").read_text()


EXP_FIELD = "x2 d1 + x3 d2 + x1*x3 d1 - 2*x2^2 d3 + 1/2*x1^3 d2 + i*x3^2 d1"


def test_exp_then_log_match_the_committed_output(capsys):
    data = Path(__file__).parent / "data"
    common = ["--dim", "3", "--order", "6"]
    code, exp_out, _ = run(capsys, "exp", *common, "--time", "1/2+i", EXP_FIELD)
    assert code == EXIT_OK and exp_out == (data / "exp_n3_k6.txt").read_text()
    code, log_out, _ = run(capsys, "log", *common, exp_out.removeprefix("result: ").strip())
    assert code == EXIT_OK and log_out == (data / "log_n3_k6.txt").read_text()
    # the log is t X
    from fractions import Fraction

    from germcalc.fields import VectorField
    from germcalc.parsing import parse_field
    from germcalc.scalars import Scalar

    t = Scalar(Fraction(1, 2), 1)
    tX = VectorField([c * t for c in parse_field(EXP_FIELD, 3).coeffs])
    assert parse_field(log_out.removeprefix("result: ").strip(), 3) == tX
