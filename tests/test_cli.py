"""Tests for the command-line front end: parsing, reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexcone.cli import UsageError, build_parser, main, parse_instance, run

UNIT_TRIANGLE = '{"dimension": 2, "squared_lengths": [1, 1, 1]}'
UNIT_TETRA = '{"dimension": 3, "squared_lengths": [1, 1, 1, 1, 1, 1]}'
RIGHT_TRIANGLE = '{"dimension": 2, "squared_lengths": [1, 1, 2]}'
COLLINEAR = '{"dimension": 2, "squared_lengths": [1, 9, 4]}'
FLAT_APEX = '{"dimension": 3, "squared_lengths": [0.2601, 0.2601, 0.2601, 1, 1, 1]}'


def run_json(capsys, argv):
    code = run(argv + ["--no-timestamp"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# instance parsing


def test_parse_instance_inline():
    ell = parse_instance(UNIT_TRIANGLE)
    assert ell.n == 2
    assert np.array_equal(ell.s, np.ones(3))


def test_parse_instance_from_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(UNIT_TRIANGLE)
    ell = parse_instance(str(path))
    assert ell.n == 2
    assert np.array_equal(ell.s, np.ones(3))


def test_parse_instance_lengths_flag_squares():
    ell = parse_instance('{"dimension": 2, "lengths": [1, 2, 2]}', lengths=True)
    assert np.array_equal(ell.s, np.array([1.0, 4.0, 4.0]))


def test_parse_instance_wrong_length_names_expected_count():
    with pytest.raises(UsageError, match=r"needs 3 edge entries \(n\(n\+1\)/2\), got 2"):
        parse_instance('{"dimension": 2, "squared_lengths": [1, 1]}')


def test_parse_instance_rejects_zero_entry():
    with pytest.raises(UsageError, match="positive"):
        parse_instance('{"dimension": 2, "squared_lengths": [1, 0, 1]}')


def test_parse_instance_rejects_unknown_fields():
    with pytest.raises(UsageError, match="unknown instance fields"):
        parse_instance('{"dimension": 2, "squared_lengths": [1, 1, 1], "x": 1}')


def test_parse_instance_rejects_missing_file():
    with pytest.raises(UsageError, match="no such file"):
        parse_instance("definitely-not-a-file.json")


def test_parse_instance_lengths_need_flag():
    with pytest.raises(UsageError, match="pass --lengths"):
        parse_instance('{"dimension": 2, "lengths": [1, 1, 1]}')


# ---------------------------------------------------------------------------
# validate


def test_validate_unit_tetra(capsys):
    code, report = run_json(capsys, ["validate", UNIT_TETRA])
    assert code == 0
    assert report["command"] == "validate"
    assert report["results"]["verdict"] == "valid"
    assert report["results"]["smallest_gram_eigenvalue"] == pytest.approx(
        0.5, abs=1e-12
    )
    assert report["results"]["triangle_inequalities_hold"] is True


def test_validate_invalid_instance_exits_2(capsys):
    code, report = run_json(capsys, ["validate", FLAT_APEX])
    assert code == 2
    assert report["results"]["verdict"] == "invalid"
    assert report["results"]["triangle_inequalities_hold"] is True


def test_validate_degenerate_is_not_a_failure(capsys):
    code, report = run_json(capsys, ["validate", COLLINEAR])
    assert code == 0
    assert report["results"]["verdict"] == "degenerate"


def test_validate_reads_instance_file(tmp_path, capsys):
    path = tmp_path / "tetra.json"
    path.write_text(UNIT_TETRA)
    code, report = run_json(capsys, ["validate", str(path)])
    assert code == 0
    assert report["inputs"]["path"] == str(path)
    assert len(report["inputs"]["sha256"]) == 64


def test_validate_tolerance_override(capsys):
    code, report = run_json(capsys, ["validate", UNIT_TETRA, "--tolerance", "1.0"])
    assert code == 0
    assert report["results"]["verdict"] == "degenerate"


# ---------------------------------------------------------------------------
# volume and faces


def test_volume_unit_triangle(capsys):
    code, report = run_json(capsys, ["volume", UNIT_TRIANGLE])
    assert code == 0
    assert report["results"]["volume"] == pytest.approx(
        math.sqrt(3.0) / 4.0, abs=1e-15
    )


def test_volume_unrealizable_exits_2(capsys):
    code, report = run_json(capsys, ["volume", FLAT_APEX])
    assert code == 2
    assert "error" in report["results"]


def test_volume_degenerate_is_zero(capsys):
    code, report = run_json(capsys, ["volume", COLLINEAR])
    assert code == 0
    assert report["results"]["volume"] == 0


def test_volume_face_flag(capsys):
    code, report = run_json(capsys, ["volume", UNIT_TETRA, "--face", "0,1,2"])
    assert code == 0
    assert report["results"]["face"] == [0, 1, 2]
    assert report["results"]["volume"] == pytest.approx(math.sqrt(3.0) / 4.0)


def test_faces_lists_every_k_face(capsys):
    code, report = run_json(capsys, ["faces", UNIT_TETRA, "--k", "2"])
    assert code == 0
    faces = report["results"]["faces"]
    assert [f["vertices"] for f in faces] == [
        [0, 1, 2],
        [0, 1, 3],
        [0, 2, 3],
        [1, 2, 3],
    ]
    for f in faces:
        assert f["volume"] == pytest.approx(math.sqrt(3.0) / 4.0)


# ---------------------------------------------------------------------------
# dual


def test_dual_right_triangle(capsys):
    code, report = run_json(capsys, ["dual", RIGHT_TRIANGLE, "--ratio", "0", "1"])
    assert code == 0
    res = report["results"]
    r = 1.0 / math.sqrt(2.0)
    assert res["gstar"][0] == pytest.approx([1.0, -r, -r])
    assert res["areas"] == pytest.approx([math.sqrt(2.0), 1.0, 1.0])
    assert res["null_residual"] < 1e-12
    assert res["divergence_residual"] < 1e-12
    assert res["ratio"]["squared_area_ratio"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_dual_regular_tetrahedron_far_from_unit_scale(capsys, scale):
    # the facet areas are finite floats even where their squares are not
    instance = json.dumps({"dimension": 3, "squared_lengths": [scale] * 6})
    code, report = run_json(capsys, ["dual", instance, "--ratio", "0", "1"])
    assert code == 0
    res = report["results"]
    assert res["areas"] == pytest.approx([math.sqrt(3.0) / 4.0 * scale] * 4, rel=1e-14)
    off = np.array(res["gstar"])[~np.eye(4, dtype=bool)]
    assert off == pytest.approx(np.full(12, -1.0 / 3.0), abs=1e-14)
    assert res["null_residual"] < 1e-14
    assert res["ratio"]["squared_area_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_dual_one_simplex_is_a_usage_error(capsys):
    # a segment has no facet normals: a message and exit 1, not a traceback
    assert run(["dual", '{"dimension": 1, "squared_lengths": [2.0]}']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "dimension >= 2" in captured.err


# ---------------------------------------------------------------------------
# probe


def test_probe_log_mode(capsys):
    second = '{"dimension": 2, "squared_lengths": [2, 2, 2]}'
    code, report = run_json(
        capsys, ["probe", UNIT_TRIANGLE, second, "--mode", "log", "--samples", "9"]
    )
    assert code == 0
    res = report["results"]
    assert res["mode"] == "log"
    assert res["samples"] == 9
    assert res["passed"] is True
    assert res["max_analytic_second_derivative"] <= 1e-12


def test_probe_root_mode(capsys):
    second = '{"dimension": 2, "squared_lengths": [2, 2, 2]}'
    code, report = run_json(
        capsys, ["probe", UNIT_TRIANGLE, second, "--mode", "root"]
    )
    assert code == 0
    assert report["results"]["passed"] is True


def test_probe_with_an_endpoint_that_is_not_valid_exits_2(capsys):
    invalid = '{"dimension": 2, "squared_lengths": [1, 1, 9]}'
    for mode in ("log", "root"):
        code, report = run_json(capsys, ["probe", invalid, UNIT_TRIANGLE, "--mode", mode])
        assert code == 2, mode
        assert report["results"] == {"error": "first endpoint is not Valid"}


def test_probe_samples_bounded_at_parse_time(capsys):
    # rejected by the parser, so no sample stack is ever allocated
    second = '{"dimension": 2, "squared_lengths": [2, 2, 2]}'
    for value in ("2", "100001", "-5", "many"):
        argv = ["probe", UNIT_TRIANGLE, second, "--mode", "log", "--samples", value]
        assert run(argv) == 1, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument --samples"), value
    for value in ("3", "100000"):
        args = build_parser().parse_args(["probe", "a", "b", "--mode", "log", "--samples", value])
        assert args.samples == int(value)


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_families_exit_zero(capsys):
    code, report = run_json(capsys, ["counterexample", "nontri", "--epsilon", "0.01"])
    assert code == 0
    piece = report["results"]["pieces"]["instance"]
    assert piece["verdict"] == "invalid"
    assert piece["triangle_inequalities_hold"] is True

    code, report = run_json(capsys, ["counterexample", "frankel", "--epsilon", "0.01"])
    assert code == 0
    pieces = report["results"]["pieces"]
    assert pieces["A"]["verdict"] == "valid"
    assert pieces["B"]["verdict"] == "valid"
    assert pieces["C_len"]["verdict"] == "invalid"
    assert pieces["squared_sum"]["verdict"] == "valid"


def test_counterexample_bisect_reports_threshold(capsys):
    code, report = run_json(capsys, ["counterexample", "nontri", "--bisect"])
    assert code == 0
    assert report["results"]["threshold"] == pytest.approx(
        1.0 / math.sqrt(3.0) - 0.5, abs=1e-6
    )
    code, report = run_json(capsys, ["counterexample", "frankel", "--bisect"])
    assert code == 0
    assert report["results"]["threshold"] == pytest.approx(
        math.sqrt(8.0 - 4.0 * math.sqrt(2.0)) - math.sqrt(2.0), abs=1e-6
    )


# ---------------------------------------------------------------------------
# optimize


def test_optimize_converges(capsys):
    code, report = run_json(
        capsys,
        [
            "optimize",
            "--n",
            "3",
            "--total",
            "6",
            "--objective",
            "logprod",
            "--k",
            "2",
            "--seed",
            "7",
        ],
    )
    assert code == 0
    runs = report["results"]["runs"]
    assert len(runs) == 1
    assert runs[0]["converged"] is True
    assert runs[0]["regularity_deviation"] < 1e-6
    final = np.array(runs[0]["final_squared_lengths"])
    assert np.max(np.abs(final - 1.0)) < 1e-6
    assert report["results"]["best"]["run"] == 0


def test_optimize_iteration_cap_exits_3(capsys):
    code, report = run_json(
        capsys,
        [
            "optimize",
            "--n",
            "3",
            "--total",
            "6",
            "--objective",
            "sumroot",
            "--k",
            "2",
            "--seed",
            "3",
            "--max-iter",
            "1",
        ],
    )
    assert code == 3
    run0 = report["results"]["runs"][0]
    assert run0["converged"] is False
    assert "error" in run0


def test_optimize_multi_start(capsys):
    code, report = run_json(
        capsys,
        [
            "optimize",
            "--n",
            "2",
            "--total",
            "3",
            "--objective",
            "sumroot",
            "--k",
            "1",
            "--seed",
            "11",
            "--starts",
            "3",
        ],
    )
    assert code == 0
    assert len(report["results"]["runs"]) == 3
    assert all(r["converged"] for r in report["results"]["runs"])


def test_optimize_converges_at_a_large_total(capsys):
    # the stopping test reads the same at every total: no run is reported
    # converged before it has moved toward the regular point
    argv = ["optimize", "--n", "3", "--total", "1e12", "--objective", "logprod", "--k", "2"]
    code, report = run_json(capsys, argv)
    assert code == 0
    (run0,) = report["results"]["runs"]
    assert run0["converged"] is True
    assert run0["iterations"] > 0
    assert run0["regularity_deviation"] < 1e-9


# ---------------------------------------------------------------------------
# exit codes, determinism, rendering


def _assert_usage_error(capsys, argv, fragment):
    assert run(argv) == 1, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:"), argv
    assert fragment in captured.err, (argv, captured.err)


OPTIMIZE = ["optimize", "--n", "2", "--total", "3", "--objective", "logprod", "--k", "1"]


def test_non_finite_and_negative_numbers_are_usage_errors(capsys):
    # rejected at parse time: never a traceback from rendering a nan, and
    # never a silently accepted negative tolerance
    for value in ("nan", "inf", "-inf", "-1", "many"):
        _assert_usage_error(
            capsys, ["validate", UNIT_TRIANGLE, "--tolerance", value], "--tolerance"
        )
        _assert_usage_error(capsys, OPTIMIZE + ["--tolerance", value], "--tolerance")
    for value in ("nan", "inf", "-inf", "0", "-1"):
        _assert_usage_error(
            capsys, ["counterexample", "nontri", "--epsilon", value], "--epsilon"
        )
        argv = list(OPTIMIZE)
        argv[argv.index("--total") + 1] = value
        _assert_usage_error(capsys, argv, "--total")
    for value in ("0", "-3", "2.5"):
        for flag in ("--max-iter", "--starts"):
            _assert_usage_error(capsys, OPTIMIZE + [flag, value], f"argument {flag}")
        argv = list(OPTIMIZE)
        argv[argv.index("--n") + 1] = value
        _assert_usage_error(capsys, argv, "argument --n")
    args = build_parser().parse_args(["validate", "x", "--tolerance", "0"])
    assert args.tolerance == 0.0
    args = build_parser().parse_args(OPTIMIZE + ["--max-iter", "1"])
    assert args.max_iter == 1


def test_optimize_tolerance_no_start_can_meet_is_a_usage_error(capsys):
    _assert_usage_error(
        capsys, OPTIMIZE + ["--tolerance", "1e300"], "failed to sample a Valid instance"
    )


TETRA_1E300 = json.dumps({"dimension": 3, "squared_lengths": [1e300] * 6})


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["volume", TETRA_1E300], "non-finite number inf"),
        (["volume", TETRA_1E300, "--pretty"], "non-finite number inf"),
        (["faces", TETRA_1E300, "--k", "3"], "non-finite number inf"),
        (["validate", '{"dimension": 2, "squared_lengths": [1e308, 1e308, 1e308]}'], "finite"),
    ],
)
def test_finite_input_at_float_extremes_exits_1(capsys, argv, fragment):
    # every entry is a positive finite float, but the volume (about 1e450)
    # or the Gram entry s(0,1) + s(0,2) is not: a message, not a traceback
    _assert_usage_error(capsys, argv, fragment)


def test_float_extremes_print_only_the_error_line():
    # the overflow inside the handler must not add numpy warning lines
    import simplexcone

    src = str(Path(simplexcone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "simplexcone.cli", "volume", TETRA_1E300],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["faces", UNIT_TETRA, "--k", "0"], "k must lie in 1..3"),
        (["faces", UNIT_TETRA, "--k", "4"], "k must lie in 1..3"),
        (OPTIMIZE[:-1] + ["3"], "k must lie in 1..2"),
        (["volume", UNIT_TETRA, "--face", "0"], "at least 2 vertices"),
        (["probe", UNIT_TETRA, UNIT_TETRA, "--mode", "log", "--face", "1"], "at least 2 vertices"),
    ],
)
def test_face_rules_are_usage_errors(capsys, argv, fragment):
    _assert_usage_error(capsys, argv, fragment)


def test_face_budget_is_a_usage_error(capsys):
    # C(41, 21) faces; refused before any face is enumerated
    _assert_usage_error(
        capsys,
        ["optimize", "--n", "40", "--total", "1", "--objective", "logprod", "--k", "20"],
        "budget",
    )
    big = json.dumps({"dimension": 40, "squared_lengths": [1.0] * 820})
    _assert_usage_error(capsys, ["faces", big, "--k", "20"], "budget")


def test_usage_errors_exit_1(capsys):
    assert run(["validate", '{"dimension": 2, "squared_lengths": [1, 1]}']) == 1
    capsys.readouterr()
    assert run(["validate", "missing.json"]) == 1
    capsys.readouterr()
    assert main(["nope"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_reports_are_deterministic(capsys):
    argv = [
        "optimize",
        "--n",
        "3",
        "--total",
        "6",
        "--objective",
        "sumroot",
        "--k",
        "2",
        "--seed",
        "42",
        "--no-timestamp",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_timestamp_present_unless_suppressed(capsys):
    run(["validate", UNIT_TRIANGLE])
    with_ts = json.loads(capsys.readouterr().out)
    assert "timestamp" in with_ts
    run(["validate", UNIT_TRIANGLE, "--no-timestamp"])
    without = json.loads(capsys.readouterr().out)
    assert "timestamp" not in without


def test_floats_round_trip_at_17_digits(capsys):
    from simplexcone import SquaredEdgeLengths, volume

    code, report = run_json(capsys, ["volume", UNIT_TRIANGLE])
    assert code == 0
    # serialization is lossless: the parsed float is bit-identical to the
    # library's own result
    assert report["results"]["volume"] == volume(SquaredEdgeLengths(2, np.ones(3)))


def test_pretty_rendering(capsys):
    code = run(["validate", UNIT_TETRA, "--pretty", "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "command: validate" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
