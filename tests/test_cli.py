"""Tests for the command-line front end: parsing, reports, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simplexcone.cli as cli
import simplexcone.dual as dual_module
import simplexcone.extremal as extremal_module
from simplexcone.cli import UsageError, build_parser, main, parse_instance, run
from simplexcone.dual import dual_gram
from simplexcone.extremal import MaxIterations, StepIntoInvalidRegion
from simplexcone.linalg import NullityNotOne
from simplexcone.simplex import NotRealizable

UNIT_TRIANGLE = '{"dimension": 2, "squared_lengths": [1, 1, 1]}'
UNIT_TETRA = '{"dimension": 3, "squared_lengths": [1, 1, 1, 1, 1, 1]}'
RIGHT_TRIANGLE = '{"dimension": 2, "squared_lengths": [1, 1, 2]}'
COLLINEAR = '{"dimension": 2, "squared_lengths": [1, 9, 4]}'
FLAT_APEX = '{"dimension": 3, "squared_lengths": [0.2601, 0.2601, 0.2601, 1, 1, 1]}'
#: a 401-digit integer entry, which no float holds
HUGE_INTEGER_ENTRY = '{"dimension": 1, "squared_lengths": [1%s]}' % ("0" * 400)
#: an entry nested 3000 deep, past the JSON parser's recursion limit
DEEP_INSTANCE = '{"dimension": 1, "squared_lengths": %s}' % ("[" * 3000 + "]" * 3000)


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


def test_parse_instance_lengths_key_squares():
    ell = parse_instance('{"dimension": 2, "lengths": [1, 2, 2]}')
    assert np.array_equal(ell.s, np.array([1.0, 4.0, 4.0]))
    # a plain length is positive: -2 is refused, not squared into 4
    for entries in ("[1, -2, 2]", "[1, 0, 2]", "[1, NaN, 2]"):
        with pytest.raises(UsageError, match="every length must be a positive finite number"):
            parse_instance(f'{{"dimension": 2, "lengths": {entries}}}')


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


@pytest.mark.parametrize("entries", [
    '"squared_lengths": [4, 4, 9], "lengths": [2, 2, 3]',
    '"labels": {}',
], ids=["both", "neither"])
def test_instance_holds_exactly_one_key(capsys, entries):
    instance = f'{{"dimension": 2, {entries}}}'
    with pytest.raises(UsageError, match="exactly one of 'squared_lengths' and 'lengths'"):
        parse_instance(instance)
    _assert_usage_error(capsys, ["validate", instance], "exactly one of")


def test_the_key_says_what_the_entries_are(capsys):
    # a lengths instance is read as squares; the flag that overrode the key is gone
    code, report = run_json(capsys, ["validate", '{"dimension": 2, "lengths": [2, 2, 3]}'])
    assert code == 0
    assert report["results"]["verdict"] == "valid"
    assert report["inputs"]["squared_lengths"] == [4.0, 4.0, 9.0]
    assert report["inputs"]["lengths_converted"] is True
    code, report = run_json(capsys, ["validate", '{"dimension": 2, "squared_lengths": [4, 4, 9]}'])
    assert code == 0
    assert report["inputs"]["lengths_converted"] is False
    _assert_usage_error(
        capsys, ["validate", '{"dimension": 2, "lengths": [2, 2, 3]}', "--lengths"],
        "unrecognized arguments: --lengths")
    for command in ("validate", "volume", "faces", "dual", "probe"):
        assert main([command, "--help"]) == 0
        assert "--lengths" not in capsys.readouterr().out, command


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
    assert report["inputs"]["squared_lengths"] == json.loads(FLAT_APEX)["squared_lengths"]
    code, report = run_json(capsys, ["volume", FLAT_APEX, "--face", "0,1,2,3"])
    assert code == 2
    assert report["results"] == {"face": [0, 1, 2, 3], "error": report["results"]["error"]}
    assert report["inputs"]["dimension"] == 3


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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dual_ratio_factors_the_instance_once(capsys, unit_eigh_calls, svd_shapes, n):
    # one eigendecomposition classifies G; the null direction and the ratio are
    # each read off one SVD of the (n+1)-by-(n+1) dual Gram, as the library
    # functions read them
    instance = json.dumps({"dimension": n, "squared_lengths": [1.0] * (n * (n + 1) // 2)})
    unit_eigh_calls.clear()
    code, report = run_json(capsys, ["dual", instance, "--ratio", "0", "1"])
    assert code == 0
    assert unit_eigh_calls == [(n, n)]
    assert svd_shapes == [(n + 1, n + 1)] * 2
    assert report["results"]["ratio"]["squared_area_ratio"] == pytest.approx(1.0, rel=1e-12)


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


@pytest.mark.parametrize(
    "argv, context",
    [(["faces", FLAT_APEX, "--k", "3"], {"k": 3}), (["dual", FLAT_APEX], {})],
)
def test_not_realizable_reports_the_inputs_and_exits_2(capsys, argv, context):
    code, report = run_json(capsys, argv)
    assert code == 2
    assert report["inputs"]["squared_lengths"] == json.loads(FLAT_APEX)["squared_lengths"]
    assert report["results"] == dict(context, error=report["results"]["error"])


def test_dual_nullity_not_one_exits_3_with_a_report(capsys, monkeypatch):
    def failing(gstar):
        raise NullityNotOne("nullity 2")

    monkeypatch.setattr(dual_module, "null_direction", failing)
    code, report = run_json(capsys, ["dual", UNIT_TETRA])
    assert code == 3
    assert report["inputs"]["dimension"] == 3
    # the dual data computed before the refusal stays in the report
    res = report["results"]
    assert list(res) == ["gstar", "areas", "null_residual", "divergence_residual", "error"]
    assert res["error"] == "nullity 2"


#: Valid (lambda_min 2.11e-9 against a band of 4.74e-10); its dual Gram's
#: second eigenvalue, 1.54e-9 against a largest of 5.0, is no zero, though a
#: fixed null band of 1e-9 times the largest once read it as nullity two
DUAL_NULLITY_TWO = (
    '{"dimension":4,"squared_lengths":[0.5752172994935549,1.0321152694466431,'
    "2.8265479742734247,0.6323423899844215,2.597081980234027,1.0171150350469311,"
    '2.3439976126458877,6.817093626233606,0.31509099445500616,6.122474854270557]}'
)


def test_dual_answers_a_thin_valid_instance_with_its_areas(capsys):
    code, report = run_json(capsys, ["validate", DUAL_NULLITY_TWO])
    assert (code, report["results"]["verdict"]) == (0, "valid")
    code, report = run_json(capsys, ["dual", DUAL_NULLITY_TWO])
    assert code == 0
    res = report["results"]
    direction = np.array(res.pop("null_direction"))
    expected = dual_gram(parse_instance(DUAL_NULLITY_TWO))
    assert res == json.loads(cli.render_json(asdict(expected)))
    # the facet areas span the kernel; the bound is test_dual.py's oracle
    # bound 1e-14 * cond(G), with cond(G) = 2.2e9
    areas = expected.areas / np.linalg.norm(expected.areas)
    assert np.abs(direction - areas).max() <= 1e-14 * 2.2e9


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
        assert report["inputs"]["first"]["squared_lengths"] == [1, 1, 9]
        assert report["inputs"]["second"]["dimension"] == 2


def test_probe_at_zero_tolerance_exits_0_like_validate(capsys):
    # both endpoints are Valid at tolerance 0 only by rounding; validate
    # says Valid, and the probe that their verdict certifies passes
    first = '{"dimension":5,"squared_lengths":[62,14,38,14,33,62,38,74,21,14,8,25,18,17,29]}'
    second = '{"dimension":5,"squared_lengths":[124,28,76,28,66,124,76,148,42,28,16,50,36,34,58]}'
    for instance in (first, second):
        code, report = run_json(capsys, ["validate", instance, "--tolerance", "0"])
        assert code == 0
        assert report["results"]["verdict"] == "valid"
    for mode in ("log", "root"):
        argv = ["probe", first, second, "--mode", mode, "--tolerance", "0"]
        code, report = run_json(capsys, argv)
        assert code == 0, mode
        assert report["results"]["passed"] is True, mode


def test_probe_singular_to_working_precision_exits_3_with_a_report(capsys):
    # validate calls the first endpoint Valid at tolerance 0 (its smallest Gram
    # eigenvalue is about 1.8e-18), but whitened against the segment its
    # endpoint reads singular: a numerical failure, reported like the others
    first = ('{"dimension":3,"squared_lengths":[1.8324238700744857,0.4413519522306365,'
             '3.7770211050889153e-16,0.4988147130747598,1.8324239074884163,0.441351967431044]}')
    code, report = run_json(capsys, ["validate", first, "--tolerance", "0"])
    assert code == 0
    assert report["results"]["verdict"] == "valid"
    for mode in ("log", "root"):
        argv = ["probe", first, UNIT_TETRA, "--mode", mode, "--tolerance", "0", "--no-timestamp"]
        assert run(argv) == 3, mode
        captured = capsys.readouterr()
        assert captured.err == "", mode
        report = json.loads(captured.out)
        assert report["results"] == {
            "error": "a segment endpoint is singular to working precision"}, mode
        for end in ("first", "second"):
            assert len(report["inputs"][end]["sha256"]) == 64, (mode, end)


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


def test_optimize_reports_each_runs_rejections_and_gradient_steps(capsys, monkeypatch):
    from simplexcone import Objective, ObjectiveKind, maximize, random_simplex

    # a capped run reports its partial trace's counters, as a converged run
    # reports its trace's: here the second start's line search has already
    # turned candidates down
    argv = ["optimize", "--n", "3", "--total", "6", "--objective", "sumroot", "--k", "2",
            "--seed", "7", "--starts", "2", "--max-iter", "4"]
    code, report = run_json(capsys, argv)
    assert code == 3
    rng = np.random.default_rng(7)
    for entry in report["results"]["runs"]:
        start = random_simplex(3, rng, total=6.0)
        with pytest.raises(MaxIterations) as caught:
            maximize(3, 6.0, Objective(ObjectiveKind("sumroot"), 2), start=start, max_iter=4)
        assert entry["converged"] is False
        assert entry["rejections"] == caught.value.trace.rejections
        assert entry["gradient_steps"] == caught.value.trace.gradient_steps
    assert sum(report["results"]["runs"][1]["rejections"].values()) > 0

    # an exhausted line search keeps them too
    counts = {"rejections": {"armijo": 2, "not_valid": 60}, "gradient_steps": 1}

    def exhausted(*args, **kwargs):
        raise StepIntoInvalidRegion("line search exhausted", SimpleNamespace(**counts))

    monkeypatch.setattr(extremal_module, "maximize", exhausted)
    code, report = run_json(capsys, OPTIMIZE)
    assert code == 3
    (run0,) = report["results"]["runs"]
    assert run0["error"] == "line search exhausted"
    assert {key: run0[key] for key in counts} == counts


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


def test_optimize_not_realizable_exits_2_with_a_report(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NotRealizable("start is not Valid")

    monkeypatch.setattr(extremal_module, "maximize", failing)
    code, report = run_json(capsys, OPTIMIZE)
    assert code == 2
    assert report["inputs"]["n"] == 2
    assert report["results"] == {"error": "start is not Valid"}


def _scripted_maximize(outcomes):
    """A stand-in for ``maximize`` whose runs end, in turn, at the final
    objective values in ``outcomes``; ``None`` is a run that hits its cap."""
    pending = iter(outcomes)

    def scripted(n, total, objective, *, start, max_iter, pd_tol):
        value = next(pending)
        counts = {"rejections": {"armijo": 0}, "gradient_steps": 0}
        if value is None:
            raise MaxIterations(f"no convergence within {max_iter} iterations",
                                SimpleNamespace(**counts))
        return SimpleNamespace(iterates=[(start, 0.0), (start, value)],
                               regularity_deviation=0.0, final=start, **counts)

    return scripted


@pytest.mark.parametrize(
    "outcomes, best, code",
    [([2.0, 2.0, 1.0], 0, 0), ([None, 1.0, 2.0, 2.0], 2, 3), ([None, None], None, 3)],
)
def test_best_is_the_first_of_equal_objectives(capsys, monkeypatch, outcomes, best, code):
    monkeypatch.setattr(extremal_module, "maximize", _scripted_maximize(outcomes))
    argv = ["optimize", "--n", "2", "--total", "3", "--objective", "logprod", "--k", "1",
            "--starts", str(len(outcomes))]
    got, report = run_json(capsys, argv)
    assert got == code
    results = report["results"]
    assert [r["converged"] for r in results["runs"]] == [v is not None for v in outcomes]
    if best is None:
        assert "best" not in results
    else:
        assert results["best"] == {"run": best, "objective": outcomes[best]}


def test_optimize_converges_at_a_large_total(capsys):
    # the stopping test reads the same at every total: no run is reported
    # converged before it has moved toward the regular point; starts are
    # drawn up to the float maximum
    for n, total in ((3, "1e12"), (2, "1.7e308")):
        argv = ["optimize", "--n", str(n), "--total", total, "--objective", "logprod", "--k", "2"]
        code, report = run_json(capsys, argv)
        assert code == 0, total
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
    _assert_usage_error(
        capsys, OPTIMIZE + ["--seed", "-1"], "argument --seed: must be at least 0, got -1"
    )
    args = build_parser().parse_args(["validate", "x", "--tolerance", "0"])
    assert args.tolerance == 0.0
    args = build_parser().parse_args(OPTIMIZE + ["--max-iter", "1"])
    assert args.max_iter == 1


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
def test_negative_non_finite_values_name_the_finite_rule(capsys, value):
    # "-inf" is the flag's value, not an unknown option that leaves the flag empty
    message = f"must be a finite number, got {value!r}"
    _assert_usage_error(capsys, ["validate", UNIT_TRIANGLE, "--tolerance", value], message)
    _assert_usage_error(capsys, ["counterexample", "nontri", "--epsilon", value], message)
    argv = list(OPTIMIZE)
    argv[argv.index("--total") + 1] = value
    _assert_usage_error(capsys, argv, message)


def test_optimize_tolerance_no_start_can_meet_is_a_usage_error(capsys):
    _assert_usage_error(
        capsys, OPTIMIZE + ["--tolerance", "1e300"], "failed to sample a Valid instance"
    )


TETRA_1E300 = json.dumps({"dimension": 3, "squared_lengths": [1e300] * 6})
TETRA_1E_300 = json.dumps({"dimension": 3, "squared_lengths": [1e-300] * 6})
#: 171! is no float, and neither are this simplex's volume (about 1e-334) and facet areas
UNIT_171 = json.dumps({"dimension": 171, "squared_lengths": [1.0] * (171 * 172 // 2)})
#: at --tolerance 1e10 the band, 1e10 times the largest Gram eigenvalue 1.5e300, is no float
BAND_PAST_THE_TOP = ["validate", json.dumps({"dimension": 2, "squared_lengths": [1e300] * 3}),
                     "--tolerance", "1e10"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["volume", TETRA_1E300], "outside the float range"),
        (["volume", TETRA_1E300, "--pretty"], "outside the float range"),
        (["faces", TETRA_1E300, "--k", "3"], "outside the float range"),
        (BAND_PAST_THE_TOP, "the tolerance band, about 1e+310"),
        (["volume", TETRA_1E_300], "outside the float range"),
        (["volume", TETRA_1E_300, "--face", "0,1,2,3"], "outside the float range"),
        (["volume", UNIT_171], "outside the float range"),
        (["dual", UNIT_171], "outside the float range"),
        (["counterexample", "nontri", "--epsilon", "1e300"], "positive finite"),
        (["counterexample", "frankel", "--epsilon", "1e300"], "positive finite"),
        (
            ["optimize", "--n", "2", "--total", "5e-324", "--objective", "logprod", "--k", "1"],
            "the mean squared length is subnormal",
        ),
        (
            ["optimize", "--n", "2", "--total", "1e-320", "--objective", "logprod", "--k", "1"],
            "the mean squared length is subnormal",
        ),
    ],
)
def test_finite_input_at_float_extremes_exits_1(capsys, argv, fragment):
    # every entry is a positive finite float, but the volume (about 1e450
    # or 1e-451), the reported tolerance band or a squared length built
    # from epsilon is not, or the mean squared length --total / 3 is
    # subnormal: a message, not a traceback, and never the Degenerate
    # answer 0.  A start drawn at --total 5e-324 would underflow to a
    # zero squared length, so the mean is refused before any is drawn
    _assert_usage_error(capsys, argv, fragment)


#: Valid at every scale, but its largest Gram eigenvalue, 6 * 4e307, is past
#: the largest float
REGULAR5_8E307 = json.dumps({"dimension": 5, "squared_lengths": [8e307] * 15})
REGULAR5_4E307 = json.dumps({"dimension": 5, "squared_lengths": [4e307] * 15})


@pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0"]])
@pytest.mark.parametrize(
    "argv",
    [
        ["faces", REGULAR5_8E307, "--k", "4"],
        ["volume", REGULAR5_8E307],
        ["dual", REGULAR5_8E307],
        ["volume", REGULAR5_8E307, "--face", "0,1,2,3"],
    ],
)
def test_an_overflowing_gram_spectrum_exits_1(capsys, argv, tolerance):
    # the verdict is read (Valid), but the volumes (about 1e767 for the
    # whole simplex, 1e614 for a facet and 1e461 for a tetrahedron) and the
    # facet areas (1e614) are past the largest float: refused by name and
    # magnitude, never inf or 0
    assert run(argv + tolerance) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = {"dual": "the facet area, about 1e+614"}.get(argv[0], "the volume, about 1e+")
    assert captured.err.startswith("error: " + expected), captured.err
    assert captured.err.endswith(" is outside the float range\n"), captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0"]])
def test_a_gram_spectrum_past_the_float_range_answers(capsys, tolerance):
    # the verdict is read on the unit-scale spectrum: validate and both
    # probes answer where the Gram spectrum itself would overflow
    code, report = run_json(capsys, ["validate", REGULAR5_8E307] + tolerance)
    assert code == 0
    assert report["results"]["verdict"] == "valid"
    assert report["results"]["smallest_gram_eigenvalue"] == pytest.approx(4e307, rel=1e-14)
    for mode in ("log", "root"):
        argv = ["probe", REGULAR5_8E307, REGULAR5_4E307, "--mode", mode] + tolerance
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["results"]["passed"] is True
    # the polarization sums halves: past the top, the sum alone overflows
    tetra = json.dumps({"dimension": 3, "squared_lengths": [1.5e308] * 6})
    code, report = run_json(capsys, ["validate", tetra] + tolerance)
    assert (code, report["results"]["verdict"]) == (0, "valid")
    needle = json.dumps({"dimension": 2, "squared_lengths": [1e308, 1e308, 1e300]})
    code, report = run_json(capsys, ["volume", needle] + tolerance)
    assert code == 0
    assert report["results"]["volume"] == pytest.approx(5e303, rel=1e-8)


def test_eigensolver_failure_exits_3(capsys, monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    for command in ("validate", "dual"):
        assert main([command, UNIT_TETRA, "--no-timestamp"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert len(report["inputs"]["sha256"]) == 64
        assert "did not converge" in report["results"]["error"]
        assert set(report["results"]) == {"error"}


def test_non_finite_result_exits_1(capsys, monkeypatch):
    # the renderer refuses a nan: a message, never an invalid JSON report
    monkeypatch.setattr(cli, "volume", lambda ell, pd_tol: math.nan)
    for extra in ([], ["--pretty"]):
        _assert_usage_error(capsys, ["volume", UNIT_TETRA] + extra, "non-finite")


def test_integer_flags_name_the_bad_value(capsys):
    for argv in (
        ["faces", UNIT_TETRA, "--k", "x"],
        OPTIMIZE[:-1] + ["2.5"],
        OPTIMIZE + ["--seed", "x"],
        ["dual", UNIT_TETRA, "--ratio", "0", "x"],
    ):
        _assert_usage_error(capsys, argv, "expected an integer, got")


def test_float_extremes_print_only_the_error_line():
    # the overflow inside the handler must not add numpy warning lines
    for argv in (["volume", TETRA_1E300], BAND_PAST_THE_TOP):
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "simplexcone.cli", *argv],
            capture_output=True, text=True, env=_process_env(), timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


#: the regular 5-simplex at squared lengths 1e-160 and 1e160: the rates of a
#: probe between them are past the float range at the small end
REGULAR5_1E_160 = json.dumps({"dimension": 5, "squared_lengths": [1e-160] * 15})
REGULAR5_1E160 = json.dumps({"dimension": 5, "squared_lengths": [1e160] * 15})


@pytest.mark.parametrize("mode", ["root", "log"])
def test_probe_between_scales_far_apart_passes_with_warnings_as_errors(mode):
    # no handler runs under a silencing np.errstate: a numpy warning here
    # would end the process under -W error
    argv = ["probe", REGULAR5_1E_160, REGULAR5_1E160, "--mode", mode, "--no-timestamp"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "simplexcone.cli", *argv],
        capture_output=True, text=True, env=_process_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)["results"]
    assert results["passed"] is True
    assert results["max_analytic_second_derivative"] < 0.0


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["faces", UNIT_TETRA, "--k", "0"], "k must lie in 1..3"),
        (["faces", UNIT_TETRA, "--k", "4"], "k must lie in 1..3"),
        (OPTIMIZE[:-1] + ["3"], "k must lie in 1..2"),
        (["volume", UNIT_TETRA, "--face", "0"], "at least 2 vertices"),
        (["probe", UNIT_TETRA, UNIT_TETRA, "--mode", "log", "--face", "1"], "at least 2 vertices"),
        # a vertex list that starts with '-' is the flag's value, not an option
        (["volume", UNIT_TETRA, "--face", "-1,2"], "face (-1, 2) out of range for dimension 3"),
        (["probe", UNIT_TETRA, UNIT_TETRA, "--mode", "log", "--face", "-1,2"],
         "face (-1, 2) out of range for dimension 3"),
        # an empty vertex list is a malformed --face, not a missing one
        (["volume", UNIT_TETRA, "--face", ""], "--face expects comma-separated integers, got ''"),
        (["probe", UNIT_TETRA, UNIT_TETRA, "--mode", "log", "--face", ""],
         "--face expects comma-separated integers, got ''"),
        (["probe", UNIT_TETRA, UNIT_TETRA, "--mode", "root", "--face", "0,1"],
         "--face applies to --mode log only"),
    ],
)
def test_face_rules_are_usage_errors(capsys, argv, fragment):
    _assert_usage_error(capsys, argv, fragment)


def test_instance_shape_refusals_are_usage_errors(tmp_path, capsys):
    # inline text reaches the object check only when it starts with '{', a file always
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    _assert_usage_error(capsys, ["validate", str(path)], "instance must be a JSON object")
    _assert_usage_error(
        capsys, ["validate", '{"squared_lengths": [1, 1, 1]}'], "instance is missing 'dimension'"
    )
    _assert_usage_error(capsys, ["validate", DEEP_INSTANCE], "nested too deeply")
    _assert_usage_error(capsys, ["validate", HUGE_INTEGER_ENTRY], "at position 0 (edge (0, 1))")
    huge_length = HUGE_INTEGER_ENTRY.replace("squared_lengths", "lengths")
    _assert_usage_error(capsys, ["validate", huge_length], "every length must be a positive")


def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_traceback():
    env = _process_env()
    invalid = '{"dimension": 2, "squared_lengths": [1, 1, 9]}'
    for instance, code in ((UNIT_TRIANGLE, 0), (invalid, 2)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "simplexcone.cli", "validate", instance],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader leaves before the report is written
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code, err
        assert "Traceback" not in err and "BrokenPipe" not in err, err


def _process_env():
    """The source tree on the path, help text 80 columns wide in every process,
    and stdout block-buffered when it is a pipe or a file, as by default."""
    import simplexcone

    src = str(Path(simplexcone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", UNIT_TRIANGLE, "--no-timestamp"],
        OPTIMIZE + ["--seed", "-1"],
        ["validate", '{"dimension": 2, "squared_lengths": [1, 1, 9]}', "--no-timestamp"],
        OPTIMIZE + ["--max-iter", "1", "--no-timestamp"],
        ["--help"],
        ["--version"],
    ],
    ids=["exit0", "exit1", "exit2", "exit3", "help", "version"],
)
def test_the_process_writes_what_main_writes(argv, tmp_path, monkeypatch):
    # the process ends by os._exit, so text left in a buffer would be lost;
    # argparse's --help and --version text is the one write run does not flush
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err, _ = _run_in_process(argv)
    assert out or err
    command = [sys.executable, "-m", "simplexcone.cli", *argv]
    env = _process_env()
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    path = tmp_path / "stdout"
    with open(path, "wb") as fh:
        proc = subprocess.run(
            command, stdout=fh, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
    assert (proc.returncode, path.read_text(), proc.stderr) == (code, out, err)


def test_help_to_a_reader_that_left_exits_0_with_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplexcone.cli", "--help"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_process_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == ""


def test_a_stdout_closed_before_start_up_keeps_the_exit_code():
    # Python sets sys.stdout to None, and the report goes nowhere
    invalid = '{"dimension": 2, "squared_lengths": [1, 1, 9]}'
    for argv, code in (([UNIT_TRIANGLE], 0), ([invalid], 2)):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m simplexcone.cli validate "$1" >&-', sys.executable, *argv],
            capture_output=True, text=True, env=_process_env(), timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.parametrize(
    "launch, teardown",
    [
        ("runpy.run_module('simplexcone.cli', run_name='__main__')", False),
        ("import simplexcone.cli; sys.exit(simplexcone.cli.main())", True),
    ],
)
def test_the_process_entry_skips_interpreter_teardown(launch, teardown):
    # an atexit hook runs during teardown: the process entry ends before it,
    # while a caller of main keeps its interpreter
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(sys.stderr.write, 'teardown ran')\n"
        "sys.argv = ['simplexcone', '--version']\n"
        f"{launch}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_process_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "0.1.0\n"), proc.stderr
    assert proc.stderr == ("teardown ran" if teardown else "")


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


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_floats_round_trip_bit_for_bit(capsys):
    from simplexcone import (
        Objective,
        ObjectiveKind,
        SquaredEdgeLengths,
        dual_gram,
        maximize,
        null_direction,
        random_simplex,
        volume,
    )
    from simplexcone.dual import _adjugate_ratio

    # serialization is lossless: every parsed float is bit-identical to the
    # library's own result
    code, report = run_json(capsys, ["volume", UNIT_TRIANGLE])
    assert code == 0
    assert _bits(report["results"]["volume"]) == _bits(volume(SquaredEdgeLengths(2, np.ones(3))))

    code, report = run_json(capsys, ["dual", RIGHT_TRIANGLE, "--ratio", "0", "1"])
    assert code == 0
    res = report["results"]
    dual = dual_gram(parse_instance(RIGHT_TRIANGLE))
    for key in ("gstar", "areas", "null_residual", "divergence_residual"):
        assert _bits(res[key]) == _bits(getattr(dual, key)), key
    assert _bits(res["null_direction"]) == _bits(null_direction(dual.gstar))
    ratio = _adjugate_ratio(dual.gstar, 0, 1)
    assert _bits(res["ratio"]["squared_area_ratio"]) == _bits(ratio)

    argv = ["optimize", "--n", "3", "--total", "6", "--objective", "sumroot", "--k", "2",
            "--seed", "5"]
    code, report = run_json(capsys, argv)
    assert code == 0
    (run0,) = report["results"]["runs"]
    start = random_simplex(3, np.random.default_rng(5), total=6.0)
    trace = maximize(3, 6.0, Objective(ObjectiveKind("sumroot"), 2), start=start)
    assert _bits(run0["start_squared_lengths"]) == _bits(start.s)
    assert _bits(run0["final_squared_lengths"]) == _bits(trace.final.s)
    assert _bits(run0["objective"]) == _bits(trace.iterates[-1][1])
    assert _bits(run0["regularity_deviation"]) == _bits(trace.regularity_deviation)
    assert run0["rejections"] == trace.rejections
    assert run0["gradient_steps"] == trace.gradient_steps


def test_pretty_rendering(capsys):
    code = run(["validate", UNIT_TETRA, "--pretty", "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "command: validate" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


PRETTY_DUAL_RATIO = """\
command: dual
version: 0.1.0
inputs:
  inline: true
  sha256: 06ab4be3949a146bec30cd38a5bcb67bd7ff8da419f10bf04dacf24c9ff62393
  dimension: 2
  squared_lengths: [1, 1, 2]
  lengths_converted: false
results:
  gstar:
    - [1, -0.707106781187, -0.707106781187]
    - [-0.707106781187, 1, 0]
    - [-0.707106781187, 0, 1]
  areas: [1.41421356237, 1, 1]
  null_residual: 1.58187870389e-17
  divergence_residual: 0
  null_direction: [0.707106781187, 0.5, 0.5]
  ratio:
    i: 0
    j: 1
    squared_area_ratio: 2
"""

PRETTY_FACES = """\
command: faces
version: 0.1.0
inputs:
  inline: true
  sha256: 31eeb9a15665709183a0dc200ea8c8691598089f3eebbac8a5f92212f62a5c01
  dimension: 3
  squared_lengths: [1, 1, 1, 1, 1, 1]
  lengths_converted: false
results:
  k: 1
  faces:
""" + "".join(f"""\
    -
      vertices: [{i}, {j}]
      volume: 1
""" for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))

PRETTY_OPTIMIZE_CAPPED = """\
command: optimize
version: 0.1.0
inputs:
  n: 3
  total: 6
  objective: sumroot
  k: 2
  seed: 3
  starts: 1
  max_iter: 1
  tolerance: 1e-10
  sha256: 7b48de8510898f703d1268b01f7eafe5049e3a18b53a728abb704f2f9f4baf24
results:
  runs:
    -
      start_squared_lengths: [0.950974300096, 0.753638527969, 0.107647891221, \
2.70139882421, 0.454070759328, 1.03226969717]
      converged: false
      error: no convergence within 1 iterations
      rejections:
        non_positive: 0
        cholesky_screen: 0
        face_collapse: 0
        armijo: 0
        not_valid: 0
      gradient_steps: 0
"""


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["dual", RIGHT_TRIANGLE, "--ratio", "0", "1"], 0, PRETTY_DUAL_RATIO),
        (["faces", UNIT_TETRA, "--k", "1"], 0, PRETTY_FACES),
        (["optimize", "--n", "3", "--total", "6", "--objective", "sumroot", "--k", "2",
          "--seed", "3", "--max-iter", "1"], 3, PRETTY_OPTIMIZE_CAPPED),
    ],
    ids=["nested-lists", "list-of-dicts", "false-and-error"],
)
def test_pretty_layout_is_pinned(capsys, argv, code, expected):
    # the whole text: nested lists inline per row, dicts in a list under "-",
    # false spelled as in JSON, an error string bare, no best when no run converged
    assert run(argv + ["--pretty", "--no-timestamp"]) == code
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# the contract as a property: every argv ends in a documented exit code

#: (ordinary, out-of-range) values of every argument: a tame argv draws
#: only the first, a wild one either
_DIMENSIONS = (("1", "2", "3", "4", "5", "6"), ("0", "-1", "x"))
_ENTRIES = (("1", "2", "3", "1.5"), ("0", "-1", "5e-324", "1e-300", "1e300",
            "1.7976931348623157e308", '"x"', "NaN", "Infinity", "-Infinity"))
_POSITIVE = (("0.5", "1", "6", "5e-324", "1e-300", "1e300", "1.7976931348623157e308"),
             ("0", "-1", "nan", "inf", "-inf", "x", ""))
_TOLERANCES = (("1e-10", "0", "1e-300", "0.5", "2"), ("-1", "nan", "inf", "x"))
_K = (("1", "2", "3"), ("0", "-1", "7", "x"))
_FACES = (("0,1", "0,1,2", "1,2,3"), ("0", "", "0,0", "-1,2", "0,7", "a"))
_VERTICES = (("0", "1", "3"), ("-1", "7"))


@st.composite
def _argv(draw):
    """An argv for one of the seven subcommands; instances of dimension
    0..6, entries and flags in and out of range, JSON cut short."""
    wild = draw(st.booleans(), label="wild")

    def pick(values, label):
        return draw(st.sampled_from(values[0] + values[1] if wild else values[0]), label=label)

    def instance():
        n = int(pick((_DIMENSIONS[0], ("0",)), "dimension"))
        count = n * (n + 1) // 2 + int(pick((("0",), ("-1", "1")), "count off by"))
        if draw(st.booleans(), label="regular"):
            entries = [pick(_ENTRIES, "entry")] * count
        else:
            entries = [pick(_ENTRIES, "entry") for _ in range(count)]
        key = pick((("squared_lengths",), ("lengths",)), "key")
        text = f'{{"dimension": {n}, "{key}": [{", ".join(entries)}]}}'
        return pick(((text,), (text[: len(text) // 2], "nope", "[]")), "instance")

    command = draw(st.sampled_from(("validate", "volume", "faces", "dual", "probe",
                                    "counterexample", "optimize")), label="command")
    argv = [command]
    if command == "counterexample":
        argv.append(pick((("nontri", "frankel"), ("other",)), "family"))
        if draw(st.booleans(), label="epsilon"):
            argv += ["--epsilon", pick(_POSITIVE, "epsilon value")]
        if draw(st.booleans(), label="bisect"):
            argv.append("--bisect")
    elif command == "optimize":
        argv += ["--n", pick(_DIMENSIONS, "n"), "--total", pick(_POSITIVE, "total"),
                 "--objective", pick((("logprod", "sumroot"), ("other",)), "objective"),
                 "--k", pick(_K, "k")]
        for flag, values in (("--seed", (("0", "3"), ("-1", "x"))),
                             ("--starts", (("1", "2"), ("0",))),
                             ("--max-iter", (("1", "3", "10000"), ("0",)))):
            if draw(st.booleans(), label=flag):
                argv += [flag, pick(values, flag)]
    else:
        argv.append(instance())
        if command == "probe":
            argv += [instance(), "--mode", pick((("log", "root"), ("other",)), "mode")]
            if draw(st.booleans(), label="samples"):
                argv += ["--samples", pick((("3", "33", "1001"), ("2", "100001", "-1", "x")),
                                           "samples value")]
        if command in ("volume", "probe") and draw(st.booleans(), label="face"):
            argv += ["--face", pick(_FACES, "face value")]
        if command == "faces":
            argv += ["--k", pick(_K, "k")]
        if command == "dual" and draw(st.booleans(), label="ratio"):
            argv += ["--ratio", pick(_VERTICES, "i"), pick(_VERTICES, "j")]
    if draw(st.booleans(), label="tolerance"):
        argv += ["--tolerance", pick(_TOLERANCES, "tolerance value")]
    if draw(st.booleans(), label="pretty"):
        argv.append("--pretty")
    return argv + ["--no-timestamp"]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), caught


def _refuse_constant(token):
    raise AssertionError(f"non-finite token {token} in the output")


def _assert_finite(value):
    if isinstance(value, dict):
        for item in value.values():
            _assert_finite(item)
    elif isinstance(value, list):
        for item in value:
            _assert_finite(item)
    elif isinstance(value, float):
        assert math.isfinite(value), value


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_argv())
@example(["validate", HUGE_INTEGER_ENTRY, "--no-timestamp"])
@example(["validate", DEEP_INSTANCE, "--no-timestamp"])
@example(["probe", REGULAR5_1E_160, REGULAR5_1E160, "--mode", "root", "--no-timestamp"])
@example(["probe", REGULAR5_1E_160, REGULAR5_1E160, "--mode", "log", "--no-timestamp"])
@example(["validate", '{"dimension": 1, "lengths": [1e300]}', "--no-timestamp"])
def test_every_argv_ends_in_a_documented_exit_code(argv):
    code, out, err, caught = _run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0 and "--pretty" not in argv:
        _assert_finite(json.loads(out, parse_constant=_refuse_constant))
    assert _run_in_process(argv)[:3] == (code, out, err), argv
