"""The benchmark's own tests:  python3 -m pytest perfbench  (from the repo root)."""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_digest(name):
    make = workloads.GENERATORS[name]
    assert make(7).digest() == make(7).digest()
    assert make(7).digest() != make(8).digest()


def _valid_query(kind: str) -> workloads.Op:
    rng = np.random.default_rng(0)
    return workloads._query_op(kind, 4, "valid", 1.0, rng)


def test_oracle_flags_wrong_verdict():
    op = _valid_query("validate")
    lam = op.ref["eig"][0]
    assert oracle.check(op, ("valid", lam, 1e-10, True))[0]
    ok, explained, _ = oracle.check(op, ("invalid", lam, 1e-10, True))
    assert not ok and not explained


def test_oracle_flags_wrong_volume():
    op = _valid_query("volume")
    good = op.ref["volume"]
    assert oracle.check(op, good)[0]
    ok, explained, _ = oracle.check(op, good * (1 + 1e-5))
    assert not ok and not explained


def test_oracle_explains_only_the_absolute_floor():
    rng = np.random.default_rng(1)
    tiny = workloads._query_op("validate", 2, "valid", 1e-11, rng)
    ok, explained, _ = oracle.check(tiny, ("degenerate", tiny.ref["eig"][0], 1e-10, True))
    assert not ok and explained
    unit = workloads._query_op("validate", 2, "valid", 1.0, rng)
    ok, explained, _ = oracle.check(unit, ("degenerate", unit.ref["eig"][0], 1e-10, True))
    assert not ok and not explained


def test_known_defect_inputs_are_not_timed_ops():
    wl = workloads.queries(7)
    timed = {slot for rnd in wl.rounds for slot in rnd}
    assert wl.defects and not timed & set(wl.defects)
    assert all(workloads.floor_sensitive(wl.ops[s]) for s in wl.defects)
    assert not any(workloads.floor_sensitive(wl.ops[s]) for s in timed)
    wl = workloads.extremal(7)
    assert wl.defects[0] == 0 and wl.ops[0].args[-1].tolist() == workloads.PINNED_START
    flat = [workloads._flat_start(wl.ops[s].args[0], wl.ops[s].args[-1]) for s in wl.defects]
    assert len(flat) == 1 + workloads.EXTREMAL_FLAT_DEFECTS and all(flat[1:])
    assert not any(workloads._flat_start(wl.ops[s].args[0], wl.ops[s].args[-1])
                   for rnd in wl.rounds for s in rnd)


def _small_job(name: str) -> dict:
    wl = workloads.GENERATORS[name](3)
    slots = [s for s in wl.rounds[0]
             if not (wl.ops[s].kind.startswith("probe") and wl.ops[s].args[-1] == 1001)][:12]
    return {"workload": name, "ops": [(op.kind, op.args) for op in wl.ops],
            "rounds": [slots], "defects": [], "seconds": 0.0, "trace": False}, wl


@pytest.mark.parametrize("name", ["queries", "extremal", "probes"])
def test_traced_and_untraced_results_are_identical(name):
    from spans import Tracer

    job, wl = _small_job(name)
    worker.warm_up(name)
    plain = worker.run_loop(job, 0.0)
    tracer = Tracer()
    with tracer.installed():
        traced = worker.run_loop(job, 0.0, tracer)
    assert tracer.spans and not tracer._restore
    assert set(plain["outputs"]) == set(traced["outputs"])
    for slot, out in plain["outputs"].items():
        assert pickle.dumps(out) == pickle.dumps(traced["outputs"][slot])
        ok, _, reason = oracle.check(wl.ops[slot], out)
        assert ok, reason


def test_tracer_restores_every_binding():
    import simplexcone
    import simplexcone.extremal
    from spans import Tracer

    before = (simplexcone.validate, simplexcone.extremal._cholesky_factor, np.linalg.det)
    with Tracer().installed():
        assert simplexcone.validate is not before[0]
        assert np.linalg.det is not before[2]
    assert (simplexcone.validate, simplexcone.extremal._cholesky_factor, np.linalg.det) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "queries", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
