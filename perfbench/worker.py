"""Benchmark worker: the only process that imports simplexcone to time it.

``worker.py setup <workload>`` imports the library, warms its
per-dimension caches, prints ``ready <import seconds>`` and exits; the
parent times it from spawn to that line.

``worker.py run`` reads a pickled job from stdin (ops, rounds, seconds,
trace flag), runs the closed loop, and writes a pickled result to
stdout.  A traced job first runs each known-defect input once, untimed.  The job carries only the squared lengths and call parameters;
the reference values stay in the parent.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

#: a run goes on past --seconds until this many ops ran, so that at least
#: ten latency samples lie beyond the 90th percentile
MIN_OPS = 100


def _import_library(workload: str) -> float:
    start = time.perf_counter()
    import simplexcone

    if workload == "cli":
        import simplexcone.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(simplexcone.__file__).startswith(src + os.sep):
        raise SystemExit(f"simplexcone imported from {simplexcone.__file__}, not {src}")
    return elapsed


def warm_up(workload: str) -> None:
    """Fill the per-dimension Gram templates and the optimizer workspaces."""
    import simplexcone as sc

    if workload == "cli":
        import simplexcone.cli

        simplexcone.cli.build_parser()
        return
    dims = {"queries": range(2, 13), "extremal": range(2, 7), "probes": range(3, 9)}[workload]
    for n in dims:
        sc.gram_from_squared_lengths(sc.regular_simplex(n, 1.0))
        if workload == "extremal":
            for k in range(1, n + 1):
                for kind in sc.ObjectiveKind:
                    sc.objective_value(sc.regular_simplex(n, 1.0), sc.Objective(kind, k))


def _execute(sc, kind: str, args: tuple):
    """Run one op through the public API and return a compact output."""
    if kind == "validate":
        n, s = args
        rep = sc.validate(sc.SquaredEdgeLengths(n, s))
        return (rep.verdict.value, rep.smallest_gram_eigenvalue, rep.tolerance,
                rep.triangle_inequalities_hold)
    if kind == "volume":
        n, s = args
        return sc.volume(sc.SquaredEdgeLengths(n, s))
    if kind == "embed":
        n, s = args
        return sc.embed(sc.SquaredEdgeLengths(n, s)).vertices
    if kind == "face_volume":
        n, s, face = args
        return sc.face_volume(sc.SquaredEdgeLengths(n, s), face)
    if kind == "dual_gram":
        n, s = args
        rep = sc.dual_gram(sc.SquaredEdgeLengths(n, s))
        return (rep.gstar, rep.areas, rep.null_residual, rep.divergence_residual)
    if kind == "area_ratio":
        n, s, i, j = args
        return sc.area_ratio_from_adjugate(sc.SquaredEdgeLengths(n, s), i, j)
    if kind == "maximize":
        n, total, objective, k, start = args
        obj = sc.Objective(sc.ObjectiveKind(objective), k)
        try:
            trace = sc.maximize(n, total, obj, start=start)
        except (sc.MaxIterations, sc.StepIntoInvalidRegion) as exc:
            return ("unconverged", type(exc).__name__, len(exc.trace.iterates) - 1,
                    exc.trace.regularity_deviation, exc.trace.final.s.copy())
        return ("converged", "", len(trace.iterates) - 1, trace.regularity_deviation,
                trace.final.s.copy())
    if kind in ("probe_log", "probe_root"):
        n, s1, s2, *face, samples = args
        first, second = sc.SquaredEdgeLengths(n, s1), sc.SquaredEdgeLengths(n, s2)
        if kind == "probe_log":
            rep = sc.probe_log_concavity(first, second, face[0], samples=samples)
        else:
            rep = sc.probe_root_concavity(first, second, samples=samples)
        return (rep.samples, rep.worst_midpoint_defect, rep.worst_second_difference,
                rep.max_analytic_second_derivative, rep.passed)
    if kind == "nontri_threshold":
        return sc.nontri_threshold()
    if kind == "frankel_threshold":
        return sc.frankel_length_threshold()
    raise ValueError(f"unknown op kind {kind!r}")


def _run_op(sc, kind: str, args: tuple):
    try:
        return _execute(sc, kind, args)
    except Exception as exc:  # the oracle judges every exception
        return ("error", type(exc).__name__, str(exc))


def run_defects(job: dict) -> dict[int, object]:
    """Run each known-defect input once, untimed; their outputs by pool slot."""
    import simplexcone as sc

    return {slot: _run_op(sc, *job["ops"][slot]) for slot in job["defects"]}


def run_loop(job: dict, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: whole rounds until ``seconds`` have passed.

    The calibration kernel runs between ops, outside their latencies.
    Outputs are kept per pool slot, so memory does not grow with speed.
    """
    import calibrate  # imports numpy, so not before the timed library import
    import simplexcone as sc

    ops = job["ops"]
    rounds = job["rounds"]
    outputs: dict[int, object] = {}
    slots: list[int] = []
    lat_ns: list[int] = []
    op_round: list[int] = []
    slowdown: list[float] = []
    meter = calibrate.Meter()
    clock = time.perf_counter_ns
    start = clock()
    while not slowdown or clock() - start < seconds * 1e9 or len(slots) < MIN_OPS:
        for slot in rounds[len(slowdown) % len(rounds)]:
            kind, args = ops[slot]
            if tracer is not None:
                tracer.op_id = len(slots)
            t0 = clock()
            out = _run_op(sc, kind, args)
            lat_ns.append(clock() - t0)
            slots.append(slot)
            op_round.append(len(slowdown))
            outputs[slot] = out
            meter.between_ops()
        slowdown.append(meter.end_round())
    return {"slots": slots, "lat_ns": lat_ns, "op_round": op_round, "slowdown": slowdown,
            "outputs": outputs}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        import_s = _import_library(argv[1])
        warm_up(argv[1])
        sys.stdout.write(f"ready {import_s!r}\n")
        sys.stdout.flush()
        return 0
    if argv[:1] != ["run"]:
        sys.stderr.write("usage: worker.py setup <workload> | worker.py run < job\n")
        return 2
    job = pickle.load(sys.stdin.buffer)
    _import_library(job["workload"])
    warm_up(job["workload"])
    result: dict = {}
    if not job["trace"]:
        result["untraced"] = run_loop(job, job["seconds"])
    else:
        from spans import Tracer

        result["defects"] = run_defects(job)
        result["untraced"] = run_loop(job, job["seconds"] / 2.0)
        tracer = Tracer()
        with tracer.installed():
            result["traced"] = run_loop(job, job["seconds"] / 2.0, tracer)
        result["layers"] = tracer.summary(result["traced"], ops=job["ops"])
        tracer.write(job["spans_path"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pickle.dump(result, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
