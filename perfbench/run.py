"""The simplexcone benchmark: one command, four workloads, one client.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding ``src/simplexcone``).
The parent process generates the workload from ``--seed`` with plain numpy,
times fresh worker start-ups (``setup_s``), hands the squared lengths to a
worker that runs the closed loop, and judges every output with the
independent oracle.  The ``cli`` workload runs the console entry as
sequential subprocesses instead and compares each report with an
in-process run.  ``--trace 1`` runs half the time untraced and half with
every layer wrapped, and reports the per-layer metrics instead; it also
runs each of the workload's known-defect inputs once, untimed, and reports
how many of them the program gets wrong (``known_defect.*``).  No timed op
draws such an input, so any failed timed op is a wrong answer and makes
the run incorrect.

Timing metrics are milliseconds at the reference machine speed: each
round's latencies are divided by the slowdown of a fixed calibration
kernel sampled between ops (see ``calibrate.py``), because the speed of a
shared VM drifts by a third from run to run.  ``ops_per_s`` is the median
over rounds of ops per second of op time; a round is one stratified set of
cells, so the median ignores a round that drew one extreme optimizer start.

The last line of stdout is the result object; the line before it is a
report with machine information, the input digest, the raw (uncalibrated)
figures, run counts and failures.  Span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import MIN_OPS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_info() -> dict:
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = ""
    with contextlib.suppress(Exception):
        cfg = np.show_config(mode="dicts")
        blas = "{name} {version}".format(**cfg["Build Dependencies"]["blas"])
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def measure_setup(workload: str, samples: int) -> tuple[list[float], list[float], float]:
    """Spawn-to-ready seconds of fresh workers, their library import seconds,
    and the median calibration slowdown sampled between them."""
    ready, imports = [], []
    meter = calibrate.Meter()
    for _ in range(samples):
        meter.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "setup",
                                 workload], stdout=subprocess.PIPE, env=child_env())
        try:
            line = proc.stdout.readline().decode()
            ready.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or not line.startswith("ready "):
            raise RuntimeError(f"setup worker failed (exit {code})")
        imports.append(float(line.split()[1]))
    return ready, imports, meter.end_round()


def run_worker(job: dict) -> dict:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "run"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env())
    try:
        out, _ = proc.communicate(pickle.dumps(job), timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return pickle.loads(out)


def loop_stats(phase: dict) -> dict:
    """Timing metrics of one loop phase, raw and at the reference speed."""
    slow = np.array(phase["slowdown"])
    lat_ms = np.array(phase["lat_ns"]) / 1e6
    norm_ms = lat_ms / slow[phase["op_round"]]
    counts = np.bincount(phase["op_round"], minlength=len(slow))
    round_ms = np.bincount(phase["op_round"], weights=norm_ms, minlength=len(slow))
    raw_round_ms = np.bincount(phase["op_round"], weights=lat_ms, minlength=len(slow))
    p50, p90 = np.percentile(norm_ms, [50, 90])
    return {"ops": len(lat_ms), "rounds": len(slow),
            "beyond_p90": int((norm_ms > p90).sum()),
            "ops_per_s": float(np.median(counts / (round_ms / 1e3))),
            "op_p50_ms": float(p50), "op_p90_ms": float(p90),
            "slowdown_median": float(np.median(slow)),
            "raw_ops_per_s": float(np.median(counts / (raw_round_ms / 1e3))),
            "raw_op_p50_ms": float(np.percentile(lat_ms, 50)),
            "raw_op_p90_ms": float(np.percentile(lat_ms, 90))}


def judge(wl: workloads.Workload, phases: list[dict]) -> dict:
    """Check every executed slot once; count failures over all attempted ops."""
    verdicts: dict[int, tuple[bool, bool, str]] = {}
    attempted = failed = 0
    failures: list[str] = []
    for phase in phases:
        for slot in phase["slots"]:
            if slot not in verdicts:
                verdicts[slot] = phase["check"](slot)
                if not verdicts[slot][0]:
                    failures.append(f"slot {slot} ({wl.ops[slot].kind}): {verdicts[slot][2]}")
            attempted += 1
            failed += not verdicts[slot][0]
    return {"attempted": attempted, "failed": failed, "failures": failures}


def judge_defects(wl: workloads.Workload, outputs: dict[int, object]) -> dict:
    """Known-defect inputs: how many the program still gets wrong, and any
    failure the documented defects do not explain."""
    failed, unexplained = 0, []
    for slot, out in outputs.items():
        ok, explained, reason = oracle.check(wl.ops[slot], out)
        failed += not ok
        if not (ok or explained):
            unexplained.append(f"slot {slot} ({wl.ops[slot].kind}): {reason}")
    return {"known_defect.inputs": len(outputs), "known_defect.failed": failed,
            "known_defect.failed_ratio": failed / len(outputs) if outputs else 0.0,
            "unexplained": unexplained}


# ---------------------------------------------------------------------------
# cli workload: subprocesses from this process, compared with in-process runs


def run_cli_loop(wl: workloads.Workload, seconds: float) -> dict:
    """Sequential console-entry subprocesses, whole rounds, calibration after each."""
    outputs: dict[int, tuple[int, bytes]] = {}
    slots, lat_ns, op_round, slowdown, rss_kb = [], [], [], [], 0
    meter = calibrate.Meter()
    clock = time.perf_counter_ns
    env = child_env()
    start = clock()
    while not slowdown or clock() - start < seconds * 1e9 or len(slots) < MIN_OPS:
        for slot in wl.rounds[len(slowdown) % len(wl.rounds)]:
            t0 = clock()
            proc = subprocess.Popen([sys.executable, "-m", "simplexcone.cli",
                                     *wl.ops[slot].args[0]],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            lat_ns.append(clock() - t0)
            rss_kb = max(rss_kb, usage.ru_maxrss)
            slots.append(slot)
            op_round.append(len(slowdown))
            outputs[slot] = (proc.returncode, out)
            meter.between_ops()
        slowdown.append(meter.end_round())
    return {"slots": slots, "lat_ns": lat_ns, "op_round": op_round, "slowdown": slowdown,
            "outputs": outputs, "maxrss_kb": rss_kb}


def cli_replay(wl: workloads.Workload, slots: list[int], traced: bool = False):
    """Run the argv lists in this process; when traced, time parse/handler/render."""
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import simplexcone.cli as cli

    stages = {"parse": 0, "handler": 0, "render": 0}
    active: set[str] = set()

    def timed(stage, fn):
        def inner(*args, **kwargs):
            if stage in active:  # render_json recurses; time the outermost call
                return fn(*args, **kwargs)
            active.add(stage)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[stage] += time.perf_counter_ns() - t0
                active.discard(stage)
        return inner

    build = cli.build_parser

    def build_parser():
        parser = build()
        parser.parse_args = timed("parse", parser.parse_args)
        return parser

    restore = [(cli, "build_parser", build), (cli, "render_json", cli.render_json),
               (cli, "render_pretty", cli.render_pretty), (cli, "_HANDLERS", cli._HANDLERS)]
    if traced:
        cli.build_parser = build_parser
        cli.render_json = timed("render", cli.render_json)
        cli.render_pretty = timed("render", cli.render_pretty)
        cli._HANDLERS = {k: timed("handler", f) for k, f in cli._HANDLERS.items()}
    results: dict[int, tuple[int, bytes]] = {}
    t0 = time.perf_counter_ns()
    try:
        for slot in slots:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(wl.ops[slot].args[0]))
            results[slot] = (code, buf.getvalue().encode())
    finally:
        for owner, attr, value in restore:
            setattr(owner, attr, value)
    wall_s = (time.perf_counter_ns() - t0) / 1e9
    n = max(len(slots), 1)
    return results, {"ops_per_s": len(slots) / wall_s,
                     **{f"cli.{k}_s": v / 1e9 / n for k, v in stages.items()}}


# ---------------------------------------------------------------------------


def run_cli_workload(wl: workloads.Workload, seconds: float, trace: bool):
    """Subprocess loop, then in-process replays for the check and the trace."""
    loop = run_cli_loop(wl, seconds)
    executed = sorted(set(loop["slots"]))
    replay, _ = cli_replay(wl, executed)
    loop["check"] = lambda slot: oracle.check_cli(wl.ops[slot], *loop["outputs"][slot],
                                                  replay[slot])
    layers: dict = {}
    if trace:
        ratios = []
        for _ in range(3):  # each replay lasts about a second; alternate and take the median
            _, warm = cli_replay(wl, executed)
            traced_out, traced = cli_replay(wl, executed, traced=True)
            ratios.append(traced["ops_per_s"] / warm["ops_per_s"])
        layers = {k: v for k, v in traced.items() if k.startswith("cli.")}
        layers["trace.overhead_ratio"] = statistics.median(ratios)
        layers["trace.results_identical"] = traced_out == replay
    return [loop], loop["maxrss_kb"], layers


def run_library_workload(wl: workloads.Workload, args):
    """Worker loop (untraced, then traced when asked) judged by the oracle."""
    job = {"workload": wl.name, "ops": [(op.kind, op.args) for op in wl.ops],
           "rounds": wl.rounds, "defects": wl.defects, "seconds": args.seconds,
           "trace": bool(args.trace)}
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        job["spans_path"] = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.tsv.gz")
    result = run_worker(job)
    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    for phase in phases:
        outs = phase["outputs"]
        phase["check"] = lambda slot, outs=outs: oracle.check(wl.ops[slot], outs[slot])
    layers = dict(result.get("layers", {}))
    if args.trace:
        layers.update(judge_defects(wl, result["defects"]))
        traced, untraced = result["traced"], result["untraced"]
        layers["trace.overhead_ratio"] = (loop_stats(traced)["ops_per_s"]
                                          / loop_stats(untraced)["ops_per_s"])
        layers["trace.results_identical"] = all(
            pickle.dumps(traced["outputs"][k]) == pickle.dumps(untraced["outputs"][k])
            for k in traced["outputs"].keys() & untraced["outputs"].keys())
    return phases, result["maxrss_kb"], layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "simplexcone", "__init__.py")):
        print("error: run from a checkout root holding src/simplexcone", file=sys.stderr)
        return 2

    t_gen = time.perf_counter()
    wl = workloads.GENERATORS[args.workload](args.seed)
    gen_s = time.perf_counter() - t_gen
    setup, imports, setup_slowdown = measure_setup(args.workload, SETUP_SAMPLES)
    if args.workload == "cli":
        seconds = args.seconds / 2 if args.trace else args.seconds
        phases, rss_kb, layers = run_cli_workload(wl, seconds, bool(args.trace))
    else:
        phases, rss_kb, layers = run_library_workload(wl, args)

    verdict = judge(wl, phases)
    stats = loop_stats(phases[0])
    failed_ratio = verdict["failed"] / verdict["attempted"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "input_digest": wl.digest(),
        "pool_ops": len(wl.ops), "generation_s": gen_s, "loop": stats,
        "failed_ratio": failed_ratio, "setup_samples_s": setup, "import_samples_s": imports,
        "setup_slowdown": setup_slowdown, "raw_setup_s": statistics.median(setup),
        "failures": verdict["failures"][:20],
    }
    correct = not verdict["failures"]
    if args.trace:
        values = dict(layers, **{"cli.import_s": statistics.median(imports)})
        unexplained = layers.pop("unexplained", [])
        correct = correct and not unexplained and bool(layers["trace.results_identical"])
        report["trace_results_identical"] = layers["trace.results_identical"]
        report["known_defects"] = {k: v for k, v in layers.items()
                                   if k.startswith("known_defect.")}
        report["unexplained_known_defect_failures"] = unexplained[:20]
        units = spec_metrics("per_layer")
    else:
        values = {
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_p90_ms": stats["op_p90_ms"],
            "setup_s": statistics.median(setup) / setup_slowdown,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = spec_metrics("end_to_end")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


def spec_metrics(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json.

    A per-layer metric a workload never exercises (optimizer counts on
    ``queries``, say) reads 0.
    """
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    raise SystemExit(main())
