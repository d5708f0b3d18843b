"""Command line interface.

Instance files are JSON objects::

    {"dimension": 2, "squared_lengths": [1.0, 1.0, 1.0], "labels": {...}}

An instance holds exactly one of ``squared_lengths``, taken as given, or
``lengths``, squared on ingest.

Reports are JSON on stdout, written by the stdlib encoder: every float is
its shortest round-trip repr, so it parses back bit for bit and reruns
with the same seed and ``--no-timestamp`` are byte-identical.
``--pretty`` lays out that same JSON for humans, floats at 12
significant digits.

Exit codes: 0 success, 1 the request itself was refused (one line on
stderr, nothing on stdout), 2 negative geometric verdict (Invalid / not
realizable, including a probe endpoint that is not Valid), 3 numerical
failure (an optimizer run that did not converge, or a numerical refusal
of the library).  Exits 0, 2 and 3 print a report, whose results hold
``{"error": ...}`` when the answer could not be computed.  A reader that
closes stdout before the report is written does not change the exit code:
the report is dropped, with no traceback.

``python -m simplexcone.cli`` and the ``simplexcone`` script run
:func:`entry`, which ends the process right after the report is flushed,
without interpreter teardown; :func:`main` returns its exit code and stays
safe to call in process.  A ``validate`` process measured on 2 cores, with
no bytecode cached: importing numpy takes 74 to 79 ms over a bare
interpreter's 42 ms, compiling ``cli``, ``simplex`` and ``linalg`` 12 to
17 ms, and the teardown that is now skipped took 12 to 13 ms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import combinations
from typing import NoReturn

import numpy as np

from . import __version__

# dual, convexity and extremal are imported by the handlers that run them:
# a process that runs validate, volume or faces compiles and loads only these
from .linalg import DEFAULT_PD_TOL, ConvergenceError, NotPositiveDefinite, NullityNotOne
from .simplex import (
    NotRealizable,
    SquaredEdgeLengths,
    Verdict,
    _as_floats,
    _check_k_faces,
    edge_count,
    face_volume,
    random_simplex,
    validate,
    volume,
)

__all__ = ["main", "parse_instance", "run"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with a digit, so "-1,2" is a value as "-1" and "-.5" are;
        # nor is any spelled inf, infinity or nan, so "-inf" is a value too
        self._negative_number_matcher = re.compile(
            r"-(?:\.?\d|(?:inf|infinity|nan)$)", re.IGNORECASE
        )

    def error(self, message):  # route argparse's exit-2 to our usage exit-1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# deterministic rendering

def _numpy_value(value):
    """``json.dumps`` hook for the arrays that reports carry."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(value) -> str:
    try:
        return json.dumps(value, default=_numpy_value, allow_nan=False,
                          ensure_ascii=False, separators=(",", ":"))
    except ValueError as exc:
        raise ValueError("cannot serialize a non-finite number") from exc


def _pretty_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def render_pretty(value, indent: int = 0) -> list[str]:
    """Lay out a parsed JSON report, floats at 12 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        entries = [(f"{k}:", v) for k, v in value.items()]
    else:
        entries = [("-", v) for v in value]
    lines: list[str] = []
    for head, v in entries:
        if _is_scalar(v):
            lines.append(f"{pad}{head} {_pretty_scalar(v)}")
        elif isinstance(v, list) and all(_is_scalar(x) for x in v):
            inline = ", ".join(_pretty_scalar(x) for x in v)
            lines.append(f"{pad}{head} [{inline}]")
        else:
            lines.append(f"{pad}{head}")
            lines.extend(render_pretty(v, indent + 1))
    return lines


# ---------------------------------------------------------------------------
# instance files

_ALLOWED_KEYS = {"dimension", "squared_lengths", "lengths", "labels"}


def _instance_from_text(text: str) -> tuple[SquaredEdgeLengths, bool]:
    """The instance, and whether its entries were plain lengths."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed instance: {exc}") from exc
    except RecursionError:  # the parser recurses once per level of nesting
        raise UsageError("malformed instance: nested too deeply") from None
    if not isinstance(obj, dict):
        raise UsageError("instance must be a JSON object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise UsageError(f"unknown instance fields: {sorted(unknown)}")
    if "dimension" not in obj:
        raise UsageError("instance is missing 'dimension'")
    n = obj["dimension"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError("'dimension' must be an integer >= 1")
    lengths = "lengths" in obj
    if lengths == ("squared_lengths" in obj):
        raise UsageError("instance needs exactly one of 'squared_lengths' and 'lengths'")
    values = obj["lengths" if lengths else "squared_lengths"]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise UsageError("edge entries must be a list of numbers")
    expected = edge_count(n)
    if len(values) != expected:
        raise UsageError(
            f"dimension {n} needs {expected} edge entries (n(n+1)/2), got {len(values)}"
        )
    arr = _as_floats(values)
    if lengths:
        if not (np.isfinite(arr) & (arr > 0.0)).all():  # -2 must not pass as 2
            raise UsageError("every length must be a positive finite number")
        with np.errstate(over="ignore"):  # inf past the float range, refused by position below
            arr = arr * arr
    try:
        return SquaredEdgeLengths(n, arr), lengths
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load(source: str, inputs: dict) -> SquaredEdgeLengths:
    """Load an instance from a file path or from inline JSON text, and fill
    the report's ``inputs`` block: origin, digest and parsed entries."""
    if os.path.isfile(source):
        with open(source, "rb") as fh:
            raw = fh.read()
        inputs["path"] = source
    elif source.lstrip().startswith("{"):
        raw = source.encode("utf-8")
        inputs["inline"] = True
    else:
        raise UsageError(f"no such file: {source}")
    ell, lengths = _instance_from_text(raw.decode("utf-8"))
    inputs.update(
        sha256=hashlib.sha256(raw).hexdigest(),
        dimension=ell.n,
        squared_lengths=ell.s.tolist(),
        lengths_converted=lengths,
    )
    return ell


def parse_instance(source: str) -> SquaredEdgeLengths:
    """Load an instance from a file path or from inline JSON text."""
    return _load(source, {})


def _digest_params(params: dict) -> str:
    return hashlib.sha256(render_json(params).encode("utf-8")).hexdigest()


def _parse_face(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--face expects comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands: each fills the report's inputs block before it computes, then
# its results, and returns the exit code; ``run`` reports what they raise


def _cmd_validate(args, inputs: dict, results: dict) -> int:
    ell = _load(args.instance, inputs)
    report = validate(ell, pd_tol=args.tolerance)
    results.update(asdict(report), verdict=report.verdict.value)
    return 2 if report.verdict is Verdict.INVALID else 0


def _cmd_volume(args, inputs: dict, results: dict) -> int:
    ell = _load(args.instance, inputs)
    if args.face is not None:
        face = _parse_face(args.face)
        results["face"] = list(face)
        results["volume"] = face_volume(ell, face, pd_tol=args.tolerance)
    else:
        results["volume"] = volume(ell, pd_tol=args.tolerance)
    return 0


def _cmd_faces(args, inputs: dict, results: dict) -> int:
    ell = _load(args.instance, inputs)
    _check_k_faces(ell.n, args.k)
    results["k"] = args.k
    results["faces"] = [
        {"vertices": list(verts), "volume": face_volume(ell, verts, pd_tol=args.tolerance)}
        for verts in combinations(range(ell.n + 1), args.k + 1)
    ]
    return 0


def _cmd_dual(args, inputs: dict, results: dict) -> int:
    from .dual import _adjugate_ratio, dual_gram, null_direction

    report = dual_gram(_load(args.instance, inputs), pd_tol=args.tolerance)
    results.update(asdict(report))  # kept next to the error if the nullity test refuses
    results["null_direction"] = null_direction(report.gstar)
    if args.ratio is not None:
        # read off adjugate(gstar), as area_ratio_from_adjugate reads it
        i, j = args.ratio
        value = _adjugate_ratio(report.gstar, i, j)
        results["ratio"] = {"i": i, "j": j, "squared_area_ratio": value}
    return 0


def _cmd_probe(args, inputs: dict, results: dict) -> int:
    from .convexity import probe_log_concavity, probe_root_concavity

    inputs["first"], inputs["second"] = {}, {}
    first = _load(args.first, inputs["first"])
    second = _load(args.second, inputs["second"])
    if args.face is not None and args.mode != "log":
        raise UsageError("--face applies to --mode log only")
    face = _parse_face(args.face) if args.face is not None else None
    if args.mode == "log":
        report = probe_log_concavity(
            first, second, face, samples=args.samples, pd_tol=args.tolerance
        )
    else:
        report = probe_root_concavity(
            first, second, samples=args.samples, pd_tol=args.tolerance
        )
    results.update(mode=args.mode, **asdict(report))
    if args.mode == "log":
        results["face"] = list(face) if face else list(range(first.n + 1))
    return 0


def _cmd_counterexample(args, inputs: dict, results: dict) -> int:
    from .convexity import (
        frankel_instance,
        frankel_length_threshold,
        nontri_instance,
        nontri_threshold,
    )

    eps = args.epsilon if args.epsilon is not None else 0.01
    params = {"family": args.family, "epsilon": eps, "bisect": bool(args.bisect),
              "tolerance": args.tolerance}
    inputs.update(params, sha256=_digest_params(params))
    if args.family == "nontri":
        instance = nontri_instance(eps, pd_tol=args.tolerance)
    else:
        instance = frankel_instance(eps, pd_tol=args.tolerance)
    pieces = {}
    for name, (ell, rep) in instance.pieces.items():
        pieces[name] = {
            "verdict": rep.verdict.value,
            "smallest_gram_eigenvalue": rep.smallest_gram_eigenvalue,
            "triangle_inequalities_hold": rep.triangle_inequalities_hold,
            "squared_lengths": ell.s,
        }
    results.update(label=instance.label, epsilon=eps, pieces=pieces)
    if args.bisect:
        if args.family == "nontri":
            results["threshold"] = nontri_threshold(pd_tol=args.tolerance)
        else:
            results["threshold"] = frankel_length_threshold(pd_tol=args.tolerance)
    return 0


def _cmd_optimize(args, inputs: dict, results: dict) -> int:
    from .extremal import (
        MaxIterations,
        Objective,
        ObjectiveKind,
        StepIntoInvalidRegion,
        _check_mean,
        maximize,
    )

    _check_k_faces(args.n, args.k)
    # maximize's own check, made before a start is drawn at a total that
    # would underflow its squared lengths
    _check_mean(args.total / edge_count(args.n))
    params = {
        "n": args.n,
        "total": args.total,
        "objective": args.objective,
        "k": args.k,
        "seed": args.seed,
        "starts": args.starts,
        "max_iter": args.max_iter,
        "tolerance": args.tolerance,
    }
    inputs.update(params, sha256=_digest_params(params))
    objective = Objective(ObjectiveKind(args.objective), args.k)
    rng = np.random.default_rng(args.seed)
    runs = []
    for _ in range(args.starts):
        try:
            start = random_simplex(args.n, rng, total=args.total, pd_tol=args.tolerance)
        except RuntimeError as exc:  # no draw clears a tolerance this large
            raise UsageError(f"{exc} at --tolerance {args.tolerance}") from exc
        entry: dict = {"start_squared_lengths": start.s}
        runs.append(entry)
        try:
            trace = maximize(
                args.n,
                args.total,
                objective,
                start=start,
                max_iter=args.max_iter,
                pd_tol=args.tolerance,
            )
        except (MaxIterations, StepIntoInvalidRegion) as exc:
            entry.update({"converged": False, "error": str(exc)})
            trace = exc.trace
        else:
            entry.update(
                {
                    "converged": True,
                    "iterations": len(trace.iterates) - 1,
                    "objective": trace.iterates[-1][1],
                    "regularity_deviation": trace.regularity_deviation,
                    "final_squared_lengths": trace.final.s,
                }
            )
        entry.update(rejections=trace.rejections, gradient_steps=trace.gradient_steps)
    results["runs"] = runs
    converged = [index for index, entry in enumerate(runs) if entry["converged"]]
    if converged:  # max keeps the first of equal objectives
        best = max(converged, key=lambda index: runs[index]["objective"])
        results["best"] = {"run": best, "objective": runs[best]["objective"]}
    return 0 if len(converged) == len(runs) else 3


#: bounds of ``probe --samples``; the all-pairs margin takes O(samples) time
#: on exactly concave samples and O(samples^2) on any others
_MIN_SAMPLES, _MAX_SAMPLES = 3, 100_000


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _sample_count(text: str) -> int:
    value = _integer(text)
    if not (_MIN_SAMPLES <= value <= _MAX_SAMPLES):
        raise argparse.ArgumentTypeError(
            f"must lie in {_MIN_SAMPLES}..{_MAX_SAMPLES}, got {value}"
        )
    return value


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _at_least(low: int):
    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tolerance",
        type=_tolerance,
        default=DEFAULT_PD_TOL,
        help="positive-definiteness tolerance (default %(default)s)",
    )
    sub.add_argument("--pretty", action="store_true", help="human-readable output")
    sub.add_argument("--no-timestamp", action="store_true", help="omit the timestamp")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simplexcone", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("validate", help="realizability verdict for an instance")
    p.add_argument("instance")
    _add_common(p)

    p = sub.add_parser("volume", help="volume of an instance or one of its faces")
    p.add_argument("instance")
    p.add_argument("--face", help="comma-separated vertex list, e.g. 0,1,2")
    _add_common(p)

    p = sub.add_parser("faces", help="volumes of every k-dimensional face")
    p.add_argument("instance")
    p.add_argument("--k", type=_integer, required=True)
    _add_common(p)

    p = sub.add_parser("dual", help="dual Gram matrix, facet areas, identity residuals")
    p.add_argument("instance")
    p.add_argument("--ratio", nargs=2, type=_integer, metavar=("I", "J"))
    _add_common(p)

    p = sub.add_parser("probe", help="concavity probe along a cone segment")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", choices=["log", "root"], required=True)
    p.add_argument("--samples", type=_sample_count, default=33, help=(
        "3..100000 (default %(default)s); the exact all-pairs margin takes "
        "O(samples) time on exactly concave samples, the usual case, and "
        "O(samples^2) on others: about 0.1 s at 20001, about 2.5 s at 100000"))
    p.add_argument("--face", help="restrict log mode to a face")
    _add_common(p)

    p = sub.add_parser("counterexample", help="explicit counterexample families")
    p.add_argument("family", choices=["nontri", "frankel"])
    p.add_argument("--epsilon", type=_positive, default=None)
    p.add_argument("--bisect", action="store_true", help="bisect the validity threshold")
    _add_common(p)

    p = sub.add_parser("optimize", help="Newton ascent, gradient fallback, to the regular point")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--total", type=_positive, required=True)
    p.add_argument("--objective", choices=["logprod", "sumroot"], required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--starts", type=_at_least(1), default=1)
    p.add_argument("--max-iter", type=_at_least(1), default=10000)
    _add_common(p)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "volume": _cmd_volume,
    "faces": _cmd_faces,
    "dual": _cmd_dual,
    "probe": _cmd_probe,
    "counterexample": _cmd_counterexample,
    "optimize": _cmd_optimize,
}


def run(argv: list[str]) -> int:
    """Execute one CLI invocation: parse, dispatch, print the report.

    The one place that maps an outcome to its exit code.  A typed refusal
    of the library prints a report with the inputs and ``{"error": ...}``:
    ``NotRealizable`` exits 2; ``NullityNotOne``, ``NotPositiveDefinite``
    and ``ConvergenceError`` exit 3.  Exit 1, one line on stderr and nothing
    on stdout, means the request itself was refused: a ``UsageError`` or a
    library ``ValueError``.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            print(parser.format_usage(), file=sys.stderr, end="")
            return 1
        inputs: dict = {}
        results: dict = {}
        try:
            code = _HANDLERS[args.command](args, inputs, results)
        except NotRealizable as exc:
            results["error"], code = str(exc), 2
        except (NullityNotOne, NotPositiveDefinite, ConvergenceError) as exc:
            results["error"], code = str(exc), 3
        report = {"command": args.command, "version": __version__}
        if not args.no_timestamp:
            report["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        report["inputs"] = inputs
        report["results"] = results
        text = render_json(report)
        if args.pretty:
            text = "\n".join(render_pretty(json.loads(text)))
    except (UsageError, ValueError) as exc:  # ValueError: a library check, or an overflow
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left; the exit-time flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)


def entry() -> NoReturn:
    """The process entry of ``python -m simplexcone.cli`` and of the
    ``simplexcone`` script: ``main``, then flush both streams, then
    ``os._exit`` with ``main``'s code.

    ``os._exit`` skips interpreter teardown, the final garbage collection
    and module cleanup, whose work a finished CLI process throws away.  The
    CLI writes only stdout and stderr and registers no ``atexit`` handler,
    so the flush is all that teardown would still do for it.  An exception
    that escapes ``main`` ends the process the usual way, with its traceback.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # its descriptor was closed before start-up
            continue
        try:
            stream.flush()  # argparse's --help and --version text is still buffered
        except BrokenPipeError:  # the reader left: as in run, drop the text, keep the code
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
