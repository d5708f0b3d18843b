"""Command line interface.

Instance files are JSON objects::

    {"dimension": 2, "squared_lengths": [1.0, 1.0, 1.0], "labels": {...}}

Reports are JSON on stdout (``--pretty`` for a human layout), with every
float serialized at 17 significant digits so that reruns with the same
seed and ``--no-timestamp`` are byte-identical.

Exit codes: 0 success, 1 usage or parse error, 2 negative geometric
verdict (Invalid / not realizable, including a probe endpoint that is not
Valid), 3 numerical failure (an optimizer run that did not converge, a
dual Gram matrix whose nullity is not one, or an eigensolver that did not
converge).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .convexity import (
    frankel_instance,
    frankel_length_threshold,
    nontri_instance,
    nontri_threshold,
    probe_log_concavity,
    probe_root_concavity,
)
from .dual import area_ratio_from_adjugate, dual_gram, null_direction
from .extremal import (
    MaxIterations,
    Objective,
    ObjectiveKind,
    StepIntoInvalidRegion,
    maximize,
)
from .linalg import DEFAULT_PD_TOL, ConvergenceError, NullityNotOne
from .simplex import (
    NotRealizable,
    SquaredEdgeLengths,
    Verdict,
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
    def error(self, message):  # route argparse's exit-2 to our usage exit-1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# deterministic rendering

def _float_repr(x: float, spec: str = ".17g") -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize the non-finite number {x}")
    return format(x, spec)


def _escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def render_json(value) -> str:
    if isinstance(value, dict):
        parts = (f"{_escape(str(k))}:{render_json(v)}" for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_repr(float(value))
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if isinstance(value, np.ndarray):
        return render_json(value.tolist())
    raise TypeError(f"cannot serialize {type(value)!r}")


def _pretty_scalar(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _float_repr(float(value), ".12g")
    return str(value)


def _is_scalar(value) -> bool:
    return isinstance(value, (bool, int, float, str, np.integer, np.floating)) or value is None


def render_pretty(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if _is_scalar(v):
                lines.append(f"{pad}{k}: {_pretty_scalar(v)}")
            elif isinstance(v, (list, tuple, np.ndarray)) and all(
                _is_scalar(x) for x in v
            ):
                inline = ", ".join(_pretty_scalar(x) for x in v)
                lines.append(f"{pad}{k}: [{inline}]")
            else:
                lines.append(f"{pad}{k}:")
                lines.extend(render_pretty(v, indent + 1))
    elif isinstance(value, (list, tuple, np.ndarray)):
        for v in value:
            if _is_scalar(v):
                lines.append(f"{pad}- {_pretty_scalar(v)}")
            elif isinstance(v, (list, tuple, np.ndarray)) and all(
                _is_scalar(x) for x in v
            ):
                inline = ", ".join(_pretty_scalar(x) for x in v)
                lines.append(f"{pad}- [{inline}]")
            else:
                lines.append(f"{pad}-")
                lines.extend(render_pretty(v, indent + 1))
    else:
        lines.append(f"{pad}{_pretty_scalar(value)}")
    return lines


# ---------------------------------------------------------------------------
# instance files

_ALLOWED_KEYS = {"dimension", "squared_lengths", "lengths", "labels"}


def _instance_from_object(obj, *, lengths: bool) -> SquaredEdgeLengths:
    import json as _json  # stdlib parser; rendering stays hand-rolled

    if isinstance(obj, str):
        try:
            obj = _json.loads(obj)
        except _json.JSONDecodeError as exc:
            raise UsageError(f"malformed instance: {exc}") from exc
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
    if lengths:
        values = obj.get("lengths", obj.get("squared_lengths"))
        if values is None:
            raise UsageError("instance is missing 'lengths'")
    else:
        if "squared_lengths" not in obj:
            if "lengths" in obj:
                raise UsageError("instance has 'lengths'; pass --lengths to use it")
            raise UsageError("instance is missing 'squared_lengths'")
        values = obj["squared_lengths"]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise UsageError("edge entries must be a list of numbers")
    expected = edge_count(n)
    if len(values) != expected:
        raise UsageError(
            f"dimension {n} needs {expected} edge entries (n(n+1)/2), got {len(values)}"
        )
    arr = np.array(values, dtype=float)
    if lengths:
        arr = arr * arr
    try:
        return SquaredEdgeLengths(n, arr)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_with_digest(source: str, *, lengths: bool) -> tuple[SquaredEdgeLengths, dict]:
    """Load an instance from a file path or from inline JSON text, with
    the report's ``inputs`` block: origin, digest and parsed entries."""
    if os.path.isfile(source):
        with open(source, "rb") as fh:
            raw = fh.read()
        origin = {"path": source}
    elif source.lstrip().startswith("{"):
        raw = source.encode("utf-8")
        origin = {"inline": True}
    else:
        raise UsageError(f"no such file: {source}")
    ell = _instance_from_object(raw.decode("utf-8"), lengths=lengths)
    inputs = dict(origin)
    inputs.update(
        {
            "sha256": hashlib.sha256(raw).hexdigest(),
            "dimension": ell.n,
            "squared_lengths": ell.s.tolist(),
            "lengths_converted": bool(lengths),
        }
    )
    return ell, inputs


def parse_instance(source: str, *, lengths: bool = False) -> SquaredEdgeLengths:
    """Load an instance from a file path or from inline JSON text."""
    return _load_with_digest(source, lengths=lengths)[0]


def _digest_params(params: dict) -> str:
    return hashlib.sha256(render_json(params).encode("utf-8")).hexdigest()


def _parse_face(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--face expects comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> tuple[dict, dict, int]:
    ell, inputs = _load_with_digest(args.instance, lengths=args.lengths)
    report = validate(ell, pd_tol=args.tolerance)
    results = {
        "verdict": report.verdict.value,
        "smallest_gram_eigenvalue": report.smallest_gram_eigenvalue,
        "tolerance": report.tolerance,
        "triangle_inequalities_hold": report.triangle_inequalities_hold,
    }
    code = 2 if report.verdict is Verdict.INVALID else 0
    return inputs, results, code


def _cmd_volume(args) -> tuple[dict, dict, int]:
    ell, inputs = _load_with_digest(args.instance, lengths=args.lengths)
    face = _parse_face(args.face) if args.face else None
    try:
        if face is None:
            value = volume(ell, pd_tol=args.tolerance)
            results = {"volume": value}
        else:
            value = face_volume(ell, face, pd_tol=args.tolerance)
            results = {"face": list(face), "volume": value}
    except NotRealizable as exc:
        results = {"error": str(exc)}
        if face is not None:
            results["face"] = list(face)
        return inputs, results, 2
    return inputs, results, 0


def _cmd_faces(args) -> tuple[dict, dict, int]:
    ell, inputs = _load_with_digest(args.instance, lengths=args.lengths)
    k = args.k
    _check_k_faces(ell.n, k)
    from itertools import combinations

    entries = []
    try:
        for verts in combinations(range(ell.n + 1), k + 1):
            entries.append(
                {
                    "vertices": list(verts),
                    "volume": face_volume(ell, verts, pd_tol=args.tolerance),
                }
            )
    except NotRealizable as exc:
        return inputs, {"k": k, "error": str(exc)}, 2
    return inputs, {"k": k, "faces": entries}, 0


def _cmd_dual(args) -> tuple[dict, dict, int]:
    ell, inputs = _load_with_digest(args.instance, lengths=args.lengths)
    try:
        report = dual_gram(ell, pd_tol=args.tolerance)
    except NotRealizable as exc:
        return inputs, {"error": str(exc)}, 2
    try:
        kernel = null_direction(report.gstar)
    except NullityNotOne as exc:
        return inputs, {"error": str(exc)}, 3
    results = {
        "gstar": report.gstar.tolist(),
        "areas": report.areas.tolist(),
        "null_residual": report.null_residual,
        "divergence_residual": report.divergence_residual,
        "null_direction": kernel.tolist(),
    }
    if args.ratio is not None:
        i, j = args.ratio
        value = area_ratio_from_adjugate(ell, i, j, pd_tol=args.tolerance)
        results["ratio"] = {"i": i, "j": j, "squared_area_ratio": value}
    return inputs, results, 0


def _cmd_probe(args) -> tuple[dict, dict, int]:
    first, inputs_first = _load_with_digest(args.first, lengths=args.lengths)
    second, inputs_second = _load_with_digest(args.second, lengths=args.lengths)
    inputs = {"first": inputs_first, "second": inputs_second}
    if args.face and args.mode != "log":
        raise UsageError("--face applies to --mode log only")
    face = _parse_face(args.face) if args.face else None
    try:
        if args.mode == "log":
            report = probe_log_concavity(
                first, second, face, samples=args.samples, pd_tol=args.tolerance
            )
        else:
            report = probe_root_concavity(
                first, second, samples=args.samples, pd_tol=args.tolerance
            )
    except NotRealizable as exc:
        return inputs, {"error": str(exc)}, 2
    results = {
        "mode": args.mode,
        "samples": report.samples,
        "worst_midpoint_defect": report.worst_midpoint_defect,
        "worst_second_difference": report.worst_second_difference,
        "max_analytic_second_derivative": report.max_analytic_second_derivative,
        "passed": report.passed,
    }
    if args.mode == "log":
        results["face"] = list(face) if face else list(range(first.n + 1))
    return inputs, results, 0


def _cmd_counterexample(args) -> tuple[dict, dict, int]:
    eps = args.epsilon if args.epsilon is not None else 0.01
    params = {"family": args.family, "epsilon": eps, "bisect": bool(args.bisect)}
    inputs = dict(params)
    inputs["sha256"] = _digest_params(params)
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
            "squared_lengths": ell.s.tolist(),
        }
    results = {"label": instance.label, "epsilon": eps, "pieces": pieces}
    if args.bisect:
        if args.family == "nontri":
            results["threshold"] = nontri_threshold(pd_tol=args.tolerance)
        else:
            results["threshold"] = frankel_length_threshold(pd_tol=args.tolerance)
    return inputs, results, 0


def _cmd_optimize(args) -> tuple[dict, dict, int]:
    _check_k_faces(args.n, args.k)
    params = {
        "n": args.n,
        "total": args.total,
        "objective": args.objective,
        "k": args.k,
        "seed": args.seed,
        "starts": args.starts,
    }
    inputs = dict(params)
    inputs["sha256"] = _digest_params(params)
    objective = Objective(ObjectiveKind(args.objective), args.k)
    rng = np.random.default_rng(args.seed)
    runs = []
    best = None
    any_failed = False
    for index in range(args.starts):
        try:
            start = random_simplex(args.n, rng, total=args.total, pd_tol=args.tolerance)
        except RuntimeError as exc:  # no draw clears a tolerance this large
            raise UsageError(f"{exc} at --tolerance {args.tolerance}") from exc
        entry: dict = {"start_squared_lengths": start.s.tolist()}
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
            any_failed = True
            runs.append(entry)
            continue
        final_value = trace.iterates[-1][1]
        entry.update(
            {
                "converged": True,
                "iterations": len(trace.iterates) - 1,
                "objective": final_value,
                "regularity_deviation": trace.regularity_deviation,
                "final_squared_lengths": trace.final.s.tolist(),
            }
        )
        if best is None or final_value > best[1]:
            best = (index, final_value)
        runs.append(entry)
    results = {"runs": runs}
    if best is not None:
        results["best"] = {"run": best[0], "objective": best[1]}
    return inputs, results, 3 if any_failed else 0


#: bounds of ``probe --samples``; a probe holds samples * n^2 floats at once
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


def _at_least_one(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser, *, with_lengths: bool = True) -> None:
    sub.add_argument(
        "--tolerance",
        type=_tolerance,
        default=DEFAULT_PD_TOL,
        help="positive-definiteness tolerance (default %(default)s)",
    )
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable output")
    sub.add_argument("--no-timestamp", action="store_true", help="omit the timestamp")
    if with_lengths:
        sub.add_argument(
            "--lengths",
            action="store_true",
            help="instance entries are plain lengths; square them on ingest",
        )


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
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("dual", help="dual Gram matrix, facet areas, identity residuals")
    p.add_argument("instance")
    p.add_argument("--ratio", nargs=2, type=int, metavar=("I", "J"))
    _add_common(p)

    p = sub.add_parser("probe", help="concavity probe along a cone segment")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", choices=["log", "root"], required=True)
    p.add_argument("--samples", type=_sample_count, default=33, help=(
        "3..100000 (default %(default)s); the exact all-pairs margin takes "
        "O(samples^2) time: 0.24 s at 20001, about 6 s at 100000"))
    p.add_argument("--face", help="restrict log mode to a face")
    _add_common(p)

    p = sub.add_parser("counterexample", help="explicit counterexample families")
    p.add_argument("family", choices=["nontri", "frankel"])
    p.add_argument("--epsilon", type=_positive, default=None)
    p.add_argument("--bisect", action="store_true", help="bisect the validity threshold")
    _add_common(p, with_lengths=False)

    p = sub.add_parser("optimize", help="projected gradient ascent toward the regular point")
    p.add_argument("--n", type=_at_least_one, required=True)
    p.add_argument("--total", type=_positive, required=True)
    p.add_argument("--objective", choices=["logprod", "sumroot"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=_at_least_one, default=1)
    p.add_argument("--max-iter", type=_at_least_one, default=10000)
    _add_common(p, with_lengths=False)

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
    """Execute one CLI invocation: parse, dispatch, print the report."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    try:
        # an overflow shows up as a non-finite result, which the checks
        # below turn into exit 1; numpy's warning would only add noise
        with np.errstate(over="ignore", invalid="ignore"):
            inputs, results, code = _HANDLERS[args.command](args)
        report = {"command": args.command, "version": __version__}
        if not args.no_timestamp:
            report["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        report["inputs"] = inputs
        report["results"] = results
        text = "\n".join(render_pretty(report)) if args.pretty else render_json(report)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, NullityNotOne) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a library check, or a Gram matrix or result overflowed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
