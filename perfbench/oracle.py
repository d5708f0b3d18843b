"""Independent oracle: judge each op's output against the generator's references.

``check(op, out)`` returns ``(ok, explained, reason)``.  ``ok`` is False for
any wrong output, exception or non-convergence; such an op counts as
failed.  ``explained`` marks a failure of a known, documented kind:

* the library's absolute positive-definiteness floor
  ``pd_tol * max(1, |largest eigenvalue|)``, which rules a Gram matrix
  Degenerate whenever its smallest eigenvalue is below ``pd_tol`` in
  absolute terms, while the reference band is relative and so
  scale-invariant;
* an optimizer run that reports its own failure (``MaxIterations`` or
  ``StepIntoInvalidRegion``).

The generator keeps inputs of both kinds out of the timed rounds and lists
them as the workload's known defects, so a failed timed op is always a
wrong answer; among the known-defect inputs, any failure that is not
explained is a silent wrong answer.  Either makes the run incorrect.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import edge_pairs, gram, near_floor, squared_lengths

THRESHOLD_TOL = 1e-6  # the acceptance suite's tolerance on both bisections


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def _error(out) -> str | None:
    """The exception name when the op raised, else None."""
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[0], str) and out[0] == "error":
        return out[1]
    return None


def _is_error(out, name: str = "NotRealizable") -> bool:
    return _error(out) == name


def _triangle_margin(n: int, s: np.ndarray) -> float:
    """Smallest relative slack of the strict triangle inequalities (plain lengths)."""
    length = {p: math.sqrt(v) for p, v in zip(edge_pairs(n), s)}
    worst = math.inf
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                ab, ac, bc = length[(a, b)], length[(a, c)], length[(b, c)]
                top = max(ab, ac, bc)
                worst = min(worst, (ab + ac + bc - 2.0 * top) / top)
    return worst


def _check_query(op, out) -> tuple[bool, bool, str]:
    ref, kind = op.ref, op.kind
    n, s = op.args[0], op.args[1]
    verdict = ref["verdict"]
    floor = near_floor(ref["eig"])
    if kind == "validate":
        if not (isinstance(out, tuple) and out[0] in ("valid", "degenerate", "invalid")):
            return False, False, f"validate returned {out!r}"
        lam_err = abs(out[1] - ref["eig"][0]) <= 1e-8 * abs(ref["eig"][1])
        margin = _triangle_margin(n, s)
        tri_ok = abs(margin) < 1e-9 or out[3] == (margin > 0)
        if out[0] != verdict:
            explained = out[0] == "degenerate" and floor
            return False, explained, f"verdict {out[0]}, reference {verdict}"
        if not (lam_err and tri_ok):
            return False, False, "smallest eigenvalue or triangle flag disagrees"
        return True, False, ""
    if kind in ("volume", "face_volume"):
        if kind == "face_volume":
            verdict, expect, floor = ref["face_verdict"], ref["face_volume"], near_floor(
                ref["face_eig"])
        else:
            expect = ref.get("volume")
        if verdict == "invalid":
            if _is_error(out):
                return True, False, ""
            return False, floor and out == 0.0, f"expected NotRealizable, got {out!r}"
        if not isinstance(out, float):
            return False, False, f"{kind} returned {out!r}"
        if verdict == "degenerate":
            return (out == 0.0), False, "" if out == 0.0 else f"degenerate volume {out!r}"
        if _close(out, expect, 1e-7):
            return True, False, ""
        return False, floor and out == 0.0, f"volume {out!r}, reference {expect!r}"
    # embed, dual_gram, area_ratio: Valid input only, NotRealizable otherwise
    if verdict != "valid":
        if _is_error(out):
            return True, False, ""
        return False, False, f"expected NotRealizable for {verdict}, got {type(out).__name__}"
    if _is_error(out):
        return False, floor, f"{kind} raised NotRealizable on a Valid instance"
    if _error(out):
        return False, False, f"{kind} raised {out[1]}: {out[2]}"
    if kind == "embed":
        v = np.asarray(out)
        pts = np.vstack([np.zeros(n), v.T])
        ok = (v.shape == (n, n) and np.allclose(np.tril(v, -1), 0.0, atol=0.0)
              and (np.diag(v) > 0).all()
              and np.allclose(squared_lengths(pts), s, rtol=0.0, atol=1e-9 * s.max()))
        return bool(ok), False, "" if ok else "embedding does not reproduce the lengths"
    if kind == "dual_gram":
        gstar, areas, null_res, div_res = out
        ok = (np.allclose(gstar, ref["gstar"], rtol=0.0, atol=1e-7)
              and np.allclose(areas, ref["areas"], rtol=1e-7, atol=0.0)
              and null_res <= 1e-6 and div_res <= 1e-6)
        return bool(ok), False, "" if ok else "dual Gram or facet areas disagree"
    ok = isinstance(out, float) and _close(out, ref["ratio"], 1e-6)
    return ok, False, "" if ok else f"area ratio {out!r}, reference {ref['ratio']!r}"


def _check_maximize(op, out) -> tuple[bool, bool, str]:
    total = op.args[1]
    if not (isinstance(out, tuple) and out[0] in ("converged", "unconverged")):
        return False, False, f"maximize raised {out!r}"
    status, exc, iterations, deviation, final = out
    if status == "unconverged":
        return False, exc in ("MaxIterations", "StepIntoInvalidRegion"), (
            f"{exc or 'unconverged'} after {iterations} iterations")
    ok = deviation < 1e-6 and abs(float(np.sum(final)) - total) <= 1e-9 * total
    mean = float(np.mean(final))
    ok = ok and float(np.abs(final - mean).max()) / mean < 1e-6
    return ok, False, "" if ok else f"converged off the regular point ({deviation:.3e})"


def _face_lengths(s: np.ndarray, n: int, face) -> np.ndarray:
    index = {p: i for i, p in enumerate(edge_pairs(n))}
    return np.array([s[index[(face[a], face[b])]] for a, b in edge_pairs(len(face) - 1)])


def probe_reference(op) -> tuple[float, float, float, float]:
    """Worst midpoint defect, worst second difference, largest analytic second
    derivative and largest |value| along the segment, from batched numpy
    LAPACK calls on the same sample grid."""
    if op.kind == "probe_log":
        n, s1, s2, face, samples = op.args
        face = tuple(range(n + 1)) if face is None else tuple(face)
        s1, s2 = _face_lengths(s1, n, face), _face_lengths(s2, n, face)
    else:
        n, s1, s2, samples = op.args
        face = tuple(range(n + 1))
    k = len(face) - 1
    g1, g2 = gram(k, s1), gram(k, s2)
    ts = np.linspace(0.0, 1.0, samples)
    gt = (1.0 - ts)[:, None, None] * g1 + ts[:, None, None] * g2
    delta = g2 - g1
    _, logdet = np.linalg.slogdet(gt)
    x = np.linalg.solve(gt, np.broadcast_to(delta, gt.shape))
    first = np.trace(x, axis1=1, axis2=2)
    second = -np.einsum("tij,tji->t", x, x)
    logvol = 0.5 * logdet - math.lgamma(k + 1)
    if op.kind == "probe_log":
        values, analytic = logvol, 0.5 * second
    else:
        values = np.exp(logvol / n)
        du, ddu = 0.5 * first, 0.5 * second
        analytic = values * (ddu / n + (du / n) ** 2)
    worst_mid = math.inf
    for gap in range(2, samples, 2):
        mid = values[gap // 2: samples - gap // 2] - 0.5 * (values[: samples - gap] + values[gap:])
        worst_mid = min(worst_mid, float(mid.min()))
    second_diff = 2.0 * values[1:-1] - values[:-2] - values[2:]
    return worst_mid, float(second_diff.min()), float(analytic.max()), float(np.abs(values).max())


def _check_probe(op, out) -> tuple[bool, bool, str]:
    if not (isinstance(out, tuple) and len(out) == 5):
        return False, False, f"probe raised {out!r}"
    samples, mid, sd, analytic, passed = out
    if not passed or samples != op.args[-1]:
        return False, False, "probe did not pass"
    ref_mid, ref_sd, ref_an, vmax = probe_reference(op)
    atol = 1e-10 * max(1.0, vmax)
    ok = (abs(mid - ref_mid) <= atol and abs(sd - ref_sd) <= atol
          and abs(analytic - ref_an) <= 1e-8 * abs(ref_an) + 1e-12)
    return ok, False, "" if ok else "probe margins disagree with the reference"


def check(op, out) -> tuple[bool, bool, str]:
    if op.kind == "maximize":
        return _check_maximize(op, out)
    if op.kind in ("probe_log", "probe_root"):
        return _check_probe(op, out)
    if op.kind in ("nontri_threshold", "frankel_threshold"):
        ok = isinstance(out, float) and abs(out - op.ref["threshold"]) <= THRESHOLD_TOL
        return ok, False, "" if ok else f"threshold {out!r}"
    return _check_query(op, out)


def check_cli(op, code: int, stdout: bytes, replay: tuple[int, bytes]) -> tuple[bool, bool, str]:
    """A console run must match the in-process run byte for byte and the reference."""
    if (code, stdout) != replay:
        return False, False, "subprocess output differs from the in-process library run"
    ref, kind = op.ref, op.kind[4:]
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError):
        return False, False, f"unreadable report (exit {code})"
    if kind == "validate":
        expect_code = 2 if ref["verdict"] == "invalid" else 0
        if results.get("verdict") != ref["verdict"] or code != expect_code:
            return False, False, f"verdict {results.get('verdict')}, reference {ref['verdict']}"
        return True, False, ""
    if code != 0:
        return False, False, f"exit code {code}"
    if kind in ("volume", "volume_face"):
        ok = _close(results.get("volume", math.nan), ref["volume"], 1e-7)
    elif kind == "faces":
        n = json.loads(op.args[0][-2])["dimension"]
        k = results["k"]
        ok = len(results["faces"]) == math.comb(n + 1, k + 1) and all(
            f["volume"] > 0 for f in results["faces"])
    elif kind == "dual_ratio":
        ok = _close(results["ratio"]["squared_area_ratio"], ref["ratio"], 1e-6)
    elif kind in ("probe_log", "probe_root"):
        ok = results["passed"] is True
    elif kind in ("nontri_bisect", "frankel_bisect"):
        ok = abs(results["threshold"] - ref["threshold"]) <= THRESHOLD_TOL
    else:
        run = results["runs"][0]
        ok = run["converged"] and run["regularity_deviation"] < 1e-6
    return bool(ok), False, "" if ok else f"{kind} result disagrees with the reference"
