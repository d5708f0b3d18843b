"""End-to-end acceptance gate.

Twelve numbered criteria, each emitting one summary line (visible under
``pytest -s``).  Every criterion recomputes its claim from scratch at the
stated sample counts and tolerances; nothing is reused between criteria.
"""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest

import simplexcone as sc
from simplexcone import Objective, ObjectiveKind, SquaredEdgeLengths, Verdict
from simplexcone.cli import run as cli_run

from oracles import jacobi_eigendecompose


def _record(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {label}: {status}{suffix}"
    print(line)
    assert ok, line


def right_corner(n):
    s = np.empty(sc.edge_count(n))
    for pos, (i, j) in enumerate(sc.edge_pairs(n)):
        s[pos] = 1.0 if i == 0 else 2.0
    return SquaredEdgeLengths(n, s)


# ---------------------------------------------------------------------------


def test_01_closed_form_volumes():
    errors = []
    tri = sc.volume(SquaredEdgeLengths(2, np.ones(3)))
    if abs(tri - math.sqrt(3.0) / 4.0) > 1e-12:
        errors.append(f"triangle {tri}")
    tet = sc.volume(SquaredEdgeLengths(3, np.ones(6)))
    if abs(tet - math.sqrt(2.0) / 12.0) > 1e-12:
        errors.append(f"tetrahedron {tet}")
    for n in range(2, 9):
        vol = sc.volume(right_corner(n))
        expected = 1.0 / math.factorial(n)
        if abs(vol - expected) > 1e-12 * expected:
            errors.append(f"corner n={n} {vol}")
    _record(1, "closed-form volumes", not errors, "; ".join(errors))


def test_02_gram_characterization():
    rng = np.random.default_rng(20260801)
    worst_round_trip = 0.0
    for trial in range(1000):
        n = 2 + trial % 7
        ell = sc.random_simplex(n, rng, total=float(sc.edge_count(n)))
        verts = np.hstack([np.zeros((n, 1)), sc.embed(ell).vertices])
        for pos, (i, j) in enumerate(sc.edge_pairs(n)):
            d2 = float(np.sum((verts[:, i] - verts[:, j]) ** 2))
            worst_round_trip = max(worst_round_trip, abs(d2 - ell.s[pos]))

    rejected = 0
    attempts = 0
    while rejected < 1000 and attempts < 20000:
        attempts += 1
        n = 2 + attempts % 7
        ell = sc.random_simplex(n, rng, total=float(sc.edge_count(n)))
        lam0 = sc.smallest_eigenvalue(sc.gram_from_squared_lengths(ell))
        shifted = sc.gram_from_squared_lengths(ell) - 1.2 * lam0 * np.eye(n)
        try:
            bad = sc.squared_lengths_from_gram(shifted)
        except ValueError:
            continue  # spectrum shift pushed an edge entry out of the orthant
        report = sc.validate(bad)
        if report.verdict is Verdict.VALID:
            _record(2, "Gram characterization", False, "accepted a non-PD Gram")
        rejected += 1

    ok = worst_round_trip < 1e-9 and rejected == 1000
    _record(
        2,
        "Gram characterization",
        ok,
        f"round-trip {worst_round_trip:.3e}, rejected {rejected}/1000",
    )


def test_03_triangle_inequalities_not_sufficient():
    problems = []
    for eps in (0.01, 0.03, 0.05):
        _, report = sc.nontri_instance(eps).pieces["instance"]
        if not report.triangle_inequalities_hold:
            problems.append(f"eps={eps} inequalities")
        if report.verdict is not Verdict.INVALID:
            problems.append(f"eps={eps} verdict {report.verdict.value}")
    threshold = sc.nontri_threshold()
    exact = 1.0 / math.sqrt(3.0) - 0.5
    if abs(threshold - exact) > 1e-6:
        problems.append(f"threshold {threshold}")
    _record(
        3,
        "triangle inequalities are not sufficient",
        not problems,
        "; ".join(problems) or f"threshold {threshold:.9f}",
    )


def test_04_lengths_are_not_convex():
    pieces = sc.frankel_instance(0.01).pieces
    expected = {
        "A": Verdict.VALID,
        "B": Verdict.VALID,
        "C_len": Verdict.INVALID,
        "squared_sum": Verdict.VALID,
    }
    problems = [
        f"{name} {pieces[name][1].verdict.value}"
        for name, want in expected.items()
        if pieces[name][1].verdict is not want
    ]
    _record(4, "length-sum non-convexity", not problems, "; ".join(problems))


def test_05_cone_closure():
    rng = np.random.default_rng(20260805)
    worst_gram = 0.0
    failures = 0
    for trial in range(1000):
        n = 2 + trial % 5
        a = sc.random_simplex(n, rng)
        b = sc.random_simplex(n, rng)
        t1 = float(rng.uniform(0.05, 4.0))
        t2 = float(rng.uniform(0.05, 4.0))
        out = sc.cone_combine(a, b, t1, t2)
        if sc.validate(out).verdict is not Verdict.VALID:
            failures += 1
        lhs = sc.gram_from_squared_lengths(out)
        rhs = t1 * sc.gram_from_squared_lengths(a) + t2 * sc.gram_from_squared_lengths(
            b
        )
        scale = max(1.0, float(np.abs(rhs).max()))
        worst_gram = max(worst_gram, float(np.abs(lhs - rhs).max()) / scale)
    ok = failures == 0 and worst_gram <= 1e-13
    _record(
        5,
        "cone closure under positive combinations",
        ok,
        f"failures {failures}/1000, Gram additivity {worst_gram:.3e}",
    )


def test_06_concavity_probes():
    rng = np.random.default_rng(20260806)
    segments = 0
    problems = []
    worst_analytic = -np.inf

    def check(report, tag):
        nonlocal segments, worst_analytic
        segments += 1
        worst_analytic = max(worst_analytic, report.max_analytic_second_derivative)
        if not report.passed:
            problems.append(f"{tag} failed")
        if report.max_analytic_second_derivative > 1e-12:
            problems.append(f"{tag} second derivative")

    # one pair per dimension probed along every proper face
    for n in range(2, 6):
        first = sc.random_simplex(n, rng, total=float(sc.edge_count(n)))
        second = sc.random_simplex(n, rng, total=float(sc.edge_count(n)))
        for size in range(2, n + 1):
            for face in itertools.combinations(range(n + 1), size):
                check(sc.probe_log_concavity(first, second, face=face), f"face {face}")
        check(sc.probe_root_concavity(first, second), f"root n={n}")

    # random full-simplex segments to reach the quota
    while segments < 500:
        n = 2 + segments % 4
        first = sc.random_simplex(n, rng)
        second = sc.random_simplex(n, rng)
        check(sc.probe_log_concavity(first, second), f"log #{segments}")
        check(sc.probe_root_concavity(first, second), f"root #{segments}")

    ok = not problems and segments >= 500
    _record(
        6,
        "log and root concavity probes",
        ok,
        f"{segments} segments, max analytic second derivative {worst_analytic:.3e}"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def test_07_logdet_derivative_calculus():
    rng = np.random.default_rng(20260807)
    worst_first = 0.0
    worst_second = 0.0
    sign_failures = 0
    h1 = 1e-4
    h2 = 2e-3
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        b = rng.standard_normal((n, n))
        b = (b + b.T) / 2.0
        b /= np.linalg.norm(b)

        f = lambda t: float(np.linalg.slogdet(a + t * b)[1])
        fd1 = (8.0 * (f(h1) - f(-h1)) - (f(2 * h1) - f(-2 * h1))) / (12.0 * h1)
        fd2 = (
            -(f(2 * h2) + f(-2 * h2))
            + 16.0 * (f(h2) + f(-h2))
            - 30.0 * f(0.0)
        ) / (12.0 * h2 * h2)

        d1 = sc.logdet_directional_derivative(a, b)
        d2 = sc.logdet_second_derivative(a, b)
        worst_first = max(worst_first, abs(d1 - fd1) / max(1.0, abs(d1)))
        worst_second = max(worst_second, abs(d2 - fd2) / max(1.0, abs(d2)))
        if d2 >= 0.0:
            sign_failures += 1

    ok = worst_first <= 1e-6 and worst_second <= 1e-6 and sign_failures == 0
    _record(
        7,
        "log-det derivative calculus",
        ok,
        f"first {worst_first:.3e}, second {worst_second:.3e}, "
        f"nonnegative curvature {sign_failures}",
    )


def test_08_adjugate_suite():
    rng = np.random.default_rng(20260808)
    worst_cramer = 0.0
    worst_rank1 = 0.0
    worst_c = 0.0
    worst_regdet = 0.0

    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2.0
        adj = sc.adjugate(m)
        det = float(np.linalg.det(m))
        scale = max(1.0, abs(det))
        worst_cramer = max(
            worst_cramer, float(np.abs(m @ adj - det * np.eye(n)).max()) / scale
        )

    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2.0
        dec = jacobi_eigendecompose(m)
        vals = dec.eigenvalues + np.sign(dec.eigenvalues + 0.3)
        vals[int(rng.integers(n))] = 0.0
        m0 = dec.basis @ np.diag(vals) @ dec.basis.T
        m0 = (m0 + m0.T) / 2.0
        c, w, v = sc.adjugate_rank1_decompose(m0)
        adj = sc.adjugate(m0)
        scale = max(1.0, float(np.abs(adj).max()))
        worst_rank1 = max(
            worst_rank1, float(np.abs(c * np.outer(v, w) - adj).max()) / scale
        )
        nonzero = float(np.prod(vals[np.abs(vals) > 0.0]))
        expected_c = nonzero / float(v @ w)
        worst_c = max(worst_c, abs(c - expected_c) / max(1.0, abs(expected_c)))
        regdet = float(np.linalg.det(m0 + np.outer(v, w))) / float(v @ w)
        worst_regdet = max(
            worst_regdet, abs(nonzero - regdet) / max(1.0, abs(nonzero))
        )

    ok = (
        worst_cramer <= 1e-10
        and worst_rank1 <= 1e-9
        and worst_c <= 1e-8
        and worst_regdet <= 1e-8
    )
    _record(
        8,
        "adjugate suite",
        ok,
        f"cramer {worst_cramer:.3e}, rank-1 {worst_rank1:.3e}, "
        f"c {worst_c:.3e}, regularized det {worst_regdet:.3e}",
    )


def test_09_dual_gram_suite():
    rng = np.random.default_rng(20260809)
    problems = []
    worst_null = 0.0
    worst_div = 0.0
    worst_ratio = 0.0
    for trial in range(1000):
        n = 2 + trial % 7
        ell = sc.random_simplex(n, rng)
        rep = sc.dual_gram(ell)
        w = jacobi_eigendecompose(rep.gstar).eigenvalues
        scale = max(1.0, float(np.abs(w).max()))
        zero_count = int(np.sum(np.abs(w) <= 1e-9 * scale))
        if w[0] < -1e-10 * scale or zero_count != 1:
            problems.append(f"#{trial} spectrum")
        res = float(np.linalg.norm(rep.gstar @ rep.areas)) / float(
            np.linalg.norm(rep.areas)
        )
        worst_null = max(worst_null, res)
        worst_div = max(worst_div, rep.divergence_residual)
        i = int(rng.integers(n + 1))
        j = int((i + 1 + rng.integers(n)) % (n + 1))
        ratio = sc.area_ratio_from_adjugate(ell, i, j)
        expected = (rep.areas[i] / rep.areas[j]) ** 2
        worst_ratio = max(worst_ratio, abs(ratio - expected) / expected)

    ok = (
        not problems
        and worst_null < 1e-9
        and worst_div < 1e-10
        and worst_ratio <= 1e-8
    )
    _record(
        9,
        "dual Gram suite",
        ok,
        f"null {worst_null:.3e}, divergence {worst_div:.3e}, "
        f"ratio {worst_ratio:.3e}"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def test_10_extremal_optimization():
    rng = np.random.default_rng(20260814)
    problems = []
    worst_dev = 0.0
    worst_drop = 0.0
    iterations = []
    gradient_steps = 0
    for n in range(2, 6):
        total = float(sc.edge_count(n))
        for k in range(1, n + 1):
            for kind in (ObjectiveKind.LOG_PRODUCT_FACES, ObjectiveKind.SUM_ROOT_FACES):
                objective = Objective(kind, k)
                for run_idx in range(20):
                    start = sc.random_simplex(n, rng, total=total)
                    tag = f"n={n} k={k} {kind.value} #{run_idx}"
                    try:
                        trace = sc.maximize(n, total, objective, start=start)
                    except Exception as exc:  # noqa: BLE001 - report, do not mask
                        problems.append(f"{tag}: {type(exc).__name__}")
                        continue
                    if not trace.converged:
                        problems.append(f"{tag}: not converged")
                    iterations.append(len(trace.iterates) - 1)
                    gradient_steps += trace.gradient_steps
                    worst_dev = max(worst_dev, trace.regularity_deviation)
                    if trace.regularity_deviation >= 1e-6:
                        problems.append(f"{tag}: deviation")
                    values = np.array([v for _, v, _ in trace.iterates])
                    scale = max(1.0, float(np.abs(values).max()))
                    drop = float(np.diff(values).min()) if values.size > 1 else 0.0
                    worst_drop = max(worst_drop, -drop / scale)
                    if drop < -1e-12 * scale:
                        problems.append(f"{tag}: not monotone")

    # the symmetric point dominates random feasible samples
    dominance_failures = 0
    n, total = 3, 6.0
    for idx in range(1000):
        k = 1 + idx % n
        kind = (
            ObjectiveKind.LOG_PRODUCT_FACES
            if idx % 2 == 0
            else ObjectiveKind.SUM_ROOT_FACES
        )
        objective = Objective(kind, k)
        best = sc.objective_value(sc.regular_simplex(n, total), objective)
        sample = sc.random_simplex(n, rng, total=total)
        if sc.objective_value(sample, objective) > best + 1e-12:
            dominance_failures += 1

    ok = not problems and dominance_failures == 0
    _record(
        10,
        "extremal optimization",
        ok,
        f"560 runs, worst deviation {worst_dev:.3e}, worst drop {worst_drop:.3e}, "
        f"dominance failures {dominance_failures}, iterations median "
        f"{np.median(iterations):g} max {max(iterations, default=0)}, "
        f"gradient fallbacks {gradient_steps}"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def test_11_smallest_eigenvalue_superadditivity():
    rng = np.random.default_rng(20260811)
    worst = np.inf
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        b = rng.standard_normal((n, n))
        b = (b + b.T) / 2.0
        gap = sc.smallest_eigenvalue(a + b) - (
            sc.smallest_eigenvalue(a) + sc.smallest_eigenvalue(b)
        )
        worst = min(worst, gap)
        if gap < -1e-10:
            failures += 1
    _record(
        11,
        "smallest-eigenvalue superadditivity",
        failures == 0,
        f"failures {failures}/1000, smallest gap {worst:.3e}",
    )


def test_12_cli_determinism():
    commands = [
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
            "2026",
            "--starts",
            "2",
            "--no-timestamp",
        ],
        [
            "dual",
            '{"dimension": 2, "squared_lengths": [1, 1, 2]}',
            "--ratio",
            "0",
            "1",
            "--no-timestamp",
        ],
        ["counterexample", "nontri", "--bisect", "--no-timestamp"],
    ]
    mismatches = []
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_run(list(argv))
            outputs.append((code, buf.getvalue()))
        if outputs[0] != outputs[1]:
            mismatches.append(argv[0])
    _record(12, "CLI determinism", not mismatches, "; ".join(mismatches))
