"""Cone structure of the squared-length parametrization, probed numerically.

Two explicit counterexample families live here.  ``nontri_instance``
attaches an apex at distance ``1/2 + eps`` to every corner of a unit
triangle: all triangle inequalities hold for every ``eps > 0``, yet no
tetrahedron exists until ``eps`` clears ``1/sqrt(3) - 1/2``, so triangle
inequalities do not characterize realizability.  ``frankel_instance``
exhibits two tetrahedra whose *plain* edge-length sum is unrealizable
while their *squared*-length sum stays realizable -- lengths do not form
a convex set, squared lengths do.

The probe functions sample volume along a segment between two Valid
instances and report concavity margins of ``log volume`` (any face) and
of ``volume^(1/n)``, together with the analytic second derivative along
the segment, which is the authoritative check: since the Gram matrix is
linear in the squared lengths, the analytic value is available in
closed form at every sample.

The two endpoints are certified by :func:`validate` (Jacobi).  The sample
points are then factored together: their Gram matrices form one
``(samples, k, k)`` stack that goes through a single LAPACK ``eigh`` call
(plus one ``eigvalsh`` call on the full-simplex stack when the probed face
is proper), with the PD test of ``validate`` applied row by row.  The
tests hold this path to the Jacobi solver sample by sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_PD_TOL, _band
from .simplex import (
    SquaredEdgeLengths,
    ValidityReport,
    Verdict,
    _face_edges,
    _gram_stack,
    validate,
)

__all__ = [
    "ConcavityProbeReport",
    "CounterexampleInstance",
    "cone_combine",
    "frankel_instance",
    "frankel_length_threshold",
    "nontri_instance",
    "nontri_threshold",
    "probe_log_concavity",
    "probe_root_concavity",
]

#: slack scales for the discrete concavity margins
_MIDPOINT_SLACK = 1e-10
_SECOND_DIFF_SLACK = 1e-8
_ANALYTIC_SLACK = 1e-12


def cone_combine(
    first: SquaredEdgeLengths,
    second: SquaredEdgeLengths,
    t1: float,
    t2: float,
) -> SquaredEdgeLengths:
    """Nonnegative combination ``t1 * first + t2 * second`` (componentwise).

    Realizability is preserved: the Gram matrix of the combination is the
    same combination of the Gram matrices, and smallest eigenvalues are
    superadditive, so Valid + Valid stays Valid.
    """
    if first.n != second.n:
        raise ValueError("dimension mismatch")
    if not (t1 >= 0.0 and t2 >= 0.0) or (t1 == 0.0 and t2 == 0.0):
        raise ValueError("weights must be nonnegative and not both zero")
    return SquaredEdgeLengths(first.n, t1 * first.s + t2 * second.s)


@dataclass(frozen=True)
class CounterexampleInstance:
    """A labeled family member: named pieces with their validity reports."""

    label: str
    epsilon: float
    pieces: dict[str, tuple[SquaredEdgeLengths, ValidityReport]]


def nontri_instance(epsilon: float, *, pd_tol: float = DEFAULT_PD_TOL) -> CounterexampleInstance:
    """Unit triangle with an apex at distance 1/2 + epsilon from each corner.

    Triangle inequalities hold for every ``epsilon > 0``; the verdict
    flips from Invalid to Valid only at ``1/sqrt(3) - 1/2``.
    """
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    apex = (0.5 + epsilon) ** 2
    ell = SquaredEdgeLengths(3, np.array([apex, apex, apex, 1.0, 1.0, 1.0]))
    return CounterexampleInstance(
        label="triangle-inequalities-not-sufficient",
        epsilon=epsilon,
        pieces={"instance": (ell, validate(ell, pd_tol=pd_tol))},
    )


def _frankel_pieces(
    epsilon: float,
) -> tuple[SquaredEdgeLengths, SquaredEdgeLengths, SquaredEdgeLengths]:
    """The tetrahedra A and B of the length-sum family, and C_len."""
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    e2 = epsilon * epsilon
    a = SquaredEdgeLengths(3, np.array([1.0, 1.0, 1.0, e2, 2.0, 2.0]))
    b = SquaredEdgeLengths(3, np.array([1.0, 1.0, 1.0, 2.0, e2, 2.0]))
    c_len = SquaredEdgeLengths(3, (np.sqrt(a.s) + np.sqrt(b.s)) ** 2)
    return a, b, c_len


def frankel_instance(epsilon: float, *, pd_tol: float = DEFAULT_PD_TOL) -> CounterexampleInstance:
    """Two Valid tetrahedra A, B whose length sum C_len fails for small epsilon.

    A has unit edges at the apex, one base edge of length ``epsilon`` and
    two of length sqrt(2); B swaps the short base edge to another
    position.  ``C_len`` adds the *plain* lengths edge by edge, and
    ``squared_sum`` adds the squared lengths (the cone combination);
    for small ``epsilon`` the first is Invalid while the second is Valid.
    """
    a, b, c_len = _frankel_pieces(epsilon)
    squared_sum = cone_combine(a, b, 1.0, 1.0)
    pieces = {
        "A": (a, validate(a, pd_tol=pd_tol)),
        "B": (b, validate(b, pd_tol=pd_tol)),
        "C_len": (c_len, validate(c_len, pd_tol=pd_tol)),
        "squared_sum": (squared_sum, validate(squared_sum, pd_tol=pd_tol)),
    }
    return CounterexampleInstance(label="lengths-not-convex", epsilon=epsilon, pieces=pieces)


def _bisect_validity(
    build, lo: float, hi: float, tol: float
) -> float:
    """Smallest epsilon where ``build(eps)`` flips to Valid, by bisection."""
    if not build(hi):
        raise ValueError(f"upper endpoint {hi} is not Valid; bracket the threshold")
    if build(lo):
        raise ValueError(f"lower endpoint {lo} is already Valid; bracket the threshold")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if build(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def nontri_threshold(
    *,
    lo: float = 1e-4,
    hi: float = 0.2,
    tol: float = 1e-8,
    pd_tol: float = DEFAULT_PD_TOL,
) -> float:
    """Bisected flip point of the apex family; analytically 1/sqrt(3) - 1/2."""

    def is_valid(eps: float) -> bool:
        _, report = nontri_instance(eps, pd_tol=pd_tol).pieces["instance"]
        return report.verdict is Verdict.VALID

    return _bisect_validity(is_valid, lo, hi, tol)


def frankel_length_threshold(
    *,
    lo: float = 1e-4,
    hi: float = 1.0,
    tol: float = 1e-8,
    pd_tol: float = DEFAULT_PD_TOL,
) -> float:
    """Bisected epsilon above which the plain length sum C_len becomes Valid."""

    def is_valid(eps: float) -> bool:
        # only C_len decides the threshold, so A, B and their sum go unfactored
        _, _, c_len = _frankel_pieces(eps)
        return validate(c_len, pd_tol=pd_tol).verdict is Verdict.VALID

    return _bisect_validity(is_valid, lo, hi, tol)


@dataclass(frozen=True)
class ConcavityProbeReport:
    """Concavity margins sampled along a cone segment.

    Margins are oriented so that a concave function yields nonnegative
    values: ``worst_midpoint_defect`` is the minimum over sampled pairs
    of ``g(mid) - (g(x) + g(y)) / 2`` and ``worst_second_difference`` is
    the minimum of ``2 g(t_k) - g(t_{k-1}) - g(t_{k+1})``.
    ``max_analytic_second_derivative`` is the largest analytic second
    derivative along the segment (nonpositive for a concave function).
    """

    samples: int
    worst_midpoint_defect: float
    worst_second_difference: float
    max_analytic_second_derivative: float
    passed: bool


def _segment_logdet(
    first: SquaredEdgeLengths,
    second: SquaredEdgeLengths,
    face: tuple[int, ...],
    samples: int,
    pd_tol: float,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Face dimension k, and log det of the face Gram matrix with its first
    two derivatives along the segment, at ``samples`` equally spaced points.

    The endpoints are certified by :func:`validate`; every sample point is
    then factored at once as one ``(samples, k, k)`` stack.  Along the
    segment the Gram matrix moves by the constant ``delta = G2 - G1``, so
    with ``G = V diag(w) V^T`` and ``R = V^T delta V`` the derivatives are
    ``sum_i R_ii / w_i`` and ``-sum_ij R_ij^2 / (w_i w_j)``.
    """
    if first.n != second.n:
        raise ValueError("dimension mismatch")
    if samples < 3:
        raise ValueError("need at least 3 samples")
    for name, ell in (("first", first), ("second", second)):
        if validate(ell, pd_tol=pd_tol).verdict is not Verdict.VALID:
            raise ValueError(f"{name} endpoint is not Valid")
    n = first.n
    ts = np.linspace(0.0, 1.0, samples)
    rows = (1.0 - ts)[:, None] * first.s + ts[:, None] * second.s
    k, idx = _face_edges(n, face)

    def first_failure(w: np.ndarray) -> float | None:
        # the PD test of ``validate``, applied row by row
        bad = np.flatnonzero(~(w[:, 0] > _band(w, pd_tol)))
        return float(ts[bad[0]]) if bad.size else None

    left_cone = "segment point t={} left the Valid cone; this contradicts convexity"
    if k != n:
        # a proper face's factorization cannot certify the full simplices,
        # so their segment is checked as well: the convexity tripwire
        t = first_failure(np.linalg.eigvalsh(_gram_stack(n, rows)))
        if t is not None:
            raise RuntimeError(left_cone.format(t))
    w, basis = np.linalg.eigh(_gram_stack(k, rows[:, idx]))
    t = first_failure(w)
    if t is not None:
        raise RuntimeError(
            f"face volume vanished at t={t}" if k != n else left_cone.format(t)
        )
    delta = _gram_stack(k, second.s[idx]) - _gram_stack(k, first.s[idx])
    rotated = basis.transpose(0, 2, 1) @ delta @ basis
    logdet = np.log(w).sum(axis=1)
    d1 = (np.diagonal(rotated, axis1=1, axis2=2) / w).sum(axis=1)
    d2 = -(rotated * rotated / (w[:, :, None] * w[:, None, :])).sum(axis=(1, 2))
    return k, logdet, d1, d2


def _discrete_margins(values: np.ndarray) -> tuple[float, float]:
    """Worst midpoint defect over all sample pairs an even gap apart, and
    worst second difference; one array slice per gap, O(m) memory."""
    m = values.size
    worst_mid = math.inf
    for gap in range(2, m, 2):
        half = gap // 2
        defect = values[half : m - half] - 0.5 * (values[: m - gap] + values[gap:])
        worst_mid = min(worst_mid, float(defect.min()))
    second = 2.0 * values[1:-1] - values[:-2] - values[2:]
    return worst_mid, float(second.min())


def _finish_report(
    samples: int, values: np.ndarray, analytic: np.ndarray
) -> ConcavityProbeReport:
    worst_mid, worst_sd = _discrete_margins(values)
    h = 1.0 / (samples - 1)
    slack_mid = _MIDPOINT_SLACK * max(1.0, float(np.abs(values).max()))
    slack_sd = _SECOND_DIFF_SLACK * h * h
    max_analytic = float(analytic.max())
    passed = (
        worst_mid >= -slack_mid
        and worst_sd >= -slack_sd
        and max_analytic <= _ANALYTIC_SLACK
    )
    return ConcavityProbeReport(
        samples=samples,
        worst_midpoint_defect=worst_mid,
        worst_second_difference=worst_sd,
        max_analytic_second_derivative=max_analytic,
        passed=passed,
    )


def probe_log_concavity(
    first: SquaredEdgeLengths,
    second: SquaredEdgeLengths,
    face=None,
    *,
    samples: int = 33,
    pd_tol: float = DEFAULT_PD_TOL,
) -> ConcavityProbeReport:
    """Probe concavity of t -> log volume(face) along the segment.

    ``face`` defaults to the full vertex set.  The analytic second
    derivative is half the second directional derivative of
    ``log det`` of the face Gram matrix, whose direction matrix is
    constant along the segment because the parametrization is linear.
    """
    if face is None:
        face = range(first.n + 1)
    k, logdet, _, d2 = _segment_logdet(first, second, tuple(face), samples, pd_tol)
    values = 0.5 * logdet - math.log(math.factorial(k))
    return _finish_report(samples, values, 0.5 * d2)


def probe_root_concavity(
    first: SquaredEdgeLengths,
    second: SquaredEdgeLengths,
    *,
    samples: int = 33,
    pd_tol: float = DEFAULT_PD_TOL,
) -> ConcavityProbeReport:
    """Probe concavity of t -> volume^(1/n) along the segment.

    With u = log volume, the analytic second derivative is
    ``vol^(1/n) * (u''/n + (u'/n)^2)``, where u' and u'' come from the
    trace formulas for the first two log-det derivatives.
    """
    n = first.n
    _, logdet, d1, d2 = _segment_logdet(first, second, tuple(range(n + 1)), samples, pd_tol)
    values = np.exp((0.5 * logdet - math.log(math.factorial(n))) / n)
    du = 0.5 * d1
    ddu = 0.5 * d2
    return _finish_report(samples, values, values * (ddu / n + (du / n) ** 2))
