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

The two endpoints are certified by the Jacobi verdict of
:func:`validate`.  The sample points are then factored together: their
Gram matrices form one ``(samples, k, k)`` stack that goes through a
single LAPACK ``eigh`` call (plus one ``eigvalsh`` call on the
full-simplex stack when the probed face is proper), with the same PD test
applied row by row.  The tests hold this path to the Jacobi solver sample
by sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_PD_TOL, _logdet_derivatives, _positive_definite
from .simplex import (
    NotRealizable,
    SquaredEdgeLengths,
    ValidityReport,
    Verdict,
    _face_edges,
    _gram_stack,
    _spectrum,
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

#: bracket and width of both threshold bisections
_BISECT_LO, _BISECT_TOL = 1e-4, 1e-8


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
    ell = _nontri_piece(epsilon)
    return CounterexampleInstance(
        label="triangle-inequalities-not-sufficient",
        epsilon=epsilon,
        pieces={"instance": (ell, validate(ell, pd_tol=pd_tol))},
    )


def _nontri_piece(epsilon: float) -> SquaredEdgeLengths:
    """The unit triangle with its apex at distance 1/2 + epsilon."""
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    apex = (0.5 + epsilon) ** 2
    return SquaredEdgeLengths(3, np.array([apex, apex, apex, 1.0, 1.0, 1.0]))


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


def _bisect_validity(build, pd_tol: float, hi: float) -> float:
    """Smallest epsilon in (1e-4, hi) where the instance ``build(eps)`` flips
    to Valid, bisected to a width of 1e-8 on its Jacobi verdict."""

    def is_valid(eps: float) -> bool:
        return _spectrum(build(eps), pd_tol)[2] is Verdict.VALID

    lo, tol = _BISECT_LO, _BISECT_TOL
    if not is_valid(hi):
        raise ValueError(f"upper endpoint {hi} is not Valid; bracket the threshold")
    if is_valid(lo):
        raise ValueError(f"lower endpoint {lo} is already Valid; bracket the threshold")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_valid(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def nontri_threshold(*, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Bisected flip point of the apex family; analytically 1/sqrt(3) - 1/2."""
    return _bisect_validity(_nontri_piece, pd_tol, 0.2)


def frankel_length_threshold(*, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Bisected epsilon above which the plain length sum C_len becomes Valid."""
    # only C_len decides the threshold, so A, B and their sum go unfactored
    return _bisect_validity(lambda eps: _frankel_pieces(eps)[2], pd_tol, 1.0)


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

    The endpoints are certified by their Jacobi verdict
    (:class:`NotRealizable` when one is not Valid); every sample point is
    then factored at once as one ``(samples, k, k)`` stack.  Along
    the segment the face Gram matrix moves by the constant
    ``delta = G2 - G1``, which gives both derivatives at every sample.
    """
    if first.n != second.n:
        raise ValueError("dimension mismatch")
    if samples < 3:
        raise ValueError("need at least 3 samples")
    n = first.n
    k, idx = _face_edges(n, face)
    for name, ell in (("first", first), ("second", second)):
        if _spectrum(ell, pd_tol)[2] is not Verdict.VALID:
            raise NotRealizable(f"{name} endpoint is not Valid")
    ts = np.linspace(0.0, 1.0, samples)
    rows = (1.0 - ts)[:, None] * first.s + ts[:, None] * second.s

    def first_failure(w: np.ndarray) -> float | None:
        bad = np.flatnonzero(~_positive_definite(w, pd_tol))
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
    return k, np.log(w).sum(axis=1), *_logdet_derivatives(w, basis, delta)


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
