"""Cone structure of the squared-length parametrization, probed numerically.

Two explicit counterexample families live here.  ``nontri_instance``
attaches an apex at distance ``1/2 + eps`` to every corner of a unit
triangle: all triangle inequalities hold for every ``eps > 0``, yet no
tetrahedron exists until ``eps`` clears ``1/sqrt(3) - 1/2``, so triangle
inequalities do not characterize realizability.  ``frankel_instance``
exhibits two tetrahedra whose *plain* edge-length sum is unrealizable
while their *squared*-length sum stays realizable -- lengths do not form
a convex set, squared lengths do.  Their thresholds are bisected on the
verdict; each round judges every midpoint of its next few steps in one
stacked eigendecomposition and walks that tree as the one-at-a-time
bisection steps, so the result is the same bits
(:func:`_bisect_validity`).

The probe functions sample log volume (any face) or ``volume^(1/n)``
along a segment between two Valid instances and report their discrete
concavity margins, together with the analytic second derivative along
the segment.  The Gram matrix is linear in the squared lengths, so both
come in closed form: the endpoints' verdict, both judged in one stacked
eigendecomposition, certifies the whole segment, and one k x k whitened
spectrum gives the face's log det and its first two derivatives at every
sample (:func:`_whitened_derivatives`); ``linalg`` takes every spectrum.
The discrete margins therefore measure a closed form rather than an
independent factorization; the tests hold it to each sample's own
eigendecomposition and to a reference solver.  The worst midpoint defect
over all sample pairs takes O(samples) time when the samples are exactly
concave as floats, which log det and det^(1/n) along a segment of the
cone usually are, and O(samples^2) otherwise, in one loop over the
half-gaps (:func:`_discrete_margins`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_PD_TOL, NotPositiveDefinite, _unit_eigh, _whitened_spectrum
from .simplex import (
    NotRealizable,
    SquaredEdgeLengths,
    ValidityReport,
    _face_edges,
    _gram_stack,
    _valid_rows,
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

#: bisection steps judged ahead in one stacked verdict (2^depth - 1 midpoints)
_BISECT_DEPTH = 4


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
    _check_epsilon(epsilon)
    ell = SquaredEdgeLengths(3, _nontri_rows(epsilon))
    return CounterexampleInstance(
        label="triangle-inequalities-not-sufficient",
        epsilon=epsilon,
        pieces={"instance": (ell, validate(ell, pd_tol=pd_tol))},
    )


def _check_epsilon(epsilon: float) -> None:
    if not (epsilon > 0.0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be positive")


def _nontri_rows(eps) -> np.ndarray:
    """Squared lengths of the apex family at each of ``eps``: the unit
    triangle with its apex at distance 1/2 + eps, shape ``(..., 6)``."""
    eps = np.asarray(eps, dtype=float)
    with np.errstate(over="ignore"):  # inf past the float range, for the caller to refuse
        apex = (0.5 + eps) * (0.5 + eps)
    one = np.ones_like(apex)
    return np.stack((apex, apex, apex, one, one, one), axis=-1)


def _frankel_rows(eps) -> np.ndarray:
    """Squared lengths of the tetrahedra A and B of the length-sum family
    and of their length sum C_len at each of ``eps``, shape ``(..., 3, 6)``."""
    eps = np.asarray(eps, dtype=float)
    with np.errstate(over="ignore"):  # inf past the float range, for the caller to refuse
        e2 = eps * eps
        one, two = np.ones_like(e2), np.full_like(e2, 2.0)
        a = np.stack((one, one, one, e2, two, two), axis=-1)
        b = np.stack((one, one, one, two, e2, two), axis=-1)
        return np.stack((a, b, (np.sqrt(a) + np.sqrt(b)) ** 2), axis=-2)


def frankel_instance(epsilon: float, *, pd_tol: float = DEFAULT_PD_TOL) -> CounterexampleInstance:
    """Two Valid tetrahedra A, B whose length sum C_len fails for small epsilon.

    A has unit edges at the apex, one base edge of length ``epsilon`` and
    two of length sqrt(2); B swaps the short base edge to another
    position.  ``C_len`` adds the *plain* lengths edge by edge, and
    ``squared_sum`` adds the squared lengths (the cone combination);
    for small ``epsilon`` the first is Invalid while the second is Valid.
    """
    _check_epsilon(epsilon)
    a, b, c_len = (SquaredEdgeLengths(3, row) for row in _frankel_rows(epsilon))
    squared_sum = cone_combine(a, b, 1.0, 1.0)
    pieces = {
        "A": (a, validate(a, pd_tol=pd_tol)),
        "B": (b, validate(b, pd_tol=pd_tol)),
        "C_len": (c_len, validate(c_len, pd_tol=pd_tol)),
        "squared_sum": (squared_sum, validate(squared_sum, pd_tol=pd_tol)),
    }
    return CounterexampleInstance(label="lengths-not-convex", epsilon=epsilon, pieces=pieces)


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Every midpoint that the next ``_BISECT_DEPTH`` bisection steps from
    (lo, hi) can visit, breadth first: node i halves its interval, node
    2i + 1 the lower half (the next step after a Valid verdict) and node
    2i + 2 the upper half."""
    spans, mids = [(lo, hi)], []
    for node in range((1 << _BISECT_DEPTH) - 1):
        a, b = spans[node]
        mid = 0.5 * (a + b)
        mids.append(mid)
        spans += ((a, mid), (mid, b))
    return mids


def _bisect_validity(rows, pd_tol: float, hi: float) -> float:
    """Smallest epsilon in (1e-4, hi) where the dimension-3 instances with
    squared lengths ``rows(eps)`` flip to Valid, bisected to a width of 1e-8
    on their verdict.

    Each round judges, in one stacked verdict (:func:`_valid_rows`), the
    midpoint tree of the next ``_BISECT_DEPTH`` steps, then walks down it
    as a one-at-a-time bisection would step: a node's midpoint is
    ``0.5 * (lo + hi)`` of the very floats the walk holds when it gets
    there, and a stacked verdict is the per-instance one bit for bit, so
    the walk takes the same steps and returns the same bits.
    """
    lo, tol = _BISECT_LO, _BISECT_TOL
    hi_valid, lo_valid = _valid_rows(3, rows(np.array([hi, lo])), pd_tol)
    if not hi_valid:
        raise ValueError(f"upper endpoint {hi} is not Valid; bracket the threshold")
    if lo_valid:
        raise ValueError(f"lower endpoint {lo} is already Valid; bracket the threshold")
    while hi - lo > tol:
        mids = _midpoint_tree(lo, hi)
        valid = _valid_rows(3, rows(np.array(mids)), pd_tol).tolist()
        node = 0
        while node < len(mids) and hi - lo > tol:
            if valid[node]:
                hi, node = mids[node], 2 * node + 1
            else:
                lo, node = mids[node], 2 * node + 2
    return 0.5 * (lo + hi)


def nontri_threshold(*, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Bisected flip point of the apex family; analytically 1/sqrt(3) - 1/2."""
    return _bisect_validity(_nontri_rows, pd_tol, 0.2)


def frankel_length_threshold(*, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Bisected epsilon above which the plain length sum C_len becomes Valid."""
    # only C_len decides the threshold, so A, B and their sum go unfactored
    return _bisect_validity(lambda eps: _frankel_rows(eps)[..., 2, :], pd_tol, 1.0)


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

    The endpoints are certified by their verdict, one stacked call for both
    (:class:`NotRealizable` naming the first that is not Valid), and that
    certifies every sample: the Gram matrix at t is (1 - t) G1 + t G2, and
    lambda_min - pd_tol * lambda_max is concave on symmetric matrices, so
    it stays positive between two Valid endpoints; every face of a Valid
    sample has a positive definite Gram matrix.  The face Gram matrix moves
    by the constant G2 - G1, so one k x k whitening gives the values and
    both derivatives at every sample (:func:`_whitened_derivatives`).
    """
    if first.n != second.n:
        raise ValueError("dimension mismatch")
    if samples < 3:
        raise ValueError("need at least 3 samples")
    k, idx = _face_edges(first.n, face)
    ends = np.stack((first.s, second.s))
    for name, valid in zip(("first", "second"), _valid_rows(first.n, ends, pd_tol)):
        if not valid:
            raise NotRealizable(f"{name} endpoint is not Valid")
    g1, g2 = _gram_stack(k, ends[:, idx])
    return k, *_whitened_derivatives(g1, g2, np.linspace(0.0, 1.0, samples))


def _whitened_derivatives(g1: np.ndarray, g2: np.ndarray, ts: np.ndarray):
    """Value, first and second derivative of t -> log det((1 - t) G1 + t G2)
    at each of ``ts``, from two k x k spectra.

    Write G1 = 2^e1 A and G2 = 2^e2 B with A, B of unit size (an exact
    rescale), and whiten their midpoint M = (A + B) / 2 = V diag(m) V^T
    with L = V diag(m)^(1/2): with L^-1 (B - A) L^-T = Q diag(mu) Q^T,
    whitened A and B are Q diag(a) Q^T and Q diag(b) Q^T for a = 1 - mu/2
    and b = 1 + mu/2, both in [0, 2].  Up to the constant 2^max(e1, e2),
    the matrix at t is L Q diag(w_t) Q^T L^T with w_t = (1 - t) p a + t q b,
    and it moves along L Q diag(q b - p a) Q^T L^T, where p = 2^(e1 - max)
    and q = 2^(e2 - max).  So log det is k max(e1, e2) ln 2 + log det M +
    sum_i log w_t,i, and with x = (q b - p a) / w_t its derivatives are
    sum_i x_i and -sum_i x_i^2.  Each w_t is a sum of two nonnegative
    terms, so a sample far smaller than G1 + G2 (at an endpoint 1e17 times
    smaller than the other) keeps its digits, and the derivatives are the
    same bits when G1 and G2 are scaled by a common power of two.  A segment
    singular to working precision raises :class:`NotPositiveDefinite`.
    """
    e1, e2 = (math.frexp(float(np.abs(g).max()))[1] for g in (g1, g2))
    unit1, unit2 = np.ldexp(g1, -e1), np.ldexp(g2, -e2)
    m, v = _unit_eigh(0.5 * unit1 + 0.5 * unit2)
    if not m[0] > 0.0:
        raise NotPositiveDefinite(
            f"segment midpoint: smallest unit-scale eigenvalue {m[0]:.3g} is not positive"
        )
    mu = _whitened_spectrum(m, v, unit2 - unit1)
    top = max(e1, e2)
    a = math.ldexp(1.0, e1 - top) * (1.0 - 0.5 * mu)
    b = math.ldexp(1.0, e2 - top) * (1.0 + 0.5 * mu)
    if not (np.minimum(a, b) > 0.0).all():
        raise NotPositiveDefinite("a segment endpoint is singular to working precision")
    w = (1.0 - ts)[:, None] * a + ts[:, None] * b
    logdet = (mu.size * top * math.log(2.0) + np.log(m).sum()) + np.log(w).sum(axis=1)
    x = (b - a) / w
    return logdet, x.sum(axis=1), -(x * x).sum(axis=1)


def _exactly_concave(values: np.ndarray) -> bool:
    """Whether ``values[i-1] + values[i+1] <= 2 values[i]`` holds at every
    interior i in exact arithmetic on the stored floats.

    The rounded sum s comes with its TwoSum error (Knuth, TAOCP vol. 2,
    4.2.2), so a + b = s + err exactly, and 2c is exact: the exact sum is at
    most 2c iff s < 2c, or s == 2c and err <= 0.  A NaN, or an s that
    overflows to +inf, fails every comparison that would pass it, so it
    reads False; a 2c that overflows exceeds every finite s, as it should.
    """
    a, b, c = values[:-2], values[2:], values[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + b
        b_virtual = s - a
        err = (a - (s - b_virtual)) + (b - b_virtual)
        twice = c + c
        return bool(((s < twice) | ((s == twice) & (err <= 0.0))).all())


def _discrete_margins(values: np.ndarray) -> tuple[float, float]:
    """Worst midpoint defect over all sample pairs an even gap apart, and
    worst second difference.

    The worst defect at a midpoint j is ``values[j]`` less half the widest
    pair sum ``values[j - h] + values[j + h]`` over its half-gaps h, bit for
    bit, because rounding of ``v - x`` is monotone in x.  The first pass
    takes the nearest pairs, h = 1.  When the values are exactly concave
    (:func:`_exactly_concave`, O(m)), the first differences do not grow, so
    neither do the exact pair sums as h grows; rounding is monotone too, so
    the nearest pair is the widest, and that pass is the answer.  Otherwise
    one pass per larger half-gap raises each widest sum, in O(m^2) time in
    all.  Values with a -0.0 take every pass: two of them sum to -0.0,
    which ties a +0.0 pair sum and then carries the sign the passes pick.
    The end samples are midpoints of no pair: their widest sum stays -inf,
    so they never win the min.
    """
    m = values.size
    widest = np.full(m, -np.inf)
    widest[1:-1] = values[:-2] + values[2:]
    if not _exactly_concave(values) or np.signbit(values[values == 0.0]).any():
        for h in range(2, (m - 1) // 2 + 1):
            inner = widest[h : m - h]
            np.maximum(inner, values[: m - 2 * h] + values[2 * h :], out=inner)
    second = 2.0 * values[1:-1] - values[:-2] - values[2:]
    return float((values - 0.5 * widest).min()), float(second.min())


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
