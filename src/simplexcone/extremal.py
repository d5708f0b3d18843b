"""Maximizing face-volume functionals on a slice of the squared-length cone.

Among all simplices with a fixed total of squared edge lengths, the
regular point (every squared length equal) maximizes both the product
of k-face volumes and the sum of k-th roots of k-face volumes, for
every k.  This module exposes the log-volume gradient in closed form
and a projected gradient ascent on the hyperplane
``{sum of squared lengths = total}`` that lets the claim be checked
numerically from random starting points.

The gradient is cheap because the Gram matrix G of a face is linear in
the squared lengths: with adj the adjoint of that map
(``simplex._gram_adjoint``) and L the face's bordered inverse Gram,

    grad log vol = (1/2) adj(G^-1) = -(1/2) offdiag L

where offdiag lists the strict upper triangle in edge order.  The
smallest Gram eigenvalue, with unit eigenvector q, has gradient adj(q q^T).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .linalg import DEFAULT_PD_TOL, _band, _cholesky_factor
from .simplex import (
    NotRealizable,
    SquaredEdgeLengths,
    Verdict,
    _check_face_count,
    _classify,
    _edge_table,
    _gram_adjoint,
    _gram_index,
    _gram_stack,
    _pairs,
    _polarize,
    edge_count,
    regular_simplex,
    validate,
)

__all__ = [
    "MaxIterations",
    "Objective",
    "ObjectiveKind",
    "OptimizationTrace",
    "StepIntoInvalidRegion",
    "gradient_log_volume",
    "maximize",
    "objective_gradient",
    "objective_value",
]

_EPS = float(np.finfo(float).eps)

#: Why the line search turns a candidate step down, in the order it checks.
_REJECTION_REASONS = (
    "non_positive",
    "cholesky_screen",
    "face_collapse",
    "armijo",
    "value_drop",
    "no_contraction",
    "eigenvalue_floor",
)
#: The reasons that mean the candidate left (or neared the edge of) the cone.
_VALIDITY_REASONS = frozenset(
    ("non_positive", "cholesky_screen", "face_collapse", "eigenvalue_floor")
)


class MaxIterations(RuntimeError):
    """Iteration budget exhausted before the gradient tolerance was met."""

    def __init__(self, message: str, trace: "OptimizationTrace"):
        super().__init__(message)
        self.trace = trace


class StepIntoInvalidRegion(RuntimeError):
    """Line search exhausted: no acceptable step stayed inside the Valid cone."""

    def __init__(self, message: str, trace: "OptimizationTrace"):
        super().__init__(message)
        self.trace = trace


class ObjectiveKind(str, Enum):
    LOG_PRODUCT_FACES = "logprod"
    SUM_ROOT_FACES = "sumroot"


@dataclass(frozen=True)
class Objective:
    """Which functional of the k-dimensional faces to maximize."""

    kind: ObjectiveKind
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("face dimension k must be at least 1")


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates as (point, objective, projected gradient norm).

    ``regularity_deviation`` is ``max_e |s_e - mean| / mean`` at the
    final point: zero exactly at the regular simplex.

    ``rejections`` counts the candidate steps the line search turned
    down, by the first test each one failed, in the order the search
    applies them: ``non_positive`` (a squared length not positive),
    ``cholesky_screen`` (the Gram matrix does not factor),
    ``face_collapse`` (a k-face determinant not positive), ``armijo``
    (too little gain), ``value_drop`` and ``no_contraction`` (the value
    fell, or the projected gradient did not shrink, once the predicted
    gain is below float resolution), and ``eigenvalue_floor`` (the Gram
    spectrum failed the Valid test or fell under the search's floor).
    Every rejection halves the step, so the counts add up to the
    halvings taken.  ``pinch_activations`` counts the iterations whose
    direction was turned along the smallest-eigenvalue level set.
    """

    iterates: list[tuple[np.ndarray, float, float]]
    final: SquaredEdgeLengths
    regularity_deviation: float
    converged: bool
    rejections: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_REJECTION_REASONS, 0)
    )
    pinch_activations: int = 0


class _FaceWorkspace:
    """Index maps of the k-faces of an n-simplex: ``edges`` lists each face's
    edges in its own edge order, ``apex``/``pair`` compose it with the face
    Gram's, and ``scatter`` is ``edges`` read in ``order``, every face's apex
    edges (first k columns) before any pair edge.  The gradient sums in that
    order: the line search compares gradient norms at float resolution, so
    a face-by-face sum changes iteration counts."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.faces = np.array(list(combinations(range(n + 1), k + 1)))
        iu, ju = _pairs(k + 1)
        self.edges = _edge_table(n)[self.faces[:, iu], self.faces[:, ju]]
        apex, pair = _gram_index(k)
        # take() keeps them C-contiguous, which the per-step gathers need
        self.apex = self.edges.take(apex, axis=1)
        self.pair = self.edges.take(pair, axis=1)
        slots = np.arange(self.edges.size).reshape(self.edges.shape)
        self.order = np.concatenate((slots[:, :k].ravel(), slots[:, k:].ravel()))
        self.scatter = self.edges.ravel()[self.order]
        self.log_kfact = math.log(math.factorial(k))
        self.kfact_root = math.factorial(k) ** (1.0 / k)


def _check_face_dimension(n: int, k: int) -> None:
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in 1..{n}")
    _check_face_count(n, k)


_workspace = functools.cache(_FaceWorkspace)  # one per (n, k)


def _raw_value(ws: _FaceWorkspace, kind: ObjectiveKind, s: np.ndarray) -> float | None:
    """Objective value from the raw vector, or None if any face collapses."""
    dets = np.linalg.det(_polarize(s[ws.apex], s[ws.pair]))
    if not np.isfinite(dets).all() or (dets <= 0.0).any():
        return None
    if kind is ObjectiveKind.LOG_PRODUCT_FACES:
        return float(0.5 * np.log(dets).sum() - len(ws.faces) * ws.log_kfact)
    roots = dets ** (0.5 / ws.k) / ws.kfact_root
    return float(roots.sum())


def _raw_gradient(ws: _FaceWorkspace, kind: ObjectiveKind, s: np.ndarray) -> np.ndarray:
    grams = _polarize(s[ws.apex], s[ws.pair])
    inv = np.linalg.inv(grams)
    # half of each face's weight: d(log vol)/ds = adj(G^-1) / 2
    if kind is ObjectiveKind.LOG_PRODUCT_FACES:
        half = 0.5
    else:
        dets = np.linalg.det(grams)
        half = 0.5 * ((dets ** (0.5 / ws.k) / ws.kfact_root) / ws.k)[:, None]
    terms = (_gram_adjoint(inv) * half).ravel()[ws.order]
    return np.bincount(ws.scatter, weights=terms, minlength=edge_count(ws.n))


def _require_valid(ell: SquaredEdgeLengths, pd_tol: float) -> None:
    report = validate(ell, pd_tol=pd_tol)
    if report.verdict is not Verdict.VALID:
        raise NotRealizable(f"operation needs a Valid instance, got {report.verdict.value}")


def objective_value(
    ell: SquaredEdgeLengths, objective: Objective, *, pd_tol: float = DEFAULT_PD_TOL
) -> float:
    """Sum of log k-face volumes, or sum of k-th roots of k-face volumes."""
    _check_face_dimension(ell.n, objective.k)
    _require_valid(ell, pd_tol)
    value = _raw_value(_workspace(ell.n, objective.k), objective.kind, ell.s)
    if value is None:
        raise NotRealizable("a face volume vanished")
    return value


def objective_gradient(
    ell: SquaredEdgeLengths, objective: Objective, *, pd_tol: float = DEFAULT_PD_TOL
) -> np.ndarray:
    """Gradient of :func:`objective_value` with respect to every squared length."""
    _check_face_dimension(ell.n, objective.k)
    _require_valid(ell, pd_tol)
    return _raw_gradient(_workspace(ell.n, objective.k), objective.kind, ell.s)


def gradient_log_volume(
    ell: SquaredEdgeLengths, *, pd_tol: float = DEFAULT_PD_TOL
) -> np.ndarray:
    """Gradient of log n-volume; satisfies the scaling identity
    ``sum_e s_e * grad_e = n / 2``."""
    _require_valid(ell, pd_tol)
    return _raw_gradient(
        _workspace(ell.n, ell.n), ObjectiveKind.LOG_PRODUCT_FACES, ell.s
    )


def _judge_candidate(
    ws: _FaceWorkspace,
    kind: ObjectiveKind,
    cand: np.ndarray,
    *,
    f: float,
    predicted: float,
    allowance: float,
    pg_norm: float,
    pd_tol: float,
    lam_floor: float,
) -> tuple[str | None, tuple | None]:
    """The first test the line search fails on ``cand`` (a key of
    ``OptimizationTrace.rejections``), or None together with the accepted
    candidate's objective value, its gradient (None unless the
    contraction test computed it) and its Gram eigenvalues and
    eigenvectors.

    The Gram matrix is built once and feeds both the Cholesky screen and
    the closing ``eigh``.
    """
    if (cand <= 0.0).any():
        return "non_positive", None
    gram = _gram_stack(ws.n, cand)
    if not _cholesky_factor(gram)[1]:
        return "cholesky_screen", None
    f_cand = _raw_value(ws, kind, cand)
    if f_cand is None:
        return "face_collapse", None
    grad_cand = None
    if predicted > 2.0 * allowance:
        if f_cand < f + predicted - allowance:
            return "armijo", None
    else:
        # predicted gain below float resolution: require strict
        # contraction of the projected gradient norm instead
        if f_cand < f - allowance:
            return "value_drop", None
        grad_cand = _raw_gradient(ws, kind, cand)
        pg_cand = grad_cand - grad_cand.mean()
        if float(np.linalg.norm(pg_cand)) >= pg_norm:
            return "no_contraction", None
    lam, vec = np.linalg.eigh(gram)
    verdict, _ = _classify(lam, pd_tol)
    if verdict is not Verdict.VALID or lam[0] < lam_floor:
        return "eigenvalue_floor", None
    return None, (f_cand, grad_cand, lam, vec)


def maximize(
    n: int,
    total: float,
    objective: Objective,
    *,
    start: SquaredEdgeLengths | np.ndarray | None = None,
    gtol_factor: float = 1e-10,
    max_iter: int = 10000,
    initial_step: float | None = None,
    armijo: float = 1e-4,
    pd_tol: float = DEFAULT_PD_TOL,
) -> OptimizationTrace:
    """Projected gradient ascent on the hyperplane {sum of entries = total}.

    Backtracking (halving) line search with Armijo constant ``armijo``;
    candidates that leave the Valid cone are rejected outright.
    Converged when the projected gradient norm drops below
    ``gtol_factor * (1 + |objective|)``.  Raises :class:`MaxIterations`
    or :class:`StepIntoInvalidRegion` (each carrying the partial trace,
    rejection counts included) instead of returning an unconverged
    result.  Raises ``ValueError`` for a bad start, total or k, and when
    the simplex has more than ``MAX_FACES`` k-faces.

    Two refinements keep the rejection scheme honest without clamping.
    The Gram matrix is linear in the squared lengths, so the feasible
    slice is convex and its smallest eigenvalue is concave along it;
    the segment from any Valid start to the regular point therefore
    never dips below the smaller of the two endpoint eigenvalues.  The
    search exploits that: candidates whose smallest Gram eigenvalue
    falls under half that bound are rejected, and when the iterate is
    pinched near the bound with the gradient pushing outward, the
    direction is replaced by its component tangent to the eigenvalue
    level set (plus a small inward nudge), which is still an ascent
    direction because both objectives are concave with an interior
    maximizer.  Separately, once the predicted Armijo gain falls below
    float resolution of the objective, acceptance switches from the
    value test to a strict decrease of the projected gradient norm,
    which keeps contraction going where values are constant in floats.

    The start's verdict comes from the Jacobi :func:`validate`; the
    per-step Gram spectra (the eigenvalue floor, the pinch test and its
    eigenvector) come from LAPACK ``eigh``, run on the Gram matrix the
    candidate's Cholesky screen factored and only once every cheaper
    test has passed.  The tests hold every iterate to the Jacobi
    verdict and spectrum.

    The Armijo test carries a rounding allowance of a few machine
    epsilons (plus the rounding of the hyperplane re-projection), so
    recorded objective values are nondecreasing only up to that
    allowance.
    """
    _check_face_dimension(n, objective.k)
    if not (total > 0.0) or not math.isfinite(total):
        raise ValueError("total must be a positive finite number")
    edges = edge_count(n)
    if start is None:
        x = regular_simplex(n, total).s.copy()
    elif isinstance(start, SquaredEdgeLengths):
        if start.n != n:
            raise ValueError("start has the wrong dimension")
        x = start.s.copy()
    else:
        x = np.array(start, dtype=float)
        if x.shape != (edges,):
            raise ValueError(f"start must have {edges} entries")
    x += (total - x.sum()) / edges  # affine projection onto the hyperplane
    if (x <= 0.0).any():
        raise ValueError("start projects outside the positive orthant")
    start_ell = SquaredEdgeLengths(n, x)
    if validate(start_ell, pd_tol=pd_tol).verdict is not Verdict.VALID:
        raise ValueError("start must be a Valid instance")

    ws = _workspace(n, objective.k)
    kind = objective.kind
    step = 0.1 * total / edges if initial_step is None else float(initial_step)
    if not (step > 0.0):
        raise ValueError("initial_step must be positive")

    lam, vec = np.linalg.eigh(_gram_stack(n, x))
    # the segment to the regular point keeps the smallest eigenvalue
    # above min(start, regular) by concavity, so half of that is a safe
    # hard floor for the whole search
    lam_regular = total / (n * (n + 1))
    lam_floor = 0.5 * min(float(lam[0]), lam_regular)
    f = _raw_value(ws, kind, x)
    if f is None:
        raise NotRealizable("a face of the start collapsed")

    iterates: list[tuple[np.ndarray, float, float]] = []
    rejections = dict.fromkeys(_REJECTION_REASONS, 0)
    pinches = 0

    def partial_trace() -> OptimizationTrace:
        return _build_trace(n, x, iterates, rejections, pinches, converged=False)

    grad = None  # set from an accepted candidate whose test computed it
    converged = False
    for _ in range(max_iter):
        if grad is None:
            grad = _raw_gradient(ws, kind, x)
        pg = grad - grad.mean()
        pg_norm = float(np.linalg.norm(pg))
        frozen = x.copy()
        frozen.setflags(write=False)
        iterates.append((frozen, f, pg_norm))
        gtol = gtol_factor * (1.0 + abs(f))
        if pg_norm < gtol:
            converged = True
            break

        lam0 = float(lam[0])
        threshold = _band(lam, pd_tol)
        direction = pg
        if lam0 < max(2.0 * lam_floor, 64.0 * threshold):
            # pinched against the cone boundary: if the gradient pushes
            # outward, slide along the eigenvalue level set, nudged
            # inward when the eigenvalue has dipped below the band
            normal = _gram_adjoint(np.outer(vec[:, 0], vec[:, 0]))
            normal -= normal.mean()
            outward = float(pg @ normal)
            normal_sq = float(normal @ normal)
            if outward < 0.0 and normal_sq > 0.0:
                pinches += 1
                tangent = pg - (outward / normal_sq) * normal
                tangent_sq = float(tangent @ tangent)
                if math.sqrt(tangent_sq) <= 1e-10 * pg_norm:
                    raise StepIntoInvalidRegion(
                        "stalled on the realizability boundary with no "
                        "tangential ascent direction",
                        partial_trace(),
                    )
                gap = max(0.0, 1.5 * lam_floor - lam0)
                # cap the nudge so the slope keeps at least half the
                # tangential value (outward < 0 would otherwise flip it)
                nudge = min(gap / normal_sq, 0.5 * tangent_sq / -outward)
                direction = tangent + nudge * normal
        slope = float(pg @ direction)
        allowance = 4.0 * _EPS * (1.0 + abs(f)) + 8.0 * _EPS * (total / edges) * float(
            np.abs(grad).sum()
        )
        # the movement floor lets a step that collapsed in an earlier
        # pinch recover; halvings may still go far below it
        floor = 1e-8 * (1.0 + float(np.abs(x).max())) / float(np.linalg.norm(direction))
        alpha = max(step, floor)
        blocked_by_validity = False
        for halving in range(60):
            cand = x + alpha * direction
            cand += (total - cand.sum()) / edges
            reason, accepted = _judge_candidate(
                ws,
                kind,
                cand,
                f=f,
                predicted=armijo * alpha * slope,
                allowance=allowance,
                pg_norm=pg_norm,
                pd_tol=pd_tol,
                lam_floor=lam_floor,
            )
            if reason is None:
                x = cand
                f, grad, lam, vec = accepted
                break
            rejections[reason] += 1
            blocked_by_validity |= reason in _VALIDITY_REASONS
            alpha *= 0.5
        else:
            why = (
                "every candidate step left the Valid cone"
                if blocked_by_validity
                else "no ascent step of any size was acceptable"
            )
            raise StepIntoInvalidRegion(f"line search exhausted: {why}", partial_trace())
        step = alpha * 2.0 if halving == 0 else alpha
    if not converged:
        raise MaxIterations(f"no convergence within {max_iter} iterations", partial_trace())
    return _build_trace(n, x, iterates, rejections, pinches, converged=True)


def _build_trace(
    n: int,
    x: np.ndarray,
    iterates: list,
    rejections: dict[str, int],
    pinches: int,
    *,
    converged: bool,
) -> OptimizationTrace:
    mean = float(x.mean())
    deviation = float(np.abs(x - mean).max()) / mean
    return OptimizationTrace(
        iterates=iterates,
        final=SquaredEdgeLengths(n, x),
        regularity_deviation=deviation,
        converged=converged,
        rejections=dict(rejections),
        pinch_activations=pinches,
    )
