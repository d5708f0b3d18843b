"""Maximizing face-volume functionals on a slice of the squared-length cone.

Among all simplices with a fixed total of squared edge lengths, the
regular point (every squared length equal) maximizes both the product
of k-face volumes and the sum of k-th roots of k-face volumes, for
every k.  This module exposes the log-volume gradient in closed form
and a Newton ascent with a projected-gradient fallback on the
hyperplane ``{sum of squared lengths = total}`` that lets the claim be
checked numerically from random starting points.

The derivatives are cheap because the Gram matrix G of a face is linear
in the squared lengths: with L the face's bordered inverse Gram
(Fiedler, Matrices and Graphs in Geometry),

    grad log vol = -(1/2) offdiag L
    hess log vol = -(1/2) T,   T[ab, cd] = (L_ac L_bd + L_ad L_bc) / 2

where offdiag lists the strict upper triangle in edge order and ab, cd
are edges of the face.  So one bordered inverse per iterate serves both:
the face Grams whose determinants gave the value are inverted and
bordered once, and the gradient and the Hessian blocks read that L.

Scaling s by 4^m adds k m ln 2 to each face's log volume and multiplies
each k-th root by 2^m, so every entry point computes at unit mean, on s
scaled by an exact power of four, and maps each number back: runs work at
every total up to the float maximum.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations

import numpy as np

from .linalg import DEFAULT_PD_TOL, _cholesky_factor
from .simplex import (
    NotRealizable,
    SquaredEdgeLengths,
    _check_k_faces,
    _edge_table,
    _frozen,
    _gram_index,
    _gram_stack,
    _pairs,
    _polarize,
    _valid_grams,
    _valid_spectrum,
    edge_count,
    regular_simplex,
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
#: converged once the projected gradient norm is below this times the
#: gradient's 1-norm, i.e. the gradient is nearly normal to the slice
_GTOL_FACTOR = 1e-10
#: the Armijo sufficient-increase constant
_ARMIJO = 1e-4
#: Newton trials (lengths 1, 1/2, ...) before the gradient step takes over
_NEWTON_HALVINGS = 8
#: face-block floats the Hessian assembles at a time; a face size whose
#: one block fits keeps its gather plan (:func:`_stored_face_plan`)
_BLOCK_FLOATS = 1 << 16

#: Why the line search turns a candidate step down, in the order it checks.
_REJECTION_REASONS = (
    "non_positive",
    "cholesky_screen",
    "face_collapse",
    "armijo",
    "not_valid",
)


class _FailedRun(RuntimeError):
    """A run that stopped unconverged; ``trace`` holds its partial trace."""

    def __init__(self, message: str, trace: "OptimizationTrace"):
        super().__init__(message)
        self.trace = trace


class MaxIterations(_FailedRun):
    """Iteration budget exhausted before the gradient tolerance was met."""


class StepIntoInvalidRegion(_FailedRun):
    """Line search exhausted: no acceptable step stayed inside the Valid cone."""


class ObjectiveKind(str, Enum):
    LOG_PRODUCT_FACES = "logprod"
    SUM_ROOT_FACES = "sumroot"


@dataclass(frozen=True)
class Objective:
    """Which functional of the k-dimensional faces to maximize."""

    kind: ObjectiveKind
    k: int


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates as (point, objective, ``||P g|| / ||g||_1``), P the
    projection onto the hyperplane: the last is the scale-free ratio the
    stopping test compares with 1e-10.

    ``regularity_deviation`` is ``max_e |s_e - mean| / mean`` at the
    final point: zero exactly at the regular simplex.

    ``rejections`` counts the candidate steps the line search turned
    down, by the first test each one failed, in the order the search
    applies them: ``non_positive`` (a squared length not positive),
    ``cholesky_screen`` (the Gram matrix does not factor),
    ``face_collapse`` (a k-face determinant not positive), ``armijo``
    (too little gain, up to a rounding allowance) and ``not_valid`` (the
    Gram spectrum fails the library's Valid verdict).  Each rejection
    moves the search on to the next, shorter trial, so the counts add up
    to the halvings taken.  ``gradient_steps`` counts the iterations that
    took the projected-gradient step because no Newton trial was usable.
    """

    iterates: list[tuple[np.ndarray, float, float]]
    final: SquaredEdgeLengths
    regularity_deviation: float
    converged: bool
    rejections: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_REJECTION_REASONS, 0)
    )
    gradient_steps: int = 0


class _FaceWorkspace:
    """Index maps of the k-faces of an n-simplex: ``edges`` lists each face's
    edges in its own edge order, the order of offdiag L, and ``apex``/``pair``
    compose it with the face Gram's.  ``frame`` borders a face inverse into
    L = frame G^-1 frame^T, which the gradient and the Hessian both read."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.faces = np.array(list(combinations(range(n + 1), k + 1)))
        iu, ju = _pairs(k + 1)
        self.edges = _edge_table(n)[self.faces[:, iu], self.faces[:, ju]]
        self.offdiag = iu * (k + 1) + ju  # offdiag L, as flat indices of L
        apex, pair = _gram_index(k)
        # take() keeps them C-contiguous, which the per-step gathers need
        self.apex = self.edges.take(apex, axis=1)
        self.pair = self.edges.take(pair, axis=1)
        self.frame = np.vstack((-np.ones(k), np.eye(k)))
        self.log_kfact = math.log(math.factorial(k))
        try:
            self.kfact_root = math.factorial(k) ** (1.0 / k)
        except OverflowError:  # k! is no float from k = 171 on; its root still is
            self.kfact_root = math.exp(self.log_kfact / k)


_workspace = functools.cache(_FaceWorkspace)  # one per (n, k)


def _check_mean(mean: float) -> None:
    """Raise ValueError for a subnormal mean squared length: the gradient
    grows as 1 / mean past the float range."""
    if not mean >= np.finfo(float).tiny:
        raise ValueError("the mean squared length is subnormal")


def _unit_mean(ws: _FaceWorkspace, kind: ObjectiveKind, mean: float) -> tuple[int, ...]:
    """The m with mean / 4^m in [2^-0.5, 2^1.5), and (a, b, c) with
    objective(4^m s) = a objective(s) + b and gradient(4^m s) = c gradient(s).

    m is the exponent of mean / sqrt(2) halved, so means of 1 and 2 keep
    m = 0 and a mean scaled by 4^j moves m by exactly j.  A subnormal mean
    raises ValueError (:func:`_check_mean`).
    """
    _check_mean(mean)
    m = math.frexp(mean / math.sqrt(2.0))[1] // 2
    if kind is ObjectiveKind.LOG_PRODUCT_FACES:
        return m, 1.0, len(ws.faces) * ws.k * m * math.log(2.0), 2.0 ** (-2 * m)
    return m, 2.0**m, 0.0, 2.0**-m


def _raw_value(ws: _FaceWorkspace, kind: ObjectiveKind, s: np.ndarray) -> tuple | None:
    """Objective value, face weights (half its derivative in each face's log
    volume: 1/2, or root / (2k) for sumroot) and the face Grams they were
    read from, or None if a face collapses."""
    grams = _polarize(s[ws.apex], s[ws.pair])
    dets = np.linalg.det(grams)
    if not np.isfinite(dets).all() or (dets <= 0.0).any():
        return None
    if kind is ObjectiveKind.LOG_PRODUCT_FACES:
        return float(0.5 * np.log(dets).sum() - len(ws.faces) * ws.log_kfact), 0.5, grams
    roots = dets ** (0.5 / ws.k) / ws.kfact_root
    return float(roots.sum()), 0.5 * (roots / ws.k)[:, None], grams


def _raw_gradient(ws: _FaceWorkspace, grams: np.ndarray, weight) -> tuple:
    """Gradient from the face Grams and weights of :func:`_raw_value`, as
    d(log vol)/ds = -offdiag L / 2 summed over the faces, and the bordered
    inverses L, which the Hessian reuses."""
    bordered = ws.frame @ np.linalg.inv(grams) @ ws.frame.T  # L
    terms = -(bordered.reshape(len(ws.faces), -1).take(ws.offdiag, axis=1) * weight).ravel()
    return np.bincount(ws.edges.ravel(), terms, minlength=edge_count(ws.n)), bordered


def _face_plan(k: int) -> Iterator[np.ndarray]:
    """Where T's factors sit in a face's flattened (k+1)^2 bordered inverse L:
    the flat indices of L_ac, L_bd, L_ad and L_bc for every pair of face
    edges (ab, cd), row ab by column cd, e^2 each for the e = C(k+1, 2) face
    edges, built one at a time as they are read."""
    iu, ju = _pairs(k + 1)
    a, b = iu[:, None] * (k + 1), ju[:, None] * (k + 1)
    return ((row + col).ravel() for row, col in ((a, iu), (b, ju), (a, ju), (b, iu)))


@functools.cache
def _stored_face_plan(k: int) -> tuple[np.ndarray, ...]:
    """:func:`_face_plan`, kept for the face sizes whose block fits in
    ``_BLOCK_FLOATS`` (k <= 22); a larger one would hold 4 e^2 indices for
    the life of the process."""
    return tuple(map(_frozen, _face_plan(k)))


def _scatter_index(edges: np.ndarray, size: int, k: int) -> np.ndarray:
    """Where each entry of the face blocks of ``edges`` (a face per row)
    lands in N, flattened: its diagonal alone at k = 1."""
    return (edges if k == 1 else edges[:, :, None] * size + edges[:, None, :]).ravel()


@functools.cache
def _stored_scatter_index(n: int, k: int) -> np.ndarray:
    """:func:`_scatter_index` of every k-face, kept for the (n, k) whose whole
    scatter fits in ``_BLOCK_FLOATS`` (every k up to n = 9; at most 2100
    indices up to n = 6); a larger one is built a chunk at a time on every
    call."""
    return _frozen(_scatter_index(_workspace(n, k).edges, edge_count(n), k))


def _curvature(
    ws: _FaceWorkspace, kind: ObjectiveKind, bordered: np.ndarray, weight
) -> np.ndarray:
    """N = -H from the bordered inverses L of :func:`_raw_gradient`.  Each face
    adds weight * T, less weight * a a^T / (2k) with a = -offdiag L for
    sumroot, whose weight is itself a function of the face's log volume.
    A face's block T is four flat gathers from the face's flattened L, at
    the indices of :func:`_face_plan`, which is kept once per k while one
    block fits in ``_BLOCK_FLOATS`` and built on every call above that; a
    call with one face reads each index as it is built, so it never holds
    more than one of the four.  The face blocks are scattered a chunk of
    faces at a time, at the indices of :func:`_stored_scatter_index` when
    all faces make one chunk; at k = 1 each face is one edge, so N is
    diagonal and only its diagonal is formed."""
    k, edges, size = ws.k, edge_count(ws.n), ws.offdiag.size**2
    if size <= _BLOCK_FLOATS:
        plan = _stored_face_plan(k)
    else:  # built per call, and held only if more than one face reads it
        plan = _face_plan(k) if len(ws.faces) == 1 else tuple(_face_plan(k))
    flat = bordered.reshape(len(ws.faces), -1)
    neg = np.zeros(edges if k == 1 else edges * edges)
    rows = max(1, _BLOCK_FLOATS // size)
    whole = len(ws.faces) * size <= _BLOCK_FLOATS  # one chunk, whose index is kept
    for lo in range(0, len(ws.faces), rows):
        part = slice(lo, lo + rows)
        face = flat[part]
        # 0.5 (L_ac L_bd + L_ad L_bc), computed in place
        factors = iter(plan)
        blocks = face.take(next(factors), axis=1)
        blocks *= face.take(next(factors), axis=1)
        cross = face.take(next(factors), axis=1)
        cross *= face.take(next(factors), axis=1)
        blocks += cross
        blocks *= 0.5
        if kind is ObjectiveKind.SUM_ROOT_FACES:
            l_ab = face.take(ws.offdiag, axis=1)
            blocks -= (l_ab[:, :, None] * l_ab[:, None, :]).reshape(blocks.shape) / (2 * k)
            blocks *= weight[part]
        else:
            blocks *= weight
        if whole:
            index = _stored_scatter_index(ws.n, k)
        else:
            index = _scatter_index(ws.edges[part], edges, k)
        np.add.at(neg, index, blocks.ravel())
    return neg if k == 1 else neg.reshape(edges, edges)


def _newton_direction(neg: np.ndarray, pg: np.ndarray) -> np.ndarray | None:
    """The Newton step on the hyperplane for N = -H (a vector: its diagonal),
    d = u - (sum u / sum v) v for N u = pg and N v = 1, so that sum d = 0 and
    N d = pg + mu 1; or None unless d is finite and ascends."""
    rhs = np.empty((pg.size, 2))
    rhs[:, 0], rhs[:, 1] = pg, 1.0
    with np.errstate(all="ignore"):  # a nearly singular N gives a d that is not finite
        try:
            u, v = (rhs / neg[:, None] if neg.ndim == 1 else np.linalg.solve(neg, rhs)).T
        except np.linalg.LinAlgError:  # exactly singular
            return None
        d = u - (u.sum() / v.sum()) * v
    return d if np.isfinite(d).all() and float(pg @ d) > 0.0 else None


def _evaluate(ell: SquaredEdgeLengths, objective: Objective, pd_tol: float):
    """The objective value, and what its gradient needs: the workspace, the
    face weights and Grams of s / 4^m and the factor that maps the gradient
    back."""
    _check_k_faces(ell.n, objective.k)
    ws = _workspace(ell.n, objective.k)
    # the mean of the quotients: the plain sum can overflow near the float maximum
    m, a, b, c = _unit_mean(ws, objective.kind, float((ell.s / ell.s.size).sum()))
    s = np.ldexp(ell.s, -2 * m)
    _valid_spectrum(SquaredEdgeLengths(ell.n, s), pd_tol)
    evaluated = _raw_value(ws, objective.kind, s)
    if evaluated is None:
        raise NotRealizable("a face volume vanished")
    return evaluated[0] * a + b, (ws, *evaluated[1:], c)


def objective_value(
    ell: SquaredEdgeLengths, objective: Objective, *, pd_tol: float = DEFAULT_PD_TOL
) -> float:
    """Sum of log k-face volumes, or sum of k-th roots of k-face volumes."""
    return _evaluate(ell, objective, pd_tol)[0]


def objective_gradient(
    ell: SquaredEdgeLengths, objective: Objective, *, pd_tol: float = DEFAULT_PD_TOL
) -> np.ndarray:
    """Gradient of :func:`objective_value` with respect to every squared length."""
    ws, weight, grams, c = _evaluate(ell, objective, pd_tol)[1]
    return _raw_gradient(ws, grams, weight)[0] * c


def gradient_log_volume(
    ell: SquaredEdgeLengths, *, pd_tol: float = DEFAULT_PD_TOL
) -> np.ndarray:
    """Gradient of log n-volume; satisfies the scaling identity
    ``sum_e s_e * grad_e = n / 2``."""
    return objective_gradient(
        ell, Objective(ObjectiveKind.LOG_PRODUCT_FACES, ell.n), pd_tol=pd_tol
    )


def _judge_candidate(
    ws: _FaceWorkspace,
    kind: ObjectiveKind,
    cand: np.ndarray,
    *,
    f: float,
    predicted: float,
    allowance: float,
    pd_tol: float,
) -> tuple[str | None, tuple | None]:
    """The first test the line search fails on ``cand`` (a key of
    ``OptimizationTrace.rejections``), or None together with the accepted
    candidate's objective value, face weights and face Grams.

    The candidate must lie in the domain, which is the library's Valid
    verdict, and gain ``predicted`` less ``allowance``; the tests run
    cheapest first.  The Gram matrix is built once and feeds both the
    Cholesky screen and the closing verdict, :func:`validate`'s own
    prescaled ``eigh`` and band (``simplex._valid_grams``).
    """
    if (cand <= 0.0).any():
        return "non_positive", None
    gram = _gram_stack(ws.n, cand)
    if not _cholesky_factor(gram)[1]:
        return "cholesky_screen", None
    evaluated = _raw_value(ws, kind, cand)
    if evaluated is None:
        return "face_collapse", None
    if evaluated[0] < f + predicted - allowance:
        return "armijo", None
    if not _valid_grams(gram, pd_tol):
        return "not_valid", None
    return None, evaluated


def maximize(
    n: int,
    total: float,
    objective: Objective,
    *,
    start: SquaredEdgeLengths | np.ndarray | None = None,
    max_iter: int = 10000,
    pd_tol: float = DEFAULT_PD_TOL,
) -> OptimizationTrace:
    """Newton ascent with a projected-gradient fallback on the hyperplane
    {sum of entries = total}.

    The search runs at unit mean, on the start scaled by the power of four
    4^-m that brings ``total / edges`` into [2^-0.5, 2^1.5); the trace is
    mapped back exactly, so a run scaled by 4^j takes the same steps.  Each
    iteration tries the equality-constrained Newton step (Boyd &
    Vandenberghe, Convex Optimization, 10.2) at lengths 1, 1/2, ..., 1/128;
    if it is not a finite ascent direction or all eight are rejected, it
    takes the projected gradient step at a tenth of the mean squared
    length, halving up to 60 times.  Every candidate must be Valid and
    gain at least the Armijo fraction 1e-4 of the predicted increase, less
    a rounding allowance (Boyd & Vandenberghe, 9.2): the cone is open and
    convex, so a short enough ascent step passes both.  Converged when the
    projected gradient norm drops below ``1e-10 * ||gradient||_1``, that
    is, when the gradient is nearly normal to the hyperplane.  Raises
    :class:`MaxIterations` or :class:`StepIntoInvalidRegion` (each carrying
    the partial trace) instead of returning an unconverged result, and
    ``ValueError`` for a bad start, total or k (:class:`NotRealizable` for
    a start that is not Valid), for a subnormal mean, and past
    ``MAX_FACES`` k-faces.

    The start's verdict comes from one ``eigendecompose`` call; each
    candidate's is :func:`validate`'s verdict, prescaled ``eigh`` and band,
    on the Gram matrix its Cholesky screen factored, once every cheaper
    test has passed.  So every recorded iterate and the final point read
    Valid under :func:`validate` at ``pd_tol``, bit for bit.  The tests
    also hold every iterate's verdict and spectrum to an independent
    reference solver.  The rounding allowance is a few machine epsilons
    (plus the rounding of the hyperplane re-projection), so recorded
    values are nondecreasing only up to it.
    """
    _check_k_faces(n, objective.k)
    if not (total > 0.0) or not math.isfinite(total):
        raise ValueError("total must be a positive finite number")
    edges = edge_count(n)
    ws = _workspace(n, objective.k)
    kind = objective.kind
    m, a, b, _ = _unit_mean(ws, kind, total / edges)
    if start is None:
        x = regular_simplex(n, total).s
    elif isinstance(start, SquaredEdgeLengths):
        if start.n != n:
            raise ValueError("start has the wrong dimension")
        x = start.s
    else:
        x = np.asarray(start, dtype=float)
        if x.shape != (edges,):
            raise ValueError(f"start must have {edges} entries")
    # scaled to unit mean before the projection, whose sum could overflow
    total = math.ldexp(total, -2 * m)
    x = np.ldexp(x, -2 * m)
    x += (total - x.sum()) / edges  # affine projection onto the hyperplane
    if (x <= 0.0).any():
        raise ValueError("start projects outside the positive orthant")
    _valid_spectrum(SquaredEdgeLengths(n, x), pd_tol)
    step = 0.1 * total / edges
    evaluated = _raw_value(ws, kind, x)
    if evaluated is None:
        raise NotRealizable("a face of the start collapsed")
    f, weight, grams = evaluated

    iterates: list[tuple[np.ndarray, float, float]] = []
    rejections = dict.fromkeys(_REJECTION_REASONS, 0)
    gradient_steps = 0

    def trace(converged: bool) -> OptimizationTrace:
        """The run so far, mapped back from s / 4^m to s."""
        mean = float(x.mean())
        return OptimizationTrace(
            iterates=[(_frozen(np.ldexp(p, 2 * m)), v * a + b, r) for p, v, r in iterates],
            final=SquaredEdgeLengths(n, np.ldexp(x, 2 * m)),
            regularity_deviation=float(np.abs(x - mean).max()) / mean,
            converged=converged,
            rejections=dict(rejections),
            gradient_steps=gradient_steps,
        )

    for _ in range(max_iter):
        grad, bordered = _raw_gradient(ws, grams, weight)
        pg = grad - grad.sum() / edges
        pg_norm = math.sqrt(pg @ pg)
        grad_l1 = float(np.abs(grad).sum())
        iterates.append((x, f, pg_norm / grad_l1))
        if pg_norm < _GTOL_FACTOR * grad_l1:
            return trace(True)

        # Newton trials first, built as needed; each halves the one before
        newton = _newton_direction(_curvature(ws, kind, bordered, weight), pg)
        del grams, bordered  # the line search reads neither; near MAX_FACES they take tens of MB
        trials = ((pg, step * 0.5**h) for h in range(60))
        if newton is not None:
            trials = chain(((newton, 0.5**h) for h in range(_NEWTON_HALVINGS)), trials)
        allowance = 4.0 * _EPS * (1.0 + abs(f)) + 8.0 * _EPS * (total / edges) * grad_l1
        armijo_before = rejections["armijo"]
        for direction, alpha in trials:
            cand = x + alpha * direction
            cand += (total - cand.sum()) / edges
            reason, accepted = _judge_candidate(
                ws,
                kind,
                cand,
                f=f,
                predicted=_ARMIJO * alpha * float(pg @ direction),
                allowance=allowance,
                pd_tol=pd_tol,
            )
            if reason is None:
                x = cand
                f, weight, grams = accepted
                break
            rejections[reason] += 1
        else:
            # a trial rejected for any reason but Armijo left the cone
            why = (
                "every candidate step left the Valid cone"
                if rejections["armijo"] == armijo_before
                else "no ascent step of any size was acceptable"
            )
            raise StepIntoInvalidRegion(f"line search exhausted: {why}", trace(False))
        if direction is pg:
            gradient_steps += 1
    raise MaxIterations(f"no convergence within {max_iter} iterations", trace(False))
