"""Dense symmetric linear-algebra kernels.

Single-instance questions funnel through a handful of small-matrix
primitives: a cyclic Jacobi eigensolver, an unpivoted Cholesky
factorization, determinants as eigenvalue products, adjugates, and the
first two directional derivatives of ``log det``.  Matrices here are
tiny (a simplex of dimension n yields n-by-n Gram matrices), so the
Jacobi iteration is both fast enough and extremely accurate.  Stacks of
matrices (the sample points of a concavity probe, the faces in the
optimizer) go through numpy's LAPACK bindings instead; the tests check
the probe's stacked results against this solver sample by sample.

Symmetry is enforced exactly: a matrix is accepted as symmetric only if
``m[i, j] == m[j, i]`` bitwise.  Callers that assemble symmetric
matrices from floating-point arithmetic should symmetrize explicitly,
e.g. ``(a + a.T) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_NULL_TOL",
    "DEFAULT_PD_TOL",
    "ConvergenceError",
    "EigenDecomposition",
    "NotPositiveDefinite",
    "NullityNotOne",
    "adjugate",
    "adjugate_rank1_decompose",
    "check_square",
    "check_symmetric",
    "cholesky",
    "determinant",
    "eigendecompose",
    "is_symmetric",
    "logdet_directional_derivative",
    "logdet_second_derivative",
    "outer_product",
    "smallest_eigenvalue",
]

#: Positive-definiteness tolerance: M counts as PD iff its smallest
#: eigenvalue exceeds ``pd_tol * max(1, |largest eigenvalue|)``.
DEFAULT_PD_TOL = 1e-10

#: An eigenvalue counts as zero iff its magnitude is at most
#: ``null_tol * max(1, |largest eigenvalue|)``.
DEFAULT_NULL_TOL = 1e-9

_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without meeting the off-diagonal target."""


class NotPositiveDefinite(ValueError):
    """Raised when an operation requires a positive definite matrix.

    ``pivot`` is the index of the offending Cholesky pivot when the
    failure came out of a factorization, and -1 otherwise.
    """

    def __init__(self, message: str = "matrix is not positive definite", pivot: int = -1):
        super().__init__(message)
        self.pivot = pivot


class NullityNotOne(ValueError):
    """Raised when a rank-one adjugate factorization needs nullity exactly 1."""


def check_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of size >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def check_symmetric(m) -> np.ndarray:
    """Return a float copy of ``m``, rejecting any exact asymmetry."""
    a = check_square(m)
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric (entries must match exactly)")
    return a.copy()


def is_symmetric(m) -> bool:
    a = check_square(m)
    return bool((a == a.T).all())


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = basis @ diag(eigenvalues) @ basis.T.

    ``eigenvalues`` is ascending; ``basis`` has the matching orthonormal
    eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def eigendecompose(m, *, max_sweeps: int = _JACOBI_MAX_SWEEPS) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Sweeps rotate away every off-diagonal entry in row order until the
    off-diagonal Frobenius norm drops below ``1e-14 * ||M||_F``; raises
    :class:`ConvergenceError` past ``max_sweeps`` sweeps (a hundred by
    default, far beyond what these sizes need).
    """
    checked = check_symmetric(m)
    n = checked.shape[0]
    # sweep M / 2^shift, largest entry in [0.5, 1): squares past ~1e154 would
    # overflow, and the exact rescale leaves every rotation bit-identical
    shift = math.frexp(float(np.abs(checked).max()))[1]
    checked = np.ldexp(checked, -shift)
    target = _JACOBI_OFF_TOL * float(np.sqrt((checked * checked).sum()))
    # plain nested lists: the matrices here are tiny, and scalar updates beat
    # per-rotation numpy slicing by a wide margin
    a = [[float(x) for x in row] for row in checked]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    # entries this small cannot lift the off-diagonal norm above target even
    # if every slot held one, so rotating them away is pure overhead
    skip2 = target * target / (2.0 * n * n) if n > 1 else 0.0

    def off_norm2() -> float:
        return sum(
            a[i][j] * a[i][j] for i in range(n) for j in range(n) if i != j
        )

    for _ in range(max_sweeps):
        if off_norm2() <= target * target:
            break
        for p in range(n - 1):
            ap = a[p]
            vp = v[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq * apq <= skip2:
                    continue
                aq = a[q]
                tau = (aq[q] - ap[p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in a:
                    rp = row[p]
                    rq = row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq
                for i in range(n):
                    rp = ap[i]
                    rq = aq[i]
                    ap[i] = c * rp - s * rq
                    aq[i] = s * rp + c * rq
                ap[q] = 0.0
                aq[p] = 0.0
                vq = v[q]
                for i in range(n):
                    rp = vp[i]
                    rq = vq[i]
                    vp[i] = c * rp - s * rq
                    vq[i] = s * rp + c * rq
    else:
        if off_norm2() > target * target:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps"
            )
    w = np.ldexp(np.array([a[i][i] for i in range(n)]), shift)
    order = np.argsort(w, kind="stable")
    # v held the rotations row-wise (v = J^T stacked), so eigenvectors are rows
    basis = np.array(v).T
    return EigenDecomposition(eigenvalues=w[order], basis=basis[:, order])


def _band(w, tol: float):
    """Half-width ``tol * max(1, max|w|)`` of the band in which an eigenvalue
    counts as zero, per spectrum along the last axis of ``w`` (a stack)."""
    return tol * np.abs(w).max(axis=-1, initial=1.0)


def smallest_eigenvalue(m) -> float:
    return float(eigendecompose(m).eigenvalues[0])


def _cholesky_factor(a: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Unpivoted lower Cholesky; returns (L, success, failing pivot index)."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not (d > 0.0) or not math.isfinite(d):
            return low, False, j
        ljj = math.sqrt(d)
        low[j, j] = ljj
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / ljj
    return low, True, -1


def cholesky(m, *, pd_tol: float = DEFAULT_PD_TOL) -> np.ndarray:
    """Lower-triangular L with ``L @ L.T == m`` for positive definite input.

    Success is decided by the eigenvalue tolerance test (smallest
    eigenvalue above ``pd_tol * max(1, |largest|)``) so that it agrees
    exactly with :func:`eigendecompose`-based classification; the
    factorization itself supplies the failing pivot index on rejection.
    """
    a = check_symmetric(m)
    low, ok, bad = _cholesky_factor(a)
    w = eigendecompose(a).eigenvalues
    if w[0] > _band(w, pd_tol):
        if not ok:  # tolerance-PD but a pivot collapsed: genuinely borderline
            raise NotPositiveDefinite(f"pivot {bad} is not positive", pivot=bad)
        return low
    if not ok:
        raise NotPositiveDefinite(f"pivot {bad} is not positive", pivot=bad)
    weakest = int(np.argmin(np.diag(low)))
    raise NotPositiveDefinite(
        f"smallest eigenvalue {w[0]:.3e} is within tolerance of zero (pivot {weakest})",
        pivot=weakest,
    )


def determinant(m) -> float:
    """Determinant of a symmetric matrix as the product of its eigenvalues."""
    w = eigendecompose(m).eigenvalues
    return float(np.prod(w))


def outer_product(v, w) -> np.ndarray:
    """Rank-(at most)-one matrix with entries ``v[i] * w[j]``."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.ndim != 1 or w.ndim != 1 or v.shape != w.shape or v.size < 1:
        raise ValueError("outer_product expects two equal-length vectors")
    return np.outer(v, w)


def _det_upto3(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def _adjugate_cofactors(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return np.array([[1.0]])
    adj = np.empty_like(a)
    rows = list(range(n))
    for i in range(n):
        keep_r = rows[:i] + rows[i + 1 :]
        for j in range(n):
            keep_c = rows[:j] + rows[j + 1 :]
            minor = a[np.ix_(keep_r, keep_c)]
            # transposed on assignment: adj = cofactor matrix transposed
            adj[j, i] = ((-1.0) ** (i + j)) * _det_upto3(minor)
    return adj


def adjugate(m) -> np.ndarray:
    """Adjugate (transposed cofactor matrix), satisfying M @ adj(M) = det(M) I.

    Sizes up to 4 use direct cofactor expansion and accept any square
    matrix; larger sizes require symmetry and go through the
    eigendecomposition, where the i-th diagonal of the adjugate's
    spectral form is the product of all eigenvalues but the i-th.  That
    one formula covers invertible, nullity-1 and nullity->=2 input
    uniformly.
    """
    a = check_square(m)
    n = a.shape[0]
    if n <= 4:
        return _adjugate_cofactors(a)
    if not (a == a.T).all():
        raise ValueError("adjugate for size > 4 is implemented for symmetric matrices")
    dec = eigendecompose(a)
    w = dec.eigenvalues
    partial = np.array([np.prod(np.delete(w, i)) for i in range(n)])
    out = dec.basis @ np.diag(partial) @ dec.basis.T
    return (out + out.T) / 2.0


def _sign_normalize(v: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    v = v / nrm
    for x in v:
        if abs(x) > 1e-12:
            return -v if x < 0.0 else v
    return v


def adjugate_rank1_decompose(
    m, *, null_tol: float = DEFAULT_NULL_TOL
) -> tuple[float, np.ndarray, np.ndarray]:
    """Factor the adjugate of a nullity-1 matrix as ``c * outer(v, w)``.

    Returns ``(c, w, v)`` where ``v`` spans ``null(M)``, ``w`` spans
    ``null(M.T)``, both unit with their first nonzero component
    positive, and ``c = (product of nonzero eigenvalues) / <v, w>``.
    For symmetric input ``v is w``.  Raises :class:`NullityNotOne`
    unless exactly one eigenvalue is zero within tolerance.
    """
    a = check_square(m)
    symmetric = bool((a == a.T).all())
    if symmetric:
        dec = eigendecompose(a)
        w_eig = dec.eigenvalues
        zero = np.flatnonzero(np.abs(w_eig) <= _band(w_eig, null_tol))
        if zero.size != 1:
            raise NullityNotOne(f"expected nullity 1, found {zero.size} zero eigenvalues")
        k = int(zero[0])
        v = _sign_normalize(dec.basis[:, k])
        nonzero = np.delete(w_eig, k)
        c = float(np.prod(nonzero))  # <v, v> == 1
        return c, v, v
    # small non-symmetric case: null vectors from the SVD, eigenvalue
    # product from the (possibly complex) spectrum
    lam = np.linalg.eigvals(a)
    zero = np.flatnonzero(np.abs(lam) <= _band(lam, null_tol))
    if zero.size != 1:
        raise NullityNotOne(f"expected nullity 1, found {zero.size} zero eigenvalues")
    u_svd, _, vt_svd = np.linalg.svd(a)
    v = _sign_normalize(vt_svd[-1, :])
    w = _sign_normalize(u_svd[:, -1])
    inner = float(np.dot(v, w))
    if abs(inner) <= null_tol:
        raise NullityNotOne("null vectors of M and M.T are numerically orthogonal")
    prod = complex(np.prod(np.delete(lam, int(zero[0]))))
    if abs(prod.imag) > 1e-9 * max(1.0, abs(prod.real)):
        raise NullityNotOne("nonzero eigenvalue product is not real")
    return prod.real / inner, w, v


def logdet_directional_derivative(a, b, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """d/dt log det(A + tB) at t=0, i.e. trace(A^-1 B), for A positive definite."""
    amat = check_symmetric(a)
    bmat = check_symmetric(b)
    if amat.shape != bmat.shape:
        raise ValueError("A and B must have matching shapes")
    dec = eigendecompose(amat)
    w = dec.eigenvalues
    if w[0] <= _band(w, pd_tol):
        raise NotPositiveDefinite("base point of log det derivative is not PD")
    bprime = dec.basis.T @ bmat @ dec.basis
    return float(np.sum(np.diag(bprime) / w))


def logdet_second_derivative(a, b, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Second derivative of t -> log det(A + tB) at t=0.

    Equals ``-trace(A^-1 B A^-1 B)``, computed after diagonalizing A as
    ``-sum_ij b'_ij^2 / (lam_i lam_j)`` -- a negated sum of squares, so
    the result is <= 0 in floating point as well, and strictly negative
    whenever B != 0.
    """
    amat = check_symmetric(a)
    bmat = check_symmetric(b)
    if amat.shape != bmat.shape:
        raise ValueError("A and B must have matching shapes")
    dec = eigendecompose(amat)
    w = dec.eigenvalues
    if w[0] <= _band(w, pd_tol):
        raise NotPositiveDefinite("base point of log det derivative is not PD")
    bprime = dec.basis.T @ bmat @ dec.basis
    ratio = bprime / np.sqrt(np.outer(w, w))
    return -float((ratio * ratio).sum())
