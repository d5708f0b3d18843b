"""Dense symmetric linear-algebra kernels.

Each spectral question has one kernel here: ``_positive_definite`` (the
PD band test), ``_null_index`` (nullity exactly one), ``_svd_adjugate``
(the adjugate and its rank-one factor, one SVD) and ``_whitened_spectrum``
(log det along a line and its derivatives).  Every spectrum of the package
is taken here, by LAPACK through numpy: single matrices
(:func:`eigendecompose`), a probe's midpoint, the optimizer's candidate
verdicts and the stacked verdicts of probes and bisections go through one
prescaled kernel, ``_unit_eigh``; the optimizer's face determinants and
inverses come from one batched call each and every Cholesky factor from
``potrf``; the tests hold them to pure-Python loops and mpmath.

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
    "cholesky",
    "determinant",
    "eigendecompose",
    "logdet_directional_derivative",
    "logdet_second_derivative",
    "outer_product",
    "smallest_eigenvalue",
]

#: Positive-definiteness tolerance: M counts as PD iff its smallest
#: eigenvalue exceeds ``pd_tol * |largest eigenvalue|``.
DEFAULT_PD_TOL = 1e-10

#: A singular value counts as zero in the nullity test iff it is at most
#: ``DEFAULT_NULL_TOL * largest singular value``.
DEFAULT_NULL_TOL = 1e-9

class ConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver reported no convergence."""


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = basis @ diag(eigenvalues) @ basis.T.

    ``eigenvalues`` is ascending; ``basis`` has the matching orthonormal
    eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def eigendecompose(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK's ``eigh``
    (:func:`_unit_eigh`).  Raises :class:`ConvergenceError` when LAPACK
    reports no convergence."""
    return EigenDecomposition(*_unit_eigh(check_symmetric(m)))


def _unit_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a finite symmetric matrix,
    or of each matrix in a stack along the leading axes.

    LAPACK runs on M / 2^shift, largest entry in [0.5, 1): the exact
    rescale keeps every entry's square inside the float range and makes
    the result commute bit for bit with scaling M by 2^k (short of
    subnormal entries).  Each matrix of a stack gets its own shift, so a
    stack gives the bits that one call per matrix gives.
    """
    if m.ndim == 2:  # one matrix: a Python int shift skips ~2 us of numpy calls
        shift = back = math.frexp(float(np.abs(m).max()))[1]
    else:
        shift = np.frexp(np.abs(m).max(axis=(-2, -1), keepdims=True))[1]
        back = shift[..., 0]
    try:
        w, basis = np.linalg.eigh(np.ldexp(m, -shift))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from None
    return np.ldexp(w, back), basis


def _band(w, tol: float):
    """Half-width ``tol * max|w|`` of the band in which an eigenvalue counts
    as zero, per spectrum along the last axis of ``w`` (a stack).  Relative
    to the spectrum, so every verdict is the same at every scale."""
    if not 0.0 <= tol < math.inf:  # a negative band calls indefinite matrices PD
        raise ValueError(f"tolerance must be a nonnegative finite number, got {tol}")
    return tol * np.abs(w).max(axis=-1)


def _positive_definite(w, pd_tol: float):
    """The PD test, per ascending spectrum along the last axis of ``w`` (a
    stack): the smallest eigenvalue clears the band."""
    return w[..., 0] > _band(w, pd_tol)


def _null_index(s) -> int:
    """Position of the one singular value of ``s`` inside the null band;
    raises :class:`NullityNotOne` unless there is exactly one."""
    zero = np.flatnonzero(s <= _band(s, DEFAULT_NULL_TOL))
    if zero.size != 1:
        raise NullityNotOne(f"expected nullity 1, found {zero.size} zero singular values")
    return int(zero[0])


def smallest_eigenvalue(m) -> float:
    return float(eigendecompose(m).eigenvalues[0])


def _cholesky_factor(a: np.ndarray) -> tuple[np.ndarray | None, bool, int]:
    """Unpivoted lower Cholesky by LAPACK ``potrf``: (L, True, -1), or (None,
    False, j) for the first j whose leading (j+1)-by-(j+1) block fails."""
    try:
        return np.linalg.cholesky(a), True, -1
    except np.linalg.LinAlgError:
        for j in range(len(a) - 1):
            try:
                np.linalg.cholesky(a[: j + 1, : j + 1])
            except np.linalg.LinAlgError:
                return None, False, j
        return None, False, len(a) - 1


def cholesky(m, *, pd_tol: float = DEFAULT_PD_TOL) -> np.ndarray:
    """Lower-triangular L with ``L @ L.T == m`` for positive definite input.

    A pivot that is not positive raises at once with its index.  When every
    pivot passes, success is still decided by the eigenvalue test (smallest
    eigenvalue above ``pd_tol * |largest|``), so that it agrees exactly with
    :func:`eigendecompose`-based classification; a rejection then names the
    weakest pivot.
    """
    a = check_symmetric(m)
    low, ok, bad = _cholesky_factor(a)
    if not ok:
        raise NotPositiveDefinite(f"pivot {bad} is not positive", pivot=bad)
    w = eigendecompose(a).eigenvalues
    if not _positive_definite(w, pd_tol):
        weakest = int(np.argmin(np.diag(low)))
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w[0]:.3e} is within tolerance of zero (pivot {weakest})",
            pivot=weakest,
        )
    return low


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


def _svd_adjugate(a: np.ndarray):
    """The SVD a = U diag(s) V^T and the signed cofactor weights
    det(U) det(V) p, where p_i is the product of all singular values but the
    i-th: adj(a) = V diag(weights) U^T.  Each p_i is a prefix times a suffix
    running product, so there is no division."""
    u, s, vt = np.linalg.svd(a)
    one = np.ones(1)
    before = np.cumprod(np.concatenate((one, s[:-1])))
    after = np.cumprod(np.concatenate((one, s[:0:-1])))[::-1]
    # det(U) det(V) = det(U V^T) is exactly +-1; only its sign carries over
    sign = np.sign(np.linalg.det(u @ vt))
    return u, s, vt, sign * (before * after)


def adjugate(m) -> np.ndarray:
    """Adjugate (transposed cofactor matrix), satisfying M @ adj(M) = det(M) I.

    One formula for every square matrix: with the SVD M = U diag(s) V^T,
    adj(M) = det(U) det(V) V diag(p) U^T (:func:`_svd_adjugate`), so
    invertible, nullity-1 and nullity->=2 input are covered alike.
    """
    u, _, vt, weights = _svd_adjugate(check_square(m))
    return _adjugate_from_svd(u, vt, weights)


def _adjugate_from_svd(u: np.ndarray, vt: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """adj(a) = V diag(weights) U^T from the factors of :func:`_svd_adjugate`."""
    return (vt.T * weights) @ u.T


def _sign_normalize(v: np.ndarray) -> tuple[float, np.ndarray]:
    """The sign that makes the first nonzero component of ``v`` positive,
    and ``v`` scaled to unit length with that sign, its zeros all +0.0.  A
    unit vector has an entry of at least 1/sqrt(n), so one is nonzero."""
    v = v / float(np.linalg.norm(v))
    sign = -1.0 if v[np.abs(v) > 1e-12][0] < 0.0 else 1.0
    return sign, sign * v + 0.0  # x + 0.0 is x, except that -0.0 + 0.0 is +0.0


def adjugate_rank1_decompose(m) -> tuple[float, np.ndarray, np.ndarray]:
    """Factor the adjugate of a nullity-1 matrix as ``c * outer(v, w)``, off
    the SVD that :func:`adjugate` takes: ``(c, w, v)`` with ``v`` and ``w``
    the null singular vectors of M and M.T, both unit with their first
    nonzero component positive, and ``c`` their cofactor weight.  Raises
    :class:`NullityNotOne` unless exactly one singular value is zero within
    ``DEFAULT_NULL_TOL`` times the largest, so [[0, 1], [0, 0]] passes."""
    return _rank1_factor(*_svd_adjugate(check_square(m)))


def _rank1_factor(u: np.ndarray, s: np.ndarray, vt: np.ndarray, weights: np.ndarray):
    """:func:`adjugate_rank1_decompose` from the factors of :func:`_svd_adjugate`."""
    k = _null_index(s)
    sign_v, v = _sign_normalize(vt[k])
    sign_w, w = _sign_normalize(u[:, k])
    return float(weights[k]) * sign_v * sign_w, w, v


def _whitened_spectrum(w: np.ndarray, basis: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Ascending spectrum mu of ``delta`` whitened by the positive definite
    A = basis diag(w) basis^T, the eigenvalues of
    diag(w)^-1/2 basis^T delta basis diag(w)^-1/2: so
    log det(A + t delta) = log det A + sum_i log(1 + t mu_i), and its first
    two derivatives at t = 0 are sum_i mu_i and -sum_i mu_i^2."""
    root = basis / np.sqrt(w)
    return np.linalg.eigvalsh(root.T @ delta @ root)


def _whitened_spectrum_at(a, b, pd_tol: float) -> np.ndarray:
    amat = check_symmetric(a)
    bmat = check_symmetric(b)
    if amat.shape != bmat.shape:
        raise ValueError("A and B must have matching shapes")
    dec = eigendecompose(amat)
    if not _positive_definite(dec.eigenvalues, pd_tol):
        raise NotPositiveDefinite("base point of log det derivative is not PD")
    return _whitened_spectrum(dec.eigenvalues, dec.basis, bmat)


def logdet_directional_derivative(a, b, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """d/dt log det(A + tB) at t=0, i.e. trace(A^-1 B), for A positive definite."""
    return float(_whitened_spectrum_at(a, b, pd_tol).sum())


def logdet_second_derivative(a, b, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Second derivative of t -> log det(A + tB) at t=0, for A positive
    definite: ``-trace(A^-1 B A^-1 B)``, minus the sum of squares of the
    whitened spectrum, so the result is <= 0 in floating point as well, and
    strictly negative whenever B != 0."""
    return float(-np.square(_whitened_spectrum_at(a, b, pd_tol)).sum())
