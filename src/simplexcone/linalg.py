"""Dense symmetric linear-algebra kernels.

Each spectral question has one kernel here: ``_positive_definite`` (the
PD band test), ``_null_index`` (nullity exactly one), ``_svd_adjugate``
(the adjugate and its rank-one factor, one SVD) and ``_whitened_spectrum``
(log det along a line and its derivatives).  Every spectrum of the package
is taken here, by LAPACK through numpy, in one prescaled kernel,
``_unit_eigh``, for one matrix or a stack: it returns the spectrum of M /
2^shift and the shift.  Every verdict reads the band on that unit
spectrum, so it holds across the whole float range, and each kernel scales
back only what it returns, by ``_scaled_back``, which names a number past the
largest float (so :func:`eigendecompose`, which returns the spectrum, refuses
one).  The optimizer's face determinants and inverses come from one batched
call each and every Cholesky factor from ``potrf``; the tests hold them to
pure-Python loops and mpmath.  One rule decides "zero": a verdict reads the
PD band, the one tolerance a caller sets, and every other zero is a rounding
bound c * n * eps * scale, its scale named where it is used.

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
    """Return ``m`` as a float array (``m`` itself when it is one), rejecting
    any exact asymmetry."""
    a = check_square(m)
    if not (a == a.T).all():
        raise ValueError("matrix is not symmetric (entries must match exactly)")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = basis @ diag(eigenvalues) @ basis.T.

    ``eigenvalues`` is ascending; ``basis`` has the matching orthonormal
    eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def eigendecompose(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by :func:`_unit_eigh`, scaled
    back: ValueError for an eigenvalue past the largest float (finite entries can
    sum to more), :class:`ConvergenceError` when LAPACK reports no convergence."""
    w, basis, shift = _unit_eigh(check_symmetric(m))
    _scaled_back(w[0], shift, "smallest eigenvalue")  # the two ends bound the spectrum
    _scaled_back(w[-1], shift, "largest eigenvalue")
    return EigenDecomposition(np.ldexp(w, shift), basis)


def _unit_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of M / 2^shift, and the shift,
    for a finite symmetric M or each matrix of a stack along the leading axes.

    The shift puts the largest entry of M / 2^shift in [0.5, 1), a rescale
    by a power of two that keeps every square in the float range; nothing is
    scaled back, so nothing overflows, and M and 2^k M give the same bits but
    the shift wherever 2^k M is exact.  The rescale is exact but for entries
    that fall below 2^-1022 at unit scale, which lose bits; an entry more than
    2^1074 below the largest reads as 0, so a matrix whose entries span more
    than the float range is singular to working precision:
    ``determinant(diag(1e200, 1e200, 1e-300))`` reads 0.0.  Each matrix of a
    stack gets its own shift, so a stack gives the bits that one call per
    matrix gives.
    """
    shift = np.frexp(np.abs(m).max(axis=(-2, -1), keepdims=True))[1]
    try:
        w, basis = np.linalg.eigh(np.ldexp(m, -shift))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from None
    return w, basis, shift[..., 0, 0]


def _scaled_back(x, shift, name: str) -> float:
    """``x * 2^shift`` for a unit-scale number; ValueError naming ``name``
    past the largest float."""
    try:
        return math.ldexp(x, int(shift))  # raises where np.ldexp would read inf
    except OverflowError:
        digits = math.log10(abs(x)) + shift * math.log10(2.0)
        raise ValueError(f"the {name}, about 1e{digits:+.0f}, is outside the float range") from None


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
    """Position of the one singular value at most ``s.size * eps`` times the largest (the
    numerical-rank rule, Golub & Van Loan 5.4); raises :class:`NullityNotOne` if not one."""
    zero = np.flatnonzero(s <= _band(s, s.size * np.finfo(float).eps))
    if zero.size != 1:
        raise NullityNotOne(f"expected nullity 1, found {zero.size} zero singular values")
    return int(zero[0])


def smallest_eigenvalue(m) -> float:
    w, _, shift = _unit_eigh(check_symmetric(m))
    return _scaled_back(w[0], shift, "smallest eigenvalue")


def _cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Unpivoted lower Cholesky factor L by LAPACK ``potrf``; raises
    :class:`NotPositiveDefinite` naming the first j whose leading
    (j+1)-by-(j+1) block fails."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    bad = len(a) - 1
    for j in range(bad):
        try:
            np.linalg.cholesky(a[: j + 1, : j + 1])
        except np.linalg.LinAlgError:
            bad = j
            break
    raise NotPositiveDefinite(f"pivot {bad} is not positive", pivot=bad)


def cholesky(m, *, pd_tol: float = DEFAULT_PD_TOL) -> np.ndarray:
    """Lower-triangular L with ``L @ L.T == m`` for positive definite input.

    A pivot that is not positive raises at once with its index.  When every
    pivot passes, success is still decided by the eigenvalue test (smallest
    eigenvalue above ``pd_tol * |largest|``, read at unit scale), so that it
    agrees exactly with every verdict of the package; a rejection then names
    the weakest pivot.
    """
    a = check_symmetric(m)
    low = _cholesky_factor(a)
    w, _, shift = _unit_eigh(a)
    if not _positive_definite(w, pd_tol):
        weakest = int(np.argmin(np.diag(low)))
        smallest = _scaled_back(w[0], shift, "smallest eigenvalue")
        raise NotPositiveDefinite(
            f"smallest eigenvalue {smallest:.3e} is within tolerance of zero (pivot {weakest})",
            pivot=weakest,
        )
    return low


def determinant(m) -> float:
    """Determinant of a symmetric matrix, the product of its eigenvalues, exponents summed apart."""
    w, _, shift = _unit_eigh(check_symmetric(m))
    mant, expo = np.frexp(w)
    return _scaled_back(float(np.prod(mant)), expo.sum() + w.size * shift, "determinant")


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
    :class:`NullityNotOne` unless exactly one singular value is zero to
    working precision (:func:`_null_index`), so [[0, 1], [0, 0]] passes."""
    u, s, vt, weights = _svd_adjugate(check_square(m))
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


def _whitened_spectrum_at(a, b, pd_tol: float) -> tuple[np.ndarray, int]:
    """The whitened spectrum mu of B at A as mu / 2^shift, and the shift.  A and B are read
    at unit size by exact powers of two (an odd power of A whitened as 2 A): mu's own bits."""
    amat = check_symmetric(a)
    bmat = check_symmetric(b)
    if amat.shape != bmat.shape:
        raise ValueError("A and B must have matching shapes")
    w, basis, shift = _unit_eigh(amat)
    if not _positive_definite(w, pd_tol):
        raise NotPositiveDefinite("base point of log det derivative is not PD")
    odd, size = int(shift) % 2, math.frexp(float(np.abs(bmat).max()))[1]
    mu = _whitened_spectrum(np.ldexp(w, odd), basis, np.ldexp(bmat, -size))
    return mu, size - int(shift) + odd


def logdet_directional_derivative(a, b, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """d/dt log det(A + tB) at t=0, i.e. trace(A^-1 B), for A positive definite."""
    mu, shift = _whitened_spectrum_at(a, b, pd_tol)
    return _scaled_back(float(mu.sum()), shift, "directional derivative")


def logdet_second_derivative(a, b, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """Second derivative of t -> log det(A + tB) at t=0, for A positive
    definite: ``-trace(A^-1 B A^-1 B)``, minus the sum of squares of the
    whitened spectrum, so the result is <= 0 in floating point as well, and
    strictly negative whenever B != 0."""
    mu, shift = _whitened_spectrum_at(a, b, pd_tol)
    return _scaled_back(float(-np.square(mu).sum()), 2 * shift, "second derivative")
