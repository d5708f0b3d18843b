"""Dual Gram data: unit outward facet normals and facet areas.

For a Valid n-simplex the (n+1)-by-(n+1) matrix of inner products of
unit outward facet normals is positive semidefinite with nullity
exactly one, and its kernel is spanned by the vector of facet
(n-1)-volumes -- the divergence theorem statement that the
area-weighted normals sum to zero.  Consequently the adjugate of that
matrix is a positive rank-one matrix whose diagonal recovers squared
facet-area ratios.

All of it is read off the bordered inverse Gram L, the Gram matrix of
the barycentric gradients (Fiedler, *Matrices and Graphs in Geometry*).
For any R with R^T R = G, rows 1..n of R^-1 are those gradients and
gradient 0 is minus their sum.  Facet i has unit outward normal
-grad_i / |grad_i| and area n V |grad_i| = n V sqrt(L_ii), and the dual
Gram is D L D with D = diag(L_ii^-1/2).  R comes from the one
eigendecomposition that classifies G, so a query factors G once and refuses
a non-Valid instance with :class:`NotRealizable`; the adjugate is one
SVD of the dual Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PD_TOL,
    _adjugate_from_svd,
    _rank1_factor,
    _svd_adjugate,
    adjugate,
    check_symmetric,
)
from .simplex import (
    SimplexEmbedding,
    SquaredEdgeLengths,
    _root_product_over_factorial,
    _valid_spectrum,
)

__all__ = [
    "DualGramReport",
    "area_ratio_from_adjugate",
    "dual_gram",
    "null_direction",
    "outward_normals",
]


@dataclass(frozen=True)
class DualGramReport:
    """gstar[i][j] = <f_i, f_j> for unit outward normals, plus facet areas
    and the residuals of the two identities they must satisfy."""

    gstar: np.ndarray
    areas: np.ndarray
    null_residual: float
    divergence_residual: float


def _normals_from_inverse_frame(rinv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals (row i faces vertex i) and the barycentric
    gradient lengths |grad_i| = sqrt(L_ii), from the rows of R^-1."""
    if rinv.shape[0] < 2:
        raise ValueError("facet normals need dimension >= 2")
    grads = np.vstack([-rinv.sum(axis=0), rinv])
    lengths = np.hypot.reduce(grads, axis=1)  # no squares to overflow
    return -grads / lengths[:, None], lengths


def _spectral_dual(ell: SquaredEdgeLengths, pd_tol: float):
    """Gram eigenvalues, unit outward normals, gradient lengths and the dual
    Gram, all from the one eigendecomposition that classifies G as Valid."""
    dec = _valid_spectrum(ell, pd_tol)[1]
    w = dec.eigenvalues
    normals, lengths = _normals_from_inverse_frame(dec.basis / np.sqrt(w))
    raw = normals @ normals.T
    return w, normals, lengths, (raw + raw.T) / 2.0


def outward_normals(emb: SimplexEmbedding) -> np.ndarray:
    """Unit outward normals, one row per facet (row i faces vertex i), read
    off the inverse of the vertex matrix.  A numerically flat embedding
    raises ValueError."""
    a = np.asarray(emb.vertices, dtype=float)
    try:
        rinv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise ValueError("simplex is degenerate: its vertex matrix is singular") from None
    # max|A| max|A^-1| is within a factor n of the condition number
    if not float(np.abs(a).max()) * float(np.abs(rinv).max()) <= 1e12:
        raise ValueError("simplex is numerically degenerate")
    return _normals_from_inverse_frame(rinv)[0]


def dual_gram(ell: SquaredEdgeLengths, *, pd_tol: float = DEFAULT_PD_TOL) -> DualGramReport:
    """Dual Gram matrix, facet areas, and identity residuals, all read off
    the one eigendecomposition that classifies G; raises NotRealizable unless
    the verdict is Valid, ValueError if an area is outside the float range."""
    w, normals, lengths, gstar = _spectral_dual(ell, pd_tol)
    # A_i = n V |grad_i| with V = prod(sqrt w) / n!: n V alone can
    # overflow while every area is finite
    areas = _root_product_over_factorial(w, ell.n - 1, lengths)
    if not ((0.0 < areas) & (areas < math.inf)).all():
        raise ValueError("a facet area is outside the float range")
    unit = lengths / lengths.max()  # proportional to the areas, and always finite
    unit_norm = float(np.linalg.norm(unit))
    return DualGramReport(
        gstar=gstar,
        areas=areas,
        null_residual=float(np.linalg.norm(gstar @ unit)) / unit_norm,
        divergence_residual=float(np.linalg.norm(normals.T @ unit)) / unit_norm,
    )


def null_direction(gstar) -> np.ndarray:
    """Unit kernel vector of a dual Gram matrix, oriented positive: the
    rank-one factor of its adjugate, read off the adjugate's one SVD.

    Requires nullity exactly one, counted on singular values within
    ``DEFAULT_NULL_TOL`` times the largest, else raises
    :class:`NullityNotOne`; the returned vector is proportional to the
    facet-area vector.
    """
    return _null_direction_and_ratio(gstar, None)[0]


def _null_direction_and_ratio(gstar, pair) -> tuple[np.ndarray, float | None]:
    """:func:`null_direction` of a dual Gram and, unless ``pair`` is None,
    the squared area ratio of its facets (i, j), both off one SVD."""
    u, s, vt, weights = _svd_adjugate(check_symmetric(gstar))
    direction = _rank1_factor(u, s, vt, weights)[2]
    if pair is None:
        return direction, None
    return direction, _adjugate_ratio(_adjugate_from_svd(u, vt, weights), *pair)


def _adjugate_ratio(adj: np.ndarray, i: int, j: int) -> float:
    """(area_i / area_j)^2 off the diagonal of a dual Gram's adjugate."""
    if i == j:
        raise ValueError("facet indices must differ")
    if not (0 <= i < len(adj) and 0 <= j < len(adj)):
        raise ValueError(f"facet index out of range for dimension {len(adj) - 1}")
    denom = float(adj[j, j])
    top = float(adj[i, i])
    # relative guard: the overall adjugate magnitude carries no meaning, only
    # the diagonal's internal proportions do
    scale = float(np.abs(np.diag(adj)).max())
    if scale == 0.0 or abs(denom) <= 1e-12 * scale:
        raise ValueError(f"cofactor {j} is numerically zero; ratio undefined")
    return top / denom


def _ratio_from_dual_gram(gstar: np.ndarray, i: int, j: int) -> float:
    """(area_i / area_j)^2 off the adjugate diagonal of a dual Gram (one SVD)."""
    return _adjugate_ratio(adjugate(gstar), i, j)


def area_ratio_from_adjugate(
    ell: SquaredEdgeLengths, i: int, j: int, *, pd_tol: float = DEFAULT_PD_TOL
) -> float:
    """(area_i / area_j)^2 read off the adjugate diagonal of the dual Gram.

    No volumes are computed: the rank-one structure of the adjugate of a
    nullity-1 matrix makes the diagonal proportional to the squared
    kernel vector, i.e. to squared facet areas.  The dual Gram comes from
    the one eigendecomposition that classifies G, and its adjugate from
    one SVD.  Raises :class:`NotRealizable` unless the verdict is Valid.
    """
    return _ratio_from_dual_gram(_spectral_dual(ell, pd_tol)[3], i, j)
