"""Simplices parametrized by their squared edge lengths.

An n-simplex on vertices ``0..n`` is recorded as the vector of its
``n*(n+1)/2`` squared edge lengths in lexicographic edge order::

    (0,1), (0,2), ..., (0,n), (1,2), ..., (n-1,n)

Anchoring the simplex at vertex 0 and polarizing turns that vector into
an n-by-n Gram matrix *linearly*:

    G[i][i] = s(0,i)
    G[i][j] = (s(0,i) + s(0,j) - s(i,j)) / 2      (i != j, vertices 1..n)

Every gather finds its edges in one cached table per dimension
(``_edge_table``: entry [i, j] is the position of edge (i, j)).

The vector is realizable by a non-degenerate Euclidean simplex exactly
when G is positive definite, the volume is sqrt(det G) / n!, and every
face is governed by the same rule after re-anchoring at the face's
smallest vertex.  Because the map s -> G is linear, nonnegative
combinations of realizable vectors stay realizable: the realizable set
is an open convex cone, which is what the rest of the package exploits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_PD_TOL,
    _band,
    _cholesky_factor,
    _positive_definite,
    _scaled_back,
    _unit_eigh,
    check_symmetric,
)

__all__ = [
    "MAX_FACES",
    "NotRealizable",
    "SimplexEmbedding",
    "SquaredEdgeLengths",
    "ValidityReport",
    "Verdict",
    "edge_count",
    "edge_index",
    "edge_pairs",
    "embed",
    "face_squared_lengths",
    "face_volume",
    "gram_from_squared_lengths",
    "random_simplex",
    "regular_simplex",
    "relabel",
    "squared_lengths_from_gram",
    "triangle_inequalities_hold",
    "validate",
    "volume",
]


#: Most k-faces a whole-face computation may enumerate.  C(n+1, k+1)
#: outgrows memory (and time) long before the per-face work gets hard:
#: n = 40, k = 20 would be 2.7e11 faces.
MAX_FACES = 100_000


class NotRealizable(ValueError):
    """No non-degenerate Euclidean simplex has these squared edge lengths."""


class Verdict(str, Enum):
    VALID = "valid"
    DEGENERATE = "degenerate"
    INVALID = "invalid"


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")


def edge_count(n: int) -> int:
    return n * (n + 1) // 2


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def edge_index(n: int, i: int, j: int) -> int:
    """Position of edge (i, j) in the lexicographic ordering for dimension n."""
    if not (0 <= i < j <= n):
        raise ValueError(f"edge ({i}, {j}) out of range for dimension {n}")
    return i * n - i * (i - 1) // 2 + (j - i - 1)


def _as_floats(values) -> np.ndarray:
    """``np.array(values, dtype=float)``, save that an integer past the largest
    float, which NumPy refuses with OverflowError, reads as inf of its sign."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        if isinstance(values, int):
            return np.array(math.inf if values > 0 else -math.inf)
        return np.array([_as_floats(v) for v in values])


@dataclass(frozen=True)
class SquaredEdgeLengths:
    """Squared edge lengths of an n-simplex, in lexicographic edge order."""

    n: int
    s: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        arr = _as_floats(self.s)  # inf past the float range, refused by position below
        if arr.ndim != 1 or arr.size != edge_count(self.n):
            raise ValueError(
                f"dimension {self.n} needs {edge_count(self.n)} squared lengths, "
                f"got {arr.size}"
            )
        if not np.isfinite(arr).all() or (arr <= 0.0).any():
            bad = int(np.flatnonzero(~(np.isfinite(arr) & (arr > 0.0)))[0])
            raise ValueError(
                f"squared length at position {bad} (edge {edge_pairs(self.n)[bad]}) "
                "must be a positive finite number"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)

    def entry(self, i: int, j: int) -> float:
        """Squared length of edge (i, j) (order of i, j irrelevant)."""
        if i == j:
            raise ValueError("no edge joins a vertex to itself")
        if i > j:
            i, j = j, i
        return float(self.s[edge_index(self.n, i, j)])

    def total(self) -> float:
        return float(self.s.sum())


@dataclass(frozen=True)
class ValidityReport:
    verdict: Verdict
    smallest_gram_eigenvalue: float
    tolerance: float
    triangle_inequalities_hold: bool


@dataclass(frozen=True)
class SimplexEmbedding:
    """Concrete vertex coordinates: vertex 0 at the origin, vertex k in
    column k-1 of ``vertices`` (upper triangular, positive diagonal)."""

    n: int
    vertices: np.ndarray

    def vertex(self, i: int) -> np.ndarray:
        if not (0 <= i <= self.n):
            raise ValueError(f"vertex {i} out of range")
        if i == 0:
            return np.zeros(self.n)
        return self.vertices[:, i - 1].copy()

    def all_vertices(self) -> np.ndarray:
        """n-by-(n+1) array whose columns are vertices 0..n."""
        return np.column_stack([np.zeros(self.n), self.vertices])


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: the per-size caches below share their arrays."""
    a.setflags(write=False)
    return a


@functools.cache
def _pairs(m: int) -> np.ndarray:
    """Rows ``iu, ju`` of the strict upper triangle of an m-by-m matrix,
    row by row: the edge order of an (m-1)-simplex."""
    return _frozen(np.array(np.triu_indices(m, 1)))


@functools.cache
def _edge_table(n: int) -> np.ndarray:
    """The edge layout of an n-simplex: entries [i, j] and [j, i] hold the
    position of edge (i, j); the diagonal's 0 is a placeholder that
    :func:`_polarize` overwrites."""
    iu, ju = _pairs(n + 1)
    table = np.zeros((n + 1, n + 1), dtype=np.intp)
    table[iu, ju] = table[ju, iu] = np.arange(iu.size)
    return _frozen(table)


@functools.cache
def _gram_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of s(0, i) and of s(i, j) (i, j = 1..n) that the Gram
    matrix gathers: the table's row 0 and block [1:, 1:], made contiguous."""
    table = _edge_table(n)
    return _frozen(table[0, 1:].copy()), _frozen(table[1:, 1:].copy())


def _polarize(apex: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Exactly symmetric Gram matrices from gathered squared lengths:
    ``apex[..., i]`` is s(0, i+1) and ``pair[..., i, j]`` is s(i+1, j+1).
    Halving each length before the sum (exact, short of subnormals) keeps
    every entry finite: it is at most the largest float."""
    h = 0.5 * apex
    g = h[..., :, None] + h[..., None, :] - 0.5 * pair
    diag = np.arange(apex.shape[-1])
    g[..., diag, diag] = apex
    return g


def _gram_stack(n: int, rows: np.ndarray) -> np.ndarray:
    """Gram matrices of a stack of squared-length vectors of dimension n.

    ``rows`` has shape ``(..., n*(n+1)/2)``; the result has shape
    ``(..., n, n)``.
    """
    apex, pair = _gram_index(n)
    return _polarize(rows[..., apex], rows[..., pair])


def gram_from_squared_lengths(ell: SquaredEdgeLengths) -> np.ndarray:
    """Gram matrix of the vertex-0-anchored difference vectors.

    Exactly symmetric by construction and linear in the input vector.
    """
    return _gram_stack(ell.n, ell.s)


def squared_lengths_from_gram(g) -> SquaredEdgeLengths:
    """Inverse of :func:`gram_from_squared_lengths` (polarization undone);
    ``g`` must be exactly symmetric."""
    a = check_symmetric(g)
    n = a.shape[0]
    d = np.diagonal(a)
    iu, ju = _pairs(n)
    return SquaredEdgeLengths(n, np.concatenate((d, d[iu] + d[ju] - 2.0 * a[iu, ju])))


@functools.cache
def _triangles(n: int) -> np.ndarray:
    """Edge positions of each side of every vertex triple a < b < c (row 0)
    and of its two other sides (rows 1 and 2), a (3, 3 C(n+1, 3)) array."""
    a, b, c = np.array(list(combinations(range(n + 1), 3)), dtype=np.intp).reshape(-1, 3).T
    table = _edge_table(n)
    ab, ac, bc = table[a, b], table[a, c], table[b, c]
    return _frozen(np.array(((ab, ac, bc), (ac, ab, ab), (bc, bc, ac))).reshape(3, -1))


def triangle_inequalities_hold(ell: SquaredEdgeLengths) -> bool:
    """Strict triangle inequality on every vertex triple (plain lengths)."""
    side, other, third = np.sqrt(ell.s)[_triangles(ell.n)]
    return bool((side < other + third).all())


def _spectrum(ell: SquaredEdgeLengths, pd_tol: float) -> tuple[np.ndarray, tuple, Verdict, float]:
    """The Gram matrix, its unit-scale eigendecomposition ``(w, basis, shift)``
    (:func:`_unit_eigh`), the verdict and the band, both read on w (the test
    is scale-free): the one factorization behind every single-instance question."""
    g = gram_from_squared_lengths(ell)
    eig = _unit_eigh(g)
    w = eig[0]
    band = float(_band(w, pd_tol))
    if w[0] > band:  # the test of _positive_definite, on the band read once
        return g, eig, Verdict.VALID, band
    return g, eig, (Verdict.DEGENERATE if w[0] >= -band else Verdict.INVALID), band


def _valid_grams(g: np.ndarray, pd_tol: float) -> np.ndarray:
    """The Valid test of :func:`_spectrum` for a Gram matrix, or for each
    matrix of a stack from one stacked eigendecomposition: the verdict
    :func:`validate` gives the squared lengths of each matrix, bit for bit."""
    return _positive_definite(_unit_eigh(g)[0], pd_tol)


def _valid_spectrum(ell: SquaredEdgeLengths, pd_tol: float) -> tuple[np.ndarray, tuple]:
    """The Gram matrix and its unit-scale decomposition for a Valid
    instance; raises :class:`NotRealizable` for any other verdict."""
    g, eig, verdict, _ = _spectrum(ell, pd_tol)
    if verdict is not Verdict.VALID:
        raise NotRealizable(f"needs a Valid instance, verdict is {verdict.value}")
    return g, eig


def validate(ell: SquaredEdgeLengths, *, pd_tol: float = DEFAULT_PD_TOL) -> ValidityReport:
    """Realizability verdict from the smallest Gram eigenvalue.

    Valid iff the smallest eigenvalue clears ``pd_tol * |largest|``;
    Degenerate inside the band around zero; Invalid below it.  The band is
    relative, so the verdict does not change when every squared length is
    scaled by the same factor.  The triangle-inequality flag is
    informational: it is necessary but not sufficient for validity.  A
    reported float past the largest one raises ValueError.
    """
    _, (w, _, shift), verdict, band = _spectrum(ell, pd_tol)
    return ValidityReport(
        verdict=verdict,
        smallest_gram_eigenvalue=_scaled_back(float(w[0]), shift, "smallest Gram eigenvalue"),
        tolerance=_scaled_back(band, shift, "tolerance band"),
        triangle_inequalities_hold=triangle_inequalities_hold(ell),
    )


def embed(ell: SquaredEdgeLengths, *, pd_tol: float = DEFAULT_PD_TOL) -> SimplexEmbedding:
    """Canonical coordinates via the Cholesky factor of the Gram matrix.

    Raises :class:`NotRealizable` unless the verdict is Valid.
    """
    # a Valid Gram matrix whose pivot still collapses is genuinely
    # borderline: that raises NotPositiveDefinite
    low = _cholesky_factor(_valid_spectrum(ell, pd_tol)[0])
    return SimplexEmbedding(n=ell.n, vertices=low.T.copy())


def _root_product_over_factorial(w: np.ndarray, n: int, shift, name: str, scale=1.0):
    """``scale * prod(sqrt(2^shift w)) / n!``, the powers of two summed apart (a root
    is 2^floor(shift / 2) sqrt(2^(shift mod 2) w_i)): the split is exact, so it changes
    no bit of an in-range result, and a result (one per entry of ``scale``) that would
    overflow or round to 0 raises ValueError with ``name`` and its magnitude, read off
    the split.  171! is no float; its mantissa is, correctly rounded."""
    mant, expo = np.frexp(np.sqrt(np.ldexp(w, shift % 2)))
    f = math.factorial(n)
    power = int(expo.sum()) + w.size * int(shift // 2) - f.bit_length()
    heads = scale * (np.prod(mant) / (f / (1 << f.bit_length())))
    for head in np.ravel(heads):
        try:
            if math.ldexp(head, power) > 0.0:  # raises where np.ldexp would read inf
                continue
        except OverflowError:
            pass
        digits = math.log10(head) + power * math.log10(2.0)
        raise ValueError(f"the {name}, about 1e{digits:+.0f}, is outside the float range")
    return np.ldexp(heads, power)


def volume(ell: SquaredEdgeLengths, *, pd_tol: float = DEFAULT_PD_TOL) -> float:
    """n-volume: sqrt(det G) / n! when Valid, exactly 0.0 when Degenerate.

    Invalid input raises :class:`NotRealizable` -- a noise-level
    determinant never leaks through as a tiny positive volume.  A Valid
    instance whose volume lies outside the float range (a regular
    tetrahedron at squared lengths 1e-300 or 1e300) raises ValueError
    naming its magnitude rather than reading 0.0, the Degenerate answer, or inf.
    """
    _, (w, _, shift), verdict, _ = _spectrum(ell, pd_tol)
    if verdict is Verdict.INVALID:
        raise NotRealizable("no Euclidean simplex has these squared edge lengths")
    if verdict is Verdict.DEGENERATE:
        return 0.0
    return float(_root_product_over_factorial(w, ell.n, shift, "volume"))


def _check_k_faces(n: int, k: int) -> None:
    """Raise ValueError unless k lies in 1..n and an n-simplex has at most
    MAX_FACES k-faces."""
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in 1..{n}")
    count = math.comb(n + 1, k + 1)
    if count > MAX_FACES:
        raise ValueError(
            f"dimension {n} has {count} faces of dimension {k}, "
            f"more than the budget of {MAX_FACES}"
        )


def _normalize_face(face: Iterable[int], n: int) -> tuple[int, ...]:
    verts = tuple(int(v) for v in face)
    if len(set(verts)) != len(verts):
        raise ValueError(f"face {verts} repeats a vertex")
    verts = tuple(sorted(verts))
    if len(verts) < 2:
        raise ValueError(f"a face needs at least 2 vertices, got {verts}")
    if verts[0] < 0 or verts[-1] > n:
        raise ValueError(f"face {verts} out of range for dimension {n}")
    return verts


def _face_edges(n: int, face: Iterable[int]) -> tuple[int, np.ndarray]:
    """Dimension k of a face and the positions of its edges in an
    n-simplex's edge vector, in the face's own edge order (its vertices
    relabeled 0..k in increasing order)."""
    verts = np.array(_normalize_face(face, n))
    iu, ju = _pairs(verts.size)
    return verts.size - 1, _edge_table(n)[verts[iu], verts[ju]]


def face_squared_lengths(ell: SquaredEdgeLengths, face: Iterable[int]) -> SquaredEdgeLengths:
    """Restriction to a face, vertices relabeled 0..k in increasing order."""
    k, idx = _face_edges(ell.n, face)
    return SquaredEdgeLengths(k, ell.s[idx])


def face_volume(
    ell: SquaredEdgeLengths, face: Iterable[int], *, pd_tol: float = DEFAULT_PD_TOL
) -> float:
    """k-volume of the face spanned by the given k+1 vertices."""
    return volume(face_squared_lengths(ell, face), pd_tol=pd_tol)


def regular_simplex(n: int, total: float) -> SquaredEdgeLengths:
    """The regular point of the hyperplane {sum of squared lengths = total}."""
    _check_dimension(n)
    if not (total > 0.0) or not math.isfinite(total):
        raise ValueError("total must be a positive finite number")
    return SquaredEdgeLengths(n, np.full(edge_count(n), total / edge_count(n)))


def relabel(ell: SquaredEdgeLengths, perm: Sequence[int]) -> SquaredEdgeLengths:
    """Apply a permutation of the vertex labels 0..n."""
    n = ell.n
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(n + 1)):
        raise ValueError(f"perm must be a permutation of 0..{n}")
    perm = np.array(p)
    iu, ju = _pairs(n + 1)
    return SquaredEdgeLengths(n, ell.s[_edge_table(n)[perm[iu], perm[ju]]])


def random_simplex(
    n: int,
    rng: np.random.Generator,
    *,
    total: float | None = None,
    pd_tol: float = DEFAULT_PD_TOL,
) -> SquaredEdgeLengths:
    """A random Valid instance, from random vertex coordinates.

    Vertices are drawn as standard normal columns, realizable by
    construction, and kept when :func:`validate`'s Gram spectrum reads
    Valid at ``pd_tol`` and clears the band 1e-6 too (a singular-value
    ratio of 1e-3 for the coordinates), so no draw is badly conditioned.
    An optional rescale puts it on the hyperplane {sum of entries = total},
    which preserves validity; it goes through total's binary exponent, so
    totals up to the float maximum work.  Raises RuntimeError when 200
    draws give no such instance.
    """
    _check_dimension(n)
    for _ in range(200):
        pts = np.column_stack([np.zeros(n), rng.standard_normal((n, n))])
        s = np.empty(edge_count(n))
        for pos, (i, j) in enumerate(edge_pairs(n)):
            d = pts[:, i] - pts[:, j]
            s[pos] = float(d @ d)
        ell = SquaredEdgeLengths(n, s)
        _, (w, _, _), verdict, _ = _spectrum(ell, pd_tol)
        if verdict is Verdict.VALID and _positive_definite(w, 1e-6):
            if total is not None:
                mant, exp = math.frexp(total)
                ell = SquaredEdgeLengths(n, np.ldexp(s * (mant / s.sum()), exp))
            return ell
    raise RuntimeError("failed to sample a Valid instance")
