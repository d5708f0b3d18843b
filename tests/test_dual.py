"""Tests for dual Gram data: facet normals, normalized dual matrix, area identities."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexcone import (
    NotRealizable,
    NullityNotOne,
    SimplexEmbedding,
    SquaredEdgeLengths,
    Verdict,
    area_ratio_from_adjugate,
    dual_gram,
    edge_count,
    edge_pairs,
    embed,
    face_volume,
    gram_from_squared_lengths,
    null_direction,
    outward_normals,
    random_simplex,
    validate,
)

from simplexcone.dual import _adjugate_ratio
from simplexcone.linalg import adjugate

from oracles import jacobi_eigendecompose

RIGHT_TRIANGLE = SquaredEdgeLengths(2, np.array([1.0, 1.0, 2.0]))


def right_corner(n):
    s = np.empty(edge_count(n))
    for pos, (i, j) in enumerate(edge_pairs(n)):
        s[pos] = 1.0 if i == 0 else 2.0
    return SquaredEdgeLengths(n, s)


def svd_reference(emb):
    """Unit outward normals from one SVD per facet, oriented by a
    facet-centroid test, and facet areas by the pyramid rule n V / h_i."""
    n = emb.n
    pts = np.column_stack([np.zeros(n), emb.vertices])
    normals = np.empty((n + 1, n))
    heights = np.empty(n + 1)
    for i in range(n + 1):
        others = [j for j in range(n + 1) if j != i]
        span = pts[:, others[1:]] - pts[:, others[:1]]
        f = np.linalg.svd(span, full_matrices=True)[0][:, -1]
        if f @ (pts[:, i] - pts[:, others].mean(axis=1)) > 0.0:
            f = -f
        normals[i] = f
        heights[i] = abs(f @ (pts[:, i] - pts[:, others[0]]))
    vol = float(np.prod(np.diag(emb.vertices))) / math.factorial(n)
    return normals, n * vol / heights


def condition(ell):
    w = jacobi_eigendecompose(gram_from_squared_lengths(ell)).eigenvalues
    return float(w[-1] / w[0])


def flattened_simplex(n, rng):
    """A Valid instance from random vertices with one axis squeezed by up
    to 1e-4, so the Gram condition number ranges up to about 1e9."""
    while True:
        pts = np.column_stack([np.zeros(n), rng.standard_normal((n, n))])
        pts[0] *= 10.0 ** -rng.uniform(0.0, 4.0)
        s = [float(np.sum((pts[:, i] - pts[:, j]) ** 2)) for i, j in edge_pairs(n)]
        ell = SquaredEdgeLengths(n, np.array(s))
        if validate(ell).verdict is Verdict.VALID:
            return ell


# ---------------------------------------------------------------------------
# outward normals


def test_outward_normals_right_triangle():
    norms = outward_normals(embed(RIGHT_TRIANGLE))
    assert norms.shape == (3, 2)
    r = 1.0 / math.sqrt(2.0)
    assert_allclose(norms[0], [r, r], atol=1e-14)
    assert_allclose(norms[1], [-1.0, 0.0], atol=1e-14)
    assert_allclose(norms[2], [0.0, -1.0], atol=1e-14)


def test_outward_normals_right_corner_simplex():
    norms = outward_normals(embed(right_corner(3)))
    r = 1.0 / math.sqrt(3.0)
    assert_allclose(norms[0], [r, r, r], atol=1e-14)
    assert_allclose(norms[1:], -np.eye(3), atol=1e-14)


def test_outward_normals_unit_and_outward():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        ell = random_simplex(n, rng)
        emb = embed(ell)
        verts = np.hstack([np.zeros((n, 1)), emb.vertices])
        centroid = verts.mean(axis=1)
        norms = outward_normals(emb)
        assert_allclose(np.linalg.norm(norms, axis=1), 1.0, atol=1e-12)
        for i in range(n + 1):
            face = [v for v in range(n + 1) if v != i]
            face_centroid = verts[:, face].mean(axis=1)
            # outward means pointing away from the simplex centroid
            assert norms[i] @ (face_centroid - centroid) > 0.0
            # and orthogonal to the facet's spanning directions
            span = verts[:, face[1:]] - verts[:, face[:1]]
            assert_allclose(norms[i] @ span, 0.0, atol=1e-10)


@pytest.mark.parametrize(
    "vertices",
    [[[1.0, 2.0], [0.0, 0.0]], [[1.0, 2.0], [0.0, 1e-20]], [[1.0, 2.0], [2.0, 4.0]]],
)
def test_outward_normals_rejects_flat_embedding(vertices):
    # a caller-built embedding may be singular: a ValueError, never
    # LinAlgError or non-finite normals
    with pytest.raises(ValueError, match="degenerate") as exc:
        outward_normals(SimplexEmbedding(2, np.array(vertices)))
    assert not isinstance(exc.value, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# oracles: per-facet SVD and a 50-digit bordered inverse Gram


def test_dual_data_match_per_facet_svd_oracle():
    rng = np.random.default_rng(37)
    for n in range(2, 9):
        for _ in range(4):
            ell = random_simplex(n, rng)
            emb = embed(ell)
            normals, areas = svd_reference(emb)
            tol = 1e-14 * condition(ell)
            rep = dual_gram(ell)
            assert_allclose(outward_normals(emb), normals, rtol=0.0, atol=tol)
            assert_allclose(rep.gstar, normals @ normals.T, rtol=0.0, atol=tol)
            assert_allclose(rep.areas, areas, rtol=tol)


def mp_bordered_reference(ell):
    """Dual Gram D L D and areas n V sqrt(L_ii) from the bordered inverse
    Gram L, at 50 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    n = ell.n
    with mpmath.workdps(50):
        g = mpmath.matrix(gram_from_squared_lengths(ell).tolist())
        ginv = g**-1
        big = mpmath.matrix(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                big[i + 1, j + 1] = ginv[i, j]
        for i in range(1, n + 1):
            big[0, i] = big[i, 0] = -mpmath.fsum(ginv[i - 1, j] for j in range(n))
        big[0, 0] = -mpmath.fsum(big[0, j] for j in range(1, n + 1))
        nv = n * mpmath.sqrt(mpmath.det(g)) / math.factorial(n)
        gstar = [
            [float(big[i, j] / mpmath.sqrt(big[i, i] * big[j, j])) for j in range(n + 1)]
            for i in range(n + 1)
        ]
        areas = [float(nv * mpmath.sqrt(big[i, i])) for i in range(n + 1)]
    return np.array(gstar), np.array(areas)


def test_dual_gram_matches_mpmath_bordered_inverse():
    rng = np.random.default_rng(41)
    for trial in range(42):
        n = 2 + trial % 7
        ell = flattened_simplex(n, rng) if trial % 2 else random_simplex(n, rng)
        gstar, areas = mp_bordered_reference(ell)
        rep = dual_gram(ell)
        # both errors grow like eps * cond(G); the bound leaves a wide margin
        tol = 1e-14 * max(1.0, condition(ell))
        assert np.abs(rep.gstar - gstar).max() <= tol, (trial, n)
        assert (np.abs(rep.areas - areas) / areas).max() <= tol, (trial, n)


# ---------------------------------------------------------------------------
# one factorization per query


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_dual_queries_make_one_eigendecompose_call_of_size_n(unit_eigh_calls, n):
    # one call of the eigensolver kernel, on the n x n Gram matrix
    ell = random_simplex(n, np.random.default_rng(n))
    unit_eigh_calls.clear()
    dual_gram(ell)
    assert unit_eigh_calls == [(n, n)]
    unit_eigh_calls.clear()
    embed(ell)
    assert unit_eigh_calls == [(n, n)]
    unit_eigh_calls.clear()
    area_ratio_from_adjugate(ell, 0, 1)
    # the adjugate is an SVD formula at every size, so no second eigendecomposition
    assert unit_eigh_calls == [(n, n)]


def test_dual_queries_call_no_svd(svd_shapes):
    """``dual_gram`` makes no SVD; ``area_ratio_from_adjugate`` makes one,
    of the (n+1)-by-(n+1) dual Gram, for the adjugate."""
    for n in range(2, 8):
        ell = random_simplex(n, np.random.default_rng(n))
        svd_shapes.clear()
        dual_gram(ell)
        assert svd_shapes == []
        area_ratio_from_adjugate(ell, 0, 1)
        assert svd_shapes == [(ell.n + 1, ell.n + 1)]


# ---------------------------------------------------------------------------
# dual Gram matrix fixtures


def test_dual_gram_right_triangle():
    rep = dual_gram(RIGHT_TRIANGLE)
    r = 1.0 / math.sqrt(2.0)
    expected = np.array([[1.0, -r, -r], [-r, 1.0, 0.0], [-r, 0.0, 1.0]])
    assert_allclose(rep.gstar, expected, atol=1e-14)
    assert_allclose(rep.areas, [math.sqrt(2.0), 1.0, 1.0], atol=1e-14)
    assert rep.null_residual < 1e-12
    assert rep.divergence_residual < 1e-12


def test_dual_gram_right_corner_simplex():
    rep = dual_gram(right_corner(3))
    r = 1.0 / math.sqrt(3.0)
    expected = np.full((4, 4), 0.0)
    expected[0, 1:] = -r
    expected[1:, 0] = -r
    np.fill_diagonal(expected, 1.0)
    assert_allclose(rep.gstar, expected, atol=1e-14)
    assert_allclose(rep.areas, [math.sqrt(3.0) / 2.0, 0.5, 0.5, 0.5], atol=1e-14)


def test_dual_gram_equilateral_triangle():
    rep = dual_gram(SquaredEdgeLengths(2, np.ones(3)))
    # outward normals of an equilateral triangle meet at 120 degrees
    off = rep.gstar[~np.eye(3, dtype=bool)]
    assert_allclose(off, -0.5, atol=1e-13)
    nd = null_direction(rep.gstar)
    assert_allclose(nd, np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_dual_gram_regular_tetrahedron_far_from_unit_scale(scale):
    # n V overflows at 1e300 while every facet area is a finite float
    rep = dual_gram(SquaredEdgeLengths(3, np.full(6, scale)))
    assert_allclose(rep.areas, math.sqrt(3.0) / 4.0 * scale, rtol=1e-14)
    assert_allclose(rep.gstar[~np.eye(4, dtype=bool)], -1.0 / 3.0, atol=1e-14)
    assert rep.null_residual < 1e-14
    assert rep.divergence_residual < 1e-14


def test_dual_gram_refuses_an_overflowing_gram_spectrum():
    # Valid at every scale, and judged so, but at 8e307 the Gram matrix's
    # largest eigenvalue is past the largest float, and so are the facet
    # areas, about 1e614: the areas themselves are refused, with their magnitude
    refusal = r"^the facet area, about 1e\+614, is outside the float range$"
    with pytest.raises(ValueError, match=refusal):
        dual_gram(SquaredEdgeLengths(5, np.full(15, 8e307)))


def test_dual_gram_answers_where_only_the_gram_spectrum_overflows():
    # a needle triangle: its largest Gram eigenvalue, about 3e308, is past the
    # largest float, but its facets are its sides, and their lengths are floats
    rep = dual_gram(SquaredEdgeLengths(2, np.array([1.5e308, 1.5e308, 1e300])))
    assert_allclose(rep.areas, [1e150, math.sqrt(1.5e308), math.sqrt(1.5e308)], rtol=1e-7)
    assert rep.null_residual < 1e-14
    assert rep.divergence_residual < 1e-14


def test_dual_gram_past_170_factorial():
    # the unit 171-simplex's facet areas, about 1e-331, are outside the float
    # range; at squared length 2^14 the regular 180-simplex's facets, regular
    # 179-simplices, have areas sqrt(n) (s / 2)^((n - 1) / 2) / (n - 1)!
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the float range"):
            dual_gram(SquaredEdgeLengths(171, np.ones(edge_count(171))))
        n = 180
        rep = dual_gram(SquaredEdgeLengths(n, np.full(edge_count(n), 2.0**14)))
    log_area = 0.5 * ((n - 1) * mpmath.log(2**13) + mpmath.log(n)) - mpmath.loggamma(n)
    assert_allclose(np.log(rep.areas), float(log_area), rtol=0, atol=1e-11)
    assert rep.null_residual < 1e-13
    assert rep.divergence_residual < 1e-13


def test_dual_gram_rejects_unrealizable():
    with pytest.raises(NotRealizable):
        dual_gram(SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0])))


# ---------------------------------------------------------------------------
# identities over random instances


def test_dual_gram_properties_random():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for _ in range(5):
            ell = random_simplex(n, rng)
            rep = dual_gram(ell)
            m = n + 1
            assert rep.gstar.shape == (m, m)
            assert_allclose(rep.gstar, rep.gstar.T, atol=0.0)
            assert_allclose(np.diag(rep.gstar), 1.0, atol=1e-12)
            w = jacobi_eigendecompose(rep.gstar).eigenvalues
            # positive semidefinite with a one-dimensional kernel
            assert w[0] > -1e-10
            assert abs(w[0]) <= 1e-9
            assert w[1] > 1e-6
            assert rep.null_residual < 1e-9
            assert rep.divergence_residual < 1e-10
            assert np.linalg.norm(rep.gstar @ rep.areas) < 1e-9 * np.linalg.norm(
                rep.areas
            )


def test_weighted_normals_sum_to_zero():
    # divergence theorem: sum of area-weighted outward normals vanishes
    rng = np.random.default_rng(19)
    for n in range(2, 9):
        ell = random_simplex(n, rng)
        rep = dual_gram(ell)
        norms = outward_normals(embed(ell))
        assert_allclose(rep.areas @ norms, np.zeros(n), atol=1e-10)


def test_areas_match_facet_volumes():
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        ell = random_simplex(n, rng)
        rep = dual_gram(ell)
        for i in range(n + 1):
            face = [v for v in range(n + 1) if v != i]
            assert rep.areas[i] == pytest.approx(face_volume(ell, face), rel=1e-10)


def test_null_direction_is_positive_and_proportional_to_areas():
    rng = np.random.default_rng(29)
    for n in range(2, 13):
        ell = random_simplex(n, rng)
        rep = dual_gram(ell)
        nd = null_direction(rep.gstar)
        assert np.all(nd > 0.0)
        assert np.linalg.norm(nd) == pytest.approx(1.0, abs=1e-12)
        expected = rep.areas / np.linalg.norm(rep.areas)
        assert_allclose(nd, expected, atol=1e-9)
    # the null test counts singular values within size * eps of the largest,
    # while forming N N^T rounds by up to about n (n + 1) eps: the regular
    # simplices show that the count still finds the one zero as n grows
    for n in range(2, 21):
        rep = dual_gram(SquaredEdgeLengths(n, np.ones(edge_count(n))))
        assert_allclose(null_direction(rep.gstar), np.full(n + 1, (n + 1) ** -0.5), atol=1e-14)


def test_null_direction_requires_nullity_one():
    with pytest.raises(NullityNotOne):
        null_direction(np.eye(3))


# ---------------------------------------------------------------------------
# adjugate route to area ratios


def test_area_ratio_right_triangle():
    assert area_ratio_from_adjugate(RIGHT_TRIANGLE, 0, 1) == pytest.approx(
        2.0, rel=1e-12
    )
    assert area_ratio_from_adjugate(RIGHT_TRIANGLE, 1, 2) == pytest.approx(
        1.0, rel=1e-12
    )


def test_area_ratio_right_corner_simplex():
    ell = right_corner(3)
    assert area_ratio_from_adjugate(ell, 0, 1) == pytest.approx(3.0, rel=1e-12)


def test_area_ratio_matches_squared_facet_volumes():
    rng = np.random.default_rng(31)
    for n in range(2, 8):
        ell = random_simplex(n, rng)
        rep = dual_gram(ell)
        for i in range(n + 1):
            for j in range(n + 1):
                if i == j:
                    continue
                ratio = area_ratio_from_adjugate(ell, i, j)
                assert ratio == pytest.approx(
                    (rep.areas[i] / rep.areas[j]) ** 2, rel=1e-8
                )


def test_ratio_refuses_a_vanishing_denominator_cofactor():
    # adj(diag(1, 1, 0)) = diag(0, 0, 1): the ratio of facets 0 and 1 is 0 / 0
    with pytest.raises(ValueError, match="cofactor 1 is numerically zero"):
        _adjugate_ratio(np.diag([1.0, 1.0, 0.0]), 0, 1)


def test_ratios_over_a_tiny_facet_match_the_bordered_inverse():
    # a vertex at unit distance from n others about 1e-6.5 apart: the
    # facet of the n has a denominator cofactor between size * eps and
    # 1e-12 times the largest, refused by a fixed 1e-12 guard.  Valid at
    # pd_tol 0 alone, such a ratio is as accurate as any other: within the
    # oracle bound 1e-14 * cond(G), kept to cond(G) <= 1e14 so that the
    # bound claims a digit
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for n in range(2, 7):
        answered = 0
        while answered < 2:
            apex = rng.standard_normal((n, 1))
            cluster = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6.8, -6.2)
            pts = np.column_stack([apex / np.linalg.norm(apex), cluster])
            s = [float(np.sum((pts[:, i] - pts[:, j]) ** 2)) for i, j in edge_pairs(n)]
            ell = SquaredEdgeLengths(n, np.array(s))
            if validate(ell, pd_tol=0.0).verdict is not Verdict.VALID:
                continue
            diag = np.abs(np.diag(adjugate(dual_gram(ell, pd_tol=0.0).gstar)))
            tol = 1e-14 * condition(ell)
            if not (diag.size * eps * diag.max() < diag[0] <= 1e-12 * diag.max() and tol <= 1.0):
                continue
            answered += 1
            _, areas = mp_bordered_reference(ell)
            for i in range(1, n + 1):
                ratio = area_ratio_from_adjugate(ell, i, 0, pd_tol=0.0)
                assert ratio == pytest.approx((areas[i] / areas[0]) ** 2, rel=tol)


def test_area_ratio_rejects_bad_indices():
    with pytest.raises(ValueError, match="out of range"):
        area_ratio_from_adjugate(RIGHT_TRIANGLE, 0, 3)
    with pytest.raises(ValueError, match="must differ"):
        area_ratio_from_adjugate(RIGHT_TRIANGLE, 1, 1)
