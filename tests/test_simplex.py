"""Tests for squared-edge-length instances: Gram data, verdicts, embedding, volumes."""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import simplexcone.simplex as simplex_module
from simplexcone import (
    NotRealizable,
    Objective,
    ObjectiveKind,
    SquaredEdgeLengths,
    Verdict,
    edge_count,
    edge_index,
    edge_pairs,
    embed,
    face_squared_lengths,
    face_volume,
    gram_from_squared_lengths,
    maximize,
    probe_log_concavity,
    random_simplex,
    regular_simplex,
    relabel,
    squared_lengths_from_gram,
    triangle_inequalities_hold,
    validate,
    volume,
)
from simplexcone.simplex import _spectrum, _valid_rows

UNIT_TRIANGLE = SquaredEdgeLengths(2, np.ones(3))
UNIT_TETRA = SquaredEdgeLengths(3, np.ones(6))


def right_corner(n):
    """Vertex 0 at the origin plus the n standard basis vectors."""
    s = np.empty(edge_count(n))
    for pos, (i, j) in enumerate(edge_pairs(n)):
        s[pos] = 1.0 if i == 0 else 2.0
    return SquaredEdgeLengths(n, s)


# ---------------------------------------------------------------------------
# edge indexing


def test_edge_count_values():
    assert [edge_count(n) for n in (1, 2, 3, 4, 8)] == [1, 3, 6, 10, 36]


def test_edge_pairs_lexicographic():
    assert edge_pairs(2) == [(0, 1), (0, 2), (1, 2)]
    assert edge_pairs(3) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_edge_index_round_trip():
    for n in range(1, 9):
        for pos, (i, j) in enumerate(edge_pairs(n)):
            assert edge_index(n, i, j) == pos


def test_edge_index_requires_ordered_pair():
    with pytest.raises(ValueError, match="out of range"):
        edge_index(3, 2, 1)
    with pytest.raises(ValueError, match="out of range"):
        edge_index(3, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        edge_index(3, 0, 4)
    with pytest.raises(ValueError, match="no edge joins a vertex to itself"):
        SquaredEdgeLengths(3, np.ones(6)).entry(1, 1)


# ---------------------------------------------------------------------------
# instance validation


def test_instance_rejects_wrong_length():
    with pytest.raises(ValueError, match="needs 3 squared lengths"):
        SquaredEdgeLengths(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        squared_lengths_from_gram(np.ones((2, 3)))


def test_instance_rejects_nonpositive_entries():
    with pytest.raises(ValueError, match="positive finite"):
        SquaredEdgeLengths(2, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="positive finite"):
        SquaredEdgeLengths(2, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="positive finite"):
        SquaredEdgeLengths(2, np.array([1.0, np.inf, 1.0]))
    for total in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive finite"):
            regular_simplex(2, total)


def test_instance_rejects_bad_dimension():
    with pytest.raises(ValueError, match="at least 1"):
        SquaredEdgeLengths(0, np.array([1.0]))
    with pytest.raises(ValueError, match="at least 1"):
        regular_simplex(0, 1.0)
    with pytest.raises(ValueError, match="at least 1"):
        random_simplex(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Gram matrix


def test_gram_unit_triangle():
    assert_allclose(
        gram_from_squared_lengths(UNIT_TRIANGLE),
        np.array([[1.0, 0.5], [0.5, 1.0]]),
        atol=0.0,
    )


def test_gram_right_corner_is_identity():
    for n in range(2, 7):
        assert_allclose(gram_from_squared_lengths(right_corner(n)), np.eye(n), atol=0.0)


def test_gram_unit_tetra():
    g = gram_from_squared_lengths(UNIT_TETRA)
    assert_allclose(g, 0.5 * (np.eye(3) + np.ones((3, 3))), atol=0.0)


def test_gram_round_trip():
    rng = np.random.default_rng(2)
    for n in range(1, 8):
        ell = random_simplex(n, rng)
        back = squared_lengths_from_gram(gram_from_squared_lengths(ell))
        assert back.n == n
        assert_allclose(back.s, ell.s, rtol=1e-14, atol=1e-14)


def test_gram_is_linear_in_squared_lengths():
    rng = np.random.default_rng(4)
    for n in range(2, 6):
        s1 = rng.uniform(0.5, 2.0, edge_count(n))
        s2 = rng.uniform(0.5, 2.0, edge_count(n))
        a, b = 0.7, 2.3
        lhs = gram_from_squared_lengths(SquaredEdgeLengths(n, a * s1 + b * s2))
        rhs = a * gram_from_squared_lengths(
            SquaredEdgeLengths(n, s1)
        ) + b * gram_from_squared_lengths(SquaredEdgeLengths(n, s2))
        assert_allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# realizability verdicts


def test_validate_unit_tetra():
    rep = validate(UNIT_TETRA)
    assert rep.verdict is Verdict.VALID
    assert rep.smallest_gram_eigenvalue == pytest.approx(0.5, abs=1e-12)
    assert rep.triangle_inequalities_hold


def test_validate_flags_triangle_pass_but_invalid():
    # equilateral base 1, apex edges (1/2 + 0.01)^2: satisfies every triangle
    # inequality yet fails the Gram test
    s = np.array([0.51**2] * 3 + [1.0] * 3)
    rep = validate(SquaredEdgeLengths(3, s))
    assert rep.verdict is Verdict.INVALID
    assert rep.triangle_inequalities_hold
    assert rep.smallest_gram_eigenvalue == pytest.approx(-0.2197, abs=1e-12)


def test_validate_collinear_triangle_is_degenerate():
    rep = validate(SquaredEdgeLengths(2, np.array([1.0, 9.0, 4.0])))
    assert rep.verdict is Verdict.DEGENERATE


def test_validate_scale_invariant_verdicts():
    cases = [
        (UNIT_TETRA, Verdict.VALID),
        (SquaredEdgeLengths(2, np.array([1.0, 9.0, 4.0])), Verdict.DEGENERATE),
        (SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0])), Verdict.INVALID),
    ]
    for ell, expected in cases:
        for t in 10.0 ** np.arange(-300, 301, 10):
            rep = validate(SquaredEdgeLengths(ell.n, t * ell.s))
            assert rep.verdict is expected, (expected, t)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_validate_invalid_triangle_far_from_unit_scale(scale):
    # squared Gram entries overflow past ~1e154; the verdict must not change
    ell = SquaredEdgeLengths(2, scale * np.array([1.0, 1.0, 9.0]))
    rep = validate(ell)
    assert rep.verdict is Verdict.INVALID
    assert rep.smallest_gram_eigenvalue == pytest.approx(-2.5 * scale, rel=1e-12)
    with pytest.raises(NotRealizable):
        volume(ell)


def _mixed_rows(n, rng):
    """Valid, Degenerate-leaning (vertices on a hyperplane) and Invalid (one
    edge longer than any two others together) squared-length rows of
    dimension n, each rescaled to a total between 1e-300 and 1e300."""
    rows = [random_simplex(n, rng).s for _ in range(3)]
    if n > 1:
        flat = np.vstack((rng.integers(-3, 4, (n - 1, n + 1)), np.zeros(n + 1)))
        rows += [np.array([float(np.sum((flat[:, i] - flat[:, j]) ** 2))
                           for i, j in edge_pairs(n)])]
    long_edge = random_simplex(n, rng).s.copy()
    long_edge[-1] = 5.0 * long_edge.max()
    rows.append(long_edge)
    rows = [row for row in rows if (row > 0.0).all()]  # no two vertices coincide
    totals = 10.0 ** rng.uniform(-300, 300, len(rows))
    return np.stack([row * (t / row.sum()) for row, t in zip(rows, totals)])


def test_stacked_verdicts_equal_one_verdict_per_row():
    rng = np.random.default_rng(19)
    seen = set()
    for n in range(1, 13):
        rows = _mixed_rows(n, rng)
        rng.shuffle(rows)
        for pd_tol in (0.0, 1e-10, 1e-6):
            verdicts = [_spectrum(SquaredEdgeLengths(n, row), pd_tol)[2] for row in rows]
            seen.update(verdicts)
            expected = [v is Verdict.VALID for v in verdicts]
            assert _valid_rows(n, rows, pd_tol).tolist() == expected, (n, pd_tol)
    assert seen == set(Verdict)


def test_stacked_verdicts_refuse_a_gram_matrix_that_is_not_finite():
    rows = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, np.inf]])
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        _valid_rows(2, rows, 1e-10)


def test_validate_tolerance_scales_with_spectrum():
    rep = validate(UNIT_TETRA, pd_tol=1e-10)
    # largest Gram eigenvalue is 2, so the band is pd_tol * 2
    assert rep.tolerance == pytest.approx(2e-10, rel=1e-12)


@pytest.mark.parametrize("pd_tol", [-0.5, math.nan, math.inf])
def test_every_entry_point_refuses_a_bad_tolerance(pd_tol):
    # lambda_0 = -0.2: a negative band would call this indefinite Gram
    # Valid, and volume() would then return nan
    ell = SquaredEdgeLengths(2, np.array([1.0, 1.0, 4.4]))
    with pytest.raises(ValueError, match="tolerance"):
        validate(ell, pd_tol=pd_tol)
    with pytest.raises(ValueError, match="tolerance"):
        volume(ell, pd_tol=pd_tol)
    objective = Objective(ObjectiveKind.LOG_PRODUCT_FACES, 2)
    with pytest.raises(ValueError, match="tolerance"):
        maximize(2, 3.0, objective, pd_tol=pd_tol)
    with pytest.raises(ValueError, match="tolerance"):
        probe_log_concavity(UNIT_TRIANGLE, UNIT_TRIANGLE, pd_tol=pd_tol)


def test_triangle_inequalities_examples():
    assert triangle_inequalities_hold(UNIT_TETRA)
    assert not triangle_inequalities_hold(SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0])))
    assert triangle_inequalities_hold(
        SquaredEdgeLengths(3, np.array([0.51**2] * 3 + [1.0] * 3))
    )
    # inequalities are strict, so the collinear triple 1 + 2 = 3 fails
    assert not triangle_inequalities_hold(
        SquaredEdgeLengths(2, np.array([1.0, 9.0, 4.0]))
    )


# ---------------------------------------------------------------------------
# embedding


def test_embed_right_corner_gives_standard_basis():
    emb = embed(right_corner(3))
    assert_allclose(emb.vertices, np.eye(3), atol=1e-14)


def test_embed_unit_triangle():
    emb = embed(UNIT_TRIANGLE)
    assert_allclose(emb.vertices[:, 0], [1.0, 0.0], atol=1e-14)
    assert_allclose(emb.vertices[:, 1], [0.5, math.sqrt(3.0) / 2.0], atol=1e-14)


def test_embed_shape_and_triangular_form():
    rng = np.random.default_rng(8)
    for n in range(1, 8):
        emb = embed(random_simplex(n, rng))
        assert emb.vertices.shape == (n, n)
        assert_allclose(np.tril(emb.vertices, -1), 0.0, atol=0.0)
        assert np.all(np.diag(emb.vertices) > 0.0)


def test_embed_round_trips_squared_distances():
    rng = np.random.default_rng(16)
    for n in range(1, 8):
        ell = random_simplex(n, rng)
        emb = embed(ell)
        verts = np.hstack([np.zeros((n, 1)), emb.vertices])
        for i in range(n + 1):
            assert_array_equal(emb.vertex(i), verts[:, i])
        for pos, (i, j) in enumerate(edge_pairs(n)):
            d2 = float(np.sum((verts[:, i] - verts[:, j]) ** 2))
            assert d2 == pytest.approx(ell.s[pos], rel=1e-9, abs=1e-9)


def test_embed_rejects_unrealizable():
    with pytest.raises(NotRealizable, match="degenerate"):
        embed(SquaredEdgeLengths(2, np.array([1.0, 9.0, 4.0])))
    with pytest.raises(NotRealizable):
        embed(SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0])))
    emb = embed(SquaredEdgeLengths(2, np.ones(3)))
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"vertex {i} out of range"):
            emb.vertex(i)


# ---------------------------------------------------------------------------
# volumes


def test_volume_unit_triangle():
    assert volume(UNIT_TRIANGLE) == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)


def test_volume_unit_tetra():
    assert volume(UNIT_TETRA) == pytest.approx(math.sqrt(2.0) / 12.0, abs=1e-15)


def test_volume_right_corner_factorial():
    for n in range(2, 9):
        assert volume(right_corner(n)) == pytest.approx(
            1.0 / math.factorial(n), rel=1e-12
        )


def test_volume_degenerate_is_exact_zero():
    assert volume(SquaredEdgeLengths(2, np.array([1.0, 9.0, 4.0]))) == 0.0


def test_volume_invalid_raises():
    with pytest.raises(NotRealizable):
        volume(SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0])))


def test_volume_regular_tetra_far_from_unit_scale():
    # squared edge e^2: volume e^3 / (6 sqrt 2); at e^2 = 1e150 det G is
    # about 1e450, beyond the float range, while the volume is not
    for total, e2 in ((6e150, 1e150), (6e-4, 1e-4)):
        exact = e2**1.5 / (6.0 * math.sqrt(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert volume(regular_simplex(3, total)) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("total, digits", [(6e-300, "1e-451"), (6e300, r"1e\+449")])
def test_volume_outside_the_float_range_raises(total, digits):
    # a Valid regular tetrahedron whose volume, e^3 / (6 sqrt 2), is no
    # float: 0.0 would be the Degenerate answer and inf no volume at all
    ell = regular_simplex(3, total)
    assert validate(ell).verdict is Verdict.VALID
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"about {digits}, is outside the float range"):
            volume(ell)
        with pytest.raises(ValueError, match="outside the float range"):
            face_volume(ell, range(4))
        # its triangles still have float areas, e^2 sqrt(3) / 4
        area = face_volume(ell, (0, 1, 2))
    assert area == pytest.approx(total / 6.0 * math.sqrt(3.0) / 4.0, rel=1e-13)


def test_volume_past_170_factorial():
    # 171! is no float.  The unit 171-simplex's volume, about 1e-334, is
    # outside the float range; at squared length s = 2^14 the regular
    # n-simplex's, sqrt(n + 1) (s / 2)^(n / 2) / n!, is about 1e24 at n = 180
    mpmath = pytest.importorskip("mpmath")

    def log_volume(n):
        return float(0.5 * (n * mpmath.log(2**13) + mpmath.log(n + 1)) - mpmath.loggamma(n + 1))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"about 1e-334, is outside the float range"):
            volume(regular_simplex(171, float(edge_count(171))))
        ell = regular_simplex(180, 2.0**14 * edge_count(180))
        assert math.log(volume(ell)) == pytest.approx(log_volume(180), abs=1e-11)
        # a facet is a regular 179-simplex
        facet = face_volume(ell, range(1, 181))
        assert math.log(facet) == pytest.approx(log_volume(179), abs=1e-11)


def test_volume_scaling_power():
    # scaling every squared length by t scales volume by t^(n/2)
    rng = np.random.default_rng(32)
    for n in range(2, 6):
        ell = random_simplex(n, rng)
        base = volume(ell)
        for t in (0.25, 4.0):
            scaled = volume(SquaredEdgeLengths(n, t * ell.s))
            assert scaled == pytest.approx(t ** (n / 2.0) * base, rel=1e-11)


# ---------------------------------------------------------------------------
# faces


def test_face_squared_lengths_restriction():
    t = SquaredEdgeLengths(3, np.arange(1.0, 7.0))
    f = face_squared_lengths(t, [0, 1, 2])
    assert f.n == 2
    assert_allclose(f.s, [1.0, 2.0, 4.0], atol=0.0)
    edge = face_squared_lengths(t, [1, 3])
    assert edge.n == 1
    assert_allclose(edge.s, [5.0], atol=0.0)


def test_face_squared_lengths_errors():
    t = SquaredEdgeLengths(3, np.ones(6))
    with pytest.raises(ValueError, match="repeats"):
        face_squared_lengths(t, [0, 0, 1])
    with pytest.raises(ValueError, match="out of range"):
        face_squared_lengths(t, [0, 5])
    with pytest.raises(ValueError, match="at least 2"):
        face_squared_lengths(t, [2])


def test_face_volume_edges_are_lengths():
    t = SquaredEdgeLengths(3, np.arange(1.0, 7.0))
    for pos, (i, j) in enumerate(edge_pairs(3)):
        assert face_volume(t, (i, j)) == pytest.approx(math.sqrt(t.s[pos]), rel=1e-14)


def test_face_volume_tetra_facets():
    for face in itertools.combinations(range(4), 3):
        assert face_volume(UNIT_TETRA, face) == pytest.approx(
            math.sqrt(3.0) / 4.0, abs=1e-14
        )


def test_face_volume_full_face_equals_volume():
    rng = np.random.default_rng(64)
    for n in range(2, 6):
        ell = random_simplex(n, rng)
        assert face_volume(ell, range(n + 1)) == pytest.approx(volume(ell), rel=1e-12)


# ---------------------------------------------------------------------------
# constructors and relabeling


def test_regular_simplex_entries_and_total():
    ell = regular_simplex(3, 6.0)
    assert_allclose(ell.s, np.ones(6), atol=0.0)
    for n in range(1, 8):
        ell = regular_simplex(n, 7.5)
        assert ell.s.sum() == pytest.approx(7.5, rel=1e-14)
        assert np.ptp(ell.s) == 0.0
        assert validate(ell).verdict is Verdict.VALID


def test_random_simplex_is_valid_and_deterministic():
    a = random_simplex(4, np.random.default_rng(99))
    b = random_simplex(4, np.random.default_rng(99))
    assert_allclose(a.s, b.s, atol=0.0)
    assert validate(a).verdict is Verdict.VALID


def test_random_simplex_honors_total():
    ell = random_simplex(3, np.random.default_rng(1), total=6.0)
    assert ell.s.sum() == pytest.approx(6.0, rel=1e-12)
    assert validate(ell).verdict is Verdict.VALID


def test_random_simplex_rescales_the_unscaled_draw_exactly():
    # the rescale by total's mantissa, then its power of two, gives the
    # bits of a single multiplication by total / sum wherever no entry
    # is subnormal, and the draw is the one made without a total
    for n in range(2, 7):
        for seed in range(3):
            base = random_simplex(n, np.random.default_rng(seed)).s
            for total in (1e-300, 1.0, 6.0, 1e12, 1e300):
                got = random_simplex(n, np.random.default_rng(seed), total=total).s
                assert np.array_equal(got, base * (total / base.sum())), (n, seed, total)


def test_random_simplex_reaches_the_float_maximum():
    # total / sum overflows when the draw's sum is below 1
    for n in (2, 3):
        ell = random_simplex(n, np.random.default_rng(0), total=1.7e308)
        assert np.isfinite(ell.s).all()
        assert (ell.s / ell.s.size).sum() * ell.s.size == pytest.approx(1.7e308, rel=1e-12)
        assert validate(ell).verdict is Verdict.VALID


def test_random_simplex_screens_with_the_band_and_takes_no_svd(monkeypatch):
    # a draw is kept when its Gram spectrum reads Valid at pd_tol and clears
    # the band 1e-6, the coordinates' singular-value ratio 1e-3 squared
    def no_svd(*args, **kwargs):
        raise AssertionError("random_simplex takes no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    # past n = 6 a Gaussian draw seldom clears the band 0.05: at n = 7 half
    # of the seeds spend all 200 draws and raise RuntimeError
    for n, pd_tol in [(n, tol) for n in range(1, 9) for tol in (0.0, 1e-10)] + [
        (n, 0.05) for n in range(1, 7)
    ]:
        rng = np.random.default_rng(n)
        for _ in range(3):
            ell = random_simplex(n, rng, pd_tol=pd_tol)
            assert validate(ell, pd_tol=pd_tol).verdict is Verdict.VALID
            assert validate(ell, pd_tol=1e-6).verdict is Verdict.VALID
    # the screen does not hide a negative band, which calls indefinite
    # matrices PD
    with pytest.raises(ValueError, match="nonnegative finite"):
        random_simplex(3, np.random.default_rng(0), pd_tol=-1e-3)


def test_relabel_permutes_edges():
    t = SquaredEdgeLengths(3, np.arange(1.0, 7.0))
    r = relabel(t, [1, 0, 2, 3])
    # new edge (i, j) carries the old edge (perm[i], perm[j])
    assert_allclose(r.s, [1.0, 4.0, 5.0, 2.0, 3.0, 6.0], atol=0.0)


def test_relabel_round_trip_and_invariance():
    rng = np.random.default_rng(21)
    for n in range(2, 6):
        ell = random_simplex(n, rng)
        perm = rng.permutation(n + 1)
        inv = np.argsort(perm)
        back = relabel(relabel(ell, perm), inv)
        assert_allclose(back.s, ell.s, atol=0.0)
        assert volume(relabel(ell, perm)) == pytest.approx(volume(ell), rel=1e-11)
        assert validate(relabel(ell, perm)).verdict is Verdict.VALID


def test_relabel_rejects_non_permutation():
    t = SquaredEdgeLengths(3, np.ones(6))
    with pytest.raises(ValueError, match="permutation"):
        relabel(t, [0, 1, 2])
    with pytest.raises(ValueError, match="permutation"):
        relabel(t, [0, 1, 2, 2])


# ---------------------------------------------------------------------------
# the edge table


def test_edge_table_matches_edge_index():
    for n in range(1, 13):
        table = simplex_module._edge_table(n)
        assert table.shape == (n + 1, n + 1)
        assert not table.flags.writeable
        for i, j in edge_pairs(n):
            assert table[i, j] == table[j, i] == edge_index(n, i, j), (n, i, j)


# the per-edge loops the table replaced, kept as references: the gathers
# do the same arithmetic, so the results must agree bit for bit


def _relabel_loop(ell, perm):
    s = np.empty_like(ell.s)
    for pos, (i, j) in enumerate(edge_pairs(ell.n)):
        s[pos] = ell.entry(perm[i], perm[j])
    return s


def _squared_lengths_loop(a):
    n = a.shape[0]
    s = np.empty(edge_count(n))
    for pos, (i, j) in enumerate(edge_pairs(n)):
        if i == 0:
            s[pos] = a[j - 1, j - 1]
        else:
            s[pos] = a[i - 1, i - 1] + a[j - 1, j - 1] - 2.0 * a[i - 1, j - 1]
    return s


def _triangles_loop(ell):
    lengths = {}
    for pos, (i, j) in enumerate(edge_pairs(ell.n)):
        lengths[(i, j)] = math.sqrt(ell.s[pos])
    for a, b, c in itertools.combinations(range(ell.n + 1), 3):
        ab, ac, bc = lengths[(a, b)], lengths[(a, c)], lengths[(b, c)]
        if not (ab < ac + bc and ac < ab + bc and bc < ab + ac):
            return False
    return True


def test_table_gathers_match_the_edge_loops_bitwise():
    rng = np.random.default_rng(47)
    verdicts = set()
    for n in range(1, 9):
        for _ in range(6):
            ell = random_simplex(n, rng)
            perm = [int(x) for x in rng.permutation(n + 1)]
            assert np.array_equal(relabel(ell, perm).s, _relabel_loop(ell, perm))
            g = gram_from_squared_lengths(ell)
            assert np.array_equal(squared_lengths_from_gram(g).s, _squared_lengths_loop(g))
            # random positive entries: triangle inequalities both hold and fail
            raw = SquaredEdgeLengths(n, rng.uniform(0.05, 4.0, edge_count(n)))
            for inst in (ell, raw):
                verdict = triangle_inequalities_hold(inst)
                assert verdict is _triangles_loop(inst)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    # equality in each of the three inequalities, and a strict pass
    for s in ([1.0, 1.0, 4.0], [1.0, 4.0, 1.0], [4.0, 1.0, 1.0], [1.0, 1.0, 1.0]):
        ell = SquaredEdgeLengths(2, np.array(s))
        assert triangle_inequalities_hold(ell) is _triangles_loop(ell)
    assert triangle_inequalities_hold(SquaredEdgeLengths(2, np.array([1.0, 1.0, 4.0]))) is False
    assert triangle_inequalities_hold(SquaredEdgeLengths(1, np.array([2.0]))) is True
