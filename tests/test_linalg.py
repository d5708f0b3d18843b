"""Tests for the symmetric eigensolver, Cholesky, adjugate and log-det calculus."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplexcone.linalg import (
    DEFAULT_NULL_TOL,
    DEFAULT_PD_TOL,
    ConvergenceError,
    NotPositiveDefinite,
    NullityNotOne,
    _unit_eigh,
    adjugate,
    adjugate_rank1_decompose,
    check_symmetric,
    cholesky,
    determinant,
    eigendecompose,
    logdet_directional_derivative,
    logdet_second_derivative,
    outer_product,
    smallest_eigenvalue,
)

from oracles import jacobi_eigendecompose


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2.0


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# eigendecompose / smallest_eigenvalue


def test_eigendecompose_identity():
    dec = eigendecompose(np.eye(3))
    assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    assert_allclose(dec.basis @ dec.basis.T, np.eye(3), atol=1e-13)


def test_eigendecompose_diagonal_sorted_ascending():
    dec = eigendecompose(np.diag([5.0, 2.0]))
    assert_allclose(dec.eigenvalues, [2.0, 5.0], atol=1e-14)


def test_eigendecompose_two_by_two_closed_form():
    # eigenvalues of [[1, 1/2], [1/2, 1]] are 1/2 and 3/2
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    dec = eigendecompose(m)
    assert_allclose(dec.eigenvalues, [0.5, 1.5], atol=1e-14)
    assert_allclose(dec.basis @ np.diag(dec.eigenvalues) @ dec.basis.T, m, atol=1e-13)


def test_eigendecompose_reconstruction_random_sizes():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        m = random_symmetric(rng, n, scale=3.0)
        dec = eigendecompose(m)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-13)
        assert_allclose(dec.basis.T @ dec.basis, np.eye(n), atol=1e-12)
        assert_allclose(
            dec.basis @ np.diag(dec.eigenvalues) @ dec.basis.T, m, atol=1e-11
        )


def test_eigendecompose_matches_jacobi_oracle():
    # LAPACK's eigenvalue errors are a few eps * max|w|; so are Jacobi's
    rng = np.random.default_rng(9)
    for n in range(1, 13):
        for _ in range(10):
            m = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            got = eigendecompose(m).eigenvalues
            ref = jacobi_eigendecompose(m).eigenvalues
            assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def test_eigendecompose_maps_a_lapack_failure_to_convergence_error(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigendecompose(np.eye(3))


def test_eigendecompose_commutes_with_powers_of_two():
    # LAPACK runs on an exactly rescaled copy, so scaling by 2^k moves
    # the eigenvalues by 2^k and changes no other bit, even where the
    # squared entries would leave the float range
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        m = random_symmetric(rng, n, scale=3.0)
        base = eigendecompose(m)
        for k in (-1000, -520, -1, 1, 520, 1000):
            dec = eigendecompose(np.ldexp(m, k))
            assert np.array_equal(dec.eigenvalues, np.ldexp(base.eigenvalues, k)), (n, k)
            assert np.array_equal(dec.basis, base.basis), (n, k)


def test_stacked_eigh_equals_one_call_per_matrix():
    # each matrix of a stack gets its own exact rescale, so a stack of
    # matrices far apart in scale gives every matrix's own bits
    rng = np.random.default_rng(19)
    for n in range(1, 13):
        for count in (2, 5, 31):
            scales = 10.0 ** rng.uniform(-200, 200, count)
            stack = np.stack([random_symmetric(rng, n, scale=c) for c in scales])
            w, basis = _unit_eigh(stack)
            for i, m in enumerate(stack):
                dec = eigendecompose(m)
                assert np.array_equal(w[i], dec.eigenvalues), (n, count, i)
                assert np.array_equal(basis[i], dec.basis), (n, count, i)


def test_stacked_eigh_maps_a_lapack_failure_to_convergence_error(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _unit_eigh(np.stack((np.eye(3), 2.0 * np.eye(3))))


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_smallest_eigenvalue_examples():
    assert smallest_eigenvalue(np.eye(2)) == pytest.approx(1.0, abs=1e-14)
    assert smallest_eigenvalue(np.diag([3.0, -4.0])) == pytest.approx(-4.0, abs=1e-14)
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert smallest_eigenvalue(m) == pytest.approx(0.5, abs=1e-14)


def test_smallest_eigenvalue_superadditive():
    # min-eigenvalue is concave: lam0(A + B) >= lam0(A) + lam0(B)
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = random_symmetric(rng, n)
        b = random_symmetric(rng, n)
        lhs = smallest_eigenvalue(a + b)
        rhs = smallest_eigenvalue(a) + smallest_eigenvalue(b)
        assert lhs >= rhs - 1e-10


def test_smallest_eigenvalue_rayleigh_bound():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_symmetric(rng, n)
        lam0 = smallest_eigenvalue(m)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        assert x @ m @ x >= lam0 - 1e-12


# ---------------------------------------------------------------------------
# symmetry checks


def test_check_symmetric_message():
    with pytest.raises(ValueError, match="entries must match exactly"):
        check_symmetric(np.array([[1.0, 2.0], [3.0, 4.0]]))
    # the comparison is exact: a 1e-16 skew is not symmetric
    with pytest.raises(ValueError, match="entries must match exactly"):
        check_symmetric(np.array([[1.0, 1e-16], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# cholesky / determinant


def test_cholesky_identity():
    assert_allclose(cholesky(np.eye(3)), np.eye(3), atol=1e-15)


def test_cholesky_two_by_two():
    m = np.array([[4.0, 2.0], [2.0, 2.0]])
    l = cholesky(m)
    assert_allclose(l, np.array([[2.0, 0.0], [1.0, 1.0]]), atol=1e-14)
    assert_allclose(l @ l.T, m, atol=1e-14)


def test_cholesky_rejects_indefinite_with_pivot():
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert info.value.pivot == 1


def test_cholesky_lower_triangular_positive_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = random_spd(rng, n)
        l = cholesky(m)
        assert_allclose(np.triu(l, 1), 0.0, atol=0.0)
        assert np.all(np.diag(l) > 0.0)
        assert_allclose(l @ l.T, m, rtol=1e-12, atol=1e-12)


def test_cholesky_agrees_with_eigen_classification():
    # cholesky succeeds exactly when the smallest eigenvalue clears pd_tol
    rng = np.random.default_rng(17)
    for shift in np.linspace(-0.5, 0.5, 21):
        m = random_symmetric(rng, 4)
        m = m + (shift - smallest_eigenvalue(m)) * np.eye(4)
        lam0 = smallest_eigenvalue(m)
        try:
            cholesky(m, pd_tol=1e-10)
            ok = True
        except NotPositiveDefinite:
            ok = False
        if lam0 > 1e-6:
            assert ok
        elif lam0 < -1e-6:
            assert not ok


def test_determinant_examples():
    assert determinant(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    assert determinant(np.array([[1.0, 0.5], [0.5, 1.0]])) == pytest.approx(
        0.75, abs=1e-14
    )
    assert determinant(np.ones((3, 3))) == pytest.approx(0.0, abs=1e-12)


def test_determinant_matches_numpy():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_symmetric(rng, n, scale=2.0)
        assert determinant(m) == pytest.approx(
            float(np.linalg.det(m)), rel=1e-9, abs=1e-10
        )


# ---------------------------------------------------------------------------
# outer products and adjugates


def test_outer_product_examples():
    assert_allclose(
        outer_product(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
        np.array([[3.0, 4.0], [6.0, 8.0]]),
        atol=0.0,
    )
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert_allclose(outer_product(e1, e2), expected, atol=0.0)
    with pytest.raises(ValueError, match="two equal-length vectors"):
        outer_product(e1, e2[:2])


def test_outer_product_trace_and_projector():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)
    w = rng.standard_normal(5)
    assert np.trace(outer_product(v, w)) == pytest.approx(float(v @ w), rel=1e-13)
    u = v / np.linalg.norm(v)
    p = outer_product(u, u)
    assert_allclose(p @ p, p, atol=1e-14)


def test_adjugate_examples():
    assert_allclose(
        adjugate(np.array([[1.0, 2.0], [2.0, 5.0]])),
        np.array([[5.0, -2.0], [-2.0, 1.0]]),
        atol=1e-14,
    )
    assert_allclose(adjugate(np.eye(3)), np.eye(3), atol=1e-13)
    assert_allclose(adjugate(np.diag([0.0, 1.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_adjugate_cramer_identity():
    rng = np.random.default_rng(29)
    for n in range(1, 9):
        for _ in range(10):
            m = random_symmetric(rng, n, scale=1.5)
            adj = adjugate(m)
            det = float(np.linalg.det(m))
            assert_allclose(m @ adj, det * np.eye(n), atol=1e-9 * max(1.0, abs(det)))
            assert_allclose(adj @ m, det * np.eye(n), atol=1e-9 * max(1.0, abs(det)))


def test_adjugate_cramer_identity_singular():
    m = np.diag([1.0, 2.0, 0.0])
    assert_allclose(m @ adjugate(m), np.zeros((3, 3)), atol=1e-13)


def test_adjugate_small_asymmetric():
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]])
    adj = adjugate(m)
    det = float(np.linalg.det(m))
    assert_allclose(m @ adj, det * np.eye(3), atol=1e-13)


def test_adjugate_cramer_identity_asymmetric():
    # one SVD formula for every square matrix, symmetric or not, at any size
    rng = np.random.default_rng(41)
    for n in range(5, 9):
        for _ in range(10):
            m = rng.standard_normal((n, n))
            adj = adjugate(m)
            det = float(np.linalg.det(m))
            assert_allclose(m @ adj, det * np.eye(n), atol=1e-9 * max(1.0, abs(det)))
            assert_allclose(adj @ m, det * np.eye(n), atol=1e-9 * max(1.0, abs(det)))
    upper = np.triu(np.ones((5, 5)))
    assert_allclose(adjugate(upper), np.linalg.inv(upper), atol=1e-13)


def _det_upto3(a):
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


def cofactor_adjugate(a):
    """Reference: the transposed cofactor matrix, by expansion (n <= 4)."""
    n = a.shape[0]
    if n == 1:
        return np.array([[1.0]])
    adj = np.empty_like(a)
    rows = list(range(n))
    for i in range(n):
        keep_r = rows[:i] + rows[i + 1 :]
        for j in range(n):
            keep_c = rows[:j] + rows[j + 1 :]
            adj[j, i] = ((-1.0) ** (i + j)) * _det_upto3(a[np.ix_(keep_r, keep_c)])
    return adj


def spectral_adjugate(a):
    """Reference for symmetric input: V diag(prod of the other eigenvalues)
    V^T from the test-side Jacobi decomposition."""
    dec = jacobi_eigendecompose(a)
    w = dec.eigenvalues
    partial = np.array([np.prod(np.delete(w, i)) for i in range(w.size)])
    out = dec.basis @ np.diag(partial) @ dec.basis.T
    return (out + out.T) / 2.0


def test_adjugate_matches_cofactor_and_spectral_oracles():
    rng = np.random.default_rng(43)
    for n in range(1, 5):
        for _ in range(20):
            m = rng.standard_normal((n, n))
            ref = cofactor_adjugate(m)
            assert_allclose(adjugate(m), ref, atol=1e-13 * max(1.0, np.abs(ref).max()))
        # singular, with nullity one and nullity two
        for rank in (n - 1, n - 2):
            if rank < 0:
                continue
            m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
            ref = cofactor_adjugate(m)
            assert_allclose(adjugate(m), ref, atol=1e-13 * max(1.0, np.abs(m).max()) ** (n - 1))
    for n in range(2, 9):
        for _ in range(10):
            m = random_symmetric(rng, n, scale=1.5)
            ref = spectral_adjugate(m)
            assert_allclose(adjugate(m), ref, atol=1e-12 * max(1.0, np.abs(ref).max()))
        # the dual Gram case: positive semidefinite with nullity one
        dec = eigendecompose(random_symmetric(rng, n))
        vals = np.abs(dec.eigenvalues) + 0.5
        vals[0] = 0.0
        m = dec.basis @ np.diag(vals) @ dec.basis.T
        m = (m + m.T) / 2.0
        ref = spectral_adjugate(m)
        assert_allclose(adjugate(m), ref, atol=1e-12 * np.abs(ref).max())


def test_rank1_decompose_simple_diagonal():
    c, w, v = adjugate_rank1_decompose(np.diag([1.0, 0.0]))
    assert c == pytest.approx(1.0, abs=1e-12)
    assert_allclose(v, [0.0, 1.0], atol=1e-12)
    assert_allclose(w, v, atol=0.0)


def test_rank1_decompose_three_by_three():
    # adj(diag(2, 3, 0)) = diag(0, 0, 6) = 6 * e3 e3^T
    c, w, v = adjugate_rank1_decompose(np.diag([2.0, 3.0, 0.0]))
    assert c == pytest.approx(6.0, rel=1e-12)
    assert_allclose(v, [0.0, 0.0, 1.0], atol=1e-12)
    assert_allclose(np.outer(v, w) * c, np.diag([0.0, 0.0, 6.0]), atol=1e-12)


def test_rank1_decompose_reconstructs_adjugate():
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        for _ in range(10):
            m = random_symmetric(rng, n)
            dec = eigendecompose(m)
            # push one eigenvalue to exactly zero, keep the others away from it
            vals = dec.eigenvalues + np.sign(dec.eigenvalues + 0.5)
            vals[0] = 0.0
            m0 = dec.basis @ np.diag(vals) @ dec.basis.T
            m0 = (m0 + m0.T) / 2.0
            c, w, v = adjugate_rank1_decompose(m0)
            assert_allclose(c * np.outer(v, w), adjugate(m0), atol=1e-9)
            assert np.linalg.norm(m0 @ v) < 1e-9
            assert np.linalg.norm(m0.T @ w) < 1e-9
            assert c == pytest.approx(float(np.prod(vals[1:])), rel=1e-8)


def test_rank1_decompose_asymmetric_null_vectors():
    root2 = np.sqrt(2.0)
    cases = [
        # (M, c, v spanning null(M), w spanning null(M^T))
        ([[1.0, 0.0], [5.0, 0.0]], -np.sqrt(26.0), [0.0, 1.0], np.array([5.0, -1.0]) / np.sqrt(26.0)),
        # defective: both eigenvalues are zero, yet the nullity is one
        ([[0.0, 1.0], [0.0, 0.0]], -1.0, [1.0, 0.0], [0.0, 1.0]),
        # defective: the eigenvalue 0 is double, its eigenvector single
        ([[1.0, 1.0], [-1.0, -1.0]], -2.0, [1.0 / root2, -1.0 / root2], [1.0 / root2, 1.0 / root2]),
    ]
    for m, c_ref, v_ref, w_ref in cases:
        m = np.array(m)
        c, w, v = adjugate_rank1_decompose(m)
        assert_allclose(v, v_ref, atol=1e-12)
        assert_allclose(w, w_ref, atol=1e-12)
        assert c == pytest.approx(c_ref, rel=1e-12)
        assert_allclose(c * np.outer(v, w), adjugate(m), atol=1e-12)
        for x in (v, w):  # a sign flip keeps exact zeros at +0.0
            assert not np.signbit(x[x == 0.0]).any()
    assert_allclose(adjugate([[0.0, 1.0], [0.0, 0.0]]), [[0.0, -1.0], [0.0, 0.0]], atol=1e-15)
    assert_allclose(adjugate([[1.0, 1.0], [-1.0, -1.0]]), [[-1.0, -1.0], [1.0, 1.0]], atol=1e-15)


def test_rank1_decompose_regularized_determinant():
    # product of nonzero eigenvalues equals det(M + v w^T) / <v, w>
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = random_symmetric(rng, n)
        dec = eigendecompose(m)
        vals = dec.eigenvalues + np.sign(dec.eigenvalues + 0.25)
        vals[-1] = 0.0
        m0 = dec.basis @ np.diag(vals) @ dec.basis.T
        m0 = (m0 + m0.T) / 2.0
        c, w, v = adjugate_rank1_decompose(m0)
        cross = float(np.linalg.det(m0 + np.outer(v, w))) / float(v @ w)
        assert c * float(v @ w) == pytest.approx(cross, rel=1e-8)


def test_rank1_decompose_rejects_wrong_nullity():
    with pytest.raises(NullityNotOne, match="found 0"):
        adjugate_rank1_decompose(np.eye(3))
    with pytest.raises(NullityNotOne, match="found 2"):
        adjugate_rank1_decompose(np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        adjugate(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# log-det directional calculus


def test_logdet_derivative_identity_pair():
    assert logdet_directional_derivative(np.eye(3), np.eye(3)) == pytest.approx(3.0)
    assert logdet_second_derivative(np.eye(3), np.eye(3)) == pytest.approx(-3.0)


def test_logdet_derivative_scalar_case():
    a = np.array([[2.0]])
    b = np.array([[3.0]])
    assert logdet_directional_derivative(a, b) == pytest.approx(1.5)
    assert logdet_second_derivative(a, b) == pytest.approx(-2.25)


def test_logdet_derivative_orthogonal_direction():
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert logdet_directional_derivative(a, b) == pytest.approx(0.0, abs=1e-14)
    assert logdet_second_derivative(a, b) == pytest.approx(-1.0, rel=1e-12)


def test_logdet_derivatives_match_finite_differences():
    rng = np.random.default_rng(41)
    h = 1e-5
    h2 = 1e-4  # roundoff in the second difference scales like eps / h^2
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = random_spd(rng, n)
        b = random_symmetric(rng, n)
        f = lambda t: float(np.linalg.slogdet(a + t * b)[1])
        fd1 = (f(h) - f(-h)) / (2.0 * h)
        fd2 = (f(h2) - 2.0 * f(0.0) + f(-h2)) / (h2 * h2)
        assert logdet_directional_derivative(a, b) == pytest.approx(
            fd1, rel=1e-6, abs=1e-8
        )
        assert logdet_second_derivative(a, b) == pytest.approx(fd2, rel=1e-4, abs=1e-5)


def test_logdet_second_derivative_strictly_negative():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = random_spd(rng, n)
        b = random_symmetric(rng, n)
        if np.linalg.norm(b) < 1e-12:
            continue
        assert logdet_second_derivative(a, b) < 0.0
    assert logdet_second_derivative(np.eye(3), np.zeros((3, 3))) == 0.0


def test_logdet_derivative_requires_positive_definite_base():
    with pytest.raises(NotPositiveDefinite):
        logdet_directional_derivative(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError, match="matching shapes"):
        logdet_directional_derivative(np.eye(2), np.eye(3))


def test_default_tolerances():
    assert DEFAULT_PD_TOL == 1e-10
    assert DEFAULT_NULL_TOL == 1e-9
