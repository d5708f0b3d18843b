"""Tests for face-volume objectives, their gradients and the constrained ascent."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import simplexcone.extremal as extremal_module
import simplexcone.simplex as simplex_module
from simplexcone import (
    DEFAULT_PD_TOL,
    MAX_FACES,
    MaxIterations,
    NotRealizable,
    Objective,
    ObjectiveKind,
    SquaredEdgeLengths,
    StepIntoInvalidRegion,
    Verdict,
    edge_count,
    edge_index,
    edge_pairs,
    face_squared_lengths,
    gradient_log_volume,
    gram_from_squared_lengths,
    maximize,
    objective_gradient,
    objective_value,
    random_simplex,
    regular_simplex,
    relabel,
    validate,
    volume,
)

from simplexcone.simplex import _gram_stack

from oracles import jacobi_eigendecompose, mp_eigenvalues, verdict_of

LOGPROD = ObjectiveKind.LOG_PRODUCT_FACES
SUMROOT = ObjectiveKind.SUM_ROOT_FACES

UNIT_TRIANGLE = SquaredEdgeLengths(2, np.ones(3))
UNIT_TETRA = SquaredEdgeLengths(3, np.ones(6))


# ---------------------------------------------------------------------------
# objective values


def test_objective_kind_values():
    assert ObjectiveKind("logprod") is LOGPROD
    assert ObjectiveKind("sumroot") is SUMROOT


def test_sumroot_edges_of_unit_triangle():
    # k=1 faces are edges; each contributes its length
    assert objective_value(UNIT_TRIANGLE, Objective(SUMROOT, 1)) == pytest.approx(3.0)


def test_logprod_top_face_is_log_volume():
    val = objective_value(UNIT_TRIANGLE, Objective(LOGPROD, 2))
    assert val == pytest.approx(math.log(math.sqrt(3.0) / 4.0), rel=1e-14)


def test_sumroot_facets_of_unit_tetra():
    # four facets of area sqrt(3)/4, each entering as a square root
    val = objective_value(UNIT_TETRA, Objective(SUMROOT, 2))
    assert val == pytest.approx(4.0 * (math.sqrt(3.0) / 4.0) ** 0.5, rel=1e-14)
    assert val == pytest.approx(2.6321480259049848, abs=1e-13)


def test_logprod_facets_of_unit_tetra():
    val = objective_value(UNIT_TETRA, Objective(LOGPROD, 2))
    assert val == pytest.approx(4.0 * math.log(math.sqrt(3.0) / 4.0), rel=1e-14)


def test_objectives_sum_over_all_faces():
    # direct cross-check against per-face volumes
    from simplexcone import face_volume

    ell = random_simplex(3, np.random.default_rng(3))
    for k in (1, 2, 3):
        faces = list(itertools.combinations(range(4), k + 1))
        expected_log = sum(math.log(face_volume(ell, f)) for f in faces)
        expected_root = sum(face_volume(ell, f) ** (1.0 / k) for f in faces)
        assert objective_value(ell, Objective(LOGPROD, k)) == pytest.approx(
            expected_log, rel=1e-12
        )
        assert objective_value(ell, Objective(SUMROOT, k)) == pytest.approx(
            expected_root, rel=1e-12
        )


def test_objectives_past_170_factorial():
    # 171! is no float, but the objectives of the unit 171-simplex are: its
    # volume is sqrt(n + 1) / (2^(n/2) n!), about 1e-334, so its log is about
    # -768 and its 171st root about 0.011
    n = 171
    ell = regular_simplex(n, float(edge_count(n)))
    log_volume = 0.5 * math.log(n + 1) - 0.5 * n * math.log(2.0) - math.lgamma(n + 1)
    root = math.exp(log_volume / n)
    # by Euler, s . gradient is n/2 for the log volume and half the root
    for kind, value, euler in ((LOGPROD, log_volume, n / 2.0), (SUMROOT, root, root / 2.0)):
        objective = Objective(kind, n)
        assert objective_value(ell, objective) == pytest.approx(value, rel=1e-12)
        gradient = objective_gradient(ell, objective)
        assert np.isfinite(gradient).all()
        assert float(ell.s @ gradient) == pytest.approx(euler, rel=1e-12)
    assert np.array_equal(gradient_log_volume(ell), objective_gradient(ell, Objective(LOGPROD, n)))


def test_objective_value_rejects_bad_k():
    with pytest.raises(ValueError, match="1..2"):
        objective_value(UNIT_TRIANGLE, Objective(SUMROOT, 0))
    with pytest.raises(ValueError, match="1..2"):
        objective_value(UNIT_TRIANGLE, Objective(SUMROOT, 3))


def test_objective_value_requires_valid_instance():
    bad = SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0]))
    with pytest.raises(NotRealizable):
        objective_value(bad, Objective(LOGPROD, 2))


def test_a_valid_start_whose_face_determinant_vanishes_is_refused():
    # Valid at pd_tol = 0 (smallest Gram eigenvalue 1.1e-16), yet the triangle's
    # Gram determinant rounds to zero
    ell = SquaredEdgeLengths(2, [1.0, 4.323354461887753, 1.1648189206724306])
    assert validate(ell, pd_tol=0.0).verdict is Verdict.VALID
    for kind in (LOGPROD, SUMROOT):
        with pytest.raises(NotRealizable, match="a face volume vanished"):
            objective_value(ell, Objective(kind, 2), pd_tol=0.0)
        with pytest.raises(NotRealizable, match="a face volume vanished"):
            maximize(2, float(ell.s.sum()), Objective(kind, 2), start=ell, pd_tol=0.0)


def test_objective_value_invariant_under_relabeling():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        ell = random_simplex(n, rng)
        perm = rng.permutation(n + 1)
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                assert objective_value(
                    relabel(ell, perm), Objective(kind, k)
                ) == pytest.approx(objective_value(ell, Objective(kind, k)), rel=1e-11)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_log_volume_regular_is_uniform():
    g = gradient_log_volume(regular_simplex(3, 6.0))
    assert np.ptp(g) < 1e-13


def test_gradient_log_volume_euler_identity():
    # volume is homogeneous of degree n/2 in the squared lengths
    rng = np.random.default_rng(13)
    for n in range(2, 6):
        ell = random_simplex(n, rng)
        g = gradient_log_volume(ell)
        assert float(ell.s @ g) == pytest.approx(n / 2.0, rel=1e-10)


def _moderate_instance(n, rng, bound=20.0):
    # thin simplices have huge log-volume curvature, which swamps finite
    # differences; keep the comparison on well-shaped draws
    while True:
        ell = random_simplex(n, rng, total=float(edge_count(n)))
        if np.abs(gradient_log_volume(ell)).max() < bound:
            return ell


def _central_diff4(f, h):
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def test_gradient_log_volume_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-4
    for n in (2, 3, 4):
        ell = _moderate_instance(n, rng)
        g = gradient_log_volume(ell)
        for e in range(edge_count(n)):
            bump = np.zeros(edge_count(n))
            bump[e] = 1.0

            def along(t):
                return math.log(volume(SquaredEdgeLengths(n, ell.s + t * bump)))

            assert g[e] == pytest.approx(_central_diff4(along, h), rel=1e-6, abs=1e-8)


def test_log_volume_gradient_is_minus_half_the_bordered_inverse_gram():
    # grad log V = adj(G^-1) / 2 = -(1/2) offdiag L, L the bordered inverse
    # Gram, whose strict upper triangle runs in edge order
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(53)
    for n in range(2, 7):
        for _ in range(3):
            ell = random_simplex(n, rng)
            g = gram_from_squared_lengths(ell)
            with mpmath.workdps(50):
                ginv = mpmath.matrix(g.tolist()) ** -1
                big = mpmath.matrix(n + 1, n + 1)
                for i in range(n):
                    for j in range(n):
                        big[i + 1, j + 1] = ginv[i, j]
                    big[0, i + 1] = -mpmath.fsum(ginv[i, j] for j in range(n))
                ref = np.array([float(-big[i, j] / 2) for i, j in edge_pairs(n)])
            w = np.linalg.eigvalsh(g)
            # the inverse's error grows like eps * cond(G)
            tol = 1e-14 * max(1.0, w[-1] / w[0]) * float(np.abs(ref).max())
            assert np.abs(gradient_log_volume(ell) - ref).max() <= tol, n


def test_objective_gradient_top_logprod_equals_log_volume_gradient():
    rng = np.random.default_rng(19)
    for n in (2, 3, 4):
        ell = random_simplex(n, rng)
        assert_allclose(
            objective_gradient(ell, Objective(LOGPROD, n)),
            gradient_log_volume(ell),
            rtol=1e-12,
        )


def test_objective_gradient_euler_identities():
    # logprod k over C(n+1, k+1) faces is (k/2) * #faces + const under scaling;
    # sumroot is homogeneous of degree 1/2
    rng = np.random.default_rng(23)
    for n in range(2, 6):
        ell = random_simplex(n, rng)
        for k in range(1, n + 1):
            count = math.comb(n + 1, k + 1)
            g_log = objective_gradient(ell, Objective(LOGPROD, k))
            assert float(ell.s @ g_log) == pytest.approx(
                0.5 * k * count, rel=1e-9
            )
            g_root = objective_gradient(ell, Objective(SUMROOT, k))
            val = objective_value(ell, Objective(SUMROOT, k))
            assert float(ell.s @ g_root) == pytest.approx(0.5 * val, rel=1e-9)


def _scatter_reference(n, k, kind, s):
    # per-face contributions -L_ab / 2 added edge by edge with np.add.at, face
    # after face in each face's own edge order: the same additions in the
    # same order as the gradient's single bincount, so the results must agree
    # bit for bit; faces, edge positions and Gram matrices come from the
    # public API, and L borders each face inverse as the module docstring says
    ell = SquaredEdgeLengths(n, s)
    faces = list(itertools.combinations(range(n + 1), k + 1))
    grams = np.array(
        [gram_from_squared_lengths(face_squared_lengths(ell, f)) for f in faces]
    )
    frame = np.vstack((-np.ones(k), np.eye(k)))
    bordered = frame @ np.linalg.inv(grams) @ frame.T
    if kind is LOGPROD:
        weights = np.ones(len(faces))
    else:
        kfact_root = math.factorial(k) ** (1.0 / k)
        weights = (np.linalg.det(grams) ** (0.5 / k) / kfact_root) / k
    edges = [edge_index(n, f[a], f[b]) for f in faces for a, b in edge_pairs(k)]
    terms = [-0.5 * L[a, b] * w for L, w in zip(bordered, weights) for a, b in edge_pairs(k)]
    grad = np.zeros(edge_count(n))
    np.add.at(grad, edges, terms)
    return grad


def test_gradient_scatter_matches_add_at_reference_bitwise():
    rng = np.random.default_rng(37)
    for n in range(2, 7):
        for k in range(1, n + 1):
            ws = extremal_module._workspace(n, k)
            for kind in (LOGPROD, SUMROOT):
                s = random_simplex(n, rng, total=float(edge_count(n))).s
                _, weight, grams = extremal_module._raw_value(ws, kind, s, _gram_stack(ws.n, s))
                got = extremal_module._raw_gradient(ws, grams, weight)[0]
                assert np.array_equal(got, _scatter_reference(n, k, kind, s)), (n, k)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(29)
    h = 1e-4
    trials = 0
    for n in range(2, 6):
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                ell = _moderate_instance(n, rng)
                obj = Objective(kind, k)
                g = objective_gradient(ell, obj)
                edges = edge_count(n)
                for e in rng.choice(edges, size=min(3, edges), replace=False):
                    bump = np.zeros(edges)
                    bump[e] = 1.0

                    def along(t):
                        return objective_value(
                            SquaredEdgeLengths(n, ell.s + t * bump), obj
                        )

                    fd = _central_diff4(along, h)
                    assert g[e] == pytest.approx(fd, rel=1e-6, abs=1e-8)
                    trials += 1
    assert trials >= 50


def _assembled_hessian(ell, kind, k):
    # the optimizer's Hessian at unit mean, where it is also the Hessian
    # of objective_value itself
    ws = extremal_module._workspace(ell.n, k)
    _, weight, grams = extremal_module._raw_value(ws, kind, ell.s, _gram_stack(ws.n, ell.s))
    bordered = extremal_module._raw_gradient(ws, grams, weight)[1]
    neg = extremal_module._curvature(ws, kind, bordered, weight)
    return -(np.diag(neg) if k == 1 else neg)  # at k = 1 only the diagonal


def test_hessian_matches_finite_differences_of_the_gradient():
    rng = np.random.default_rng(67)
    h = 1e-4
    for n in range(2, 6):
        edges = edge_count(n)
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                ell = _moderate_instance(n, rng)
                obj = Objective(kind, k)
                hess = _assembled_hessian(ell, kind, k)
                for e in range(edges):
                    bump = np.zeros(edges)
                    bump[e] = 1.0

                    def along(t):
                        return objective_gradient(
                            SquaredEdgeLengths(n, ell.s + t * bump), obj
                        )

                    assert_allclose(hess[:, e], _central_diff4(along, h), rtol=1e-6, atol=1e-8)


def test_hessian_is_negative_semidefinite_on_the_hyperplane():
    # both objectives are concave on the slice {sum = total}
    rng = np.random.default_rng(71)
    for n in range(2, 6):
        edges = edge_count(n)
        proj = np.eye(edges) - 1.0 / edges
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                for _ in range(3):
                    ell = random_simplex(n, rng, total=float(edges))
                    curv = np.linalg.eigvalsh(proj @ _assembled_hessian(ell, kind, k) @ proj)
                    assert curv[-1] <= 1e-12 * np.abs(curv).max(), (n, k, kind)


def test_hessian_is_the_same_in_chunks_of_one_face(monkeypatch):
    # the face blocks are scattered a chunk of faces at a time, in face
    # order either way, so one face per chunk gives N bit for bit
    rng = np.random.default_rng(43)
    for n in range(2, 7):
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                ell = random_simplex(n, rng, total=float(edge_count(n)))
                whole = _assembled_hessian(ell, kind, k)
                with monkeypatch.context() as patch:
                    patch.setattr(extremal_module, "_BLOCK_FLOATS", 1)
                    chunked = _assembled_hessian(ell, kind, k)
                assert_array_equal(chunked, whole)


def _row_gather_curvature(ws, kind, bordered, weight):
    # the reference assembly: rows a and b of each edge ab gathered from
    # the (faces, k+1, k+1) bordered inverses, then columns c and d of each
    # edge cd gathered from those rows, in the same chunks of faces
    k, edges = ws.k, edge_count(ws.n)
    iu, ju = np.triu_indices(k + 1, 1)
    neg = np.zeros(edges if k == 1 else edges * edges)
    rows = max(1, extremal_module._BLOCK_FLOATS // iu.size**2)
    for lo in range(0, len(ws.faces), rows):
        part = slice(lo, lo + rows)
        face = bordered[part]
        la, lb = face[:, iu], face[:, ju]
        blocks = 0.5 * (la[:, :, iu] * lb[:, :, ju] + la[:, :, ju] * lb[:, :, iu])
        if kind is SUMROOT:
            l_ab = face[:, iu, ju]
            blocks -= l_ab[:, :, None] * l_ab[:, None, :] / (2 * k)
        blocks *= weight[part, :, None] if kind is SUMROOT else weight
        e = ws.edges[part]
        index = e if k == 1 else e[:, :, None] * edges + e[:, None, :]
        np.add.at(neg, index.ravel(), blocks.ravel())
    return neg if k == 1 else neg.reshape(edges, edges)


def _both_curvatures(ell, kind, k):
    ws = extremal_module._workspace(ell.n, k)
    _, weight, grams = extremal_module._raw_value(ws, kind, ell.s, _gram_stack(ws.n, ell.s))
    bordered = extremal_module._raw_gradient(ws, grams, weight)[1]
    return (
        extremal_module._curvature(ws, kind, bordered, weight),
        _row_gather_curvature(ws, kind, bordered, weight),
    )


def test_flat_face_plan_gives_the_row_gather_assembly_bit_for_bit(monkeypatch):
    # the same products and sums in the same order, read through the flat
    # plan: kept per k, or built per call when no block fits the budget
    rng = np.random.default_rng(29)
    for budget in (extremal_module._BLOCK_FLOATS, 1):
        with monkeypatch.context() as patch:
            patch.setattr(extremal_module, "_BLOCK_FLOATS", budget)
            for n in range(2, 8):
                for k in range(1, n + 1):
                    for kind in (LOGPROD, SUMROOT):
                        ell = random_simplex(n, rng, total=float(edge_count(n)))
                        assert_array_equal(*_both_curvatures(ell, kind, k))


def test_face_plans_above_the_block_budget_are_not_kept():
    # at k = 23 a face block has 276^2 = 76176 floats, more than the
    # 65536 of _BLOCK_FLOATS: its plan is built for the call and dropped
    assert edge_count(23) ** 2 > extremal_module._BLOCK_FLOATS >= edge_count(22) ** 2
    extremal_module._stored_face_plan.cache_clear()
    rng = np.random.default_rng(31)
    for n in (23, 24):  # one face, whose plan is read as it is built, and 25 faces
        ell = random_simplex(n, rng, total=float(edge_count(n)))
        assert_array_equal(*_both_curvatures(ell, SUMROOT, 23))
    assert extremal_module._stored_face_plan.cache_info().currsize == 0
    _both_curvatures(UNIT_TETRA, LOGPROD, 2)
    assert extremal_module._stored_face_plan.cache_info().currsize == 1


def test_scatter_indices_above_the_block_budget_are_not_kept():
    # at n = 10, k = 5 the blocks of the 462 faces hold 462 * 15^2 = 103950
    # floats, more than the 65536 of _BLOCK_FLOATS: their scatter index is
    # built a chunk at a time and dropped; every (n, k) up to n = 9 fits
    faces = len(extremal_module._workspace(10, 5).faces)
    assert faces * edge_count(5) ** 2 > extremal_module._BLOCK_FLOATS
    extremal_module._stored_scatter_index.cache_clear()
    ell = random_simplex(10, np.random.default_rng(37), total=float(edge_count(10)))
    assert_array_equal(*_both_curvatures(ell, SUMROOT, 5))
    assert extremal_module._stored_scatter_index.cache_info().currsize == 0
    for kind in (LOGPROD, SUMROOT):  # one index per (n, k), whatever the objective
        assert_array_equal(*_both_curvatures(UNIT_TETRA, kind, 2))
    assert extremal_module._stored_scatter_index.cache_info().currsize == 1


def test_large_problems_converge_in_newton_steps():
    # every size under MAX_FACES forms the Hessian: only its diagonal at
    # k = 1 (2080 edges at n = 64), chunked face blocks above (12 chunks of
    # the 1716 faces at n = 12, k = 6)
    cases = ((64, 1, LOGPROD, 0), (64, 1, SUMROOT, 1), (64, 1, LOGPROD, 2), (12, 6, SUMROOT, 0))
    for n, k, kind, seed in cases:
        total = float(edge_count(n))
        start = random_simplex(n, np.random.default_rng(seed), total=total)
        trace = maximize(n, total, Objective(kind, k), start=start)
        assert trace.converged
        assert trace.regularity_deviation < 1e-6
        assert len(trace.iterates) - 1 <= 12, (n, k, kind, seed)


# ---------------------------------------------------------------------------
# constrained ascent


def test_an_exactly_singular_newton_matrix_gives_no_direction():
    # a dense N makes np.linalg.solve raise, a diagonal one divides by zero
    pg = np.array([1.0, -2.0, 1.0])
    assert extremal_module._newton_direction(np.zeros((3, 3)), pg) is None
    assert extremal_module._newton_direction(np.zeros(3), pg) is None


def test_maximize_regular_start_converges_immediately():
    trace = maximize(3, 6.0, Objective(LOGPROD, 2), start=regular_simplex(3, 6.0))
    assert trace.converged
    assert len(trace.iterates) == 1
    assert trace.regularity_deviation == 0.0


def test_trace_ends_with_the_final_objective_value():
    # the CLI reports the last recorded value instead of re-evaluating it
    rng = np.random.default_rng(47)
    for n, k in ((2, 1), (3, 2), (4, 3), (4, 4)):
        for kind in (LOGPROD, SUMROOT):
            objective = Objective(kind, k)
            total = float(n * (n + 1))
            trace = maximize(n, total, objective, start=random_simplex(n, rng, total=total))
            assert objective_value(trace.final, objective) == trace.iterates[-1][1]


def test_maximize_contract_example_triangle():
    trace = maximize(
        2, 3.0, Objective(LOGPROD, 2), start=np.array([1.5, 0.9, 0.6])
    )
    assert trace.converged
    assert_allclose(trace.final.s, np.ones(3), atol=1e-6)
    assert trace.regularity_deviation < 1e-6


def test_maximize_contract_example_tetra_sumroot():
    rng = np.random.default_rng(41)
    start = random_simplex(3, rng, total=6.0)
    trace = maximize(3, 6.0, Objective(SUMROOT, 2), start=start)
    assert trace.converged
    assert np.max(np.abs(trace.final.s - 1.0)) < 1e-6


def test_maximize_objective_is_monotone():
    trace = maximize(
        3, 6.0, Objective(SUMROOT, 2), start=np.array([1.5, 0.9, 0.6, 1.0, 1.0, 1.0])
    )
    values = [value for _, value, _ in trace.iterates]
    diffs = np.diff(values)
    scale = max(1.0, max(abs(v) for v in values))
    assert diffs.min() >= -1e-12 * scale


def test_maximize_keeps_constraint():
    trace = maximize(
        4, 10.0, Objective(LOGPROD, 1), start=random_simplex(4, np.random.default_rng(5), total=10.0)
    )
    for point, _, _ in trace.iterates:
        assert float(point.sum()) == pytest.approx(10.0, abs=1e-12 * 10.0)
    assert trace.converged


def test_maximize_rejects_bad_starts():
    with pytest.raises(ValueError, match="positive orthant"):
        maximize(2, 3.0, Objective(LOGPROD, 2), start=np.array([1.0, 1.0, 9.0]))
    with pytest.raises(ValueError, match="Valid instance"):
        maximize(2, 11.0, Objective(LOGPROD, 2), start=np.array([1.0, 1.0, 9.0]))
    with pytest.raises(ValueError, match="positive finite"):
        maximize(2, -1.0, Objective(LOGPROD, 2))
    with pytest.raises(ValueError, match="1..2"):
        maximize(2, 3.0, Objective(LOGPROD, 5))
    with pytest.raises(ValueError, match="wrong dimension"):
        maximize(2, 3.0, Objective(LOGPROD, 2), start=regular_simplex(3, 3.0))
    with pytest.raises(ValueError, match="3 entries"):
        maximize(2, 3.0, Objective(LOGPROD, 2), start=np.ones(4))


def test_maximize_iteration_cap_carries_trace():
    with pytest.raises(MaxIterations) as info:
        maximize(
            3,
            6.0,
            Objective(SUMROOT, 2),
            start=np.array([1.5, 0.9, 0.6, 1.0, 1.0, 1.0]),
            max_iter=1,
        )
    trace = info.value.trace
    assert not trace.converged
    assert len(trace.iterates) >= 1


def test_maximize_random_starts_reach_regular_point():
    rng = np.random.default_rng(77)
    for n in (2, 3):
        total = 2.0 * edge_count(n)
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                start = random_simplex(n, rng, total=total)
                trace = maximize(n, total, Objective(kind, k), start=start)
                assert trace.converged, (n, k, kind)
                assert trace.regularity_deviation < 1e-6, (n, k, kind)


@pytest.mark.parametrize(
    "total",
    [1e-300, 1e-200, 1e-50, 1e-12, 1e-6, 1.0, 6.0, 1e4, 1e12, 1e50, 1e200, 1e300, 1e308],
)
def test_maximize_stopping_test_is_scale_free(total):
    # the gradient scales as 1/total while the objective scales as
    # log(total) or sqrt(total): a stopping test that mixes the two stops
    # short of the regular point at large totals, or before the first
    # step.  Every run converges, without a numpy warning, from starts
    # drawn at unit mean and scaled to the total
    for n, k, seeds in ((2, 1, 2), (3, 2, 4)):
        edges = edge_count(n)
        for kind in (LOGPROD, SUMROOT):
            for seed in range(seeds):
                start = random_simplex(n, np.random.default_rng(seed), total=float(edges))
                trace = maximize(n, total, Objective(kind, k), start=start.s * (total / edges))
                assert trace.converged
                assert len(trace.iterates) > 1, (n, kind, seed)
                assert trace.regularity_deviation < 1e-9, (n, kind, seed)
                assert np.isfinite(trace.final.s).all()


@pytest.mark.parametrize("j", [-200, -1, 1, 200])
def test_maximize_is_covariant_under_powers_of_four(j):
    # the ascent runs at unit mean, so scaling the start and the total by
    # 4^j takes the very same steps: points scale by 4^j, sumroot values
    # by 2^j, logprod values shift by faces * k * j * ln 2, and the
    # scale-free gradient ratios are the same
    rng = np.random.default_rng(61)
    for n, k in ((2, 1), (3, 2), (4, 4)):
        total = float(edge_count(n))
        start = random_simplex(n, rng, total=total).s
        for kind in (LOGPROD, SUMROOT):
            objective = Objective(kind, k)
            base = maximize(n, total, objective, start=start)
            scaled = maximize(
                n, math.ldexp(total, 2 * j), objective, start=np.ldexp(start, 2 * j)
            )
            assert len(scaled.iterates) == len(base.iterates) > 1
            assert scaled.rejections == base.rejections
            assert scaled.gradient_steps == base.gradient_steps
            shift = math.comb(n + 1, k + 1) * k * j * math.log(2.0)
            for (p, v, g), (q, w, h) in zip(base.iterates, scaled.iterates):
                assert np.array_equal(q, np.ldexp(p, 2 * j))
                assert h == g
                if kind is SUMROOT:
                    assert w == math.ldexp(v, j)
                else:
                    assert w == pytest.approx(v + shift, rel=1e-13, abs=1e-13)
            assert np.array_equal(scaled.final.s, np.ldexp(base.final.s, 2 * j))


def test_trace_is_finite_at_the_smallest_totals():
    # gradient norms here can pass the float maximum; the trace records
    # the scale-free ratio ||Pg|| / ||g||_1, which is the same at every total
    total = 3e-307
    start = random_simplex(3, np.random.default_rng(0), total=6.0).s * (total / 6.0)
    for kind in (LOGPROD, SUMROOT):
        trace = maximize(3, total, Objective(kind, 2), start=start)
        assert trace.converged
        for point, value, ratio in trace.iterates:
            assert np.isfinite(point).all()
            assert math.isfinite(value) and math.isfinite(ratio)
        assert trace.iterates[-1][2] < 1e-10


def test_entry_points_are_finite_at_extreme_scales():
    # the face determinants of a tetrahedron at 1e300 overflow and at
    # 1e-300 underflow; the entry points compute at unit mean instead
    for scale in (1e-300, 1e300):
        ell = SquaredEdgeLengths(3, random_simplex(3, np.random.default_rng(3)).s * scale)
        for kind in (LOGPROD, SUMROOT):
            for k in (1, 2, 3):
                assert math.isfinite(objective_value(ell, Objective(kind, k)))
                assert np.isfinite(objective_gradient(ell, Objective(kind, k))).all()
    big = SquaredEdgeLengths(3, UNIT_TETRA.s * 1e300)
    assert float(big.s @ gradient_log_volume(big)) == pytest.approx(1.5, rel=1e-12)
    assert np.isfinite(regular_simplex(2, 1e308).s).all()
    with pytest.raises(ValueError, match="subnormal"):
        maximize(2, 1e-310, Objective(LOGPROD, 1))


def test_regular_point_dominates_random_feasible_points():
    rng = np.random.default_rng(83)
    n, total = 3, 6.0
    obj = Objective(SUMROOT, 2)
    best = objective_value(regular_simplex(n, total), obj)
    for _ in range(200):
        ell = random_simplex(n, rng, total=total)
        assert objective_value(ell, obj) <= best + 1e-12


# ---------------------------------------------------------------------------
# the optimizer's LAPACK spectra against the Jacobi oracle


def _optimizer_runs(seed):
    """One run per (n, k, objective) with n = 2..6, from random Valid starts."""
    rng = np.random.default_rng(seed)
    for n in range(2, 7):
        total = float(edge_count(n))
        for k in range(1, n + 1):
            for kind in (LOGPROD, SUMROOT):
                start = random_simplex(n, rng, total=total)
                yield n, maximize(n, total, Objective(kind, k), start=start)


def test_optimizer_iterates_match_jacobi_oracle():
    # every accepted iterate passed the library's Valid verdict (prescaled
    # LAPACK eigh and the band); Jacobi must call it Valid and agree on its
    # spectrum within the probe oracle's bound: 1e-12 relative up to
    # condition number 100, growing in proportion beyond it (LAPACK's
    # eigenvalue errors scale with the largest eigenvalue)
    checked = 0
    for n, trace in itertools.chain.from_iterable(map(_optimizer_runs, (31, 32, 33))):
        assert trace.converged
        for point, _, _ in trace.iterates:
            gram = gram_from_squared_lengths(SquaredEdgeLengths(n, point))
            ref = jacobi_eigendecompose(gram).eigenvalues
            assert ref[0] > DEFAULT_PD_TOL * abs(ref[-1]), (n, ref)
            got = np.linalg.eigh(gram)[0]
            cond_factor = max(1.0, float(ref[-1] / ref[0]) / 100.0)
            bound = 1e-12 * np.maximum(1.0, np.abs(ref)) * cond_factor
            assert (np.abs(got - ref) <= bound).all(), (n, got, ref)
            checked += 1
    assert checked >= 1000


def test_maximize_runs_no_eigensolver_of_its_own(monkeypatch):
    # every candidate's verdict is simplex's, so a run takes the same steps
    # with numpy's eigvalsh unavailable
    cases = [
        (n, Objective(kind, k), random_simplex(n, np.random.default_rng(100 * n + k), total=6.0))
        for n in (3, 4, 5)
        for k in range(1, n + 1)
        for kind in (LOGPROD, SUMROOT)
    ]
    expected = [maximize(n, 6.0, objective, start=start) for n, objective, start in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for (n, objective, start), want in zip(cases, expected):
        got = maximize(n, 6.0, objective, start=start)
        assert got.converged and want.converged
        assert_array_equal(got.final.s, want.final.s)
        assert len(got.iterates) == len(want.iterates)
        for (p, v, r), (q, w, u) in zip(got.iterates, want.iterates):
            assert_array_equal(p, q)
            assert (v, r) == (w, u)
        assert got.rejections == want.rejections


def _certificates(monkeypatch, replacement=None):
    """The Cholesky certificate's verdicts, in call order, on the start (which
    ``simplex`` judges) and on the candidates (which ``extremal`` judges);
    ``replacement`` takes its place if given."""
    verdicts = []
    original = simplex_module._certified_valid

    def recording(g, low, pd_tol):
        verdicts.append((replacement or original)(g, low, pd_tol))
        return verdicts[-1]

    for module in (simplex_module, extremal_module):
        monkeypatch.setattr(module, "_certified_valid", recording)
    return verdicts


def test_maximize_makes_one_eigendecompose_call(monkeypatch, unit_eigh_calls):
    # every Valid decision of a run, the start's and each candidate's closing
    # verdict (an accepted step or a "not_valid" rejection), asks the Cholesky
    # certificate first, and the eigensolver kernel runs once for each one
    # the certificate declines
    certificates = _certificates(monkeypatch)
    rng = np.random.default_rng(5)
    iterations = 0
    for _ in range(4):
        start = random_simplex(5, rng, total=10.0)
        unit_eigh_calls.clear()
        certificates.clear()
        trace = maximize(5, 10.0, Objective(LOGPROD, 2), start=start)
        assert trace.converged
        steps = len(trace.iterates) - 1
        assert len(certificates) == 1 + steps + trace.rejections["not_valid"]
        assert unit_eigh_calls == [(5, 5)] * certificates.count(False)
        iterations += steps
    assert iterations > 20
    assert not hasattr(extremal_module, "eigendecompose")


def _trace_record(run):
    """Everything a trace holds, exactly: iterate bits, values, ratios,
    rejections, gradient steps and the final point."""
    return (
        [(p.tobytes(), v, r) for p, v, r in run.iterates],
        run.final.s.tobytes(),
        run.regularity_deviation,
        run.converged,
        run.rejections,
        run.gradient_steps,
    )


def test_the_certificate_changes_no_trace(monkeypatch):
    # runs shaped like acceptance 10 (n = 2..5, every k, both objectives,
    # random starts at total = edges) take the same steps to the bit when
    # the eigensolver judges every candidate, and the certificate is what
    # judged most of them
    rng = np.random.default_rng(20261022)
    cases = [
        (n, Objective(kind, k), random_simplex(n, rng, total=float(edge_count(n))))
        for n in range(2, 6)
        for k in range(1, n + 1)
        for kind in (LOGPROD, SUMROOT)
        for _ in range(4)
    ]
    verdicts = _certificates(monkeypatch)
    certified = [_trace_record(maximize(n, start.total(), o, start=start)) for n, o, start in cases]
    assert verdicts.count(True) > 0.9 * len(verdicts) > 900
    declined = _certificates(monkeypatch, lambda g, low, pd_tol: False)
    for (n, objective, start), want in zip(cases, certified):
        assert _trace_record(maximize(n, start.total(), objective, start=start)) == want
    assert len(declined) == len(verdicts)


def test_a_tight_band_run_falls_back_to_the_eigensolver(monkeypatch, unit_eigh_calls):
    # near a band edge the certificate declines, and each candidate it
    # declines is judged by validate's eigensolver and band
    n, total, objective, start, pd_tol = _tight_start([1, 38])
    unit_eigh_calls.clear()  # the start's draw
    certificates = _certificates(monkeypatch)
    with pytest.raises(MaxIterations) as info:
        maximize(n, total, objective, start=start, max_iter=200, pd_tol=pd_tol)
    assert certificates.count(False) > 100
    assert unit_eigh_calls == [(n, n)] * certificates.count(False)
    _assert_validate_calls_valid(n, info.value.trace, pd_tol)


# ---------------------------------------------------------------------------
# line-search rejections

# a flat 5-simplex start: its smallest Gram eigenvalue is about 1e-3 of
# its largest, so the run tests that the search keeps every iterate Valid
PINNED_START = np.array(
    [
        0.32621828840753775, 0.6507299220868897, 0.650611644749195,
        0.24002644922427568, 0.6649273005847696, 0.2566606834810083,
        1.638128913924212, 0.7518910029553482, 1.6855832102560135,
        2.484844694440264, 0.7510836442489779, 2.3406157557407408,
        0.8032713165672041, 0.6314328485962952, 1.1239743247372669,
    ]
)


def test_rejections_add_up_to_the_halvings(monkeypatch):
    # every candidate but the non-positive ones meets the Cholesky screen,
    # and each iteration accepts one, so the halvings are the screened
    # candidates plus the non-positive ones minus the accepted steps.  This
    # start's Newton trials all leave the cone once, so that iteration falls
    # back to the gradient step
    screens = []
    original = extremal_module._cholesky_factor

    def counting(gram):
        screens.append(gram.shape)
        return original(gram)

    monkeypatch.setattr(extremal_module, "_cholesky_factor", counting)
    start = random_simplex(5, np.random.default_rng(280), total=15.0)
    trace = maximize(5, 15.0, Objective(LOGPROD, 2), start=start)
    assert trace.converged
    rejections = trace.rejections
    assert set(rejections) == {
        "non_positive",
        "cholesky_screen",
        "face_collapse",
        "armijo",
        "not_valid",
    }
    accepted = len(trace.iterates) - 1
    halvings = len(screens) + rejections["non_positive"] - accepted
    assert sum(rejections.values()) == halvings > 0
    assert trace.gradient_steps > 0


def test_pinned_start_iterates_are_valid_under_the_oracle():
    # the search's one domain rule is the library's Valid verdict; Jacobi
    # and the verdict rule restated in the oracle must agree on every
    # iterate of the run from the flat pinned start
    n, total = 5, 15.0
    trace = maximize(n, total, Objective(LOGPROD, 1), start=PINNED_START)
    assert trace.converged
    assert trace.regularity_deviation < 1e-6
    for point, _, _ in trace.iterates:
        gram = gram_from_squared_lengths(SquaredEdgeLengths(n, point))
        lam = jacobi_eigendecompose(gram).eigenvalues
        assert verdict_of(lam[0], float(np.abs(lam).max())) is Verdict.VALID, lam


def _tight_start(seed):
    """A random Valid start at n = 2..4 and a pd_tol of 0.9..0.9999 times
    its own vertex-0 Gram ratio lambda_min / lambda_max.  That ratio is not
    largest at the regular point, so the band can shut the ascent out of
    the way to it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, n + 1))
    kind = (LOGPROD, SUMROOT)[int(rng.integers(2))]
    total = float(edge_count(n))
    start = random_simplex(n, rng, total=total)
    lam = np.linalg.eigvalsh(gram_from_squared_lengths(start))
    pd_tol = float(rng.uniform(0.9, 0.9999)) * lam[0] / np.abs(lam).max()
    return n, total, Objective(kind, k), start, pd_tol


def _assert_validate_calls_valid(n, trace, pd_tol):
    """The search's verdict is ``validate``'s: every recorded iterate and the
    final point read Valid at the run's own band, bit for bit."""
    for point in [p for p, _, _ in trace.iterates] + [trace.final.s]:
        report = validate(SquaredEdgeLengths(n, point), pd_tol=pd_tol)
        assert report.verdict is Verdict.VALID, (report, pd_tol)


def test_iterates_pressed_against_the_band_stay_valid_under_validate():
    # this run ends at the iteration cap with its iterates on the band edge,
    # where an eigensolver other than validate's can round a point to the
    # wrong side of the band
    n, total, objective, start, pd_tol = _tight_start([1, 38])
    with pytest.raises(MaxIterations) as info:
        maximize(n, total, objective, start=start, max_iter=200, pd_tol=pd_tol)
    trace = info.value.trace
    assert len(trace.iterates) == 200
    _assert_validate_calls_valid(n, trace, pd_tol)


@pytest.mark.parametrize("seed", [[1, 4349], [1, 2681]], ids=["n4-sumroot", "n4-logprod"])
def test_a_band_that_shuts_the_ascent_in_exits_naming_validity(monkeypatch, seed):
    # four of the first 5200 such draws (max_iter 200) end here, seeds 888,
    # 2098, 2681 and 4349; most converge, some hit the iteration cap.  Every
    # judged candidate is either the one step an iteration accepts or a
    # rejection that moves on to a shorter trial
    judged = []
    original = extremal_module._judge_candidate

    def counting(*args, **kwargs):
        outcome = original(*args, **kwargs)
        judged.append(outcome[0])
        return outcome

    monkeypatch.setattr(extremal_module, "_judge_candidate", counting)
    n, total, objective, start, pd_tol = _tight_start(seed)
    with pytest.raises(StepIntoInvalidRegion, match="left the Valid cone") as info:
        maximize(n, total, objective, start=start, max_iter=200, pd_tol=pd_tol)
    trace = info.value.trace
    assert not trace.converged
    rejections = trace.rejections
    accepted = len(trace.iterates) - 1
    assert judged.count(None) == accepted > 0
    assert sum(rejections.values()) == len(judged) - accepted
    assert rejections["not_valid"] > 0
    _assert_validate_calls_valid(n, trace, pd_tol)
    # the run ends against the band, where Jacobi and LAPACK may part in the
    # last bits; there 50-digit mpmath decides, within the rounding of G
    for point, _, _ in trace.iterates:
        gram = gram_from_squared_lengths(SquaredEdgeLengths(n, point))
        lam = jacobi_eigendecompose(gram).eigenvalues
        top = float(np.abs(lam).max())
        allowed = {verdict_of(lam[0], top, pd_tol)}
        if abs(lam[0] - pd_tol * top) <= 1e-12 * top:
            mp = mp_eigenvalues(gram)
            top = max(abs(mp[0]), abs(mp[-1]))
            slack = 8 * n * np.finfo(float).eps * top
            allowed = {verdict_of(mp[0] + d, top, pd_tol) for d in (-slack, slack)}
        assert Verdict.VALID in allowed, lam


def test_exhaustion_blames_the_cone_only_when_every_trial_of_the_iteration_left_it(
    monkeypatch,
):
    # a trial that failed only the Armijo test lay in the cone, so an
    # iteration with one such trial did not have every step leave the cone;
    # the tally is the last iteration's own, not the run's
    original = extremal_module._judge_candidate
    start = random_simplex(3, np.random.default_rng(0), total=6.0)

    def exhaust(script):
        calls = []

        def scripted(*args, **kwargs):
            calls.append(None)
            return script(len(calls), *args, **kwargs)

        monkeypatch.setattr(extremal_module, "_judge_candidate", scripted)
        with pytest.raises(StepIntoInvalidRegion) as info:
            maximize(3, 6.0, Objective(LOGPROD, 2), start=start)
        return str(info.value), info.value.trace

    message, trace = exhaust(lambda i, *a, **k: ("armijo" if i == 1 else "not_valid", None))
    assert message == "line search exhausted: no ascent step of any size was acceptable"
    assert trace.rejections["armijo"] == 1 and trace.rejections["not_valid"] > 0

    accepted = []

    def armijo_then_accept_then_leave(i, *args, **kwargs):
        if i == 1:
            return "armijo", None
        if accepted:
            return "not_valid", None
        outcome = original(*args, **kwargs)
        if outcome[0] is None:
            accepted.append(i)
        return outcome

    message, trace = exhaust(armijo_then_accept_then_leave)
    assert message == "line search exhausted: every candidate step left the Valid cone"
    assert len(trace.iterates) == 2 and trace.rejections["armijo"] >= 1


def test_candidate_tying_at_float_resolution_is_accepted():
    # near the maximum the value ties to rounding and the projected gradient
    # need not shrink; the one Armijo test with its rounding allowance still
    # accepts such a step
    n, k, total = 4, 2, 10.0
    start = random_simplex(n, np.random.default_rng(3), total=total)
    x = np.array(maximize(n, total, Objective(LOGPROD, k), start=start).final.s)
    ws = extremal_module._workspace(n, k)
    f, weight, grams = extremal_module._raw_value(ws, LOGPROD, x, _gram_stack(ws.n, x))
    grad = extremal_module._raw_gradient(ws, grams, weight)[0]
    pg = grad - grad.mean()
    cand = x + 2.0**-10 * pg
    cand += (total - cand.sum()) / cand.size
    cand_value, cand_weight, cand_grams = extremal_module._raw_value(
        ws, LOGPROD, cand, _gram_stack(ws.n, cand)
    )
    cand_grad = extremal_module._raw_gradient(ws, cand_grams, cand_weight)[0]
    allowance = 4.0 * np.finfo(float).eps * (1.0 + abs(f))
    assert abs(cand_value - f) <= allowance
    assert np.linalg.norm(cand_grad - cand_grad.mean()) >= np.linalg.norm(pg)
    reason, accepted = extremal_module._judge_candidate(
        ws,
        LOGPROD,
        cand,
        f=f,
        predicted=extremal_module._ARMIJO * 2.0**-10 * float(pg @ pg),
        allowance=allowance,
        pd_tol=DEFAULT_PD_TOL,
    )
    assert reason is None
    assert accepted[0] == cand_value


def test_regular_start_records_no_rejections():
    trace = maximize(3, 6.0, Objective(SUMROOT, 2), start=regular_simplex(3, 6.0))
    assert trace.converged
    assert set(trace.rejections.values()) == {0}
    assert trace.gradient_steps == 0


# ---------------------------------------------------------------------------
# face-count budget


def test_face_budget_rejects_huge_face_counts_before_any_work():
    # C(41, 21) is about 2.7e11 faces; the check comes before anything is
    # validated or enumerated
    assert math.comb(41, 21) > MAX_FACES
    with pytest.raises(ValueError, match="budget"):
        maximize(40, 1.0, Objective(LOGPROD, 20))
    big = regular_simplex(40, 1.0)
    for kind in (LOGPROD, SUMROOT):
        with pytest.raises(ValueError, match="budget"):
            objective_value(big, Objective(kind, 20))
        with pytest.raises(ValueError, match="budget"):
            objective_gradient(big, Objective(kind, 20))


def test_gradients_never_build_an_edges_squared_array():
    # an edges x edges array of floats, the size of the dense Hessian, takes
    # 5.4 MB for the one 40-face of a 40-simplex (820 edges); the gradient's
    # Gram, inverse and bordered inverse take (k + 1)^2 entries each
    n = 40
    extremal_module._workspace.cache_clear()
    tracemalloc.start()
    try:
        gradient_log_volume(regular_simplex(n, float(edge_count(n))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * edge_count(n) ** 2, peak
