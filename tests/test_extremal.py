"""Tests for face-volume objectives, their gradients and the constrained ascent."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import simplexcone.extremal as extremal_module
from simplexcone import (
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
    eigendecompose,
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


def test_objective_value_rejects_bad_k():
    with pytest.raises(ValueError, match="1..2"):
        objective_value(UNIT_TRIANGLE, Objective(SUMROOT, 0))
    with pytest.raises(ValueError, match="1..2"):
        objective_value(UNIT_TRIANGLE, Objective(SUMROOT, 3))


def test_objective_value_requires_valid_instance():
    bad = SquaredEdgeLengths(2, np.array([1.0, 1.0, 9.0]))
    with pytest.raises(NotRealizable):
        objective_value(bad, Objective(LOGPROD, 2))


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
    # per-face contributions added edge by edge with np.add.at, every face's
    # apex edges first: the same additions in the same order as the
    # gradient's single bincount, so the results must agree bit for bit;
    # faces, edge positions and Gram matrices come from the public API
    ell = SquaredEdgeLengths(n, s)
    faces = list(itertools.combinations(range(n + 1), k + 1))
    grams = np.array(
        [gram_from_squared_lengths(face_squared_lengths(ell, f)) for f in faces]
    )
    inv = np.linalg.inv(grams)
    if kind is LOGPROD:
        weights = np.ones(len(faces))
    else:
        kfact_root = math.factorial(k) ** (1.0 / k)
        weights = (np.linalg.det(grams) ** (0.5 / k) / kfact_root) / k
    apex = [edge_index(n, f[0], v) for f in faces for v in f[1:]]
    pair = [edge_index(n, f[a], f[b]) for f in faces for a, b in edge_pairs(k) if a > 0]
    iu, ju = np.triu_indices(k, 1)
    grad = np.zeros(edge_count(n))
    np.add.at(grad, apex, (0.5 * inv.sum(axis=2) * weights[:, None]).ravel())
    np.add.at(grad, pair, (-0.5 * inv[:, iu, ju] * weights[:, None]).ravel())
    return grad


def test_gradient_scatter_matches_add_at_reference_bitwise():
    rng = np.random.default_rng(37)
    for n in range(2, 7):
        for k in range(1, n + 1):
            ws = extremal_module._workspace(n, k)
            for kind in (LOGPROD, SUMROOT):
                s = random_simplex(n, rng, total=float(edge_count(n))).s
                got = extremal_module._raw_gradient(ws, kind, s)
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


# ---------------------------------------------------------------------------
# constrained ascent


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


@pytest.mark.parametrize("total", [1e-12, 1e-6, 1.0, 6.0, 1e4, 1e12, 1e50])
def test_maximize_stopping_test_is_scale_free(total):
    # the gradient scales as 1/total while the objective scales as
    # log(total) or sqrt(total): a stopping test that mixes the two stops
    # short of the regular point at large totals, or before the first step
    for kind in (LOGPROD, SUMROOT):
        for seed in range(4):
            start = random_simplex(3, np.random.default_rng(seed), total=total)
            trace = maximize(3, total, Objective(kind, 2), start=start)
            assert trace.converged
            assert len(trace.iterates) > 1, (kind, seed)
            assert trace.regularity_deviation < 1e-9, (kind, seed)


@pytest.mark.parametrize("total", [1e200, 1e308])
def test_maximize_never_reports_convergence_off_the_regular_point(total):
    # the gradient is near 1/total, and its squares underflow to 0 here;
    # steps near total^2 overflow, so a run may fail (with numpy's overflow
    # warnings), but it never stops at once and calls that converged
    for kind in (LOGPROD, SUMROOT):
        start = random_simplex(2, np.random.default_rng(0), total=total)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                trace = maximize(2, total, Objective(kind, 1), start=start)
        except StepIntoInvalidRegion:
            continue
        assert trace.regularity_deviation < 1e-9, kind


def test_norm_is_exact_at_every_scale():
    # the power-of-two prescale leaves in-range norms bit for bit as numpy
    # computes them, and keeps the squares of tiny and huge vectors finite
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 30))
        assert extremal_module._norm(v) == np.linalg.norm(v)
    for e in (-1000, -600, 600, 1000):
        v = np.ldexp([3.0, -4.0], e)
        assert extremal_module._norm(v) == math.ldexp(5.0, e)
    assert extremal_module._norm(np.zeros(3)) == 0.0
    assert extremal_module._norm(np.array([1.7e308, 1.7e308])) == math.inf


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
    # every accepted iterate passed the optimizer's LAPACK eigh screen;
    # Jacobi must call it Valid and agree on its spectrum within the
    # probe oracle's bound: 1e-12 relative up to condition number 100,
    # growing in proportion beyond it (LAPACK's eigenvalue errors scale
    # with the largest eigenvalue)
    checked = 0
    for n, trace in _optimizer_runs(31):
        assert trace.converged
        for point, _, _ in trace.iterates:
            ell = SquaredEdgeLengths(n, point)
            assert validate(ell).verdict is Verdict.VALID
            gram = gram_from_squared_lengths(ell)
            ref = eigendecompose(gram).eigenvalues
            got = np.linalg.eigh(gram)[0]
            cond_factor = max(1.0, float(ref[-1] / ref[0]) / 100.0)
            bound = 1e-12 * np.maximum(1.0, np.abs(ref)) * cond_factor
            assert (np.abs(got - ref) <= bound).all(), (n, got, ref)
            checked += 1
    assert checked >= 1000


def test_maximize_makes_one_jacobi_call(jacobi_calls):
    # the start's verdict is the only Jacobi factorization of a run
    start = random_simplex(5, np.random.default_rng(5), total=10.0)
    jacobi_calls.clear()
    trace = maximize(5, 10.0, Objective(LOGPROD, 2), start=start)
    assert trace.converged
    assert len(trace.iterates) > 20
    assert jacobi_calls == [5]
    assert not hasattr(extremal_module, "eigendecompose")


# ---------------------------------------------------------------------------
# line-search rejections

# a flat 5-simplex start that pins the search against the eigenvalue floor
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
    # candidates plus the non-positive ones minus the accepted steps
    screens = []
    original = extremal_module._cholesky_factor

    def counting(gram):
        screens.append(gram.shape)
        return original(gram)

    monkeypatch.setattr(extremal_module, "_cholesky_factor", counting)
    with pytest.raises(MaxIterations) as info:
        maximize(5, 15.0, Objective(LOGPROD, 1), start=PINNED_START, max_iter=200)
    trace = info.value.trace
    rejections = trace.rejections
    assert set(rejections) == {
        "non_positive",
        "cholesky_screen",
        "face_collapse",
        "armijo",
        "value_drop",
        "no_contraction",
        "eigenvalue_floor",
    }
    accepted = len(trace.iterates)
    halvings = len(screens) + rejections["non_positive"] - accepted
    assert sum(rejections.values()) == halvings > 0
    # the stall is the eigenvalue floor, met while sliding along it
    assert rejections["eigenvalue_floor"] == max(rejections.values())
    assert trace.pinch_activations > 0


def test_pinned_start_stays_above_the_eigenvalue_floor():
    # the floor is half the smaller of the start's and the regular
    # point's smallest Gram eigenvalue; the pinned start presses against
    # it for most of its iterations.  Jacobi checks every iterate, with a
    # 1% allowance for the two solvers' disagreement near the floor
    n, total = 5, 15.0
    start = PINNED_START + (total - PINNED_START.sum()) / edge_count(n)

    def smallest(s):
        gram = gram_from_squared_lengths(SquaredEdgeLengths(n, s))
        return float(eigendecompose(gram).eigenvalues[0])

    floor = 0.5 * min(smallest(start), total / (n * (n + 1)))
    with pytest.raises(MaxIterations) as info:
        maximize(n, total, Objective(LOGPROD, 1), start=PINNED_START, max_iter=200)
    lowest = min(smallest(point) for point, _, _ in info.value.trace.iterates)
    assert lowest >= 0.99 * floor
    assert lowest < 1.01 * floor


def test_regular_start_records_no_rejections():
    trace = maximize(3, 6.0, Objective(SUMROOT, 2), start=regular_simplex(3, 6.0))
    assert trace.converged
    assert set(trace.rejections.values()) == {0}
    assert trace.pinch_activations == 0


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
