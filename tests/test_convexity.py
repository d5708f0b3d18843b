"""Tests for cone combinations, concavity probes and the two counterexample families."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import simplexcone.convexity as convexity_module
from simplexcone import (
    DEFAULT_PD_TOL,
    NotRealizable,
    SquaredEdgeLengths,
    Verdict,
    cone_combine,
    edge_count,
    edge_pairs,
    face_squared_lengths,
    frankel_instance,
    frankel_length_threshold,
    gram_from_squared_lengths,
    nontri_instance,
    nontri_threshold,
    probe_log_concavity,
    probe_root_concavity,
    random_simplex,
    regular_simplex,
    validate,
)
from simplexcone.convexity import (
    _BISECT_DEPTH,
    _bisect_validity,
    _discrete_margins,
    _finish_report,
    _segment_logdet,
    _nontri_rows,
    _whitened_derivatives,
)
from simplexcone.linalg import NotPositiveDefinite

from oracles import jacobi_eigendecompose, mp_eigenvalues, verdict_of

# closed-form transition for the equilateral-base family: apex length 1/2 + eps
# stops being realizable below eps = 1/sqrt(3) - 1/2
NONTRI_EXACT = 1.0 / math.sqrt(3.0) - 0.5
# closed-form transition for the length-sum family
FRANKEL_EXACT = math.sqrt(8.0 - 4.0 * math.sqrt(2.0)) - math.sqrt(2.0)
EPS = np.finfo(float).eps


def right_corner(n):
    s = np.empty(edge_count(n))
    for pos, (i, j) in enumerate(edge_pairs(n)):
        s[pos] = 1.0 if i == 0 else 2.0
    return SquaredEdgeLengths(n, s)


# ---------------------------------------------------------------------------
# cone combinations


def test_cone_combine_is_pointwise_linear():
    a = SquaredEdgeLengths(2, np.array([1.0, 2.0, 2.0]))
    b = SquaredEdgeLengths(2, np.array([2.0, 1.0, 2.0]))
    out = cone_combine(a, b, 0.5, 2.0)
    assert_allclose(out.s, 0.5 * a.s + 2.0 * b.s, atol=0.0)
    doubled = cone_combine(a, a, 1.0, 1.0)
    assert_allclose(doubled.s, 2.0 * a.s, atol=0.0)


def test_cone_combine_errors():
    a = SquaredEdgeLengths(2, np.ones(3))
    b = SquaredEdgeLengths(3, np.ones(6))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cone_combine(a, b, 1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        cone_combine(a, a, -1.0, 1.0)
    with pytest.raises(ValueError, match="not both zero"):
        cone_combine(a, a, 0.0, 0.0)


def test_cone_combine_preserves_validity():
    # the set of realizable squared-length vectors is a convex cone
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for _ in range(10):
            a = random_simplex(n, rng)
            b = random_simplex(n, rng)
            t1, t2 = rng.uniform(0.1, 3.0, 2)
            out = cone_combine(a, b, float(t1), float(t2))
            assert validate(out).verdict is Verdict.VALID


def test_cone_combine_midpoint_of_named_instances():
    mid = cone_combine(regular_simplex(3, 6.0), right_corner(3), 0.5, 0.5)
    assert validate(mid).verdict is Verdict.VALID


def test_cone_combine_gram_additivity():
    rng = np.random.default_rng(7)
    for n in range(2, 6):
        a = random_simplex(n, rng)
        b = random_simplex(n, rng)
        t1, t2 = 0.7, 2.3
        lhs = gram_from_squared_lengths(cone_combine(a, b, t1, t2))
        rhs = t1 * gram_from_squared_lengths(a) + t2 * gram_from_squared_lengths(b)
        assert_allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# triangle-inequality non-sufficiency family


def test_nontri_instance_small_epsilon():
    inst = nontri_instance(0.01)
    assert inst.label == "triangle-inequalities-not-sufficient"
    assert inst.epsilon == 0.01
    ell, report = inst.pieces["instance"]
    assert_allclose(ell.s, [0.51**2] * 3 + [1.0] * 3, atol=0.0)
    assert report.verdict is Verdict.INVALID
    assert report.triangle_inequalities_hold


def test_nontri_instance_grid_below_threshold():
    for eps in (0.01, 0.03, 0.05, 0.07):
        _, report = nontri_instance(eps).pieces["instance"]
        assert report.verdict is Verdict.INVALID, eps
        assert report.triangle_inequalities_hold, eps


def test_nontri_instance_above_threshold_is_valid():
    for eps in (0.09, 0.2):
        _, report = nontri_instance(eps).pieces["instance"]
        assert report.verdict is Verdict.VALID, eps


def test_nontri_instance_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError, match="positive"):
        nontri_instance(0.0)
    with pytest.raises(ValueError, match="positive"):
        nontri_instance(-0.1)


def test_nontri_eigenvalue_crosses_zero_once():
    eps_grid = np.linspace(0.005, 0.195, 39)
    lam = [
        nontri_instance(float(e)).pieces["instance"][1].smallest_gram_eigenvalue
        for e in eps_grid
    ]
    signs = np.sign(lam)
    flips = np.flatnonzero(np.diff(signs) != 0.0)
    assert flips.size == 1
    assert lam[0] < 0.0 < lam[-1]


def test_nontri_threshold_matches_closed_form():
    assert nontri_threshold() == pytest.approx(NONTRI_EXACT, abs=1e-6)
    # frozen regression value for the default bisection settings
    assert nontri_threshold() == pytest.approx(0.07735026629120112, abs=1e-12)


# ---------------------------------------------------------------------------
# length-sum non-convexity family


def test_frankel_instance_piece_verdicts():
    inst = frankel_instance(0.01)
    assert inst.label == "lengths-not-convex"
    assert inst.pieces["A"][1].verdict is Verdict.VALID
    assert inst.pieces["B"][1].verdict is Verdict.VALID
    assert inst.pieces["C_len"][1].verdict is Verdict.INVALID
    assert inst.pieces["squared_sum"][1].verdict is Verdict.VALID


def test_frankel_instance_piece_construction():
    inst = frankel_instance(0.01)
    a = inst.pieces["A"][0]
    b = inst.pieces["B"][0]
    c = inst.pieces["C_len"][0]
    # C's entries are squared sums of the two length vectors
    assert_allclose(c.s, (np.sqrt(a.s) + np.sqrt(b.s)) ** 2, rtol=1e-13)
    mid = inst.pieces["squared_sum"][0]
    assert_allclose(mid.s, a.s + b.s, rtol=1e-13)


def test_frankel_instance_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError, match="positive"):
        frankel_instance(0.0)


def test_frankel_threshold_matches_closed_form():
    assert frankel_length_threshold() == pytest.approx(FRANKEL_EXACT, abs=1e-6)
    assert frankel_length_threshold() == pytest.approx(
        0.11652017050571739, abs=1e-12
    )


@pytest.mark.parametrize(
    "threshold, piece",
    [
        (nontri_threshold, lambda eps: nontri_instance(eps).pieces["instance"][0]),
        (frankel_length_threshold, lambda eps: frankel_instance(eps).pieces["C_len"][0]),
    ],
)
def test_bisected_thresholds_agree_with_mpmath(threshold, piece):
    # 1e-7 to either side of the flip, the 50-digit smallest Gram eigenvalue
    # lies on the side of the relative band that validate reports
    pytest.importorskip("mpmath")
    flip = threshold()
    for eps, side in ((flip - 1e-7, Verdict.INVALID), (flip + 1e-7, Verdict.VALID)):
        ell = piece(eps)
        lam = mp_eigenvalues(gram_from_squared_lengths(ell))
        assert verdict_of(lam[0], max(abs(lam[0]), abs(lam[-1]))) is side, eps
        assert validate(ell).verdict is side, eps


def _sequential_bisection(piece, hi, pd_tol):
    """The thresholds' bisection one midpoint at a time, through validate."""
    lo = 1e-4
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if validate(piece(mid), pd_tol=pd_tol).verdict is Verdict.VALID:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("pd_tol", [0.0, 1e-12, 1e-10, 1e-6])
def test_stacked_bisections_equal_the_sequential_one(pd_tol):
    # the midpoint tree walks the steps a one-at-a-time bisection takes
    nontri = _sequential_bisection(
        lambda eps: nontri_instance(eps).pieces["instance"][0], 0.2, pd_tol
    )
    frankel = _sequential_bisection(
        lambda eps: frankel_instance(eps).pieces["C_len"][0], 1.0, pd_tol
    )
    assert nontri_threshold(pd_tol=pd_tol) == nontri
    assert frankel_length_threshold(pd_tol=pd_tol) == frankel


def test_bisection_judges_its_midpoints_in_a_few_stacked_calls(monkeypatch):
    # 25 (apex) and 27 (length sum) steps halve the bracket to 1e-8, each
    # round takes _BISECT_DEPTH of them, and the bracket takes one call more
    calls = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for threshold in (nontri_threshold, frankel_length_threshold):
        calls.clear()
        threshold()
        assert 1 < len(calls) <= math.ceil(27 / _BISECT_DEPTH) + 1, calls
        assert calls[0] == (2, 3, 3)


def test_bisection_refuses_a_bracket_without_the_flip():
    def regular(eps):  # Valid at every eps
        return np.ones(np.shape(eps) + (6,))

    upper = r"^upper endpoint 0\.05 is not Valid; bracket the threshold$"
    with pytest.raises(ValueError, match=upper):
        _bisect_validity(_nontri_rows, 1e-10, 0.05)
    lower = r"^lower endpoint 0\.0001 is already Valid; bracket the threshold$"
    with pytest.raises(ValueError, match=lower):
        _bisect_validity(regular, 1e-10, 0.2)


# ---------------------------------------------------------------------------
# concavity probes


def test_probe_log_concavity_flat_segment():
    t = SquaredEdgeLengths(2, np.ones(3))
    rep = probe_log_concavity(t, t)
    assert rep.samples == 33
    assert abs(rep.worst_midpoint_defect) <= 1e-12
    assert abs(rep.worst_second_difference) <= 1e-12
    assert rep.max_analytic_second_derivative <= 1e-12
    assert rep.passed


def test_probe_log_concavity_named_segment():
    rep = probe_log_concavity(regular_simplex(3, 6.0), right_corner(3), samples=101)
    assert rep.samples == 101
    assert rep.passed
    assert rep.worst_midpoint_defect >= -1e-10
    assert rep.max_analytic_second_derivative <= 1e-12


def test_probe_log_concavity_on_faces():
    first = regular_simplex(3, 6.0)
    second = SquaredEdgeLengths(3, np.arange(1.0, 7.0) / 3.5)
    for face in [(0, 1, 2), (1, 2, 3), (0, 3)]:
        rep = probe_log_concavity(first, second, face=face)
        assert rep.passed, face
        assert rep.max_analytic_second_derivative <= 1e-12


def test_probe_root_concavity_scaling_segment():
    # along s -> t*s the root-volume is proportional to sqrt(t), strictly concave
    a = SquaredEdgeLengths(2, np.ones(3))
    b = SquaredEdgeLengths(2, 4.0 * np.ones(3))
    rep = probe_root_concavity(a, b)
    assert rep.passed
    assert rep.worst_midpoint_defect > 0.0
    assert rep.max_analytic_second_derivative < 0.0


def test_probe_between_endpoints_far_apart_in_scale():
    # along s -> ((1 - t) + t c) s, log volume has second derivative
    # -(3/2) (c - 1)^2 / ((1 - t) + t c)^2, largest at t = 1; the sample at
    # t = 0 is 1e17 times smaller than the segment's midpoint
    first = random_simplex(3, np.random.default_rng(1))
    for c in (1e17, 1e100):
        second = SquaredEdgeLengths(3, c * first.s)
        rep = probe_log_concavity(first, second)
        assert rep.passed
        assert rep.max_analytic_second_derivative == pytest.approx(-1.5 * (1.0 - 1.0 / c) ** 2)
        assert probe_root_concavity(first, second).passed


def test_whitening_refuses_segments_singular_to_working_precision():
    ts = np.linspace(0.0, 1.0, 5)
    # a singular and an indefinite midpoint, their unit-scale spectra exact:
    # the message names the smallest eigenvalue, and no pivot is involved
    for g, smallest in ((np.diag([4.0, 0.0]), "0"), (np.diag([1.0, -1.0]), "-0.5")):
        with pytest.raises(NotPositiveDefinite, match=f"eigenvalue {smallest} is") as info:
            _whitened_derivatives(g, g, ts)
        assert info.value.pivot == -1
    # the midpoint of 2I and 0 is PD, but the second endpoint is singular
    with pytest.raises(NotPositiveDefinite, match="singular to working precision"):
        _whitened_derivatives(2.0 * np.eye(2), np.zeros((2, 2)), ts)


#: Valid at tolerance 0 only by rounding: integer points in a hyperplane,
#: whose smallest Gram eigenvalue reads about 2e-15 instead of 0
ROUNDING_VALID = SquaredEdgeLengths(
    5, np.array([62, 14, 38, 14, 33, 62, 38, 74, 21, 14, 8, 25, 18, 17, 29], dtype=float)
)


def test_probe_at_zero_tolerance_agrees_with_validate():
    # the endpoints' verdict certifies the segment, so a probe between
    # instances validate calls Valid passes, however thin their margin
    once = ROUNDING_VALID
    twice = SquaredEdgeLengths(5, 2.0 * once.s)
    for first, second in ((once, twice), (twice, once)):
        assert validate(first, pd_tol=0.0).verdict is Verdict.VALID
        assert probe_log_concavity(first, second, pd_tol=0.0).passed
        assert probe_log_concavity(first, second, (0, 1, 2), pd_tol=0.0).passed
        assert probe_root_concavity(first, second, pd_tol=0.0).passed


def test_probe_errors():
    a = SquaredEdgeLengths(2, np.ones(3))
    b = SquaredEdgeLengths(3, np.ones(6))
    with pytest.raises(ValueError, match="dimension mismatch"):
        probe_log_concavity(a, b)
    with pytest.raises(ValueError, match="at least 3"):
        probe_log_concavity(a, a, samples=2)
    # one stacked verdict judges both endpoints; the first that fails is named
    bad = SquaredEdgeLengths(2, np.array([1.0, 1.0, 4.4]))
    flat = SquaredEdgeLengths(2, np.array([1.0, 1.0, 4.0]))
    for first, second, name in ((bad, a, "first"), (a, bad, "second"), (bad, flat, "first"),
                                (flat, bad, "first")):
        with pytest.raises(NotRealizable, match=f"^{name} endpoint is not Valid$"):
            probe_log_concavity(first, second)


def test_probe_random_pairs_pass():
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        for _ in range(5):
            first = random_simplex(n, rng)
            second = random_simplex(n, rng)
            log_rep = probe_log_concavity(first, second)
            root_rep = probe_root_concavity(first, second)
            assert log_rep.passed
            assert log_rep.max_analytic_second_derivative <= 1e-12
            assert root_rep.passed


# ---------------------------------------------------------------------------
# the batched probe against the Jacobi oracle


def _facets_and_full(n):
    full = tuple(range(n + 1))
    return [full] + [tuple(v for v in full if v != d) for d in full]


def _jacobi_reference(first, second, face, ts):
    """Per sample: log det and its first and second derivative along the
    segment from the test-side Jacobi solver, and the tolerance factor."""
    fa = face_squared_lengths(first, face)
    fb = face_squared_lengths(second, face)
    delta = gram_from_squared_lengths(fb) - gram_from_squared_lengths(fa)
    rows = []
    for t in ts:
        gram = gram_from_squared_lengths(cone_combine(fa, fb, 1.0 - float(t), float(t)))
        dec = jacobi_eigendecompose(gram)
        w = dec.eigenvalues
        # with R = V^T delta V: d/dt log det = trace(G^-1 delta) = sum R_ii / w_i
        # and d2/dt2 log det = -trace((G^-1 delta)^2) = -sum R_ij^2 / (w_i w_j)
        r = dec.basis.T @ delta @ dec.basis
        # LAPACK's eigenvalue errors scale with the largest eigenvalue, so
        # the two solvers agree to about eps * cond(G): the bound is 1e-12
        # up to cond 100 and grows in proportion beyond it
        cond_factor = max(1.0, float(w[-1] / w[0]) / 100.0)
        rows.append(
            (
                float(np.log(w).sum()),
                float((np.diag(r) / w).sum()),
                -float((r * r / np.outer(w, w)).sum()),
                cond_factor,
            )
        )
    return np.array(rows).T


def _close(got, ref, cond_factor):
    return np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)) * cond_factor


def _check_reports(first, second, face, reference):
    """The probes' margins and derivatives, recomputed from Jacobi samples."""
    n, k = first.n, len(face) - 1
    ref_ld, ref_d1, ref_d2, cond_factor = reference
    cases = [
        (
            probe_log_concavity(first, second, face),
            0.5 * ref_ld - math.log(math.factorial(k)),
            0.5 * ref_d2,
        )
    ]
    if k == n:
        root = np.exp((0.5 * ref_ld - math.log(math.factorial(n))) / n)
        du, ddu = 0.5 * ref_d1, 0.5 * ref_d2
        cases.append(
            (probe_root_concavity(first, second), root, root * (ddu / n + (du / n) ** 2))
        )
    for report, values, analytic in cases:
        expected = _finish_report(report.samples, values, analytic)
        # a margin combines three samples, each within the per-sample bound
        margin_tol = 4e-12 * max(1.0, float(np.abs(values).max())) * cond_factor.max()
        for field in ("worst_midpoint_defect", "worst_second_difference"):
            assert abs(getattr(report, field) - getattr(expected, field)) <= margin_tol
        assert _close(
            report.max_analytic_second_derivative,
            expected.max_analytic_second_derivative,
            cond_factor.max(),
        )
        assert report.passed and expected.passed


@pytest.mark.parametrize("samples, stride", [(33, 1), (1001, 100)])
def test_batched_probe_matches_jacobi_oracle(samples, stride):
    # every sample at 33, every 100th at 1001 (Jacobi costs ~1 ms at n=8)
    rng = np.random.default_rng(20261018 + samples)
    ts = np.linspace(0.0, 1.0, samples)[::stride]
    for n in range(2, 9):
        first = random_simplex(n, rng)
        second = random_simplex(n, rng)
        for face in _facets_and_full(n):
            k, logdet, d1, d2 = _segment_logdet(first, second, face, samples, DEFAULT_PD_TOL)
            assert k == len(face) - 1
            reference = _jacobi_reference(first, second, face, ts)
            ref_ld, ref_d1, ref_d2, cond_factor = reference
            for got, ref in ((logdet, ref_ld), (d1, ref_d1), (d2, ref_d2)):
                assert _close(got[::stride], ref, cond_factor).all(), (n, face)
            if stride == 1:
                _check_reports(first, second, face, reference)


def _brute_force_margins(values):
    m = values.size
    worst_mid = math.inf
    for i in range(m):
        for j in range(i + 2, m, 2):
            worst_mid = min(worst_mid, float(values[(i + j) // 2] - 0.5 * (values[i] + values[j])))
    worst_sd = min(
        float(2.0 * values[i] - values[i - 1] - values[i + 1]) for i in range(1, m - 1)
    )
    return worst_mid, worst_sd


# up to 65 samples the noisy profile is exactly concave and takes the first
# pass only; from 127 on it is not, and every half-gap pass runs
@pytest.mark.parametrize("m", list(range(3, 60)) + [64, 65, 127, 128, 256, 257, 363, 513, 1001])
def test_discrete_margins_equal_brute_force(m):
    rng = np.random.default_rng(m)
    # a concave profile plus noise, so the extremes fall anywhere
    x = np.linspace(-1.0, 1.0, m)
    values = -3.0 * x * x + 1e-3 * rng.standard_normal(m)
    assert _discrete_margins(values) == _brute_force_margins(values)


def _ulp_bump(m, slope, bump, scale):
    """An exactly linear sequence in [1, 2), its sample ``bump`` raised by
    one ulp, all scaled by 2^scale.  The slope in ulps is odd, and the
    sample after the bump has an even last bit.  So at each neighbor of the
    bump the pair sum is twice the neighbor plus half an ulp of the sum,
    which rounds down to it (s == 2c, err > 0); two samples further out,
    the pair through the bump rounds up, and the nearest pair there is
    not the widest."""
    q = 2**40 + (slope * (bump + 1)) % 2 + slope * np.arange(m)
    values = 1.0 + q * EPS
    values[bump] += EPS
    return np.ldexp(values, scale)


#: sequences that are exactly concave, so _discrete_margins takes its O(m) path
_CONCAVE_KINDS = ("quadratic", "log", "linear")


@st.composite
def _margin_values(draw):
    """A kind and a sequence of that kind, at 3..300 samples or, about one
    draw in sixteen, at 1001, where the brute-force reference is slow."""
    m = draw(st.integers(3, 320).map(lambda m: 1001 if m > 300 else m), label="m")
    kind = draw(st.sampled_from(_CONCAVE_KINDS + ("bump", "random")), label="kind")
    x = np.linspace(-1.0, 1.0, m)
    if kind == "quadratic":
        values = -draw(st.floats(0.01, 100.0)) * x * x + draw(st.floats(-100.0, 100.0))
    elif kind == "log":
        values = np.log(draw(st.floats(1.5, 10.0)) + x)
    elif kind == "linear":  # every pair sum equals twice its midpoint: s == 2c, err == 0
        slope, offset = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
        values = (slope * np.arange(m) + offset).astype(float)
    elif kind == "bump":
        slope = 2 * draw(st.integers(-500, 500)) + 1
        values = _ulp_bump(m, slope, draw(st.integers(0, m - 1)), draw(st.integers(-30, 30)))
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(m)
    return kind, values


#: entries of one block of midpoint defects in _blocked_margins
_MARGIN_BLOCK = 1 << 16


def _blocked_margins(values):
    # the reference: the nearest pair sums when the values are exactly
    # concave with no -0.0, else every pair compared in blocks of about
    # _MARGIN_BLOCK sums, one row per half-gap of a strided view of the
    # values between -inf pads, with a running column max
    m = values.size
    widest = np.full(m, -np.inf)
    if convexity_module._exactly_concave(values) and not np.signbit(values[values == 0.0]).any():
        widest[1:-1] = values[:-2] + values[2:]
    else:
        top = (m - 1) // 2
        pad = np.full(top, -np.inf)
        padded = np.concatenate((pad, values, pad))
        shifted = np.lib.stride_tricks.as_strided(
            padded, (2 * top + 1, m), (padded.itemsize, padded.itemsize), writeable=False
        )
        step = max(1, _MARGIN_BLOCK // m)
        block = np.empty(step * m)
        for lo in range(1, top + 1, step):
            hi = min(lo + step, top + 1)
            cols = slice(lo, m - lo)
            left = shifted[top - hi + 1 : top - lo + 1, cols][::-1]
            right = shifted[top + lo : top + hi, cols]
            sums = block[: left.size].reshape(left.shape)
            np.add(left, right, out=sums)
            np.maximum(widest[cols], sums.max(axis=0), out=widest[cols])
    second = 2.0 * values[1:-1] - values[:-2] - values[2:]
    return float((values - 0.5 * widest).min()), float(second.min())


def _same_bits(got, want):
    # equal, and equal in the sign of every zero
    return got == want and np.signbit(got).tolist() == np.signbit(want).tolist()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_margin_values())
def test_both_margin_paths_equal_brute_force(case):
    kind, values = case
    if kind != "random":
        assert convexity_module._exactly_concave(values) == (kind in _CONCAVE_KINDS)
    assert _discrete_margins(values) == _brute_force_margins(values)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_margin_values())
def test_margins_give_the_blocked_scans_bits(case):
    values = case[1]
    assert _same_bits(_discrete_margins(values), _blocked_margins(values))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 33, 34, 1001])
def test_convex_samples_take_their_worst_defect_from_the_widest_pair(m):
    # the pair sums grow with the gap, so the last pass decides each margin
    values = np.linspace(-1.0, 1.0, m) ** 2
    worst_mid = _discrete_margins(values)[0]
    assert worst_mid == _brute_force_margins(values)[0] == _blocked_margins(values)[0]
    top = (m - 1) // 2  # the widest half-gap
    widest = [values[j] - 0.5 * (values[j - top] + values[j + top]) for j in range(top, m - top)]
    assert worst_mid == min(widest)


def test_concavity_check_settles_ties_by_the_rounding_error():
    check = convexity_module._exactly_concave
    # s == 2c with err == 0: exactly linear
    assert check(np.array([-7.0, -4.0, -1.0, 2.0, 5.0]))
    # 1 + (1 + eps) rounds to 2 == 2 * 1, but its error eps is positive
    assert not check(np.array([1.0, 1.0, 1.0 + EPS]))
    # 1 + (1 - eps/2) rounds to 2 as well, with error -eps/2
    assert check(np.array([1.0, 1.0, 1.0 - EPS / 2]))
    # an overflowing pair sum or a NaN reads False
    assert not check(np.array([1e308, 1.7e308, 1.7e308]))
    assert not check(np.array([np.nan, 1.0, 1.0]))
    # the rounded sums alone pass the bump, yet the widest pair is not the
    # nearest at samples 4 and 8: a tie rule on s alone would report a
    # worst midpoint defect of 0
    values = _ulp_bump(13, 3, 6, 0)
    assert (values[:-2] + values[2:] <= 2.0 * values[1:-1]).all()
    assert not check(values)
    assert _discrete_margins(values) == _brute_force_margins(values) == (-EPS, -EPS)


def test_margins_keep_the_scans_sign_of_zero():
    # two -0.0 samples sum to -0.0, which ties a +0.0 pair sum; the passes
    # pick the sign, so values with a -0.0 take them all and keep its bits
    for signs in itertools.product((0.0, -0.0), repeat=9):
        values = np.array(signs)
        assert _same_bits(_discrete_margins(values), _blocked_margins(values)), signs
    # the scan takes 8 blocks at 1001 samples and 137 at 4097; zeros of
    # either sign alone, then among random values
    rng = np.random.default_rng(67)
    for m in (1001, 4097):
        for spread in (0.0, 0.0, 1.0, 1.0):
            zeros = np.where(rng.random(m) < 0.5, 0.0, -0.0)
            values = np.where(rng.random(m) < 0.5, zeros, spread * rng.standard_normal(m))
            assert _same_bits(_discrete_margins(values), _blocked_margins(values)), m


def test_facet_probe_makes_no_per_sample_eigendecompose_calls(eigendecompose_calls):
    # both endpoints are judged in one stacked verdict, and the samples take
    # no factorization of their own: no single-matrix eigendecompose at all
    assert not hasattr(convexity_module, "eigendecompose")
    rng = np.random.default_rng(8)
    first = random_simplex(8, rng)
    second = random_simplex(8, rng)
    eigendecompose_calls.clear()
    report = probe_log_concavity(first, second, face=range(8), samples=1001)
    assert report.passed
    assert eigendecompose_calls == []


@pytest.mark.parametrize("samples", [33, 1001])
def test_probe_derivatives_take_one_small_eigendecomposition(monkeypatch, samples):
    # the endpoints go through one stacked verdict, and the values and both
    # derivatives at every sample through one k x k whitening: O(k^3 +
    # samples k), and no array with a samples axis reaches LAPACK
    rng = np.random.default_rng(8)
    first = random_simplex(8, rng)
    second = random_simplex(8, rng)
    shapes = {"eigh": [], "eigvalsh": []}
    for name, calls in shapes.items():
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, _calls=calls, **kwargs):
            _calls.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    report = probe_log_concavity(first, second, face=range(8), samples=samples)
    assert report.passed
    assert shapes["eigh"] == [(2, 8, 8), (7, 7)]
    assert shapes["eigvalsh"] == [(7, 7)]
