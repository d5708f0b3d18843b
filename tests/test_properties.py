"""Property tests: verdicts under exact rescaling and relabeling, the
agreement of validate, embed and volume, the dual Gram data, the
face-volume objectives, their gradients and their maximum under
relabeling, validate and the Cholesky kernel against independent
oracles, and a probe's whitened log det and its derivatives against the
per-sample formula, with the paper's concavity along every such segment.

The first three draw instances clear of the PD band, so that no verdict
depends on rounding: Valid ones from random points with condition number
at most 1e3, Invalid ones from a Gram matrix whose smallest eigenvalue is
at most -1e-3 times its largest, Degenerate ones from integer points in a
hyperplane, whose squared lengths and Gram matrix are exact.  The oracle
tests draw Gram matrices anywhere, band edges included.  The runs are
derandomized, so every run checks the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcone import (
    DEFAULT_PD_TOL,
    Objective,
    ObjectiveKind,
    SquaredEdgeLengths,
    Verdict,
    dual_gram,
    edge_index,
    edge_pairs,
    embed,
    gram_from_squared_lengths,
    maximize,
    null_direction,
    objective_gradient,
    objective_value,
    probe_log_concavity,
    probe_root_concavity,
    relabel,
    validate,
    volume,
)

from simplexcone.convexity import _segment_logdet
from simplexcone.linalg import _cholesky_factor

from oracles import cholesky_factor, jacobi_eigendecompose, mp_eigenvalues, verdict_of

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
EPS = np.finfo(float).eps
#: an oracle eigenvalue this close to a band edge, relative to the largest
#: one, has its verdict settled by mpmath rather than by Jacobi
EDGE = 1e-12


def _squared_lengths(points: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of ``points``, in edge order."""
    n = points.shape[1] - 1
    return np.array([float(np.sum((points[:, i] - points[:, j]) ** 2)) for i, j in edge_pairs(n)])


def _lengths_of_gram(g: np.ndarray) -> np.ndarray:
    """Squared lengths whose Gram matrix is ``g`` (polarization undone)."""
    d = np.diag(g)
    iu, ju = np.triu_indices(len(g), 1)
    return np.concatenate((d, d[iu] + d[ju] - 2.0 * g[iu, ju]))


def _valid(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        coords = rng.standard_normal((n, n))
        sing = np.linalg.svd(coords, compute_uv=False)
        if sing[0] <= 1e3 * sing[-1]:
            return _squared_lengths(np.column_stack([np.zeros(n), coords]))


def _invalid(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = rng.uniform(0.5, 2.0, n)
        w[0] = -rng.uniform(1e-3, 0.3) * w.max()
        s = _lengths_of_gram((q * w) @ q.T)
        if (s > 0.0).all():
            lam = np.linalg.eigvalsh(gram_from_squared_lengths(SquaredEdgeLengths(n, s)))
            if lam[0] <= -1e-3 * np.abs(lam).max():
                return s


def _degenerate(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        points = rng.integers(-5, 6, size=(n, n + 1)).astype(float)
        points[-1] = 0.0  # every vertex in the hyperplane x_n = 0
        s = _squared_lengths(points)
        if (s > 0.0).all():
            return s


_BUILDERS = {Verdict.VALID: _valid, Verdict.INVALID: _invalid, Verdict.DEGENERATE: _degenerate}


@st.composite
def instances(draw, verdicts=tuple(_BUILDERS)):
    """An instance and the verdict it was built to have."""
    verdict = draw(st.sampled_from(verdicts))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SquaredEdgeLengths(n, _BUILDERS[verdict](n, rng)), verdict


@PROPERTY
@given(instances(), st.data())
def test_verdict_and_scaled_eigenvalue_survive_power_of_two_rescaling(case, data):
    ell, verdict = case
    rep = validate(ell)
    assert rep.verdict is verdict
    # keep every length, Gram entry and eigenvalue normal, with room for
    # the cancellations of the polarization and the sums of n entries
    gram = gram_from_squared_lengths(ell)
    values = np.abs(np.concatenate((ell.s, gram.ravel(), [rep.smallest_gram_eigenvalue])))
    smallest = float(values[values > 0.0].min())
    lo = math.ceil(math.log2(TINY / smallest)) + 60
    hi = math.floor(math.log2(HUGE / (8.0 * (ell.n + 1) * float(values.max()))))
    e = data.draw(st.integers(lo, hi), label="exponent")
    scaled = validate(SquaredEdgeLengths(ell.n, np.ldexp(ell.s, e)))
    assert scaled.verdict is verdict
    assert scaled.smallest_gram_eigenvalue == math.ldexp(rep.smallest_gram_eigenvalue, e)


@PROPERTY
@given(instances(), st.data())
def test_verdict_survives_relabeling(case, data):
    ell, verdict = case
    perm = data.draw(st.permutations(range(ell.n + 1)), label="perm")
    assert validate(relabel(ell, perm)).verdict is verdict


@PROPERTY
@given(instances(verdicts=(Verdict.VALID,)))
def test_validate_embed_and_volume_agree(case):
    ell, _ = case
    assert validate(ell).verdict is Verdict.VALID
    emb = embed(ell)
    pts = emb.all_vertices()
    again = _squared_lengths(pts)
    assert np.abs(again - ell.s).max() <= 1e-12 * ell.s.max()
    expected = float(np.prod(np.diag(emb.vertices))) / math.factorial(ell.n)
    # the two determinants, eigenvalue product and Cholesky pivots, differ
    # by up to about n * cond(G) * eps
    w = np.linalg.eigvalsh(gram_from_squared_lengths(ell))
    rel_tol = 4.0 * ell.n * (w[-1] / w[0]) * np.finfo(float).eps
    assert math.isclose(volume(ell), expected, rel_tol=rel_tol)


@PROPERTY
@given(instances(verdicts=(Verdict.VALID,)), st.data())
def test_dual_gram_follows_a_relabeling(case, data):
    # new vertex i is old vertex p[i], so facet i of the relabeled simplex
    # is old facet p[i].  The two duals come from Gram matrices anchored at
    # different vertices; each is accurate to about eps * cond(G), so the
    # tolerance is 1e-12 (relative for the areas, absolute for the unit
    # cosines of gstar and the unit null vector) up to condition number
    # 100, growing in proportion beyond it
    ell, _ = case
    p = np.array(data.draw(st.permutations(range(ell.n + 1)), label="perm"))
    ref = dual_gram(ell)
    got = dual_gram(relabel(ell, p))
    lam = np.linalg.eigvalsh(gram_from_squared_lengths(ell))
    tol = 1e-12 * max(1.0, lam[-1] / lam[0] / 100.0)
    assert np.abs(got.gstar - ref.gstar[p][:, p]).max() <= tol
    assert np.abs(got.areas / ref.areas[p] - 1.0).max() <= tol
    assert np.abs(null_direction(got.gstar) - null_direction(ref.gstar)[p]).max() <= tol
    # the null vector is the facet areas, normalized
    assert np.abs(null_direction(ref.gstar) - ref.areas / np.linalg.norm(ref.areas)).max() <= tol


@st.composite
def relabeled_objectives(draw):
    """A Valid n-simplex, n = 2..5, whose vertex coordinates have condition
    number at most 1e3, an objective on its k-faces, and a permutation of
    its vertices."""
    n = draw(st.integers(2, 5), label="n")
    objective = Objective(
        draw(st.sampled_from(ObjectiveKind), label="kind"), draw(st.integers(1, n), label="k")
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    perm = draw(st.permutations(range(n + 1)), label="perm")
    return SquaredEdgeLengths(n, _valid(n, rng)), objective, perm


@PROPERTY
@given(relabeled_objectives())
def test_objective_and_gradient_follow_a_relabeling(case):
    # relabel puts the length of edge (perm[i], perm[j]) at edge (i, j), so
    # the gradient moves with it; each face is anchored at another vertex,
    # and its inverse Gram is accurate to about eps * cond(G) relative
    ell, objective, perm = case
    moved = relabel(ell, perm)
    f = objective_value(ell, objective)
    assert abs(objective_value(moved, objective) - f) <= 1e-12 * max(1.0, abs(f))
    source = [edge_index(ell.n, *sorted((perm[i], perm[j]))) for i, j in edge_pairs(ell.n)]
    g = objective_gradient(ell, objective)
    got = objective_gradient(moved, objective)
    lam = np.linalg.eigvalsh(gram_from_squared_lengths(ell))
    cond_factor = max(1.0, lam[-1] / lam[0] / 100.0)
    assert np.abs(got - g[source]).max() <= 1e-12 * np.abs(g).max() * cond_factor


@PROPERTY
@given(relabeled_objectives())
def test_maximize_from_a_relabeled_start_reaches_the_same_value(case):
    ell, objective, perm = case
    total = float(ell.s.sum())
    runs = [maximize(ell.n, total, objective, start=s) for s in (ell, relabel(ell, perm))]
    f, moved = (run.iterates[-1][1] for run in runs)
    assert abs(moved - f) <= 1e-12 * max(1.0, abs(f))


@st.composite
def gram_instances(draw):
    """Squared lengths of Q diag(w) Q^T for a random rotation Q, rescaled by
    2^e: n = 2..12, |e| <= 990, largest eigenvalue 1 before the rescale, the
    smallest one +-10^-c for c up to 13 (indefinite for the minus sign,
    then c >= 1) or within 1e-12 of a band edge +-pd_tol."""
    n = draw(st.integers(2, 12), label="n")
    sign = draw(st.sampled_from((1.0, -1.0)), label="sign")
    if draw(st.booleans(), label="at a band edge"):
        lam0 = sign * DEFAULT_PD_TOL + draw(st.floats(-EDGE, EDGE), label="offset")
    else:
        # at n = 2 the eigenvalues -1 and 1 leave no positive length
        lam0 = sign * 10.0 ** -draw(st.floats(0.0 if sign > 0 else 1.0, 13.0), label="c")
    e = draw(st.integers(-990, 990), label="exponent")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    while True:
        w = 10.0 ** rng.uniform(math.log10(abs(lam0)), 0.0, n)
        w[0], w[-1] = lam0, 1.0
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = _lengths_of_gram((q * w) @ q.T)
        if (s > 0.0).all():
            return SquaredEdgeLengths(n, np.ldexp(s, e))


@PROPERTY
@given(gram_instances())
def test_verdict_matches_the_independent_oracles(ell):
    gram = gram_from_squared_lengths(ell)
    w = jacobi_eigendecompose(gram).eigenvalues
    top = float(np.abs(w).max())
    band = DEFAULT_PD_TOL * top
    allowed = {verdict_of(w[0], top)}
    if min(abs(w[0] - band), abs(w[0] + band)) <= EDGE * top:
        # 50-digit mpmath decides.  LAPACK's eigenvalues are exact for a
        # matrix within a few n eps |lambda_max| of G, so a smallest
        # eigenvalue that close to the edge may take either side of it
        lam = mp_eigenvalues(gram)
        top = max(abs(lam[0]), abs(lam[-1]))
        slack = 8 * ell.n * EPS * top
        allowed = {verdict_of(lam[0] - slack, top), verdict_of(lam[0] + slack, top)}
    assert validate(ell).verdict in allowed


@st.composite
def symmetric_matrices(draw):
    """Q diag(w) Q^T for a random rotation Q, rescaled by 2^e, and its
    condition number: n = 1..12, |e| <= 990, largest eigenvalue 1 before the
    rescale (n > 1), the smallest +-10^-c for c up to 16 (indefinite for
    the minus sign), so that some pivots are rounding noise."""
    n = draw(st.integers(1, 12), label="n")
    lam0 = draw(st.sampled_from((1.0, -1.0)), label="sign") * 10.0 ** -draw(
        st.floats(0.0, 16.0), label="c"
    )
    e = draw(st.integers(-990, 990), label="exponent")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    w = 10.0 ** rng.uniform(math.log10(abs(lam0)), 0.0, n)
    w[-1], w[0] = 1.0, lam0
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * w) @ q.T
    return np.ldexp((a + a.T) / 2.0, e), float(np.abs(w).max() / np.abs(w).min())


@PROPERTY
@given(symmetric_matrices())
def test_cholesky_factor_matches_the_column_loop(case):
    a, cond = case
    n = len(a)
    low, ok, bad = _cholesky_factor(a)
    ref, ref_ok, ref_bad = cholesky_factor(a)
    # the loop's pivots, up to the one it failed on; one within rounding
    # of zero may take either sign in LAPACK's order of operations
    pivots = [a[j, j] - ref[j, :j] @ ref[j, :j] for j in range(n if ref_ok else ref_bad + 1)]
    if any(abs(d) <= 8 * n * EPS * abs(a[j, j]) for j, d in enumerate(pivots)):
        return
    assert (ok, bad) == (ref_ok, ref_bad)
    if ok:
        # the two orders of summation part by about cond(A) eps
        bound = 1e-12 * max(1.0, cond / 100.0) * np.abs(ref).max()
        assert np.abs(low - ref).max() <= bound


@st.composite
def valid_segments(draw):
    """Two Valid n-simplices, n = 2..8, whose Gram matrices are Q diag(w) Q^T
    for a random rotation Q, largest eigenvalue 1 and the smallest 10^-c, c
    up to 9.7 (twice the PD band) or within a factor 10 of that edge, the
    second one rescaled by 2^r, |r| <= 70; and an exponent j, |j| <= 200,
    by which the test rescales both by 4^j."""
    n = draw(st.integers(2, 8), label="n")
    r = draw(st.integers(-70, 70), label="r")
    j = draw(st.integers(-200, 200), label="j")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    ends = []
    for _ in range(2):
        near_band = draw(st.booleans(), label="near the band")
        c = draw(st.floats(8.7, 9.7) if near_band else st.floats(0.0, 9.7), label="c")
        while True:
            w = 10.0 ** rng.uniform(-c, 0.0, n)
            w[0], w[-1] = 10.0**-c, 1.0
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s = _lengths_of_gram((q * w) @ q.T)
            if (s > 0.0).all():
                ends.append(SquaredEdgeLengths(n, s))
                break
    return ends[0], SquaredEdgeLengths(n, np.ldexp(ends[1].s, r)), j


@PROPERTY
@given(valid_segments())
def test_whitened_derivatives_match_the_per_sample_formula(case):
    first, second, j = case
    n, samples = first.n, 33
    full = tuple(range(n + 1))
    scaled = [SquaredEdgeLengths(n, np.ldexp(e.s, 2 * j)) for e in (first, second)]
    _, logdet, d1, d2 = _segment_logdet(*scaled, full, samples, DEFAULT_PD_TOL)
    # an independent reference: every sample's own eigendecomposition
    ts = np.linspace(0.0, 1.0, samples)
    rows = (1.0 - ts)[:, None] * scaled[0].s + ts[:, None] * scaled[1].s
    w, basis = np.linalg.eigh([gram_from_squared_lengths(SquaredEdgeLengths(n, r)) for r in rows])
    delta = gram_from_squared_lengths(scaled[1]) - gram_from_squared_lengths(scaled[0])
    # the per-sample formula: with R = basis^T delta basis, the derivatives
    # are sum_i R_ii / w_i and -sum_ij R_ij^2 / (w_i w_j)
    r = np.swapaxes(basis, -1, -2) @ delta @ basis
    d1_ref = (np.diagonal(r, axis1=-2, axis2=-1) / w).sum(axis=-1)
    d2_ref = -(r * r / (w[:, :, None] * w[:, None, :])).sum(axis=(-2, -1))
    # both formulas are accurate to about eps * cond(G) relative
    cond_factor = np.maximum(1.0, w[:, -1] / w[:, 0] / 100.0)
    references = (np.log(w).sum(axis=1), d1_ref, d2_ref)
    for got, ref in zip((logdet, d1, d2), references):
        assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)) * cond_factor).all()
    # whitening removes the scale exactly: the same bits at every 4^j
    _, _, u1, u2 = _segment_logdet(first, second, full, samples, DEFAULT_PD_TOL)
    assert np.array_equal(d1, u1) and np.array_equal(d2, u2)
    log_report = probe_log_concavity(*scaled)
    assert (
        log_report.max_analytic_second_derivative
        == probe_log_concavity(first, second).max_analytic_second_derivative
    )
    # the paper's concavity: log volume and volume^(1/n) along the segment
    assert log_report.passed
    assert probe_root_concavity(*scaled).passed
