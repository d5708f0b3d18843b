"""Property tests: verdicts under exact rescaling up to the largest float
and relabeling, the volume's power of two, the magnitude that a refused
volume or facet area names, the agreement of validate,
embed and volume, the dual Gram data, the face-volume objectives, their
gradients and their maximum under relabeling, every public linalg kernel's exact
scale-back or named refusal up to the largest float, validate and the Cholesky kernel
against independent oracles, the Cholesky certificate of Valid against validate's
eigensolver and mpmath, and a probe's whitened log det and its derivatives
against the per-sample formula, with the paper's concavity along every
such segment.  Two rest on the paper's exact answers: the dual Gram of a
thin Valid simplex has the areas as its one null direction, and a probe
passes at every scale.

The first four draw instances clear of the PD band, so that no verdict
depends on rounding: Valid ones from random points with condition number
at most 1e3, Invalid ones from a Gram matrix whose smallest eigenvalue is
at most -1e-3 times its largest, Degenerate ones from integer points in a
hyperplane, whose squared lengths and Gram matrix are exact.  The oracle
tests draw Gram matrices anywhere, band edges included.  The runs are
derandomized, so every run checks the same examples.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from simplexcone.simplex import _certified_valid, _valid_grams
from simplexcone.linalg import (
    NotPositiveDefinite,
    _cholesky_factor,
    cholesky,
    determinant,
    logdet_directional_derivative,
    logdet_second_derivative,
    smallest_eigenvalue,
)

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


def _safe_exponents(ell: SquaredEdgeLengths, smallest_eigenvalue: float) -> tuple[int, int]:
    """The exponents e at which 2^e ell keeps every length, Gram entry and
    eigenvalue normal, with room for the cancellations of the polarization
    and the sums of n entries."""
    gram = gram_from_squared_lengths(ell)
    values = np.abs(np.concatenate((ell.s, gram.ravel(), [smallest_eigenvalue])))
    smallest = float(values[values > 0.0].min())
    lo = math.ceil(math.log2(TINY / smallest)) + 60
    hi = math.floor(math.log2(HUGE / (8.0 * (ell.n + 1) * float(values.max()))))
    return lo, hi


#: the regular 5-simplex at 2^-1023 * 8e307: at e = 1023 its largest Gram
#: eigenvalue, 6 * 4e307, is past the largest float
_REGULAR_BELOW_8E307 = SquaredEdgeLengths(5, np.full(15, math.ldexp(8e307, -1023)))
#: the needle triangle [1e308, 1e308, 1e300] at 2^-1023: at e = 1023 its
#: polarization sum s(0, 1) + s(0, 2) is past the largest float
_NEEDLE_BELOW_1E308 = SquaredEdgeLengths(2, np.ldexp([1e308, 1e308, 1e300], -1023))


@PROPERTY
@given(instances(), st.data())
def test_verdict_and_scaled_eigenvalue_survive_power_of_two_rescaling(case, data):
    ell, verdict = case
    rep = validate(ell)
    assert rep.verdict is verdict
    lo, hi = _safe_exponents(ell, rep.smallest_gram_eigenvalue)
    e = data.draw(st.integers(lo, hi), label="exponent")
    scaled = validate(SquaredEdgeLengths(ell.n, np.ldexp(ell.s, e)))
    assert scaled.verdict is verdict
    assert scaled.smallest_gram_eigenvalue == math.ldexp(rep.smallest_gram_eigenvalue, e)
    if verdict is Verdict.VALID:
        # the volume carries the Gram spectrum's power of two: at 4^j it moves
        # by 2^(n j) exactly, or is refused where that leaves the float range
        j = data.draw(st.integers(-(-lo // 2), hi // 2), label="quarter exponent")
        quartered = SquaredEdgeLengths(ell.n, np.ldexp(ell.s, 2 * j))
        try:
            expected = math.ldexp(volume(ell), ell.n * j)
        except OverflowError:
            expected = math.inf
        if 0.0 < expected < math.inf:
            assert volume(quartered) == expected
        else:
            with pytest.raises(ValueError, match="^the volume, about 1e") as refused:
                volume(quartered)
            # and names its magnitude, 2^(n j) sqrt(det G) / n!
            import mpmath

            with mpmath.workdps(50):
                gram = mpmath.matrix(gram_from_squared_lengths(ell).tolist())
                exact = (
                    ell.n * j * mpmath.log10(2)
                    + mpmath.log10(mpmath.det(gram)) / 2
                    - mpmath.log10(mpmath.factorial(ell.n))
                )
            assert abs(_named_exponent(refused.value) - exact) <= 1


def _named_exponent(refusal: ValueError) -> int:
    """The decimal exponent of "the <name>, about 1e+767, is outside the float range"."""
    pattern = r"the [a-z ]+, about 1e([+-]\d+), is outside the float range"
    match = re.fullmatch(pattern, str(refusal))
    assert match, str(refusal)
    return int(match.group(1))


def _answers_or_names_its_magnitude(call, exact) -> None:
    """``call()`` answers where ``10^exact`` rounds to a nonzero float, to 1e-12
    where that is normal, and is refused past either end (half the smallest
    subnormal rounds to 0) with a decimal exponent within 1 of ``exact``."""
    lowest, highest = -1075 * math.log10(2.0), math.log10(HUGE)
    try:
        got = np.asarray(call())
    except ValueError as refused:
        assert abs(_named_exponent(refused) - exact) <= 1
        assert not lowest + 1e-9 < exact < highest - 1e-9
    else:
        assert lowest - 1e-9 < exact < highest + 1e-9
        if got.min() >= TINY:
            assert np.abs(got / float(10**exact) - 1.0).max() <= 1e-12


@PROPERTY
@given(st.integers(2, 12), st.floats(1.0, 2.0, exclude_max=True), st.integers(-1022, 1023))
def test_a_regular_volume_and_facet_area_answer_or_name_their_magnitude(n, mantissa, e):
    # the regular m-simplex at squared length s has volume
    # s^(m/2) sqrt((m + 1) / 2^m) / m!, and each facet of the regular
    # n-simplex is the regular (n-1)-simplex
    import mpmath

    s = math.ldexp(mantissa, e)
    ell = SquaredEdgeLengths(n, np.full(n * (n + 1) // 2, s))
    with mpmath.workdps(50):
        for call, m in ((lambda: volume(ell), n), (lambda: dual_gram(ell).areas, n - 1)):
            exact = (
                m * mpmath.log10(s) / 2
                + (mpmath.log10(m + 1) - m * mpmath.log10(2)) / 2
                - mpmath.log10(mpmath.factorial(m))
            )
            _answers_or_names_its_magnitude(call, exact)


@PROPERTY
@given(instances(), st.integers(0, 2**16))
@example(case=(_REGULAR_BELOW_8E307, Verdict.VALID), step=1)
@example(case=(_NEEDLE_BELOW_1E308, Verdict.VALID), step=1)
def test_rescaling_past_the_safe_exponents_keeps_the_verdict(case, step):
    # above the exponents of the property before, up to the last at which
    # every scaled length is a float: the Gram spectrum may leave the float
    # range, but the verdict is read at unit scale and stays
    ell, verdict = case
    rep = validate(ell)
    assert rep.verdict is verdict
    lo = _safe_exponents(ell, rep.smallest_gram_eigenvalue)[1] + 1
    top = 1024 - math.frexp(float(ell.s.max()))[1]
    e = top - step % (top - lo + 1)
    assert validate(SquaredEdgeLengths(ell.n, np.ldexp(ell.s, e))).verdict is verdict


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


#: Valid, its smallest Gram eigenvalue 2.11e-9 against a band of 4.74e-10;
#: its dual Gram's second-smallest singular value is 3.1e-10 of its largest,
#: which a fixed null band of 1e-9 read as a second zero
_THIN_4_SIMPLEX = SquaredEdgeLengths(
    4,
    np.array(
        [
            0.5752172994935549, 1.0321152694466431, 2.8265479742734247, 0.6323423899844215,
            2.597081980234027, 1.0171150350469311, 2.3439976126458877, 6.817093626233606,
            0.31509099445500616, 6.122474854270557,
        ]
    ),
)


@st.composite
def thin_valid_instances(draw):
    """A Valid n-simplex, n = 2..12, with vertex 0 at the origin and the others
    at the columns of U diag(sigma) V^T for random rotations U, V, sigma from
    1 down to 10^-c, c in [4.6, 5.2]: Gram condition number 10^9.2..10^10.4,
    up to the PD band.  A draw that the band does not call Valid is drawn
    again."""
    n = draw(st.integers(2, 12), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    while True:
        c = rng.uniform(4.6, 5.2)
        sigma = 10.0 ** rng.uniform(-c, 0.0, n)
        sigma[0], sigma[-1] = 1.0, 10.0**-c
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        coords = (u * sigma) @ v.T
        ell = SquaredEdgeLengths(n, _squared_lengths(np.column_stack([np.zeros(n), coords])))
        if validate(ell).verdict is Verdict.VALID:
            return ell


@PROPERTY
@given(thin_valid_instances())
@example(_THIN_4_SIMPLEX)
def test_a_thin_valid_dual_gram_has_the_areas_as_its_null_direction(ell):
    # the paper: nullity exactly one, with the facet areas spanning the
    # kernel, so the null direction answers however thin the simplex; the
    # bound is the oracle bound of test_dual.py, 1e-14 * cond(G)
    rep = dual_gram(ell)
    direction = null_direction(rep.gstar)
    lam = np.linalg.eigvalsh(gram_from_squared_lengths(ell))
    tol = 1e-14 * max(1.0, lam[-1] / lam[0])
    assert np.abs(direction - rep.areas / np.linalg.norm(rep.areas)).max() <= tol


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
def certificate_cases(draw):
    """Q diag(w) Q^T for a random rotation Q, rescaled by 2^e, and a pd_tol:
    n = 2..12, |e| <= 500, largest eigenvalue 1 before the rescale, the
    smallest 10^u times the band edge (|u| <= 3, at most 1), where the edge is
    pd_tol, or the certificate's absolute margin 1e3 n^2 eps at pd_tol = 0.
    Or the smallest is pd_tol + 10^-v (1 <= v <= 18): the certificate's
    margins, not the bound, must decline the ones within rounding of the
    band.  The others spread log-uniformly between the two, or lie in
    [1/2, 1], where the certificate proves most."""
    n = draw(st.integers(2, 12), label="n")
    pd_tol = draw(st.sampled_from((0.0, 1e-10, 1e-6, 0.5)), label="pd_tol")
    if draw(st.booleans(), label="within rounding of the band"):
        lam0 = pd_tol + 10.0 ** -draw(st.floats(1.0, 18.0), label="v")
    else:
        edge = pd_tol or 1e3 * n * n * EPS
        lam0 = edge * 10.0 ** draw(st.floats(-3.0, 3.0), label="u")
    lam0 = min(1.0, lam0)
    spread = draw(st.booleans(), label="spread")
    e = draw(st.integers(-500, 500), label="exponent")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if spread:
        w = 10.0 ** rng.uniform(math.log10(lam0), 0.0, n)
    else:
        w = rng.uniform(0.5, 1.0, n)
    w[0], w[-1] = lam0, 1.0
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * w) @ q.T
    return np.ldexp((a + a.T) / 2.0, e), pd_tol


#: Gram matrices that factor, with a bound prod L_ii^2 / ||G||_F^n above
#: pd_tol (5.3e-17 > 0 and 1.00000001e-10 > 1e-10), that eigh reads as not
#: Valid: only the certificate's margins decline them
_BOUND_ABOVE_THE_BAND_IN_NOISE = [
    (
        np.array([
            [0.5307181039501375, -0.23666565232278886, 0.4169890658358079],
            [-0.23666565232278886, 0.8806449017180321, 0.20995009770630532],
            [0.4169890658358079, 0.20995009770630532, 0.5298443606125269],
        ]),
        0.0,
    ),
    (
        np.array([
            [0.25627855335619104, 0.4365774345651374],
            [0.4365774345651374, 0.7437214467438089],
        ]),
        1e-10,
    ),
]


@PROPERTY
@given(certificate_cases())
@example(case=(np.diag([2e-10, 1.0]), 1e-10))
@example(case=(np.ldexp(np.array([[1.0, 0.5], [0.5, 1.0]]), -500), 0.0))
@example(case=_BOUND_ABOVE_THE_BAND_IN_NOISE[0])
@example(case=_BOUND_ABOVE_THE_BAND_IN_NOISE[1])
# a ratio of 2^-42 whose squared entries (2^-1080) all round to 0
@example(case=(np.ldexp(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-40]]), -540), 1e-10))
def test_a_certified_gram_matrix_reads_valid_under_eigh_and_mpmath(case):
    # the certificate only ever says Valid, and then the verdict's own
    # eigensolver and a 50-digit spectrum agree
    g, pd_tol = case
    try:
        certified = _certified_valid(g, _cholesky_factor(g), pd_tol)
    except NotPositiveDefinite:
        return
    if certified:
        assert _valid_grams(g, pd_tol)
        lam = mp_eigenvalues(g)
        assert lam[0] > pd_tol * max(abs(lam[0]), abs(lam[-1])), (lam[0], lam[-1])


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
    try:
        low, ok, bad = _cholesky_factor(a), True, -1
    except NotPositiveDefinite as exc:
        low, ok, bad = None, False, exc.pivot
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
def spd_pairs(draw):
    """A symmetric positive definite A = Q diag(w) Q^T, n = 1..8, largest
    eigenvalue 1 and the smallest 10^-c, c <= 6, a symmetric B with normal
    entries, and exponents j and k from -400 up to the last at which 4^j A
    and 4^k B are finite."""
    n = draw(st.integers(1, 8), label="n")
    c = draw(st.floats(0.0, 6.0), label="c")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    w = 10.0 ** rng.uniform(-c, 0.0, n)
    w[0], w[-1] = 10.0**-c, 1.0
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a, b = (q * w) @ q.T, rng.standard_normal((n, n))
    a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
    j, k = (
        draw(st.integers(-400, (1024 - math.frexp(float(np.abs(m).max()))[1]) // 2), label=name)
        for m, name in ((a, "j"), (b, "k"))
    )
    return a, b, j, k


def _scaled_or_refused(kernel, name, scaled, base, exponent):
    """``kernel(*scaled)`` is ``base`` times 2^exponent bit for bit where that
    is a float, or a ValueError naming ``name``; never inf or nan."""
    try:
        expected = math.ldexp(base, exponent)
    except OverflowError:
        with pytest.raises(ValueError, match=f"the {name}, about 1e.*, is outside the float range"):
            kernel(*scaled)
        return
    got = kernel(*scaled)
    assert math.isfinite(got) and got == expected, (name, got, expected)


@PROPERTY
@given(spd_pairs())
def test_every_kernel_scales_back_exactly_or_refuses_by_name(case):
    # the kernels read 4^j A at unit scale, so they take the same unit-scale
    # bits at every j and scale back only what they return: the smallest
    # eigenvalue and the determinant by 4^j and 4^(n j), the Cholesky factor
    # by 2^j, the log det derivatives by 4^(k - j) and 16^(k - j).  A number
    # past the largest float is refused by name, with no RuntimeWarning
    a, b, j, k = case
    n = len(a)
    big_a, big_b = np.ldexp(a, 2 * j), np.ldexp(b, 2 * k)
    _scaled_or_refused(smallest_eigenvalue, "smallest eigenvalue", (big_a,),
                       smallest_eigenvalue(a), 2 * j)
    _scaled_or_refused(determinant, "determinant", (big_a,), determinant(a), 2 * n * j)
    _scaled_or_refused(logdet_directional_derivative, "directional derivative",
                       (big_a, big_b), logdet_directional_derivative(a, b), 2 * (k - j))
    _scaled_or_refused(logdet_second_derivative, "second derivative",
                       (big_a, big_b), logdet_second_derivative(a, b), 4 * (k - j))
    low = cholesky(big_a)
    assert np.isfinite(low).all() and np.array_equal(low, np.ldexp(cholesky(a), j))


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
    _, logdet, x, _ = _segment_logdet(*scaled, full, samples, DEFAULT_PD_TOL)
    d1, d2 = x.sum(axis=1), -(x * x).sum(axis=1)
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
    assert np.array_equal(x, _segment_logdet(first, second, full, samples, DEFAULT_PD_TOL)[2])
    log_report = probe_log_concavity(*scaled)
    assert (
        log_report.max_analytic_second_derivative
        == probe_log_concavity(first, second).max_analytic_second_derivative
    )
    # the paper's concavity: log volume and volume^(1/n) along the segment
    assert log_report.passed
    assert probe_root_concavity(*scaled).passed


#: the regular tetrahedron at squared length 1e12, and the same with one
#: length moved by 1e-9 of itself: its root values, about 4.9e5, round by
#: far more than an absolute second-difference slack of 1e-8 h^2
_TETRAHEDRON_1E12 = SquaredEdgeLengths(3, np.full(6, 1e12))
_TETRAHEDRON_1E12_NUDGED = SquaredEdgeLengths(3, np.array([1.000000001e12] + [1e12] * 5))


@st.composite
def probe_segments(draw):
    """Two Valid n-simplices, n = 2..6, with condition number at most 1e3:
    either two independent draws, or a draw a and b = a (1 + 1e-9 N(0, 1))
    entrywise, a segment flat to about 1e-9."""
    n = draw(st.integers(2, 6), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = _valid(n, rng)
    if draw(st.booleans(), label="near flat"):
        b = a * (1.0 + 1e-9 * rng.standard_normal(a.size))
    else:
        b = _valid(n, rng)
    return SquaredEdgeLengths(n, a), SquaredEdgeLengths(n, b)


@PROPERTY
@given(
    probe_segments(),
    st.integers(-300, 300),
    st.sampled_from((33, 1001)),
    st.sampled_from(("log", "root")),
)
@example(case=(_TETRAHEDRON_1E12, _TETRAHEDRON_1E12_NUDGED), j=0, samples=33, mode="root")
def test_a_probe_passes_at_every_scale(case, j, samples, mode):
    # log volume and volume^(1/n) are concave along every segment of the
    # cone, so a probe that does not pass saw rounding; its verdict must
    # not depend on the scale 4^j of the segment
    probe = probe_log_concavity if mode == "log" else probe_root_concavity
    scaled = [SquaredEdgeLengths(e.n, np.ldexp(e.s, 2 * j)) for e in case]
    assert probe(*case, samples=samples).passed
    assert probe(*scaled, samples=samples).passed
