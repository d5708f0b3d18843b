"""Seeded workload generators for the simplexcone benchmark.

Every instance is built here from random vertex coordinates (or, for
Invalid inputs, from a Gram matrix with one negative eigenvalue) with
plain numpy; the library is never imported.  Each op carries two parts:
``args``, the squared lengths and call parameters the program receives,
and ``ref``, the reference values the oracle compares against, which
never leave the benchmark's parent process.

A workload is a pool of rounds.  A round is one stratified set of cells
(every dimension, verdict and call kind, or every optimizer cell, ...),
each with a fresh instance, so any prefix of whole rounds has the same
composition.  The timed loop runs whole rounds and wraps around the pool
if a fast program exhausts it.

The rounds hold only inputs the program at this commit answers correctly,
so no timed op fails.  Inputs that hit a known defect -- a Gram spectrum
inside the library's absolute positive-definiteness floor, the pinned
start that stalls the optimizer -- are drawn all the same and kept in the
workload's ``defects`` list; the traced run executes each of them once,
untimed, and reports how many the program still gets wrong.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

PD_TOL = 1e-10  # the library's default pd_tol; the reference band is relative
#: a spectrum this many floors from the absolute floor goes to the defect list
FLOOR_MARGIN = 10.0
NONTRI_EXACT = 1.0 / math.sqrt(3.0) - 0.5
FRANKEL_EXACT = math.sqrt(8.0 - 4.0 * math.sqrt(2.0)) - math.sqrt(2.0)

#: the start that stalls the seed's optimizer (n=5, k=1, logprod, total 15)
PINNED_START = [
    0.32621828840753775, 0.6507299220868897, 0.650611644749195,
    0.24002644922427568, 0.6649273005847696, 0.2566606834810083,
    1.638128913924212, 0.7518910029553482, 1.6855832102560135,
    2.484844694440264, 0.7510836442489779, 2.3406157557407408,
    0.8032713165672041, 0.6314328485962952, 1.1239743247372669,
]

QUERY_KINDS = ("validate", "volume", "embed", "face_volume", "dual_gram", "area_ratio")
QUERY_DIMS = range(2, 13)
VERDICTS = ("valid", "degenerate", "invalid")
SCALE_DECADES = (-12.0, 12.0)
QUERY_POOL_ROUNDS = 24  # one scale stratum per decade for every cell

EXTREMAL_DIMS = range(2, 7)
#: starts flatter than this (smallest over largest Gram eigenvalue) may stall
#: the optimizer; every stall seen in 1.6e4 random starts had a ratio below 2e-4
FLAT_START_RATIO = 1e-3
#: flat starts kept as known-defect inputs, besides the pinned one
EXTREMAL_FLAT_DEFECTS = 32
EXTREMAL_POOL_ROUNDS = 32

PROBE_DIMS = range(3, 9)
PROBE_KINDS = ("log_full", "log_face", "root")
PROBE_POOL_ROUNDS = 12

CLI_POOL_ROUNDS = 16
CLI_PROBE_SAMPLES = 257


@dataclass
class Op:
    kind: str
    args: tuple
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    rounds: list[list[int]]
    defects: list[int] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256(self.name.encode())
        for op in self.ops:
            _feed(h, op.kind)
            for a in op.args:
                _feed(h, a)
        for rnd in [self.defects, *self.rounds]:
            h.update(np.asarray(rnd, dtype=np.int64).tobytes())
        return h.hexdigest()


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(b"a" + str(value.shape).encode() + np.ascontiguousarray(value, float).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"(")
        for v in value:
            _feed(h, v)
        h.update(b")")
    else:
        h.update(b"v" + repr(value).encode())


# ---------------------------------------------------------------------------
# geometry in plain numpy


def edge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def squared_lengths(points: np.ndarray) -> np.ndarray:
    """Squared edge lengths of the simplex whose vertices are the rows."""
    n = points.shape[0] - 1
    i, j = np.array(edge_pairs(n)).T
    d = points[i] - points[j]
    return np.einsum("ij,ij->i", d, d)


def gram(n: int, s: np.ndarray) -> np.ndarray:
    """Vertex-0-anchored Gram matrix of a squared-length vector."""
    d = np.zeros((n + 1, n + 1))
    i, j = np.array(edge_pairs(n)).T
    d[i, j] = d[j, i] = s
    return 0.5 * (d[0, 1:, None] + d[None, 0, 1:] - d[1:, 1:])


def gram_eigenvalues(n: int, s: np.ndarray) -> np.ndarray:
    """Ascending Gram eigenvalues; mpmath decides when float64 sits near the band."""
    w = np.linalg.eigvalsh(gram(n, s))
    rel = abs(w[0]) / max(abs(w[-1]), abs(w[0]))
    if 1e-13 <= rel <= 1e-7:
        import mpmath

        with mpmath.workdps(50):
            g = mpmath.matrix(n, n)
            pairs = {p: mpmath.mpf(float(v)) for p, v in zip(edge_pairs(n), s)}
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    sa, sb = pairs[(0, a)], pairs[(0, b)]
                    sab = mpmath.mpf(0) if a == b else pairs[(min(a, b), max(a, b))]
                    g[a - 1, b - 1] = (sa + sb - sab) / 2
            w = np.array(sorted(float(x) for x in mpmath.eigsy(g, eigvals_only=True)))
    return w


def verdict_of(w: np.ndarray) -> str:
    """Scale-invariant verdict: the band is pd_tol times the largest |eigenvalue|."""
    band = PD_TOL * float(np.abs(w).max())
    if w[0] > band:
        return "valid"
    return "degenerate" if w[0] >= -band else "invalid"


def near_floor(eig: tuple[float, float], margin: float = 1.0) -> bool:
    """True when |smallest eigenvalue| is within ``margin`` times the library's
    absolute floor ``pd_tol * max(1, |largest eigenvalue|)``."""
    lo, hi = eig
    return abs(lo) <= margin * PD_TOL * max(1.0, abs(hi))


def _well_spread(s: np.ndarray) -> bool:
    return bool(s.min() > 1e-4 * s.max())


def random_points(n: int, rng, min_ratio: float) -> np.ndarray:
    """n+1 vertices in R^n, vertex 0 at the origin, singular-value ratio >= min_ratio."""
    while True:
        p = rng.standard_normal((n, n))
        sv = np.linalg.svd(p, compute_uv=False)
        if sv[-1] >= min_ratio * sv[0]:
            pts = np.vstack([np.zeros(n), p])
            if _well_spread(squared_lengths(pts)):
                return pts


def degenerate_points(n: int, rng) -> np.ndarray:
    """n+1 affinely dependent vertices: they span an (n-1)-dimensional flat."""
    while True:
        basis = np.linalg.qr(rng.standard_normal((n, n - 1)))[0]
        coef = rng.standard_normal((n + 1, n - 1))
        pts = coef @ basis.T
        pts -= pts[0]
        sv = np.linalg.svd(pts[1:], compute_uv=False)
        if sv[n - 2] >= 1e-2 * sv[0] and _well_spread(squared_lengths(pts)):
            return pts


def invalid_squared_lengths(n: int, rng) -> tuple[np.ndarray, float]:
    """Squared lengths of a Gram matrix whose smallest eigenvalue is -r * largest."""
    while True:
        r = 10.0 ** rng.uniform(-6.0, -1.0)
        w = rng.uniform(0.05, 1.0, n)
        w[0] = -r * w.max()
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        g = (q * w) @ q.T
        dg = np.diag(g)
        s = np.array(
            [dg[j - 1] if i == 0 else dg[i - 1] + dg[j - 1] - 2.0 * g[i - 1, j - 1]
             for i, j in edge_pairs(n)]
        )
        if (s > 0).all() and _well_spread(s):
            return s, r


def simplex_volume(pts: np.ndarray) -> float:
    n = pts.shape[0] - 1
    return abs(float(np.linalg.det(pts[1:] - pts[0]))) / math.factorial(n)


def face_volume_and_spectrum(pts: np.ndarray, face) -> tuple[float, np.ndarray]:
    """k-volume of a face and its (unit-scale) Gram eigenvalues, from coordinates."""
    a = pts[list(face[1:])] - pts[face[0]]
    sv = np.linalg.svd(a, compute_uv=False)
    k = len(face) - 1
    return float(np.prod(sv)) / math.factorial(k), np.sort(sv * sv)


def dual_reference(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward facet normals and facet areas from barycentric gradients."""
    n = pts.shape[0] - 1
    m = np.vstack([np.ones(n + 1), pts.T])
    grads = np.linalg.inv(m)[:, 1:]  # row i: gradient of barycentric coordinate i
    norms = np.linalg.norm(grads, axis=1)
    normals = -grads / norms[:, None]
    areas = n * simplex_volume(pts) * norms
    return normals @ normals.T, areas


# ---------------------------------------------------------------------------
# workloads


def _scale_strata(rng, cells: int, rounds: int) -> np.ndarray:
    """scales[cell, round]: log-uniform, one stratum of the range per round."""
    lo, hi = SCALE_DECADES
    strata = np.argsort(rng.random((cells, rounds)), axis=1)
    exps = lo + (hi - lo) * (strata + rng.random((cells, rounds))) / rounds
    return 10.0 ** exps


def _query_op(kind: str, n: int, verdict: str, scale: float, rng) -> Op:
    ref: dict = {"verdict": verdict, "scale": scale}
    pts = None
    if verdict == "valid":
        pts = random_points(n, rng, 1e-2)
        s = squared_lengths(pts)
    elif verdict == "degenerate":
        pts = degenerate_points(n, rng)
        s = squared_lengths(pts)
    else:
        s, ref["relative_negative_eigenvalue"] = invalid_squared_lengths(n, rng)
    s = s * scale
    w = gram_eigenvalues(n, s)
    if verdict_of(w) != verdict:
        return _query_op(kind, n, verdict, scale, rng)
    ref["eig"] = (float(w[0]), float(w[-1]))
    if pts is not None and verdict == "valid":
        ref["volume"] = simplex_volume(pts) * scale ** (n / 2)
    elif verdict == "degenerate":
        ref["volume"] = 0.0
    args: tuple = (n, s)
    if kind == "face_volume":
        while True:
            k = int(rng.integers(1, n + 1))
            face = tuple(sorted(rng.choice(n + 1, k + 1, replace=False).tolist()))
            vol, spec = face_volume_and_spectrum(pts, face)
            full_degenerate = verdict == "degenerate" and k == n
            if full_degenerate or spec[0] >= 1e-4 * spec[-1]:
                break
        ref["face_verdict"] = "degenerate" if full_degenerate else "valid"
        ref["face_volume"] = 0.0 if full_degenerate else vol * scale ** (k / 2)
        ref["face_eig"] = (float(spec[0] * scale), float(spec[-1] * scale))
        args = (n, s, face)
    elif kind in ("dual_gram", "area_ratio") and verdict == "valid":
        gstar, areas = dual_reference(pts)
        ref["gstar"] = gstar
        ref["areas"] = areas * scale ** ((n - 1) / 2)
    if kind == "area_ratio":
        i, j = (int(x) for x in rng.choice(n + 1, 2, replace=False))
        args = (n, s, i, j)
        if verdict == "valid":
            ref["ratio"] = float((ref["areas"][i] / ref["areas"][j]) ** 2)
    return Op(kind, args, ref)


def floor_sensitive(op: Op) -> bool:
    """True when the absolute floor may turn the op's non-degenerate answer to Degenerate."""
    if op.kind == "face_volume":
        verdict, eig = op.ref["face_verdict"], op.ref["face_eig"]
    else:
        verdict, eig = op.ref["verdict"], op.ref["eig"]
    return verdict != "degenerate" and near_floor(eig, FLOOR_MARGIN)


def queries(seed: int) -> Workload:
    """Independent single-instance calls over n=2..12, mixed verdicts and scales.

    A cell's scale is drawn log-uniformly from its stratum; an instance the
    absolute floor may misjudge goes to ``defects`` and the cell is drawn
    again at a scale from the whole range until it is clear of the floor.
    """
    rng = np.random.default_rng([seed, 1])
    cells = [
        (kind, n, verdict)
        for n in QUERY_DIMS
        for verdict in VERDICTS
        for kind in QUERY_KINDS
        if not (kind == "face_volume" and verdict == "invalid")
    ]
    scales = _scale_strata(rng, len(cells), QUERY_POOL_ROUNDS)
    ops: list[Op] = []
    rounds = []
    defects = []
    for r in range(QUERY_POOL_ROUNDS):
        slots = []
        for c in rng.permutation(len(cells)):
            kind, n, verdict = cells[c]
            op = _query_op(kind, n, verdict, float(scales[c, r]), rng)
            while floor_sensitive(op):
                defects.append(len(ops))
                ops.append(op)
                op = _query_op(kind, n, verdict, 10.0 ** rng.uniform(*SCALE_DECADES), rng)
            slots.append(len(ops))
            ops.append(op)
        rounds.append(slots)
    return Workload("queries", ops, rounds, defects)


def _flat_start(n: int, s: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(gram(n, s))
    return bool(w[0] < FLAT_START_RATIO * w[-1])


def extremal(seed: int) -> Workload:
    """One maximize per op: n=2..6, every k, both objectives, random Valid starts.

    A flat start, like the pinned one, may stall the optimizer: the cell is
    drawn again, and the first ``EXTREMAL_FLAT_DEFECTS`` flat starts go to
    ``defects``.
    """
    rng = np.random.default_rng([seed, 2])
    cells = [(n, k, kind) for n in EXTREMAL_DIMS for k in range(1, n + 1)
             for kind in ("logprod", "sumroot")]
    pinned = Op("maximize", (5, 15.0, "logprod", 1, np.array(PINNED_START)))
    ops = [pinned]
    rounds = []
    defects = [0]
    for _ in range(EXTREMAL_POOL_ROUNDS):
        slots = []
        for c in rng.permutation(len(cells)):
            n, k, kind = cells[c]
            total = float(n * (n + 1) // 2)
            while True:
                s = squared_lengths(random_points(n, rng, 1e-3))
                s *= total / s.sum()
                if not _flat_start(n, s):
                    break
                if len(defects) <= EXTREMAL_FLAT_DEFECTS:
                    defects.append(len(ops))
                    ops.append(Op("maximize", (n, total, kind, k, s), {}))
            slots.append(len(ops))
            ops.append(Op("maximize", (n, total, kind, k, s), {}))
        rounds.append(slots)
    return Workload("extremal", ops, rounds, defects)


def _probe_endpoints(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    total = float(n * (n + 1) // 2)
    out = []
    for _ in range(2):
        s = squared_lengths(random_points(n, rng, 1e-2))
        out.append(s * (total / s.sum()))
    return out[0], out[1]


def probes(seed: int) -> Workload:
    """Concavity probes at 33 and 1001 samples on n=3..8, plus both bisections.

    Every round holds the same cells, so any number of whole rounds has the
    same mix: each (dimension, probe kind) at 33 samples, one 1001-sample
    probe per dimension with the kind fixed by the dimension (each kind at
    two dimensions), and the two threshold bisections.  Proper faces are
    facets, so a face probe's cost depends on n alone.
    """
    rng = np.random.default_rng([seed, 3])
    specs = [(n, kind, 33) for n in PROBE_DIMS for kind in PROBE_KINDS]
    specs += [(n, PROBE_KINDS[n % 3], 1001) for n in PROBE_DIMS]
    ops: list[Op] = []
    rounds = []
    for _ in range(PROBE_POOL_ROUNDS):
        slots = []
        for c in rng.permutation(len(specs) + 2):
            slots.append(len(ops))
            if c == len(specs):
                ops.append(Op("nontri_threshold", (), {"threshold": NONTRI_EXACT}))
                continue
            if c == len(specs) + 1:
                ops.append(Op("frankel_threshold", (), {"threshold": FRANKEL_EXACT}))
                continue
            n, kind, samples = specs[c]
            s1, s2 = _probe_endpoints(n, rng)
            if kind == "root":
                ops.append(Op("probe_root", (n, s1, s2, samples), {}))
                continue
            face = None
            if kind == "log_face":
                face = tuple(sorted(rng.choice(n + 1, n, replace=False).tolist()))
            ops.append(Op("probe_log", (n, s1, s2, face, samples), {}))
        rounds.append(slots)
    return Workload("probes", ops, rounds)


def _instance_json(n: int, s: np.ndarray) -> str:
    return '{"dimension": %d, "squared_lengths": [%s]}' % (n, ", ".join(repr(float(x)) for x in s))


CLI_KINDS = (
    "validate", "volume", "volume_face", "faces", "dual_ratio",
    "probe_log", "probe_root", "nontri_bisect", "frankel_bisect", "optimize",
)


def cli(seed: int) -> Workload:
    """Sequential console-entry subprocesses on small instances (n=2..4).

    Scales stay within 1e-3..1e3: this workload measures start-up, parsing
    and rendering; scale coverage is the queries workload's job.  The two
    probe kinds (a fifth of every round) run at ``CLI_PROBE_SAMPLES`` on
    n=3, a few tens of ms above the rest, so the 90th percentile falls
    inside that group instead of in the noise tail of start-up time.
    """
    rng = np.random.default_rng([seed, 4])
    ops: list[Op] = []
    rounds = []
    for _ in range(CLI_POOL_ROUNDS):
        slots = []
        for c in rng.permutation(len(CLI_KINDS)):
            kind = CLI_KINDS[c]
            n = int(rng.integers(2, 5))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            verdict = "invalid" if kind == "validate" and rng.random() < 0.3 else "valid"
            if verdict == "valid":
                pts = random_points(n, rng, 1e-2)
                s = squared_lengths(pts) * scale
            else:
                s = invalid_squared_lengths(n, rng)[0] * scale
            ref: dict = {"verdict": verdict_of(gram_eigenvalues(n, s))}
            inst = _instance_json(n, s)
            if kind == "validate":
                argv = ["validate", inst]
            elif kind == "volume":
                argv = ["volume", inst]
                ref["volume"] = simplex_volume(pts) * scale ** (n / 2)
            elif kind == "volume_face":
                face = sorted(rng.choice(n + 1, 3, replace=False).tolist())
                argv = ["volume", inst, "--face", ",".join(map(str, face))]
                ref["volume"] = face_volume_and_spectrum(pts, face)[0] * scale
            elif kind == "faces":
                argv = ["faces", "--k", str(int(rng.integers(1, n + 1))), inst]
            elif kind == "dual_ratio":
                i, j = (int(x) for x in rng.choice(n + 1, 2, replace=False))
                argv = ["dual", inst, "--ratio", str(i), str(j)]
                areas = dual_reference(pts)[1]
                ref["ratio"] = float((areas[i] / areas[j]) ** 2)
            elif kind in ("probe_log", "probe_root"):
                s1, s2 = _probe_endpoints(3, rng)
                argv = ["probe", "--mode", kind[6:], "--samples", str(CLI_PROBE_SAMPLES),
                        _instance_json(3, s1), _instance_json(3, s2)]
                ref = {}
            elif kind == "nontri_bisect":
                argv = ["counterexample", "nontri", "--bisect"]
                ref = {"threshold": NONTRI_EXACT}
            elif kind == "frankel_bisect":
                argv = ["counterexample", "frankel", "--bisect"]
                ref = {"threshold": FRANKEL_EXACT}
            else:
                # n <= 3 keeps every ascent to a few ms, so the optimizer's
                # iteration spread (the extremal workload's subject) does not
                # decide this workload's 90th percentile
                n = int(rng.integers(2, 4))
                argv = ["optimize", "--n", str(n), "--total", str(float(n * (n + 1) // 2)),
                        "--objective", str(rng.choice(["logprod", "sumroot"])),
                        "--k", str(int(rng.integers(1, n + 1))),
                        "--seed", str(int(rng.integers(0, 2**31)))]
                ref = {}
            slots.append(len(ops))
            ops.append(Op("cli_" + kind, (argv + ["--no-timestamp"],), ref))
        rounds.append(slots)
    return Workload("cli", ops, rounds)


GENERATORS = {"queries": queries, "extremal": extremal, "probes": probes, "cli": cli}
