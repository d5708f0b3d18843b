"""Independent references for the tests: a cyclic Jacobi eigensolver, a
per-column Cholesky loop, a 50-digit mpmath spectrum, and the verdict rule
restated on either.

The library takes every spectrum and every Cholesky factor from LAPACK.
The pure-Python Jacobi solver and Cholesky loop share no code with it, so
a test that holds a library result to them compares two independent
implementations; mpmath settles the cases that lie too close to a band
edge for either float solver.
"""

import math

import numpy as np

from simplexcone import DEFAULT_PD_TOL, Verdict
from simplexcone.linalg import ConvergenceError, EigenDecomposition, check_symmetric

OFF_TOL = 1e-14
MAX_SWEEPS = 100


def jacobi_eigendecompose(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Sweeps rotate away every off-diagonal entry in row order until the
    off-diagonal Frobenius norm drops below ``1e-14 * ||M||_F``; raises
    :class:`ConvergenceError` past a hundred sweeps, far beyond what these
    sizes need.
    """
    checked = check_symmetric(m)
    n = checked.shape[0]
    # sweep M / 2^shift, largest entry in [0.5, 1): squares past ~1e154 would
    # overflow, and the exact rescale leaves every rotation bit-identical
    shift = math.frexp(float(np.abs(checked).max()))[1]
    checked = np.ldexp(checked, -shift)
    target = OFF_TOL * float(np.sqrt((checked * checked).sum()))
    # plain nested lists: the matrices here are tiny, and scalar updates beat
    # per-rotation numpy slicing by a wide margin
    a = [[float(x) for x in row] for row in checked]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    # entries this small cannot lift the off-diagonal norm above target even
    # if every slot held one, so rotating them away is pure overhead
    skip2 = target * target / (2.0 * n * n) if n > 1 else 0.0

    def off_norm2() -> float:
        return sum(
            a[i][j] * a[i][j] for i in range(n) for j in range(n) if i != j
        )

    for _ in range(MAX_SWEEPS):
        if off_norm2() <= target * target:
            break
        for p in range(n - 1):
            ap = a[p]
            vp = v[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq * apq <= skip2:
                    continue
                aq = a[q]
                tau = (aq[q] - ap[p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in a:
                    rp = row[p]
                    rq = row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq
                for i in range(n):
                    rp = ap[i]
                    rq = aq[i]
                    ap[i] = c * rp - s * rq
                    aq[i] = s * rp + c * rq
                ap[q] = 0.0
                aq[p] = 0.0
                vq = v[q]
                for i in range(n):
                    rp = vp[i]
                    rq = vq[i]
                    vp[i] = c * rp - s * rq
                    vq[i] = s * rp + c * rq
    else:
        if off_norm2() > target * target:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
            )
    w = np.ldexp(np.array([a[i][i] for i in range(n)]), shift)
    order = np.argsort(w, kind="stable")
    # v held the rotations row-wise (v = J^T stacked), so eigenvectors are rows
    basis = np.array(v).T
    return EigenDecomposition(eigenvalues=w[order], basis=basis[:, order])


def cholesky_factor(a: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Unpivoted lower Cholesky, one column at a time; returns (L, success,
    failing pivot index).  On failure L holds the columns before the pivot."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not (d > 0.0) or not math.isfinite(d):
            return low, False, j
        ljj = math.sqrt(d)
        low[j, j] = ljj
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / ljj
    return low, True, -1


def mp_eigenvalues(m, dps: int = 50) -> list:
    """Ascending eigenvalues of the float matrix ``m``, read exactly, at
    ``dps`` significant digits."""
    import mpmath

    with mpmath.workdps(dps):
        return sorted(mpmath.eigsy(mpmath.matrix(np.asarray(m).tolist()), eigvals_only=True))


def verdict_of(lam0, top, pd_tol: float = DEFAULT_PD_TOL) -> Verdict:
    """The verdict rule for a smallest eigenvalue ``lam0`` of a spectrum
    whose largest magnitude is ``top``: Valid above the band ``pd_tol * top``,
    Degenerate inside it, Invalid below it."""
    band = pd_tol * top
    if lam0 > band:
        return Verdict.VALID
    return Verdict.DEGENERATE if lam0 >= -band else Verdict.INVALID
