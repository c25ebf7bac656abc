"""Precision-aware dense linear algebra helpers.

Matrices are numpy arrays: complex128 at the default 53-bit precision,
object arrays of mpmath complex numbers above it.  The object path reuses
numpy's generic matmul/kron and routes factorizations through mpmath.
"""

from __future__ import annotations

import numpy as np

from .qscalars import ScalarContext


class NumericInstability(ArithmeticError):
    """A rank or integrality decision had no clear numerical gap."""


def zeros(ctx: ScalarContext, shape):
    if ctx.high_precision:
        a = np.empty(shape, dtype=object)
        a[...] = ctx.scalar(0)
        return a
    return np.zeros(shape, dtype=np.complex128)


def eye(ctx: ScalarContext, n: int):
    a = zeros(ctx, (n, n))
    one = ctx.scalar(1)
    for i in range(n):
        a[i, i] = one
    return a


def asarray(ctx: ScalarContext, data):
    if ctx.high_precision:
        a = np.array(data, dtype=object)
        flat = a.reshape(-1)
        for i in range(flat.size):
            flat[i] = ctx.scalar(flat[i])
        return flat.reshape(a.shape)
    return np.asarray(data, dtype=np.complex128)


def _to_mp_matrix(ctx: ScalarContext, a: np.ndarray):
    mp = ctx._mp
    m = mp.matrix(a.shape[0], a.shape[1])
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            m[i, j] = mp.mpc(a[i, j])
    return m


def _from_mp_matrix(ctx: ScalarContext, m) -> np.ndarray:
    a = np.empty((m.rows, m.cols), dtype=object)
    for i in range(m.rows):
        for j in range(m.cols):
            a[i, j] = m[i, j]
    return a


def singular_values(ctx: ScalarContext, a: np.ndarray) -> list[float]:
    if a.size == 0:
        return []
    if ctx.high_precision:
        mp = ctx._mp
        s = mp.svd_c(_to_mp_matrix(ctx, a), compute_uv=False)
        return sorted((float(x) for x in s), reverse=True)
    return sorted(np.linalg.svd(a, compute_uv=False).tolist(), reverse=True)


def nullspace(ctx: ScalarContext, a: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the right kernel, rank cut at tol * s_max."""
    n = a.shape[1]
    if n == 0:
        return []
    if a.shape[0] == 0 or a.size == 0:
        return [c for c in eye(ctx, n).T]
    if ctx.high_precision:
        mp = ctx._mp
        u, s, v = mp.svd_c(_to_mp_matrix(ctx, a))
        smax = max((abs(s[i]) for i in range(s.rows)), default=0.0)
        thresh = ctx.tol * max(float(smax), 1e-300)
        vecs = []
        vh = _from_mp_matrix(ctx, v)
        svals = [float(s[i]) for i in range(s.rows)]
        for i in range(n):
            if i >= len(svals) or svals[i] <= thresh:
                vecs.append(np.conjugate(vh[i, :]) if i < vh.shape[0] else None)
        # mpmath returns v with rows = min(m,n); complete the basis if needed
        if a.shape[0] < n:
            return _nullspace_via_gram(ctx, a)
        return [v for v in vecs if v is not None]
    # a tall a only needs the thin factors: vh is n x n either way
    u, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    smax = s[0] if s.size else 0.0
    thresh = ctx.tol * max(smax, 1e-300)
    rank = int(np.sum(s > thresh))
    return [np.conjugate(vh[i, :]) for i in range(rank, n)]


def _nullspace_via_gram(ctx: ScalarContext, a: np.ndarray) -> list[np.ndarray]:
    # kernel of a == kernel of a^H a, which is square
    g = np.conjugate(a.T) @ a
    return nullspace(ctx, g)


def rank(ctx: ScalarContext, a: np.ndarray, guard: float = 10.0,
         scale: float = 0.0) -> int:
    """Numerical rank with an explicit gap requirement.

    The cut sits at tol times the larger of the top singular value and the
    caller-provided absolute scale; values above and below must be
    separated by at least the guard factor, otherwise the decision is
    refused.
    """
    s = singular_values(ctx, a)
    if not s or s[0] <= ctx.tol * scale:
        return 0
    thresh = ctx.tol * max(s[0], scale)
    above = [x for x in s if x > thresh]
    below = [x for x in s if x <= thresh]
    if above and below and below[0] > 0 and above[-1] / below[0] < guard:
        raise NumericInstability(
            f"ambiguous rank: singular values {above[-1]:.3e} vs {below[0]:.3e}"
        )
    return len(above)


def inv(ctx: ScalarContext, a: np.ndarray) -> np.ndarray:
    if ctx.high_precision:
        return _from_mp_matrix(ctx, _to_mp_matrix(ctx, a) ** -1)
    return np.linalg.inv(a)


def solve_lstsq(ctx: ScalarContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares solve, used for section/coefficient fits.

    At high precision the pseudo-inverse keeps the singular values above
    tol * s_max, the cut of `rank`, so a rank-deficient system is solved
    rather than divided by zero."""
    if ctx.high_precision:
        u, s, v = ctx._mp.svd_c(_to_mp_matrix(ctx, a))
        u, v = _from_mp_matrix(ctx, u), _from_mp_matrix(ctx, v)
        svals = [s[i] for i in range(s.rows)]
        thresh = ctx.tol * max(svals, default=0)
        # a = u diag(s) v, so x = v^H diag(1/s) u^H b over the kept values
        x = zeros(ctx, a.shape[1])
        for i, si in enumerate(svals):
            if si > thresh:
                x = x + np.conjugate(v[i, :]) * ((np.conjugate(u[:, i]) @ b) / si)
        return x
    return np.linalg.lstsq(a, b, rcond=None)[0]


def kron(ctx: ScalarContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast multiply; the
    same products as np.kron, without its generic-rank overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def norm_inf(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    if a.dtype != object:
        return float(np.abs(a).max())
    return float(max(abs(x) for x in a.reshape(-1)))


def frobenius_inner(a: np.ndarray, b: np.ndarray):
    """<a, b> = sum conj(a_ij) b_ij."""
    return (np.conjugate(a.reshape(-1)) * b.reshape(-1)).sum()
