"""Precision-aware dense linear algebra helpers.

Matrices are numpy arrays: complex128 at the default 53-bit precision,
object arrays of mpmath complex numbers above it.  The object path reuses
numpy's generic matmul/kron and routes factorizations through mpmath,
converting with mpmath's `matrix(list)` and `tolist()`, but `rt_eval`'s
sweeps and closings run exactly: `exact` lifts mpmath numbers to Gaussian
integers, `product` multiplies those, `rounded` rounds each result once,
and `magnitude` sizes them in double.  With `qscalars.ScalarContext`, this
is the only module that reads the precision to choose the arithmetic;
the rest of the package gets the right types from these helpers and the
context's scalars.  `rank` and `exact` raise `qscalars.NumericInstability`.
"""

from __future__ import annotations

import numpy as np

from .qscalars import NumericInstability, ScalarContext


# the smallest ratio between the singular values either side of the rank
# cut that `rank` accepts as a clear gap
RANK_GAP = 10.0


def zeros(ctx: ScalarContext, shape):
    if ctx.high_precision:
        return np.full(shape, ctx.scalar(0), dtype=object)
    # calloc'd: pages cost nothing until written, unlike np.full's
    return np.zeros(shape, dtype=np.complex128)


def eye(ctx: ScalarContext, n: int):
    a = zeros(ctx, (n, n))
    np.fill_diagonal(a, ctx.scalar(1))
    return a


def asarray(ctx: ScalarContext, data):
    """`data` as the context's matrix type; at 53 bits a complex128 array
    is returned as it is."""
    if ctx.high_precision:
        return np.frompyfunc(ctx.scalar, 1, 1)(np.array(data, dtype=object))
    return np.asarray(data, dtype=np.complex128)


def svd(ctx: ScalarContext, a: np.ndarray, compute_uv: bool = True):
    """Singular value decomposition a = u diag(s) vh[:k], k = min(a.shape).

    s is in descending order.  vh is square, so for a wide a the
    factorization is full (mpmath's as numpy's) and the rows of vh past
    the rank span the right kernel; for a tall a the thin factors suffice.
    With compute_uv false only s is returned.
    """
    wide = a.shape[0] < a.shape[1]
    if not ctx.high_precision:
        return np.linalg.svd(a, full_matrices=wide, compute_uv=compute_uv)
    out = ctx._mp.svd_c(ctx._mp.matrix(a.tolist()), full_matrices=wide, compute_uv=compute_uv)
    if not compute_uv:
        return np.array(out.tolist(), dtype=object).reshape(-1)
    u, s, vh = (np.array(x.tolist(), dtype=object) for x in out)
    return u, s.reshape(-1), vh


def _kept(ctx: ScalarContext, s) -> int:
    """How many of the descending singular values s lie above the cut,
    tol times s_max."""
    thresh = ctx.tol * float(s[0])
    return sum(1 for x in s if x > thresh)


def nullspace(ctx: ScalarContext, a: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the right kernel, rank cut at tol * s_max."""
    n = a.shape[1]
    if a.size == 0:
        return [c for c in eye(ctx, n).T]
    u, s, vh = svd(ctx, a)
    return [np.conjugate(vh[i, :]) for i in range(_kept(ctx, s), n)]


def rank(ctx: ScalarContext, a: np.ndarray) -> int:
    """Numerical rank with an explicit gap requirement.

    The cut sits at tol times the top singular value; values above and
    below must be separated by at least the factor RANK_GAP, otherwise the
    decision is refused.  A zero matrix has rank 0.
    """
    if a.size == 0:
        return 0
    s = [float(x) for x in svd(ctx, a, compute_uv=False)]
    k = _kept(ctx, s)
    if 0 < k < len(s) and s[k] > 0 and s[k - 1] / s[k] < RANK_GAP:
        raise NumericInstability(
            f"ambiguous rank: singular values {s[k - 1]:.3e} vs {s[k]:.3e}"
        )
    return k


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast multiply; the
    same products as np.kron, without its generic-rank overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def exact(ctx: ScalarContext, a: np.ndarray) -> tuple:
    """(g, e) with a = (g[0] + i g[1]) * 2**e exactly: Python ints on a
    leading (re, im) axis, e the least exponent of a's nonzeros; at 53 bits
    (a, 0).  A non-finite value, whose mantissa is 0, is refused."""
    if not ctx.high_precision:
        return a, 0
    parts = [p for x in a.flat for p in x._mpc_]  # (sign, man, exp, bc) each
    if any(exp and not man for _, man, exp, _ in parts):
        raise NumericInstability("a non-finite value has no exact form")
    e = min((exp for _, man, exp, _ in parts if man), default=0)
    ints = [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in parts]
    return np.array(ints, dtype=object).reshape(-1, 2).T.reshape(2, *a.shape), e


def product(ctx: ScalarContext, op):
    """op (operator.mul or .matmul) as is at 53 bits, where `*` reuses a
    temporary's buffer; above, op on `exact` values as Gaussian integers."""
    if not ctx.high_precision:
        return op
    return lambda a, b: np.stack((op(a[0], b[0]) - op(a[1], b[1]),
                                  op(a[0], b[1]) + op(a[1], b[0])))


def magnitude(ctx: ScalarContext, g: np.ndarray) -> np.ndarray:
    """|re| + |im| of each `exact` value g in double, in units of one power
    of 2 for all of g (its 2**e, more if the largest passes 2**1000); at 53
    bits of each complex value."""
    if not ctx.high_precision:
        return np.abs(g.real) + np.abs(g.imag)
    m = np.abs(g).sum(axis=0)
    bits = max((int(x).bit_length() for x in m.flat), default=0)
    return (m >> max(0, bits - 1000)).astype(np.float64)


def rounded(ctx: ScalarContext, g: np.ndarray, e: int) -> np.ndarray:
    """The context's scalars nearest the `exact` values (g, e), each
    rounded once (mpf((man, exp)) rounds man * 2**exp); at 53 bits g."""
    if not ctx.high_precision:
        return g
    mpc, zero = ctx._mp.mpc, ctx.scalar(0)  # most of an `evaluate` is zeros
    return np.frompyfunc(lambda re, im: mpc((re, e), (im, e)) if re or im else zero, 2, 1)(*g)


def norm_inf(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0
