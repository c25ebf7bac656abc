"""Weight modules over unrolled quantum sl2 at an even root of unity.

This is an executable matrix model of the ribbon category of
finite-dimensional weight modules: E and F act by matrices on explicit
weight bases, H by the weights and K^p by q^{p w}; braiding from the
R-matrix, twist, two-sided duality with the pivot K^{1-r/2}, an
intertwiner solver, the modified trace on projective
objects, Kirby colors, and the global constants (stabilization coefficients,
their square root, and the relative modularity parameter) that enter the
surgery formula.  Nothing here branches on the precision: scalars come
from the `ScalarContext` (the square root D from `ScalarContext.sqrt`) and
matrices from `_linalg`.

Typical simple modules V_alpha have highest weight alpha and dimension r/2,
with weight string alpha, alpha-2, ..., alpha-r+2; this is forced by the
nilpotency E^{r/2} = F^{r/2} = 0.  V_alpha is simple projective ("typical")
iff alpha is not an integer or alpha = r/2 - 1 mod r/2.  One-dimensional
modules sigma(k), with H acting by k in rbar*Z, realize the periodicity
group.  An object is a signed tensor word of colors: a plain tuple of
letters (sign, color), read left to right.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce

import numpy as np

from . import _linalg as la
from .qscalars import ScalarContext, Scalar


class NonTypicalColor(ValueError):
    """A typical color was required, for a typical simple module or a
    projective tensor factor, and the given weight or color is not one."""


class CriticalDegree(ValueError):
    """A generic degree was required but the given one is critical."""


# ---------------------------------------------------------------------------
# degrees and colors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Degree:
    """A class in C/2Z, stored as a complex representative."""

    g: complex

    def reduced(self) -> complex:
        re = self.g.real % 2.0
        return complex(re, self.g.imag)

    def equals(self, other: "Degree", tol: float) -> bool:
        d = self.g - other.g
        if abs(d.imag) > tol:
            return False
        half = d.real / 2.0
        return abs(half - round(half)) <= tol

    def is_critical(self, tol: float) -> bool:
        # critical classes are the integers mod 2, i.e. Z/2Z inside C/2Z
        if abs(self.g.imag) > tol:
            return False
        return abs(self.g.real - round(self.g.real)) <= tol


@dataclass(frozen=True)
class Typical:
    """Color of the typical simple module with highest weight alpha."""

    alpha: complex

    def __repr__(self):
        return f"V({self.alpha})"


@dataclass(frozen=True)
class Sigma:
    """Color of the one-dimensional module sigma(k), k in rbar*Z."""

    k: int

    def __repr__(self):
        return f"sigma({self.k})"


@dataclass(frozen=True)
class Kirby:
    """Kirby color of one strand component: a formal sum of typical colors.

    A surgery component carries its meridian degree g, which may be
    critical until automatic stabilization, so Omega_g is formed only at
    evaluation.  A graph component carries its own sum in `terms`, or
    Omega_g when `terms` is None; g is then the degree of the summands.
    `tag` tells apart components whose colors are otherwise equal, so that
    each expands independently.
    """

    g: complex
    tag: int = 0
    surgery: bool = False
    terms: FormalColorSum | None = field(default=None, hash=False)

    def color_sum(self, ctx: ScalarContext) -> FormalColorSum:
        return self.terms if self.terms is not None else kirby_color(ctx, Degree(self.g))


Color = Typical | Sigma | Kirby

Letter = tuple[int, Color]  # (+1 or -1, color)
ObjectWord = tuple[Letter, ...]  # a signed tensor word; ObjectWord([...]) builds one


def is_typical_weight(ctx: ScalarContext, alpha: complex) -> bool:
    """Highest weights of typical (simple projective) modules.

    alpha works iff it is not an integer, or is an integer congruent to
    r/2 - 1 mod r/2.
    """
    alpha = complex(alpha)
    if abs(alpha.imag) > ctx.tol:
        return True
    n = round(alpha.real)
    if abs(alpha.real - n) > ctx.tol:
        return True
    m = ctx.nilpotency
    return n % m == m - 1


def color_dim(ctx: ScalarContext, color: Color) -> int:
    """r/2 for typical colors and for Kirby colors, whose summands are all
    typical; 1 for sigma(k)."""
    return 1 if isinstance(color, Sigma) else ctx.nilpotency


def color_degree(color: Color) -> Degree:
    if isinstance(color, Typical):
        return Degree(complex(color.alpha))
    if isinstance(color, Kirby):
        return Degree(complex(color.g))
    return Degree(complex(color.k))


def dual_color(ctx: ScalarContext, color: Color) -> Color:
    """Isomorphism class of the dual of a simple module."""
    if isinstance(color, Typical):
        return Typical(2 * (ctx.nilpotency - 1) - complex(color.alpha))
    return Sigma(-color.k)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightModule:
    """Concrete module: a weight basis with the actions of E and F.  H acts
    by the weights and K^p by q^{p w} (`_k_power`), so neither is stored."""

    weights: tuple[Scalar, ...]
    actE: np.ndarray
    actF: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def degree(self) -> Degree:
        return Degree(complex(self.weights[0]))


def _k_power(ctx: ScalarContext, M: WeightModule, p: int) -> np.ndarray:
    """Diagonal of K^p on the weight basis of M: q^{p w} for each weight w."""
    return la.asarray(ctx, [ctx.q_power(p * w) for w in M.weights])


def typical_module(ctx: ScalarContext, alpha: complex) -> WeightModule:
    """V_alpha: basis v_0..v_{m-1}, F v_n = v_{n+1}, E v_n = [n][a-n+1] v_{n-1}."""
    alpha = complex(alpha)
    if not is_typical_weight(ctx, alpha):
        raise NonTypicalColor(f"weight {alpha} is not typical at level {ctx.r}")
    # at working precision, so that alpha - 2n and alpha - n + 1 are exact
    alpha = ctx.scalar(alpha)
    m = ctx.nilpotency
    E = la.zeros(ctx, (m, m))
    F = la.zeros(ctx, (m, m))
    for n in range(1, m):
        F[n, n - 1] = ctx.scalar(1)
        E[n - 1, n] = ctx.qint(n) * ctx.qint(alpha - n + 1)
    return WeightModule(tuple(alpha - 2 * n for n in range(m)), E, F)


def sigma_module(ctx: ScalarContext, k: int) -> WeightModule:
    if k % ctx.rbar != 0:
        raise ValueError(f"sigma index {k} not a multiple of rbar={ctx.rbar}")
    return WeightModule((complex(k),), la.zeros(ctx, (1, 1)), la.zeros(ctx, (1, 1)))


def dual_module(ctx: ScalarContext, M: WeightModule) -> WeightModule:
    """Dual action through the antipode: rho*(x) = rho(S(x))^T, with
    S(E) = -E K^{-1} and S(F) = -K F."""
    E = -(M.actE @ np.diag(_k_power(ctx, M, -1))).T
    F = -(np.diag(_k_power(ctx, M, 1)) @ M.actF).T
    return WeightModule(tuple(-w for w in M.weights), E, F)


def tensor_module(ctx: ScalarContext, A: WeightModule, B: WeightModule) -> WeightModule:
    """Tensor product through the coproduct, basis in lexicographic order."""
    IA = la.eye(ctx, A.dim)
    IB = la.eye(ctx, B.dim)
    E = la.kron(A.actE, np.diag(_k_power(ctx, B, 1))) + la.kron(IA, B.actE)
    F = la.kron(A.actF, IB) + la.kron(np.diag(_k_power(ctx, A, -1)), B.actF)
    return WeightModule(tuple(a + b for a in A.weights for b in B.weights), E, F)


@lru_cache(maxsize=512)  # one pass of every benchmark workload holds 179
def realize_letter(ctx: ScalarContext, letter: Letter) -> WeightModule:
    sign, color = letter
    if isinstance(color, Typical):
        M = typical_module(ctx, color.alpha)
    elif isinstance(color, Sigma):
        M = sigma_module(ctx, color.k)
    elif isinstance(color, Kirby):
        raise ValueError(f"{color!r} is a formal sum; expand it before realizing")
    else:
        raise TypeError(f"not a color: {color!r}")
    M = M if sign > 0 else dual_module(ctx, M)
    # read-only, as every caller gets the same module
    M.actE.setflags(write=False)
    M.actF.setflags(write=False)
    return M


def realize(ctx: ScalarContext, word: ObjectWord) -> WeightModule:
    """Concrete module of a signed tensor word; empty word gives the unit."""
    mods = [realize_letter(ctx, letter) for letter in word] or [sigma_module(ctx, 0)]
    return reduce(partial(tensor_module, ctx), mods)


def check_module_relations(ctx: ScalarContext, M: WeightModule) -> float:
    """Largest deviation from the defining algebra relations.

    Checks [H,E] = 2E and [H,F] = -2F with H the weights,
    [E,F] = (K - K^-1)/(q - q^-1), E^{r/2} = F^{r/2} = 0, and weight/degree
    congruence; K = q^H holds by construction.  Returns the max
    infinity-norm residual.
    """
    H = np.diag(la.asarray(ctx, M.weights))
    devs = [la.norm_inf(H @ M.actE - M.actE @ H - 2 * M.actE),
            la.norm_inf(H @ M.actF - M.actF @ H + 2 * M.actF)]
    comm_ef = M.actE @ M.actF - M.actF @ M.actE
    rhs = np.diag(_k_power(ctx, M, 1) - _k_power(ctx, M, -1)) / (ctx.q - 1 / ctx.q)
    devs.append(la.norm_inf(comm_ef - rhs))
    m = ctx.nilpotency
    Epow = la.eye(ctx, M.dim)
    Fpow = la.eye(ctx, M.dim)
    for _ in range(m):
        Epow = Epow @ M.actE
        Fpow = Fpow @ M.actF
    devs.append(la.norm_inf(Epow))
    devs.append(la.norm_inf(Fpow))
    g = M.degree.g
    for w in M.weights:
        half = (complex(w) - g) / 2.0
        devs.append(abs(half.imag) + abs(half.real - round(half.real)))
    return max(devs)


# ---------------------------------------------------------------------------
# braiding, twist, duality morphisms
# ---------------------------------------------------------------------------


def _weight_steps(ctx: ScalarContext, M: WeightModule) -> np.ndarray:
    """Integers a_i with weight_i = weight_0 + 2 a_i.  They exist because
    all weights of a module lie in its degree class."""
    w0 = complex(M.weights[0])
    half = [(complex(w) - w0) / 2 for w in M.weights]
    steps = np.array([round(h.real) for h in half], dtype=np.int64)
    if any(abs(h - s) > ctx.tol for h, s in zip(half, steps)):
        raise ValueError("module weights do not lie in one degree class")
    return steps


def _powers(ctx: ScalarContext, z: Scalar, exponents) -> np.ndarray:
    return la.asarray(ctx, [z ** int(e) for e in exponents])


def _power_nonzeros(ctx: ScalarContext, X: np.ndarray, top: int):
    """Nonzeros (rows, cols, values) of X^0, ..., X^top, stopping before a
    power without any.  X^k = X^{k-1} X is summed from the products of
    nonzero entries only."""
    step = {t: [(c, x) for c, x in enumerate(row) if x] for t, row in enumerate(X.tolist())}
    power = {(i, i): ctx.scalar(1) for i in range(X.shape[0])}
    out = []
    while power and len(out) <= top:
        rows, cols = np.array(list(power)).T
        out.append((rows, cols, la.asarray(ctx, list(power.values()))))
        nxt = {}
        for (r, t), v in power.items():
            for c, x in step[t]:
                nxt[r, c] = nxt[r, c] + v * x if (r, c) in nxt else v * x
        power = nxt
    return out


@lru_cache(maxsize=None)
def _theta_coefficients(ctx: ScalarContext, sign: int) -> tuple[Scalar, ...]:
    """q^{sign b(b-1)/2} {sign}^b/[b]!, b < r/2: the coefficients of Theta
    for sign +1 and of Theta-bar, Theta with q -> q^{-1}, for sign -1."""
    return tuple(ctx.q_power(sign * b * (b - 1) / 2) * ctx.brace(sign) ** b / ctx.qfact_nonzero(b)
                 for b in range(ctx.nilpotency))


def _braiding(ctx: ScalarContext, V: WeightModule, W: WeightModule, sign: int) -> np.ndarray:
    """c_{V,W}: V(x)W -> W(x)V for sign +1, its inverse for sign -1.

    c = swap o (Cartan factor q^{lambda*mu/2}) o Theta, with the truncated
    quasi-R-matrix Theta = sum_b q^{b(b-1)/2} {1}^b/[b]! E^b (x) F^b, a
    q-exponential in the nilpotent E (x) F.  Its inverse is Theta-bar,
    Theta with q -> q^{-1}, so c^{-1} = Theta-bar o (Cartan factor)^{-1} o
    swap^{-1} has the nonzeros of c and nothing is inverted.  Only the
    nonzero products of E^b and F^b entries are formed; on the weight basis
    of a simple module each power has at most one nonzero per column.  With
    lambda = lambda_0 + 2a and mu = mu_0 + 2b (integers a, b) the Cartan
    factor is q^{lambda_0 mu_0/2} (q^{mu_0})^a (q^{lambda_0})^b (q^2)^{ab}:
    four q_power calls per braiding, not one per row.  The swap permutes
    the rows of c and the columns of c^{-1}.
    """
    dV, dW, m = V.dim, W.dim, ctx.nilpotency
    a, b = _weight_steps(ctx, V), _weight_steps(ctx, W)
    lam0, mu0 = V.weights[0], W.weights[0]
    q2 = _powers(ctx, ctx.q_power(sign * 2), range(m))
    cartan = (np.multiply.outer(_powers(ctx, ctx.q_power(sign * mu0), a),
                                _powers(ctx, ctx.q_power(sign * lam0), b))
              * q2[np.multiply.outer(a, b) % m]
              * ctx.q_power(sign * ctx.scalar(lam0) * ctx.scalar(mu0) / 2)).reshape(-1)
    # row i*dW + j of Theta (weights lambda_i, mu_j) is row j*dV + i of c
    swap = np.arange(dV * dW).reshape(dW, dV).T.reshape(-1)
    theta = _theta_coefficients(ctx, sign)
    out = la.zeros(ctx, (dW * dV, dV * dW))
    powers = zip(_power_nonzeros(ctx, V.actE, m - 1), _power_nonzeros(ctx, W.actF, m - 1))
    for k, ((ei, ej, ev), (fi, fj, fv)) in enumerate(powers):
        rows = np.add.outer(ei * dW, fi).reshape(-1)
        cols = np.add.outer(ej * dW, fj).reshape(-1)
        vals = np.multiply.outer(ev, fv).reshape(-1) * theta[k]
        if sign > 0:
            out[swap[rows], cols] += vals * cartan[rows]
        else:
            out[rows, swap[cols]] += vals * cartan[cols]
    return out


def braiding(ctx: ScalarContext, V: WeightModule, W: WeightModule) -> np.ndarray:
    """Braiding c_{V,W}: V(x)W -> W(x)V."""
    return _braiding(ctx, V, W, 1)


def braiding_inv(ctx: ScalarContext, V: WeightModule, W: WeightModule) -> np.ndarray:
    """Inverse braiding (c_{V,W})^{-1}: W(x)V -> V(x)W, built from Theta-bar."""
    return _braiding(ctx, V, W, -1)


def _pivot(ctx: ScalarContext, M: WeightModule, sign: int) -> np.ndarray:
    """Diagonal of the pivotal element K^{1-r/2} (sign +1) or of its
    inverse (sign -1) on the weight basis of M."""
    return _k_power(ctx, M, sign * ctx.pivot_power)


def ev_coev(ctx: ScalarContext, M: WeightModule, flavor: str) -> np.ndarray:
    """(Co)evaluation matrices for a realized module M.

    'ev_l':   M* (x) M  -> 1      phi (x) v |-> phi(v)
    'coev_l': 1 -> M (x) M*       1 |-> sum v_i (x) phi_i
    'ev_r':   M (x) M* -> 1       v (x) phi |-> phi(pivot v)
    'coev_r': 1 -> M* (x) M       1 |-> sum phi_i (x) pivot^{-1} v_i

    The right flavors carry the pivot K^{1-r/2}; the left flavors are free
    of it.  Zig-zag identities hold by construction.
    """
    sign = {"ev_l": 0, "coev_l": 0, "ev_r": 1, "coev_r": -1}.get(flavor)
    if sign is None:
        raise ValueError(f"unknown flavor {flavor!r}")
    d = M.dim
    # entry i*d + i pairs basis vector i with dual basis vector i
    out = la.zeros(ctx, d * d)
    out[::d + 1] = _pivot(ctx, M, sign) if sign else ctx.scalar(1)
    return out.reshape((1, d * d) if flavor.startswith("ev") else (d * d, 1))


def twist(ctx: ScalarContext, V: WeightModule, sign: int = 1) -> np.ndarray:
    """theta_V^{sign} = (id (x) ev_r) o (c_{V,V}^{sign} (x) id) o (id (x)
    coev_l): the pivot-weighted right partial trace of the self-braiding
    (sign +1) or of its inverse (sign -1), which is what a curl drawn as a
    cap, a self-crossing of that sign and a cup evaluates to; a scalar
    multiple of the identity on simple modules.
    """
    return partial_trace(ctx, _braiding(ctx, V, V, sign), [V, V], 0)


def scalar_of(ctx: ScalarContext, f: np.ndarray) -> Scalar:
    """Extract s from f = s*id, or each s of a stack of such f on leading
    axes, enforcing the deviation policy: the largest entry of f - s*id,
    measured in double at every precision (the diagonal is subtracted at
    working precision first), is at most tol*max(1, |s|), else refused, as
    is a deviation of NaN."""
    s, i = f[..., 0, 0], np.arange(f.shape[-1])
    dev = f.astype(np.complex128)
    dev[..., i, i] = (f[..., i, i] - f[..., :1, 0]).astype(np.complex128)
    dev = np.abs(dev).max(axis=(-2, -1))
    bad = ~(dev <= ctx.tol * np.maximum(1.0, np.abs(np.asarray(s, dtype=np.complex128))))
    if bad.any():
        raise la.NumericInstability(
            f"endomorphism deviates from scalar*id by {dev[bad].max():.3e}")
    return s


# ---------------------------------------------------------------------------
# the partial trace and the modified trace
# ---------------------------------------------------------------------------


def trace_pivots(ctx: ScalarContext, mods: list[WeightModule], i: int,
                 keys: np.ndarray) -> np.ndarray:
    """p-(a) p+(c) at the flat indices `keys` of (a, c): the product, in
    factor order, of the inverse pivot of each factor left of factor i,
    which closes with the left evaluation, and the pivot of each factor
    right of it, which closes with the right evaluation."""
    diagonals = [_pivot(ctx, M, 1 if k > i else -1)
                 for k, M in enumerate(mods) if k != i]
    digits = np.unravel_index(keys, [p.size for p in diagonals]) if diagonals else ()
    return reduce(operator.mul, (p[k] for p, k in zip(diagonals, digits)),
                  np.full(keys.shape, ctx.scalar(1)))


def partial_trace(ctx: ScalarContext, f: np.ndarray, mods: list[WeightModule], i: int) -> np.ndarray:
    """Close every factor of End(mods[0] (x) ... ) except factor i:
    F[j, k] = sum over a, c of p-(a) p+(c) f[(a, j, c), (a, k, c)], with
    the pivots of `trace_pivots`."""
    na, n, nc = (math.prod(M.dim for M in mods[:i]), mods[i].dim,
                 math.prod(M.dim for M in mods[i + 1:]))
    w = trace_pivots(ctx, mods, i, np.arange(na * nc))
    a, c = np.ix_(range(na), range(nc))
    # advanced indices split by slices come first: axes (a, c, j, k)
    diag = f.reshape(na, n, nc, na, n, nc)[a, :, c, a, :, c]
    return (diag * w.reshape(na, nc, 1, 1)).sum(axis=(0, 1))


def modified_trace(ctx: ScalarContext, word: ObjectWord, f: np.ndarray) -> Scalar:
    """Modified trace of an endomorphism of the realized word.

    Closes every letter but the first typical one with `partial_trace`,
    where the result must be scalar*id; the trace is that scalar times the
    modified dimension of the letter.  Raises NonTypicalColor when the word
    has no typical letter and NumericInstability when the reduced
    endomorphism is not scalar.
    """
    mods = [realize_letter(ctx, letter) for letter in word]
    target = next((k for k, (_, color) in enumerate(word) if isinstance(color, Typical)), None)
    if target is None:
        raise NonTypicalColor("modified trace needs a typical tensor factor")
    total = math.prod(M.dim for M in mods)
    if f.shape != (total, total):
        raise ValueError(f"endomorphism shape {f.shape} does not match word dim {total}")
    # d(V*) = d(V): a -letter's own weight, not its dual's, which
    # `dual_color` rounds to double
    alpha = complex(word[target][1].alpha)
    return scalar_of(ctx, partial_trace(ctx, f, mods, target)) * modified_dimension(ctx, alpha)


# ---------------------------------------------------------------------------
# modified dimension
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)  # one pass of every benchmark workload holds 113
def modified_dimension(ctx: ScalarContext, alpha) -> Scalar:
    """Modified (projective) dimension of the typical module V_alpha,
    cached on (ctx, alpha).

    d(V_alpha) = (-1)^{m-1} m {mu} / {m mu},  mu = alpha - m + 1,

    with m = r/2 and mu the middle weight of V_alpha, formed at working
    precision (alpha - (m - 1) in double would round).  The shift is forced
    by trace compatibility: d(V_gamma)/d(V_alpha) must equal the scalar of
    tr_r applied to the projector onto each summand V_gamma of
    V_alpha (x) V_beta, with the ribbon pivot K^{1-r/2}.  It also satisfies
    d(V (x) sigma(k)) = d(V) dim(sigma(k)) and d(V*) = d(V).  The overall
    scale is a free normalization.
    """
    alpha = complex(alpha)
    if not is_typical_weight(ctx, alpha):
        raise NonTypicalColor(f"weight {alpha} is not typical at level {ctx.r}")
    m = ctx.nilpotency
    mu = ctx.scalar(alpha) - (m - 1)
    den = ctx.brace(m * mu)
    if abs(den) <= 10 * ctx.tol:
        # typical weights on the critical lattice (mu in m Z): both braces
        # vanish and the ratio continues to the derivative quotient
        qm = ctx.q_power(mu)
        qmm = ctx.q_power(m * mu)
        return (-1) ** (m - 1) * (qm + 1 / qm) / (qmm + 1 / qmm)
    return (-1) ** (m - 1) * m * ctx.brace(mu) / den


# ---------------------------------------------------------------------------
# intertwiner solver
# ---------------------------------------------------------------------------


def hom_basis(ctx: ScalarContext, src: ObjectWord, dst: ObjectWord) -> list[np.ndarray]:
    """Basis of the space of module maps realize(src) -> realize(dst).

    Solves f rho_src(x) = rho_dst(x) f for x in {H, E, F}.  H acts
    diagonally, so a module map can only have entries f[i, j] with
    weight(dst_i) = weight(src_j); those entries are the only unknowns, and
    on them the H equations hold identically (K-intertwining follows).  The
    E and F equations are built directly on these unknowns and their
    all-zero rows are dropped.  E and F couple the entries of weight w with
    those of weight w +- 2, so all the rows go into one nullspace
    computation; the weight blocks cannot be solved separately.
    Returns matrices of shape (dim dst, dim src); an empty list means the
    Hom space is zero.
    """
    S = realize(ctx, src)
    D = realize(ctx, dst)
    nS, nD = S.dim, D.dim
    gap = np.subtract.outer(np.array(D.weights, dtype=complex),
                            np.array(S.weights, dtype=complex))
    rows, cols = np.nonzero(np.abs(gap) <= ctx.tol)
    if rows.size == 0:
        return []
    unknowns = np.arange(rows.size)
    blocks = []
    for xs, xd in ((S.actE, D.actE), (S.actF, D.actF)):
        # (f xs - xd f)[i, j] = sum_p f_p (delta(i, rows_p) xs[cols_p, j]
        #                                  - xd[i, rows_p] delta(cols_p, j))
        A = la.zeros(ctx, (nD, nS, rows.size))
        A[rows, :, unknowns] = xs[cols, :]
        A[:, cols, unknowns] -= xd[:, rows]
        blocks.append(A.reshape(nD * nS, rows.size))
    A = np.concatenate(blocks, axis=0)
    A = A[A.astype(bool).any(axis=1)]
    basis = []
    for v in la.nullspace(ctx, A):
        f = la.zeros(ctx, (nD, nS))
        f[rows, cols] = v
        basis.append(_lead_to_one(f))
    return basis


def _lead_to_one(f: np.ndarray) -> np.ndarray:
    """f over its first entry of largest modulus, which becomes 1."""
    flat = f.reshape(-1)
    return f / flat[np.argmax(np.abs(flat))]


def hom_dim_graded(ctx: ScalarContext, word: ObjectWord) -> int:
    """Total dimension of the periodicity-graded Hom from the unit to the word.

    Sums dim Hom(1, word (x) sigma(k)) over k in rbar*Z; only weights in the
    support of the word can contribute, so the window is finite.  Counted
    directly as the joint E- and F-null vectors of weight in rbar*Z, which
    doubles as the brute-force oracle for the per-k counts: E and F map
    weight w to w +- 2, so per weight that is its basis vectors less the
    rank of E and F on them.
    """
    M = realize(ctx, word)
    A = np.concatenate([M.actE, M.actF], axis=0)
    weights = np.array([complex(w) for w in M.weights])
    count = 0
    for i, w0 in enumerate(weights):
        cols = np.flatnonzero(np.abs(weights - w0) <= ctx.tol)
        ratio = w0.real / ctx.rbar
        if cols[0] < i or abs(w0.imag) > ctx.tol or abs(ratio - round(ratio)) > 100 * ctx.tol:
            continue  # a weight seen before, or off the lattice rbar*Z
        B = A[:, cols]
        count += cols.size - la.rank(ctx, B[B.astype(bool).any(axis=1)])
    return count


# ---------------------------------------------------------------------------
# index sets, Kirby colors, constants
# ---------------------------------------------------------------------------


def index_set(ctx: ScalarContext, g: Degree) -> list[complex]:
    """Representatives of typical highest weights of degree g mod sigma shifts.

    There are rbar/2 of them: g0, g0+2, ..., g0 + rbar - 2 for a reduced
    representative g0 of g.
    """
    if g.is_critical(ctx.tol):
        raise CriticalDegree(f"degree {g.g} is critical")
    g0 = g.reduced()
    return [g0 + 2 * t for t in range(ctx.rbar // 2)]


def sigma_dim(ctx: ScalarContext, k: int) -> int:
    """Categorical dimension of sigma(k): the pivot's action, +1 or -1."""
    val = ctx.q_power(ctx.pivot_power * k)
    out = round(val.real)
    if abs(val - out) > ctx.tol or out not in (1, -1):
        raise la.NumericInstability(f"sigma({k}) dimension not a sign: {val}")
    return out


def z_mod_zplus(ctx: ScalarContext) -> int:
    """Order of Z/Z_+: 1 if dim sigma(rbar) = 1, else 2.  Computed, not hardcoded."""
    return 1 if sigma_dim(ctx, ctx.rbar) == 1 else 2


@dataclass(frozen=True)
class FormalColorSum:
    """Formal linear combination of homogeneous colors of one degree."""

    terms: tuple[tuple[Scalar, Color], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("formal color sum must be nonempty")

    def degree(self, ctx: ScalarContext) -> Degree:
        degs = [color_degree(c) for _, c in self.terms]
        for d in degs[1:]:
            if not d.equals(degs[0], ctx.tol):
                raise ValueError("formal color sum mixes degrees")
        return degs[0]


@lru_cache(maxsize=128)  # one pass of every benchmark workload holds 30
def kirby_color(ctx: ScalarContext, g: Degree) -> FormalColorSum:
    """Kirby color of index g: sum over Z/Z_+ classes and the index set of
    dim sigma(k) d(V_i) * (V_i tensored into the class representative)."""
    reps = index_set(ctx, g)
    ks = [0] if z_mod_zplus(ctx) == 1 else [0, ctx.rbar]
    terms = []
    for k in ks:
        dk = sigma_dim(ctx, k)
        for a in reps:
            terms.append((dk * modified_dimension(ctx, a), Typical(a + k)))
    return FormalColorSum(tuple(terms))


@dataclass(frozen=True)
class InvariantConstants:
    delta_minus: Scalar
    delta_plus: Scalar
    D: Scalar
    eta: Scalar
    delta: Scalar
    zeta: Scalar
    z_mod_zplus: int


@lru_cache(maxsize=None)
def constants(ctx: ScalarContext) -> InvariantConstants:
    """Global constants from meridian evaluations.

    Delta_-/Delta_+ are the scalars of the Kirby-colored -1/+1 framed
    meridian around a typical probe strand, its framing one twist cell
    (theta^{-+1} on each summand V_i, as in every other diagram); zeta
    is read off the meridian around a V_i / dual-V_i pair.  Each figure
    is one column swept from the empty word (see `fixtures`).  D is the
    principal square root of Delta_- Delta_+, eta = |Z/Z_+|/D and
    delta = Delta_+/D.  The values do not depend on the probe, here
    V_{1/2} and the degree 1/2; they are memoized per context.
    """
    from . import fixtures  # local import; fixtures builds on diagrams/rt_eval

    probe = 0.5 + 0.0j
    dm = fixtures.stabilization_coefficient(ctx, probe, framing=-1)
    dp = fixtures.stabilization_coefficient(ctx, probe, framing=+1)
    zeta = fixtures.relative_modularity_scalar(ctx, Degree(probe))
    nz = z_mod_zplus(ctx)
    D = ctx.sqrt(dm * dp)
    return InvariantConstants(
        delta_minus=dm,
        delta_plus=dp,
        D=D,
        eta=nz / D,
        delta=dp / D,
        zeta=zeta,
        z_mod_zplus=nz,
    )
