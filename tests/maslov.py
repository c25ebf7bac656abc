"""Symplectic linear algebra: Lagrangian subspaces, contraction along an
isotropic subspace, and the Maslov index of a Lagrangian triple.

These are the signature-defect ingredients of the decorated cobordism
bookkeeping: the Maslov index is the signature of Kashiwara's symmetric form
omega(x1, x2) + omega(x2, x3) + omega(x3, x1) on L1 + L2 + L3.

cgpkit computes no anomaly of composed cobordisms, so nothing in the
package calls this module: it lives beside its tests (`test_maslov.py`
and the acceptance suite's Maslov criterion), and moves into the package
with its first caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateBasis(ValueError):
    pass


class NotIsotropic(ValueError):
    pass


class NotLagrangian(ValueError):
    pass


@dataclass(frozen=True)
class SymplecticSpace:
    """Real vector space with an antisymmetric bilinear form.

    The form may be degenerate; Lagrangian tests use the radical-aware
    definition L = L-perp.
    """

    form: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        f = np.asarray(self.form, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError("form must be square")
        if f.size and np.abs(f + f.T).max() > self.tol * max(1.0, np.abs(f).max()):
            raise ValueError("form must be antisymmetric")
        object.__setattr__(self, "form", f)

    @property
    def dim(self) -> int:
        return self.form.shape[0]


def standard_symplectic(n: int, tol: float = 1e-9) -> SymplecticSpace:
    """R^{2n} with omega(e_i, e_{n+i}) = 1."""
    f = np.zeros((2 * n, 2 * n))
    f[:n, n:] = np.eye(n)
    f[n:, :n] = -np.eye(n)
    return SymplecticSpace(f, tol)


def _colspace(basis: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal column basis; raises when the input is rank deficient."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[1] == 0:
        return basis.reshape(basis.shape[0], 0)
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= tol * max(1.0, diag.max()):
        raise DegenerateBasis("basis columns are dependent")
    return q


def _svd_rank(m: np.ndarray, tol: float, full: bool = False):
    """u, s, vh and the numerical rank of m: the singular values above
    tol * max(1, s_max).  `full` gives the whole kernel in vh[rank:]."""
    u, s, vh = np.linalg.svd(m, full_matrices=full)
    return u, s, vh, int(np.sum(s > tol * max(1.0, s[0] if s.size else 0.0)))


def _span_basis(space: SymplecticSpace, vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the given columns (may be rank
    deficient)."""
    vectors = np.atleast_2d(vectors)
    if vectors.size == 0:
        return vectors.reshape(space.dim, 0)
    u, _, _, rank = _svd_rank(vectors, space.tol)
    return u[:, :rank]


def perp(space: SymplecticSpace, basis: np.ndarray) -> np.ndarray:
    """Orthogonal complement with respect to the form: ker(B^T omega)."""
    basis = np.atleast_2d(basis)
    if basis.shape[1] == 0:
        return np.eye(space.dim)
    _, _, vh, rank = _svd_rank(basis.T @ space.form, space.tol, full=True)
    return vh[rank:, :].T


def is_isotropic(space: SymplecticSpace, basis: np.ndarray) -> bool:
    b = _colspace(basis, space.tol)
    g = b.T @ space.form @ b
    return np.abs(g).max() <= space.tol * max(1.0, np.abs(space.form).max()) if g.size else True


def is_lagrangian(space: SymplecticSpace, basis: np.ndarray) -> bool:
    """L is Lagrangian iff L equals its own perp."""
    basis = np.atleast_2d(basis)
    if space.dim == 0:
        return basis.size == 0 or basis.shape[1] == 0
    b = _colspace(basis, space.tol)
    if not is_isotropic(space, b):
        return False
    p = perp(space, b)
    return p.shape[1] == b.shape[1] and _subspace_leq(b, p, space.tol)


def _subspace_leq(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """span(a) contained in span(b)."""
    if a.shape[1] == 0:
        return True
    if b.shape[1] == 0:
        return False
    proj = b @ (b.T @ a)
    return np.abs(proj - a).max() <= 100 * tol


@dataclass(frozen=True)
class Contraction:
    """Quotient symplectic space H|A = A-perp / A with its reduced form."""

    space: SymplecticSpace
    lift: np.ndarray  # columns: complement of A inside A-perp


def contract_space(space: SymplecticSpace, a_basis: np.ndarray) -> Contraction:
    if not is_isotropic(space, a_basis):
        raise NotIsotropic("contraction needs an isotropic subspace")
    a = _span_basis(space, np.atleast_2d(a_basis))
    ap = perp(space, a)
    # complement of A inside A-perp: project A out of A-perp
    proj = ap - a @ (a.T @ ap) if a.shape[1] else ap
    lift = _span_basis(space, proj)
    form = lift.T @ space.form @ lift
    return Contraction(SymplecticSpace(form, space.tol), lift)


def contract(space: SymplecticSpace, b_basis: np.ndarray,
             a_basis: np.ndarray) -> tuple[np.ndarray, Contraction]:
    """B|A = ((B + A) cap A-perp)/A as columns in the quotient coordinates."""
    quo = contract_space(space, a_basis)
    a = _span_basis(space, np.atleast_2d(a_basis))
    b = np.atleast_2d(b_basis)
    ba = _span_basis(space, np.concatenate([b, a], axis=1) if a.shape[1] else b)
    cap = _intersect(space, ba, perp(space, a))
    coords = quo.lift.T @ cap
    return _span_basis(quo.space, coords), quo


def _intersect(space: SymplecticSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two column spans via the kernel of [a, -b]."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    _, _, vh, rank = _svd_rank(np.concatenate([a, -b], axis=1), space.tol, full=True)
    return _span_basis(space, a @ vh[rank:, :a.shape[1]].T)


def maslov_index(space: SymplecticSpace, l1: np.ndarray, l2: np.ndarray,
                 l3: np.ndarray) -> int:
    """Signature of Kashiwara's form omega(x1, x2) + omega(x2, x3) + omega(x3, x1)
    on L1 + L2 + L3, which equals that of Wall's Maslov form (Cappell-Lee-Miller,
    CPAM 47, 1994)."""
    for l in (l1, l2, l3):
        if not is_lagrangian(space, l):
            raise NotLagrangian("all three subspaces must be Lagrangian")
    b = [_colspace(np.atleast_2d(l), space.tol) for l in (l1, l2, l3)]
    # block (i, i + 1) is B_i^T omega B_{i+1}, block (i + 1, i) its transpose
    w = [b[i].T @ space.form @ b[(i + 1) % 3] for i in range(3)]
    z = [np.zeros((x.shape[1],) * 2) for x in b]
    vals = np.linalg.eigvalsh(np.block([[z[0], w[0], w[2].T],
                                        [w[0].T, z[1], w[1]],
                                        [w[2], w[1].T, z[2]]]))
    thresh = space.tol * max(1.0, np.abs(vals).max() if vals.size else 0.0)
    return int(np.sum(vals > thresh)) - int(np.sum(vals < -thresh))


def lagrangian_from_graph(n: int, sym: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Graph {(x, Sx)} of a symmetric matrix inside R^{2n}: a Lagrangian of
    the standard symplectic space."""
    sym = np.asarray(sym, dtype=float)
    if sym.shape != (n, n) or np.abs(sym - sym.T).max() > tol:
        raise ValueError("need a symmetric n x n matrix")
    return np.concatenate([np.eye(n), sym], axis=0)


def random_lagrangian(n: int, rng, tol: float = 1e-9) -> np.ndarray:
    """Random Lagrangian of the standard space: a rotated graph Lagrangian."""
    s = rng.standard_normal((n, n))
    l = lagrangian_from_graph(n, 0.5 * (s + s.T), tol)
    if rng.random() < 0.5:
        # swap the two halves (a symplectic rotation) for more variety
        l = standard_symplectic(n, tol).form @ l
    return l
