"""Evaluation of sliced diagrams into matrices, and the renormalized
invariant of admissible closed diagrams.

The functor sends a diagram to the composite of its slice matrices; the
basis of a tensor word is lexicographic in letter position then weight
index.  Closed diagrams with a typical edge are evaluated through a
cutting presentation and the modified trace, which is independent of the
chosen cut.

Kirby colors expand linearly.  A diagram is cut once, whatever its Kirby
colors; each term of the expansion is a substitution of one summand V_i
for each Kirby color, applied to a cell's letters where its matrix is
looked up, so a term rebuilds no diagram.

At the default 53 bits each cell is one batched complex128 product.  At
106 bits (mpmath object arrays) the sweep touches only nonzero products:
every cell is a module map and so preserves weight, which leaves almost
every state entry and most cell-matrix entries exactly zero.  The state
carries a boolean support, and each output entry sums its terms in
increasing input index, as the object matmul does, so the values are the
same bits as the dense route.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import _linalg as la
from . import diagrams as dg
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar


class NotAdmissible(ValueError):
    """Closed evaluation requested without any typical edge; for a surgery
    presentation, no typical graph edge and no generic surgery meridian."""


@lru_cache(maxsize=None)
def _cell_matrix_cached(ctx: ScalarContext, kind: str, letters) -> np.ndarray:
    if kind == "xpos":
        V = wc.realize_letter(ctx, letters[0])
        W = wc.realize_letter(ctx, letters[1])
        return wc.braiding(ctx, V, W)
    if kind == "xneg":
        V = wc.realize_letter(ctx, letters[1])
        W = wc.realize_letter(ctx, letters[0])
        return wc.braiding_inv(ctx, V, W)
    if kind in ("tpos", "tneg"):
        return wc.twist(ctx, wc.realize_letter(ctx, letters[0]), 1 if kind == "tpos" else -1)
    sign, color = letters[0]
    M = wc.realize_letter(ctx, (1, color))
    flavor = {
        ("cup_l", 1): "ev_l", ("cup_l", -1): "ev_r",
        ("cup_r", 1): "ev_r", ("cup_r", -1): "ev_l",
        ("cap_l", 1): "coev_l", ("cap_l", -1): "coev_r",
        ("cap_r", 1): "coev_r", ("cap_r", -1): "coev_l",
    }[(kind, 1 if sign > 0 else -1)]
    return wc.ev_coev(ctx, M, flavor)


def _substituted(letters: tuple, sub: dict) -> tuple:
    """The letters with each Kirby color replaced by its summand in the
    substitution `sub`."""
    return tuple((sign, sub.get(color, color)) for sign, color in letters)


def cell_matrix(ctx: ScalarContext, cell: dg.Cell, sub: dict | None = None) -> np.ndarray:
    if cell.kind == "coupon":
        return cell.matrix if not ctx.high_precision else la.asarray(ctx, cell.matrix)
    return _cell_matrix_cached(
        ctx, cell.kind, _substituted(cell.letters, sub) if sub else cell.letters)


def _nonzeros(m: np.ndarray):
    """Nonzero entries of a cell matrix grouped by input (column) index:
    per input its number of nonzeros and their offset, then the output
    index and the value of each nonzero in (input, output) order."""
    ins, outs = np.nonzero(m.T)
    count = np.bincount(ins, minlength=m.shape[1])
    return count, np.cumsum(count) - count, outs, m[outs, ins]


@lru_cache(maxsize=None)
def _cell_nonzeros_cached(ctx: ScalarContext, kind: str, letters):
    return _nonzeros(_cell_matrix_cached(ctx, kind, letters))


def _cell_nonzeros(ctx: ScalarContext, cell: dg.Cell, m: np.ndarray,
                   sub: dict | None = None):
    if cell.kind == "coupon":
        return _nonzeros(m)
    return _cell_nonzeros_cached(
        ctx, cell.kind, _substituted(cell.letters, sub) if sub else cell.letters)


def _letter_dims(ctx: ScalarContext, word: wc.ObjectWord) -> list[int]:
    return [wc.color_dim(ctx, c) for _, c in word]


def evaluate(ctx: ScalarContext, d: dg.Diagram, sub: dict | None = None) -> np.ndarray:
    """Matrix of the diagram from realize(source) to realize(target).

    Functorial under compose and monoidal under tensor.  The diagram's
    scalar prefactor multiplies the result.  `sub` maps each Kirby color
    of the diagram to a summand (one term of `expand_formal`); a Kirby
    color left out cannot be realized.
    """
    words = d.boundary_words()
    src_dim = math.prod(_letter_dims(ctx, words[0]))
    state = la.eye(ctx, src_dim)
    support = np.eye(src_dim, dtype=bool) if ctx.high_precision else None
    for s, cells in enumerate(d.slices):
        dims = _letter_dims(ctx, words[s])
        pos = 0
        out_dims_prefix: list[int] = []
        for cell in cells:
            nin = len(cell.in_letters())
            if cell.kind == "id":
                out_dims_prefix.append(dims[pos])
                pos += 1
                continue
            m = cell_matrix(ctx, cell, sub)
            din = math.prod(dims[pos:pos + nin])
            dl = math.prod(out_dims_prefix)
            dr = math.prod(dims[pos + nin:])
            if support is None:
                state = _apply_local(ctx, state, m, dl, din, dr, src_dim)
            else:
                state, support = _apply_local_nonzero(
                    ctx, state, support, m, _cell_nonzeros(ctx, cell, m, sub),
                    dl, din, dr, src_dim)
            out_lets = cell.out_letters()
            out_dims_prefix.extend(wc.color_dim(ctx, c) for _, c in out_lets)
            dims[pos:pos + nin] = [wc.color_dim(ctx, c) for _, c in out_lets]
            pos += len(out_lets)
    return state * ctx.scalar(d.prefactor)


def _apply_local(ctx: ScalarContext, state: np.ndarray, m: np.ndarray,
                 dl: int, din: int, dr: int, src: int) -> np.ndarray:
    # state: (dl * din * dr, src); apply m (dout x din) on the middle factor.
    # Broadcasting m over the left index writes the product straight into
    # the new layout, so the state is never copied into transposed order.
    y = np.matmul(m, state.reshape(dl, din, dr * src))
    return y.reshape(dl * m.shape[0] * dr, src)


def _apply_local_nonzero(ctx: ScalarContext, state: np.ndarray, support: np.ndarray,
                         m: np.ndarray, nonzeros, dl: int, din: int, dr: int, src: int):
    """The 106-bit `_apply_local`: forms only the products of a nonzero
    entry of m with a state entry in the boolean `support`, so no mpmath
    number is compared with zero or multiplied by it.

    `nonzeros` is `_nonzeros(m)`.  Returns the new state and its support,
    which is `m_support @ support` on the middle factor.
    """
    count, offset, outs, vals = nonzeros
    dout, rest = m.shape[0], dr * src
    l, i, r = np.nonzero(support.reshape(dl, din, rest))
    # one product per (nonzero state entry, nonzero of its input column);
    # the state entries come in (l, i, r) order, so a stable sort on the
    # output index keeps each output's terms in increasing input index
    per = count[i]
    term = np.repeat(np.arange(i.size), per)
    # k runs over offset[i], ..., offset[i] + per - 1 for each state entry
    k = np.arange(term.size) + np.repeat(offset[i] + per - np.cumsum(per), per)
    dst = (l[term] * dout + outs[k]) * rest + r[term]
    order = np.argsort(dst, kind="stable")
    dst, k, term = dst[order], k[order], term[order]
    first = np.flatnonzero(np.diff(dst, prepend=-1))
    entries = state.reshape(dl, din, rest)[l, i, r]
    n_out = dl * dout * rest
    y = np.full(n_out, ctx.scalar(0), dtype=object)
    y[dst[first]] = np.add.reduceat(vals[k] * entries[term], first)
    new_support = np.zeros(n_out, dtype=bool)
    new_support[dst[first]] = True
    shape = (dl * dout * dr, src)
    return y.reshape(shape), new_support.reshape(shape)


def expand_formal(ctx: ScalarContext, d: dg.Diagram):
    """Iterate (coefficient, substitution) over the terms of the linear
    expansion of the diagram's Kirby colors.

    A substitution maps each Kirby color to one of its summands.  Kirby
    colors are taken in the order of their components' ids, the first
    varying slowest, and a coefficient is the product of its summands'
    coefficients in that order."""
    kirby = d.kirby_colors()
    for combo in itertools.product(*(k.color_sum(ctx).terms for k in kirby)):
        coeff = ctx.scalar(1)
        for co, _ in combo:
            coeff = coeff * co
        yield coeff, {k: col for k, (_, col) in zip(kirby, combo)}


def evaluate_formal(ctx: ScalarContext, d: dg.Diagram) -> np.ndarray:
    """Linear expansion of Kirby-colored components, summed with coefficients."""
    total = None
    for coeff, sub in expand_formal(ctx, d):
        val = evaluate(ctx, d, sub) * coeff
        total = val if total is None else total + val
    return total


def find_typical_edge(ctx: ScalarContext, d: dg.Diagram) -> tuple[int, int] | None:
    """The first letter above the source colored by a typical module or by
    a Kirby color, whose summands are all typical."""
    words = d.boundary_words()
    for b in range(1, len(words)):
        for i, (sign, color) in enumerate(words[b]):
            if isinstance(color, (wc.Typical, wc.Kirby)):
                return (b, i)
    return None


def f_prime(ctx: ScalarContext, d: dg.Diagram,
            edge: tuple[int, int] | None = None) -> Scalar:
    """Renormalized invariant of an admissible closed diagram.

    Cuts along a typical edge, evaluates, and applies the modified trace;
    the value does not depend on the chosen cut.  The diagram is cut once;
    its Kirby colors are expanded linearly over the cut diagram.
    """
    if not d.is_closed():
        raise ValueError("renormalized invariant needs a closed diagram")
    e = edge if edge is not None else find_typical_edge(ctx, d)
    if e is None:
        raise NotAdmissible("closed diagram has no typical edge to cut")
    cut_d = dg.cut(ctx, d, e[0], e[1])
    total = ctx.scalar(0)
    for coeff, sub in expand_formal(ctx, d):
        word = wc.ObjectWord(_substituted(cut_d.source.letters, sub))
        total = total + coeff * wc.modified_trace(ctx, word, evaluate(ctx, cut_d, sub))
    return total
