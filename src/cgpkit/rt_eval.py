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

Every cell is a module map and so preserves weight: each column of the
state stays in one weight sector, and almost all of it is exact zeros.  So
the sweep keeps the state's nonzeros, sorted flat indices and values over
all source columns, and forms only the products of a nonzero cell entry
with a stored entry.  Each output sums its terms in increasing input
index, as the object matmul does, so 106-bit values are the bits of the
dense route.  At 53 bits a small state is one BLAS product per cell
instead, cheaper than the dozen numpy calls of the scatter.
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


# the most entries, dl * max(din, dout) * dr * src, of a 53-bit state that a
# cell applies dense: sparse everywhere made the r = 4 knots 2.5 times slower,
# 2^11 the r = 14 S^1 x S^2 2.1 times, 2^16 the r = 6 4-strand knot 1.6 times
DENSE_MAX = 2 ** 14


def evaluate(ctx: ScalarContext, d: dg.Diagram, sub: dict | None = None) -> np.ndarray:
    """Matrix of the diagram from realize(source) to realize(target).

    Functorial under compose and monoidal under tensor.  The diagram's
    scalar prefactor multiplies the result.  `sub` maps each Kirby color
    of the diagram to a summand (one term of `expand_formal`); a Kirby
    color left out cannot be realized.
    """
    words = d.boundary_words()
    src = math.prod(_letter_dims(ctx, words[0]))
    # mpmath products cost more than the numpy calls that skip them
    dense_max = 0 if ctx.high_precision else DENSE_MAX
    # the dense state, or None while the state is its nonzeros (idx, val)
    state, idx, val = la.eye(ctx, src), None, None
    for s, cells in enumerate(d.slices):
        dims, pos = _letter_dims(ctx, words[s]), 0
        for cell in cells:
            if cell.kind == "id":
                pos += 1
                continue
            nin = len(cell.in_letters())
            m = cell_matrix(ctx, cell, sub)
            dl, din, dr = (math.prod(dims[:pos]), math.prod(dims[pos:pos + nin]),
                           math.prod(dims[pos + nin:]))
            if dl * max(din, m.shape[0]) * dr * src <= dense_max:
                if state is None:
                    state = la.zeros(ctx, (dl * din * dr, src))
                    state.reshape(-1)[idx] = val
                state = _apply_local(ctx, state, m, dl, din, dr, src)
            else:
                if state is not None:
                    idx = np.flatnonzero(state)
                    val, state = state.reshape(-1)[idx], None
                idx, val = _apply_sparse(idx, val, _cell_nonzeros(ctx, cell, m, sub),
                                         dl, din, m.shape[0], dr * src)
            dims[pos:pos + nin] = _letter_dims(ctx, cell.out_letters())
            pos += len(cell.out_letters())
    if state is None:
        state = la.zeros(ctx, (math.prod(dims), src))
        state.reshape(-1)[idx] = val
    return state * ctx.scalar(d.prefactor)


def _apply_local(ctx: ScalarContext, state: np.ndarray, m: np.ndarray,
                 dl: int, din: int, dr: int, src: int) -> np.ndarray:
    # state: (dl * din * dr, src); apply m (dout x din) on the middle factor.
    # Broadcasting m over the left index writes the product straight into
    # the new layout, so the state is never copied into transposed order.
    y = np.matmul(m, state.reshape(dl, din, dr * src))
    return y.reshape(dl * m.shape[0] * dr, src)


def _apply_sparse(idx: np.ndarray, val: np.ndarray, nonzeros,
                  dl: int, din: int, dout: int, rest: int):
    """`_apply_local` on the state's sorted flat indices `idx` in the
    (dl, din, rest) layout and their values `val`, given `_nonzeros(m)`.
    Returns the sorted flat indices in the (dl, dout, rest) layout of the
    outputs that have a term, and their values."""
    count, offset, outs, vals = nonzeros
    l, i, r = np.unravel_index(idx, (dl, din, rest))
    # one product per (stored entry, nonzero of its input column); the
    # stored entries come in (l, i, r) order, so a stable sort on the
    # output index keeps each output's terms in increasing input index
    per = count[i]
    term = np.repeat(np.arange(idx.size), per)
    # k runs over offset[i], ..., offset[i] + per - 1 for each stored entry
    k = np.arange(term.size) + np.repeat(offset[i] + per - np.cumsum(per), per)
    dst = (l * (dout * rest) + r)[term] + outs[k] * rest
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    first = np.flatnonzero(np.diff(dst, prepend=-1))
    return dst[first], np.add.reduceat((vals[k] * val[term])[order], first)


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
