"""Evaluation of sliced diagrams into matrices, and the renormalized
invariant of admissible closed diagrams.

The functor sends a diagram to the composite of its slice matrices; the
basis of a tensor word is lexicographic in letter position then weight
index.  Closed diagrams with a typical edge are evaluated through a
cutting presentation and the modified trace, which is independent of the
chosen cut.

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
    sign, color = letters[0]
    M = wc.realize_letter(ctx, (1, color))
    flavor = {
        ("cup_l", 1): "ev_l", ("cup_l", -1): "ev_r",
        ("cup_r", 1): "ev_r", ("cup_r", -1): "ev_l",
        ("cap_l", 1): "coev_l", ("cap_l", -1): "coev_r",
        ("cap_r", 1): "coev_r", ("cap_r", -1): "coev_l",
    }[(kind, 1 if sign > 0 else -1)]
    return wc.ev_coev(ctx, M, flavor)


def cell_matrix(ctx: ScalarContext, cell: dg.Cell) -> np.ndarray:
    if cell.kind == "coupon":
        return cell.matrix if not ctx.high_precision else la.asarray(ctx, cell.matrix)
    return _cell_matrix_cached(ctx, cell.kind, cell.letters)


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


def _cell_nonzeros(ctx: ScalarContext, cell: dg.Cell, m: np.ndarray):
    if cell.kind == "coupon":
        return _nonzeros(m)
    return _cell_nonzeros_cached(ctx, cell.kind, cell.letters)


def _letter_dims(ctx: ScalarContext, word: wc.ObjectWord) -> list[int]:
    return [wc.color_dim(ctx, c) for _, c in word]


def evaluate(ctx: ScalarContext, d: dg.Diagram) -> np.ndarray:
    """Matrix of the diagram from realize(source) to realize(target).

    Functorial under compose and monoidal under tensor.  The diagram's
    scalar prefactor multiplies the result.  Formal color labels must be
    expanded first.
    """
    if d.formal:
        raise ValueError("diagram carries formal colors; use evaluate_formal")
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
            m = cell_matrix(ctx, cell)
            din = math.prod(dims[pos:pos + nin])
            dl = math.prod(out_dims_prefix)
            dr = math.prod(dims[pos + nin:])
            if support is None:
                state = _apply_local(ctx, state, m, dl, din, dr, src_dim)
            else:
                state, support = _apply_local_nonzero(
                    ctx, state, support, m, _cell_nonzeros(ctx, cell, m),
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


def expand_formal(ctx: ScalarContext, d: dg.Diagram,
                  extra: dict[int, wc.FormalColorSum] | None = None):
    """Iterate (coefficient, plain diagram) over all formal color choices.

    Each recoloring drops its component's formal label and hands on the
    component map, so a term costs no union-find."""
    assignments = dict(d.formal)
    if extra:
        for cid, fc in extra.items():
            if cid in assignments:
                raise ValueError(f"component {cid} already formally colored")
            assignments[cid] = fc
    if not assignments:
        yield ctx.scalar(1), d
        return
    comp_ids = sorted(assignments)
    for combo in itertools.product(*(assignments[c].terms for c in comp_ids)):
        coeff = ctx.scalar(1)
        plain = d
        for cid, (co, col) in zip(comp_ids, combo):
            coeff = coeff * co
            plain = plain.recolor_component(cid, col)
        yield coeff, plain


def evaluate_formal(ctx: ScalarContext, d: dg.Diagram,
                    extra: dict[int, wc.FormalColorSum] | None = None) -> np.ndarray:
    """Linear expansion of Kirby-colored components, summed with coefficients."""
    total = None
    for coeff, plain in expand_formal(ctx, d, extra):
        val = evaluate(ctx, plain) * coeff
        total = val if total is None else total + val
    return total


def find_typical_edge(ctx: ScalarContext, d: dg.Diagram) -> tuple[int, int] | None:
    words = d.boundary_words()
    for b in range(1, len(words)):
        for i, (sign, color) in enumerate(words[b]):
            if isinstance(color, wc.Typical):
                return (b, i)
    return None


def f_prime(ctx: ScalarContext, d: dg.Diagram,
            edge: tuple[int, int] | None = None,
            extra: dict[int, wc.FormalColorSum] | None = None) -> Scalar:
    """Renormalized invariant of an admissible closed diagram.

    Cuts along a typical edge, evaluates, and applies the modified trace;
    the value does not depend on the chosen cut.  Formal color labels are
    expanded linearly before cutting.
    """
    if not d.is_closed():
        raise ValueError("renormalized invariant needs a closed diagram")
    total = ctx.scalar(0)
    found_any = False
    for coeff, plain in expand_formal(ctx, d, extra):
        e = edge if edge is not None else find_typical_edge(ctx, plain)
        if e is None:
            raise NotAdmissible("closed diagram has no typical edge to cut")
        found_any = True
        cut_d = dg.cut(ctx, plain, e[0], e[1])
        word = cut_d.source
        mat = evaluate(ctx, cut_d)
        total = total + coeff * wc.modified_trace(ctx, word, mat)
    if not found_any:
        raise NotAdmissible("empty expansion")
    return total
