"""Evaluation of sliced diagrams into matrices, and the renormalized
invariant of admissible closed diagrams.

The functor sends a diagram to the composite of its slice matrices; the
basis of a tensor word is lexicographic in letter position then weight
index.  A closed diagram with a typical edge is opened there: one column
swept up to the edge and one swept down to it, on transposed cells, pair
into the edge letter's endomorphism, whose modified trace does not depend
on the edge.

Kirby colors expand linearly on one term axis per Kirby color, from the
first cell touching it to the value; `_on_term_axes` alone replaces a
color by its summands there.

Every cell is a module map and so preserves weight: each column of the
state stays in one weight sector, and almost all of it is exact zeros.  So
a sparse step keeps the state's nonzeros, sorted flat indices and values
over all source columns, and sums the products of a nonzero cell entry
with a stored entry per output in increasing input index, as the object
matmul does: 106-bit values are the bits of the dense route.  At 53 bits a
cell with a small state and product is one BLAS product instead; that
depends on one term's sizes, so each term gets its own sweep's arithmetic.

A sweep is a plan and its run.  The plan lists the non-identity cells as
steps with their sizes, dense-or-sparse choice and operands.  The stored
entries depend only on the cells' nonzero patterns, so the plan does each
sparse step's index work once (Gustavson's symbolic phase, ACM TOMS 4
(1978) 250), and the run is only matmuls, gathers, products and
`np.add.reduceat`.  The plans of a diagram's halves, per context,
boundary, direction and dense size, and `f_prime`'s openings of it, per
context and edge, are kept on the diagram and die with it.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce

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
    # a cup evaluates, a cap coevaluates; a negative letter swaps the side
    side = "_l" if kind.endswith("_l") == (sign > 0) else "_r"
    return wc.ev_coev(ctx, M, ("ev" if kind.startswith("cup") else "coev") + side)


def cell_matrix(ctx: ScalarContext, cell: dg.Cell) -> np.ndarray:
    if cell.kind == "coupon":
        return cell.matrix if not ctx.high_precision else la.asarray(ctx, cell.matrix)
    return _cell_matrix_cached(ctx, cell.kind, cell.letters)


def _nonzeros(m: np.ndarray):
    """Nonzeros of a cell matrix (or a stack on leading axes) by input: per
    input their count and offset, then each one's output index and values."""
    ins, outs = np.nonzero((m != 0).reshape(-1, *m.shape[-2:]).any(axis=0).T)
    count = np.bincount(ins, minlength=m.shape[-1])
    return count, np.cumsum(count) - count, outs, m[..., outs, ins]


def _on_term_axes(ctx: ScalarContext, f, letters: tuple, kirby: tuple) -> np.ndarray:
    """f(letters, coeff) for each term of the expansion of the Kirby colors
    `kirby`: each color in `letters` replaced by one of its summands, and
    coeff the product of those summands' coefficients in color order from
    ctx.scalar(1).  Stacked on one term axis per color of `kirby` (size 1
    for a color not in `letters`) in the C order of `expand_formal`, then
    f's own axes; read-only, as the caches share it."""
    sums = [k.color_sum(ctx).terms if any(c == k for _, c in letters) else ((None, k),)
            for k in kirby]
    out = []
    for combo in itertools.product(*sums):
        sub = {k: c for k, (_, c) in zip(kirby, combo)}
        coeff = reduce(operator.mul, (co for co, _ in combo if co is not None), ctx.scalar(1))
        out.append(f(tuple((sign, sub.get(c, c)) for sign, c in letters), coeff))
    out = np.reshape(out, (*map(len, sums), *np.shape(out[0])))
    out.setflags(write=False)
    return out


def _cell_stack(ctx: ScalarContext, kind: str, letters: tuple, kirby: tuple) -> np.ndarray:
    return _on_term_axes(ctx, lambda ls, _: _cell_matrix_cached(ctx, kind, ls), letters, kirby)


@lru_cache(maxsize=None)
def _cell_nonzeros_cached(ctx: ScalarContext, kind: str, letters: tuple, kirby: tuple,
                          transposed: bool):
    m = _cell_stack(ctx, kind, letters, kirby)
    return _nonzeros(m.swapaxes(-1, -2) if transposed else m)


@lru_cache(maxsize=None)
def _coefficients(ctx: ScalarContext, kirby: tuple) -> np.ndarray:
    """The coefficient of each term of the expansion, on its term axes."""
    return _on_term_axes(ctx, lambda _, coeff: coeff, tuple((1, k) for k in kirby), kirby)


def _letter_dims(ctx: ScalarContext, word: wc.ObjectWord) -> list[int]:
    return [wc.color_dim(ctx, c) for _, c in word]


# a 53-bit cell applies dense if its dense state, dl * max(din, dout) * dr *
# src, has at most DENSE_MAX entries and its product at most 4 * DENSE_MAX
# multiply-adds: against planned sparse steps, sparse everywhere makes the
# warm r = 4 knots 1.1 times slower, 2^11 or 2^16 entries move the r = 14
# S^1 x S^2 and r = 6 4-strand knots under 3%; the r = 10 meridian's
# crossings, 15,625 entries and 390,625 multiply-adds, have 775 products
DENSE_MAX = 2 ** 14


def _dense_max(ctx: ScalarContext) -> int:
    return 0 if ctx.high_precision else DENSE_MAX  # mpmath products cost more


def _plan(ctx: ScalarContext, slices, word: wc.ObjectWord, kirby: tuple, src: int,
          down: bool) -> tuple:
    """The sweep of the non-identity cells of `slices`, starting from `word`,
    on the identity on `src` columns, with a term axis per Kirby color of
    `kirby`; if `down`, of the transposed cells from the top down, which
    take a covector on the top word to one on `word`.  Returns (steps, start
    state, term axes) for `_sweep`; a step is (dense, operand, dl, din,
    dout, dr, src), its operand the cell's matrix (stacked on its term axes,
    transposed if `down`) for a dense step and `_indexed`'s planned
    (values, take, term, k, first, put) of its `_nonzeros` for a sparse one."""
    dims, dense_max, steps = _letter_dims(ctx, word), _dense_max(ctx), []
    for cells in slices:
        pos = 0
        for cell in cells:
            if cell.kind == "id":
                pos += 1
                continue
            nin, out = len(cell.in_letters()), _letter_dims(ctx, cell.out_letters())
            dl, din, dout, dr = (math.prod(dims[:pos]), math.prod(dims[pos:pos + nin]),
                                 math.prod(out), math.prod(dims[pos + nin:]))
            # a cell on no Kirby color is one matrix, without term axes
            colors = kirby if kirby and any(c in kirby for _, c in cell.letters) else ()
            # symmetric in din and dout, so it holds for a transposed cell too
            dense = (dl * max(din, dout) * dr * src <= dense_max
                     and dl * din * dout * dr * src <= 4 * dense_max)
            if dense or cell.kind == "coupon":  # a sparse cell's nonzeros are cached
                m = (_cell_stack(ctx, cell.kind, cell.letters, colors) if colors
                     else cell_matrix(ctx, cell))
                m = m.swapaxes(-1, -2) if down else m
            operand = (m if dense else _nonzeros(m) if cell.kind == "coupon"
                       else _cell_nonzeros_cached(ctx, cell.kind, cell.letters, colors, down))
            steps.append((dense, operand, dl, *((dout, din) if down else (din, dout)), dr, src))
            dims[pos:pos + nin] = out
            pos += len(out)
    eye = la.eye(ctx, src).reshape((1,) * len(kirby) + (src, src))
    eye.setflags(write=False)
    # a Kirby color on no cell keeps a term axis of size 1
    terms = _coefficients(ctx, kirby).shape
    return _indexed(steps[::-1] if down else steps, src), eye, terms


def _indexed(steps: list, src: int) -> tuple:
    """`steps` with each sparse step's index work done once, on the entries
    that the identity on `src` columns and the cells' patterns store: (the
    cell's nonzero values, take, `_scatter`'s term, k, first, put), take and
    put a small dense state's flat indices before and after, else None."""
    if all(step[0] for step in steps):
        return tuple(steps)
    planned, idx = list(steps), np.arange(src) * (src + 1)  # the identity's diagonal
    for n, (dense, operand, dl, din, dout, dr, src) in enumerate(steps):
        if dense:
            pattern = np.bincount(idx, minlength=dl * din * dr * src) > 0
            cell = (operand != 0).reshape(-1, dout, din).any(axis=0)
            idx = np.flatnonzero(np.matmul(cell, pattern.reshape(dl, din, dr * src)))
            continue
        take = idx.astype(np.int32) if n == 0 or steps[n - 1][0] else None
        term, k, first, idx = _scatter(idx, *operand[:3], dl, din, dout, dr * src)
        put = idx if n + 1 == len(steps) or steps[n + 1][0] else None
        planned[n] = (False, (operand[3], take, term, k, first, put), dl, din, dout, dr, src)
    return tuple(planned)


def _scatter(idx, count, offset, outs, dl: int, din: int, dout: int, rest: int) -> tuple:
    """The index work of `_apply_local` on sorted flat indices `idx` in the
    (dl, din, rest) layout, given m's `_nonzeros` count, offset and outs:
    per product, in output order, its stored entry `term` and nonzero `k`;
    where each output's products start; the outputs' sorted flat indices in
    the (dl, dout, rest) layout.  Int32 where the indices fit."""
    l, i, r = np.unravel_index(idx, (dl, din, rest))
    # one product per (stored entry, nonzero of its input column); the
    # stored entries come in (l, i, r) order, so a stable sort on the
    # output index keeps each output's terms in increasing input index
    per = count[i]
    it = np.int32 if max(dl * max(din, dout) * rest, per.sum()) < 2 ** 31 else np.int64
    term = np.repeat(np.arange(idx.size, dtype=it), per)
    # k runs over offset[i], ..., offset[i] + per - 1 for each stored entry
    k = np.arange(term.size, dtype=it) + np.repeat(offset[i] + per - np.cumsum(per), per)
    dst = ((l * (dout * rest) + r)[term] + outs[k] * rest).astype(it)
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    first = np.flatnonzero(np.diff(dst, prepend=-1)).astype(it)
    return term[order], k[order].astype(it), first, dst[first]


def _half(ctx: ScalarContext, d: dg.Diagram, b: int, down: bool) -> tuple:
    """The `_plan` of the slices of `d` below boundary b, swept up from the
    source, or if `down` of those above it, swept down from the target; kept
    on `d` per context, b, direction and dense size."""
    key = (ctx, b, down, _dense_max(ctx))
    plan = d._plans.get(key)
    if plan is None:
        end = d.target if down else d.source
        plan = d._plans[key] = _plan(
            ctx, d.slices[b:] if down else d.slices[:b], d.boundary_words()[b if down else 0],
            d.kirby_colors(), math.prod(_letter_dims(ctx, end)), down)
    return plan


def evaluate(ctx: ScalarContext, d: dg.Diagram) -> np.ndarray:
    """Matrices from realize(source) to realize(target) times the prefactor,
    with a term axis per Kirby color of `d.kirby_colors()`, as in
    `expand_formal`.  Functorial under compose, monoidal under tensor."""
    return _sweep(ctx, _half(ctx, d, len(d.slices), False)) * ctx.scalar(d.prefactor)


def _sweep(ctx: ScalarContext, plan: tuple) -> np.ndarray:
    """Run a `_plan`: its steps applied to its dense start state (term axes,
    rows, src), carried through sparse steps as the values `val` of its
    planned stored entries, and broadcast to its term axes."""
    steps, state, terms = plan
    for dense, operand, dl, din, dout, dr, src in steps:
        if dense:
            if state is None:
                state = _densified(ctx, put, val, (dl * din * dr, src))
            state = _apply_local(ctx, state, operand, dl, din, dr, src)
            continue
        vals, take, term, k, first, put = operand
        if take is not None:
            val, state = state.reshape(*state.shape[:-2], -1).take(take, axis=-1), None
        val = _apply_sparse(val, vals, term, k, first)
    end = state if state is not None else _densified(ctx, put, val, (dl * dout * dr, src))
    return np.broadcast_to(end, terms + end.shape[-2:]) if terms else end


def _densified(ctx: ScalarContext, idx: np.ndarray, val: np.ndarray, shape: tuple) -> np.ndarray:
    state = la.zeros(ctx, val.shape[:-1] + (math.prod(shape),))
    state[..., idx] = val
    return state.reshape(*val.shape[:-1], *shape)


def _apply_local(ctx: ScalarContext, state: np.ndarray, m: np.ndarray,
                 dl: int, din: int, dr: int, src: int) -> np.ndarray:
    # m (terms..., dout, din) on the middle factor of the state (terms...,
    # dl * din * dr, src), broadcast over dl: no transposed copy is made
    y = np.matmul(m if m.ndim == 2 else m[..., None, :, :],
                  state.reshape(state.shape[:-2] + (dl, din, dr * src)))
    return y.reshape(y.shape[:-3] + (-1, src))


def _apply_sparse(val: np.ndarray, vals: np.ndarray, term, k, first) -> np.ndarray:
    """A sparse step's arithmetic: the stored values `val` times the cell's
    nonzero values `vals`, paired and summed per output as `_scatter`
    planned, broadcasting their term axes; the outputs' values."""
    if val.ndim == vals.ndim == 1:
        return np.add.reduceat(vals.take(k) * val.take(term), first)
    # the terms share the index work; their values are formed one by one,
    # so each product array is one term long (one broadcast reduceat over
    # all terms raised the r = 10 split's traced peak from 15.8 to 17.6 MiB)
    axes = np.broadcast_shapes(val.shape[:-1], vals.shape[:-1])
    val, vals = (np.broadcast_to(a, axes + a.shape[-1:]) for a in (val, vals))
    out = np.empty(axes + first.shape, dtype=val.dtype)
    for t in np.ndindex(axes):
        np.add.reduceat(vals[t].take(k) * val[t].take(term), first, out=out[t])
    return out


def expand_formal(ctx: ScalarContext, d: dg.Diagram):
    """Iterate (coefficient, substitution) over the terms of the linear
    expansion of the diagram's Kirby colors.

    A substitution maps each Kirby color to one of its summands.  Kirby
    colors are taken in the order of their components' ids, the first
    varying slowest, and a coefficient is the product of its summands'
    coefficients in that order."""
    kirby = d.kirby_colors()
    for combo in itertools.product(*(k.color_sum(ctx).terms for k in kirby)):
        yield (reduce(operator.mul, (co for co, _ in combo), ctx.scalar(1)),
               {k: col for k, (_, col) in zip(kirby, combo)})


def evaluate_formal(ctx: ScalarContext, d: dg.Diagram) -> np.ndarray:
    """Linear expansion of Kirby-colored components: `evaluate`'s matrices
    weighted by their terms' coefficients and summed over the term axes."""
    ends = evaluate(ctx, d) * _coefficients(ctx, d.kirby_colors())[..., None, None]
    return ends.reshape(-1, *ends.shape[-2:]).sum(axis=0)


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

    Opens it at a typical edge, letter i of the boundary word w above slice
    b: the slices below give a vector L in w, swept up from the empty word,
    and those above a covector U, swept down from the empty top.  Closing
    every letter but the edge as `wc.partial_trace` does, with the pivots
    p- and p+ of `wc.trace_pivots`, gives the endomorphism F of the edge
    letter that cutting there evaluates to: F[j, k] = sum over a, c of
    p-(a) p+(c) L[a, j, c] U[a, k, c].
    The value sums coefficient times the modified trace of F, s d(V_alpha)
    for F = s id, over the terms of the Kirby expansion in `expand_formal`'s
    order; it does not depend on the edge.  F of all terms is one product
    batched over the term axes, checked by one stacked `wc.scalar_of`; the
    pivots, d(V_alpha) and coefficients on those axes are cached.
    """
    key = (ctx, edge if edge is None else tuple(edge))
    opening = d._plans.get(key)
    if opening is None:
        if not d.is_closed():
            raise ValueError("renormalized invariant needs a closed diagram")
        e = edge if edge is not None else find_typical_edge(ctx, d)
        if e is None:
            raise NotAdmissible("closed diagram has no typical edge to open at")
        (b, i), word = e, d.boundary_words()[e[0]]
        dims, closing = _letter_dims(ctx, word), _closing(ctx, word.letters, i, d.kirby_colors())
        # the coefficients' shape is that of the term axes
        opening = d._plans[key] = (b, closing[2].shape + (
            math.prod(dims[:i]), dims[i], math.prod(dims[i + 1:])), closing)
    b, shape, (pivots, dim, coeff) = opening
    low, up = (_sweep(ctx, _half(ctx, d, b, down)).reshape(shape) for down in (False, True))
    ends = ((low * pivots).swapaxes(-3, -2).reshape(*shape[:-3], shape[-2], -1)
            @ up.swapaxes(-2, -1).reshape(*shape[:-3], -1, shape[-2]))
    values = coeff * (wc.scalar_of(ctx, ends * ctx.scalar(d.prefactor)) * dim)
    return reduce(operator.add, np.ravel(values), ctx.scalar(0))


@lru_cache(maxsize=None)
def _closing(ctx: ScalarContext, letters: tuple, i: int, kirby: tuple) -> tuple:
    """`f_prime`'s `wc.trace_pivots` for edge letter i, d(V_alpha) of that
    letter and the coefficients, on the term axes of `kirby`."""
    def pivots(ls, _):
        return wc.trace_pivots(ctx, [wc.realize_letter(ctx, x) for x in ls], i)

    def dimension(ls, _):  # d(V) is the modified trace of the identity of V
        return wc.modified_trace(ctx, wc.ObjectWord(ls), la.eye(ctx, wc.color_dim(ctx, ls[0][1])))

    return (_on_term_axes(ctx, pivots, letters, kirby),
            _on_term_axes(ctx, dimension, letters[i:i + 1], kirby), _coefficients(ctx, kirby))
