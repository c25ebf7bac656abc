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
matmul does: 106-bit values are the bits of the dense route.  At 53 bits
a step is one BLAS product on the dense state instead where that costs
less, by `_dense_cheaper`'s unit costs, than its products of stored
entries; the choice weighs all terms of the step together, so a term's
rounding can differ from that of a sweep of its own.

A sweep is a plan and its run.  The plan lists the non-identity cells as
steps with their sizes, dense-or-sparse choice and operands.  The stored
entries depend only on the cells' nonzero patterns, so the plan walks
them from the start, chooses each step's kernel from its sizes and
products, and does each sparse step's index work once (Gustavson's
symbolic phase, ACM TOMS 4 (1978) 250); the run is only matmuls, gathers,
products and `np.add.reduceat`.  Closed diagrams of the same patterns and
sizes, recoloured ones too, share the colour-free index work in a cache of
at most `_INDEX_BYTES`.  The plans of a diagram's halves, per context,
boundary and direction, and `f_prime`'s openings of it, per context and
edge, are kept on the diagram and die with it.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, partial, reduce

import numpy as np

from . import _linalg as la
from . import diagrams as dg
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar


class NotAdmissible(ValueError):
    """Closed evaluation requested without any typical edge; for a surgery
    presentation, no typical graph edge and no generic surgery meridian."""


# the caches keyed on colors are bounded, well above what one pass of every
# benchmark workload holds (at seed 1: 612 cell matrices, 290 nonzero sets,
# 36 closings and 36 coefficient stacks), so that recoloring for ever does
# not grow them for ever
@lru_cache(maxsize=2048)
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
    input their count and offset, each one's output index and values, and
    the pattern, counts and output indices as bytes (bytes keep a hash)."""
    ins, outs = np.nonzero((m != 0).reshape(-1, *m.shape[-2:]).any(axis=0).T)
    count = np.bincount(ins, minlength=m.shape[-1])
    pattern = count.tobytes() + outs.tobytes()
    return count, np.cumsum(count) - count, outs, m[..., outs, ins], pattern


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


@lru_cache(maxsize=1024)
def _cell_nonzeros_cached(ctx: ScalarContext, kind: str, letters: tuple, kirby: tuple,
                          transposed: bool):
    m = _cell_stack(ctx, kind, letters, kirby) if kirby else _cell_matrix_cached(ctx, kind, letters)
    return _nonzeros(m.swapaxes(-1, -2) if transposed else m)


@lru_cache(maxsize=128)
def _coefficients(ctx: ScalarContext, kirby: tuple) -> np.ndarray:
    """The coefficient of each term of the expansion, on its term axes."""
    return _on_term_axes(ctx, lambda _, coeff: coeff, tuple((1, k) for k in kirby), kirby)


def _letter_dims(ctx: ScalarContext, word: wc.ObjectWord) -> list[int]:
    return [wc.color_dim(ctx, c) for _, c in word]


# unit costs of a 53-bit step in ns, fitted to both kernels timed on each
# of the 870 steps of the halves of the `knots` and `surgery` benchmark
# diagrams at seeds 1 and 2 (2-CPU x86-64 container, one BLAS thread, numpy
# 2.4; median errors 12% dense, 3% sparse): per term, a dense step costs
# 0.15 a multiply-add, 2.2 an output and 42 a matmul of its batch over dl,
# a sparse one 9 a product and, on term axes, 5,600 a pass of its loop over
# the terms; going sparse gathers for 1,100, going dense scatters for 2,700.
# Against the cheaper kernel of each step, switches included, this rule
# loses 0-2.5% on the sum of each workload level's sweeps


def _dense_cheaper(ctx: ScalarContext, terms: tuple, after_dense: bool, idx: np.ndarray,
                   count: np.ndarray, dl: int, din: int, dout: int, dr: int, src: int) -> bool:
    """Whether a step is cheaper as one matmul on the dense state than as
    the products of its stored entries `idx` with the nonzeros of their
    input columns, `count` per input, for each term of the broadcast term
    axes `terms`; after a dense step or the start (`after_dense`), or after
    a sparse one."""
    if ctx.high_precision:
        return False  # an mpmath product costs more than any index work
    n = math.prod(terms)
    dense = (n * (0.15 * dl * din * dout * dr * src + 2.2 * dl * dout * dr * src + 42 * dl)
             + (0 if after_dense else 2700))
    sparse = n * (5600 if terms else 0) + (1100 if after_dense else 0)
    # the products are counted only where they can decide
    return dense <= sparse or dense <= sparse + n * 9 * int(count[idx // (dr * src) % din].sum())


def _plan(ctx: ScalarContext, slices, word: wc.ObjectWord, kirby: tuple, src: int,
          down: bool) -> tuple:
    """The sweep of the non-identity cells of `slices`, starting from `word`,
    on the identity on `src` columns, with a term axis per Kirby color of
    `kirby`; if `down`, of the transposed cells from the top down, which
    take a covector on the top word to one on `word`.  Returns (steps, start
    state, term axes) for `_sweep`: `_indexed`'s steps (shared through
    `_index_cache` if `src` is 1) with their operands: the cell's matrix
    (stacked on its term axes, transposed if `down`) if dense, else its
    nonzero values and the step's index work."""
    dims, steps = _letter_dims(ctx, word), []
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
            m = partial(_matrix, ctx, cell, colors, down)  # made for dense steps only
            # a coupon's nonzeros are its own; a cell's are cached
            nonzeros = (_nonzeros(m()) if cell.kind == "coupon"
                        else _cell_nonzeros_cached(ctx, cell.kind, cell.letters, colors, down))
            steps.append((m, nonzeros, dl, *((dout, din) if down else (din, dout)), dr, src))
            dims[pos:pos + nin] = out
            pos += len(out)
    steps = steps[::-1] if down else steps
    # closed diagrams' halves (src 1) share the index work, keyed on all that
    # `_indexed` reads; an open one's is used once and would only pin memory
    key = (ctx.high_precision, src, len(kirby),
           tuple((nz[4], nz[3].shape[:-1], *sizes) for _, nz, *sizes in steps))
    make = partial(_indexed, ctx, steps, src, len(kirby))
    indexed = _shared(key, make) if src == 1 else make()
    eye = la.eye(ctx, src).reshape((1,) * len(kirby) + (src, src))
    eye.setflags(write=False)
    # a Kirby color on no cell keeps a term axis of size 1
    terms = _coefficients(ctx, kirby).shape
    return tuple((dense, m() if dense else (nz[3],) + work, *sizes)
                 for (dense, work, *sizes), (m, nz, *_) in zip(indexed, steps)), eye, terms


def _matrix(ctx: ScalarContext, cell: dg.Cell, colors: tuple, down: bool) -> np.ndarray:
    m = _cell_stack(ctx, cell.kind, cell.letters, colors) if colors else cell_matrix(ctx, cell)
    return m.swapaxes(-1, -2) if down else m


def _indexed(ctx: ScalarContext, steps: list, src: int, axes: int) -> tuple:
    """The index work of `_plan`'s steps (m, nonzeros, dl, din, dout, dr,
    src), walked from the identity on `src` columns with `axes` term axes:
    each is (dense, work, dl, din, dout, dr, src), dense as `_dense_cheaper`
    chooses from the entries that the identity and the cells' patterns
    store.  A dense step's work is None, a sparse step's (take, `_scatter`'s
    term, k, first, put), take and put a dense state's flat indices before
    and after it, else None.  Of the values only the term axes are read."""
    planned, idx, terms = [], np.arange(src) * (src + 1), (1,) * axes  # the identity
    for _, (count, offset, outs, vals, _), dl, din, dout, dr, src in steps:
        if vals.ndim > 1:  # a term axis is of size 1 or of its color's
            terms = tuple(map(max, terms, vals.shape[:-1]))
        after_dense = not planned or planned[-1][0]
        if _dense_cheaper(ctx, terms, after_dense, idx, count, dl, din, dout, dr, src):
            # the outputs with a product, from the patterns' product in float32
            pattern = np.zeros(dl * din * dr * src, dtype=np.float32)
            pattern[idx] = 1
            cell = np.zeros((dout, din), dtype=np.float32)
            cell[outs, np.arange(din).repeat(count)] = 1
            idx = (np.matmul(cell, pattern.reshape(dl, din, dr * src)) > 0).reshape(-1).nonzero()[0]
            planned.append((True, None, dl, din, dout, dr, src))
            continue
        take = idx.astype(np.int32) if after_dense else None
        term, k, first, idx = _scatter(idx, count, offset, outs, dl, din, dout, dr * src)
        planned.append((False, (take, term, k, first, idx), dl, din, dout, dr, src))
    # a sparse step keeps its outputs' indices as put only before a dense one
    for n, (dense, work, *sizes) in enumerate(planned):
        if not dense and n + 1 < len(planned) and not planned[n + 1][0]:
            planned[n] = (dense, work[:4] + (None,), *sizes)
    return tuple(planned)


# index work is kept up to this many bytes: both halves of the r = 14
# 4-strand knot plan 11.2 MiB, of the r = 10 5-strand closure 8.1 MiB; the
# r = 14 5-strand closure's 142 MiB are not kept
_INDEX_BYTES = 32 * 2 ** 20
_index_cache: dict = {}  # `_plan`'s key: (plan, bytes), least recently used first


def _shared(key, make):
    """The plan of `key` in `_index_cache`, else make()'s, kept there unless
    larger than `_INDEX_BYTES`; the least recently used make room."""
    plan, size = _index_cache.pop(key, (None, 0))
    if plan is None:
        plan = make()
        size = sum(a.nbytes for _, work, *_ in plan if work for a in work if a is not None)
        if size > _INDEX_BYTES:
            return plan
        while size + sum(n for _, n in _index_cache.values()) > _INDEX_BYTES:
            del _index_cache[next(iter(_index_cache))]
    _index_cache[key] = plan, size
    return plan


def _scatter(idx, count, offset, outs, dl: int, din: int, dout: int, rest: int) -> tuple:
    """The index work of `_apply_local` on sorted flat indices `idx` in the
    (dl, din, rest) layout, given m's `_nonzeros` count, offset and outs:
    per product, in output order, its stored entry `term` and nonzero `k`;
    where each output's products start; the outputs' sorted flat indices in
    the (dl, dout, rest) layout.  Int32 where the indices fit."""
    # the stored entries come in (l, i, r) order, in blocks of one l * din + i
    block, r = np.divmod(idx, rest)
    bounds = _run_bounds(block)
    start, size = bounds[:-1], bounds[1:] - bounds[:-1]
    l, col = np.divmod(block[start], din)
    # a block's products are formed nonzero by nonzero (a pair), each over
    # the block's entries: one increasing run of output indices per block,
    # so a stable sort keeps each output's terms in increasing input index
    per = count[col]  # pairs per block
    pair_size = size.repeat(per)
    n = int(pair_size.sum())
    it = np.int32 if max(dl * max(din, dout) * rest, n) < 2 ** 31 else np.int64
    # a block's pairs have k = offset[col], ..., offset[col] + per - 1, and
    # output l * (dout * rest) + outs[k] * rest + r for each entry's r
    pair_k = (np.arange(per.sum(), dtype=it)
              + (offset[col] + per - per.cumsum()).astype(it).repeat(per))
    pair_base = (l * (dout * rest)).repeat(per) + outs[pair_k] * rest
    term = np.arange(n, dtype=it) + (start.repeat(per) + pair_size - pair_size.cumsum()).astype(
        it).repeat(pair_size)
    k = pair_k.repeat(pair_size)
    dst = (pair_base.repeat(pair_size) + r[term]).astype(it)
    order = dst.argsort(kind="stable")
    dst = dst[order]
    first = _run_bounds(dst)[:-1].astype(it)
    return term[order], k[order], first, dst[first]


def _run_bounds(x: np.ndarray) -> np.ndarray:
    """Where the runs of equal entries of `x` start, then x.size."""
    new = np.empty(x.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:-1])
    return new.nonzero()[0]


def _half(ctx: ScalarContext, d: dg.Diagram, b: int, down: bool) -> tuple:
    """The `_plan` of the slices of `d` below boundary b, swept up from the
    source, or if `down` of those above it, swept down from the target; kept
    on `d` per context, b and direction."""
    key = (ctx, b, down)
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


@lru_cache(maxsize=128)
def _closing(ctx: ScalarContext, letters: tuple, i: int, kirby: tuple) -> tuple:
    """`f_prime`'s `wc.trace_pivots` for edge letter i, d(V_alpha) of that
    letter and the coefficients, on the term axes of `kirby`."""
    def pivots(ls, _):
        return wc.trace_pivots(ctx, [wc.realize_letter(ctx, x) for x in ls], i)

    def dimension(ls, _):  # d(V) is the modified trace of the identity of V
        return wc.modified_trace(ctx, wc.ObjectWord(ls), la.eye(ctx, wc.color_dim(ctx, ls[0][1])))

    return (_on_term_axes(ctx, pivots, letters, kirby),
            _on_term_axes(ctx, dimension, letters[i:i + 1], kirby), _coefficients(ctx, kirby))
