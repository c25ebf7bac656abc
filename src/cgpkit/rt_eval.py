"""Evaluation of sliced diagrams into matrices, and the renormalized
invariant of admissible closed diagrams.

The functor sends a diagram to the composite of its slice matrices; the
basis of a tensor word is lexicographic in letter position then weight
index.  A closed diagram with a typical edge is opened there: one column
swept up to the edge and one swept down to it, on transposed cells, pair
into the edge letter's endomorphism, whose modified trace does not depend
on the edge.  By default the edge lies at the boundary that splits the
cells evenly between the two sweeps (`find_typical_edge`), which meet in
the middle.

Kirby colors expand linearly on one term axis per Kirby color, from the
first cell touching it to the value; `_on_term_axes` alone replaces a
color by its summands there.

Every cell is a module map and so preserves weight: each column of the
state stays in one weight sector, and almost all of it is exact zeros.  So
the sweep keeps only the state's stored entries, sorted flat indices and
values over all source columns, from the identity's to the end, and never
makes it dense: `evaluate` puts the end's stored values into its matrix,
and `f_prime` pairs the two halves' stored entries.  A step sums the
products of a nonzero cell entry with a stored entry per output in
increasing input index; its terms are one broadcast over the term axes.
The values are `la.exact`'s, Gaussian integers above 53 bits at one
binary exponent per step: the sweep and `f_prime`'s pairing round
nothing, and each value is rounded once at the end.  `_linalg` chooses
that arithmetic; this module reads no precision.

A sweep is a plan and its run.  The stored entries depend only on the
cells' nonzero patterns, so the plan walks them from the identity and does
each step's index work once (Gustavson's symbolic phase, ACM TOMS 4 (1978)
250); the run is only gathers, products and `np.add.reduceat`, on intp
indices, the gathers' own type, so that no run converts them.  Sweeps of
the same patterns and sizes share that index work, at either precision,
on any term axes and in any colours, through a cache of at most
`_INDEX_BYTES` keyed on the source columns and each step's pattern and
sizes; a plan whose index work is larger keeps none and walks it again
on each run.  `f_prime`'s pairing of the two halves is planned the same
way, once per opening.  An opening, per context and edge, holds its
closing, the entry of F where s is read and the plans of its two halves,
whose steps one loop, `_run`, applies; it is built whole on first use,
kept on the diagram and dies with it.
`evaluate` keeps nothing on the diagram.  Every sweep of the pipeline
starts from the empty word, `weightcat.constants`' meridians included.
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
# benchmark workload holds (at seed 1: 612 cell matrices and 290 nonzero
# sets), so that recoloring for ever does not grow them for ever
@lru_cache(maxsize=2048)
def _cell_matrix_cached(ctx: ScalarContext, kind: str, letters) -> np.ndarray:
    """Read-only, as every caller gets the same array."""
    if kind in ("xpos", "xneg"):
        V, W = (wc.realize_letter(ctx, x) for x in letters)
        m = wc.braiding(ctx, V, W) if kind == "xpos" else wc.braiding_inv(ctx, W, V)
    elif kind in ("tpos", "tneg"):
        m = wc.twist(ctx, wc.realize_letter(ctx, letters[0]), 1 if kind == "tpos" else -1)
    else:
        sign, color = letters[0]
        M = wc.realize_letter(ctx, (1, color))
        # a cup evaluates, a cap coevaluates; a negative letter swaps the side
        side = "_l" if kind.endswith("_l") == (sign > 0) else "_r"
        m = wc.ev_coev(ctx, M, ("ev" if kind.startswith("cup") else "coev") + side)
    m.setflags(write=False)
    return m


def cell_matrix(ctx: ScalarContext, cell: dg.Cell) -> np.ndarray:
    if cell.kind == "coupon":
        return la.asarray(ctx, cell.matrix)
    return _cell_matrix_cached(ctx, cell.kind, cell.letters)


def _nonzeros(m: np.ndarray):
    """Nonzeros of a cell matrix (or a stack on leading axes) by input: per
    input their count and offset, each one's output index and values, and
    the pattern, counts and output indices as bytes (bytes keep a hash)."""
    ins, outs = np.nonzero(m.astype(bool).reshape(-1, *m.shape[-2:]).any(axis=0).T)
    count = np.bincount(ins, minlength=m.shape[-1])
    pattern = count.tobytes() + outs.tobytes()
    return count, np.cumsum(count) - count, outs, m[..., outs, ins], pattern


def _exact_nonzeros(ctx: ScalarContext, m: np.ndarray) -> tuple:
    """`_nonzeros` of m, then its values' `la.exact` (values, exponent)."""
    return (*(nz := _nonzeros(m)), la.exact(ctx, nz[3]))


def _on_term_axes(ctx: ScalarContext, f, letters: tuple, kirby: tuple) -> np.ndarray:
    """f(letters) for each term of the expansion of the Kirby colors
    `kirby`, each color in `letters` replaced by one of its summands.
    Stacked on one term axis per color of `kirby` (size 1 for a color not
    in `letters`) in the C order of `expand_formal`, then f's own axes;
    read-only, as caches and openings share it."""
    sums = [[c for _, c in k.color_sum(ctx).terms] if any(c == k for _, c in letters) else [k]
            for k in kirby]
    out = [f(tuple((sign, sub.get(c, c)) for sign, c in letters))
           for sub in (dict(zip(kirby, combo)) for combo in itertools.product(*sums))]
    out = np.reshape(out, (*map(len, sums), *np.shape(out[0])))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1024)
def _cell_nonzeros_cached(ctx: ScalarContext, kind: str, letters: tuple, kirby: tuple,
                          transposed: bool):
    m = _on_term_axes(ctx, partial(_cell_matrix_cached, ctx, kind), letters, kirby)
    return _exact_nonzeros(ctx, m.swapaxes(-1, -2) if transposed else m)


def _coefficients(ctx: ScalarContext, kirby: tuple) -> np.ndarray:
    """The coefficient of each term of the expansion, as `expand_formal`
    forms it, on its term axes."""
    sums = [[co for co, _ in k.color_sum(ctx).terms] for k in kirby]
    return np.reshape([reduce(operator.mul, combo, ctx.scalar(1))
                       for combo in itertools.product(*sums)], tuple(map(len, sums)))


def _letter_dims(ctx: ScalarContext, word: wc.ObjectWord) -> list[int]:
    return [wc.color_dim(ctx, c) for _, c in word]


def _plan(ctx: ScalarContext, slices, word: wc.ObjectWord, kirby: tuple,
          down: bool) -> tuple:
    """The sweep of the non-identity cells of `slices` from the identity on
    `word`, with a term axis per Kirby color of `kirby`; if `down`, of the
    transposed cells from the identity on the top word down, which take a
    covector on the top word to one on `word`.  Returns (run, start, put,
    shape, exp) for `_sweep`: run() yields per step the cell's exact
    nonzero values (stacked on its term axes, transposed if `down`) and
    `_indexed`'s (term, k, first), shared through `_index_cache`, or past
    `_INDEX_BYTES` walked anew; the identity's stored values, on each term
    axis, read-only; the flat indices of the last stored entries in the
    end's layout (rows, src); the end's exponent, the steps' sum."""
    dims, steps = _letter_dims(ctx, word), []
    bottom = math.prod(dims)
    for cells in slices:
        pos = 0
        for cell in cells:
            if cell.kind == "id":
                pos += 1
                continue
            nin, out = len(cell.in_letters()), _letter_dims(ctx, cell.out_letters())
            dl, din, dout, dr = (math.prod(dims[:pos]), math.prod(dims[pos:pos + nin]),
                                 math.prod(out), math.prod(dims[pos + nin:]))
            if cell.kind == "coupon":  # a coupon's nonzeros are its own
                m = cell_matrix(ctx, cell)
                nonzeros = _exact_nonzeros(ctx, m.T if down else m)
            else:  # a cell on no Kirby color is one matrix, without term axes
                colors = kirby if kirby and any(c in kirby for _, c in cell.letters) else ()
                nonzeros = _cell_nonzeros_cached(ctx, cell.kind, cell.letters, colors, down)
            steps.append((nonzeros, dl, *((dout, din) if down else (din, dout)), dr))
            dims[pos:pos + nin] = out
            pos += len(out)
    steps = steps[::-1] if down else steps
    top = math.prod(dims)
    rows, src = (bottom, top) if down else (top, bottom)
    # plans share the index work, keyed on all that `_indexed` reads
    key = (src, tuple((nz[4], *sizes) for nz, *sizes in steps))
    work, put = _shared(key, lambda: _indexed(steps, src))
    vals = [nz[5][0] for nz, *_ in steps]
    # past `_INDEX_BYTES` no index work is kept: each run walks it anew
    run = partial(zip, vals, work) if work is not None else (
        lambda: zip(vals, (w for w, _ in _walk(steps, src))))
    # a Kirby color on no cell keeps a term axis of size 1
    start, exp = la.exact(ctx, np.full((1,) * len(kirby) + (src,), ctx.scalar(1)))
    start.setflags(write=False)
    return run, start, put, (rows, src), exp + sum(nz[5][1] for nz, *_ in steps)


def _walk(steps: list, src: int):
    """Walk `_plan`'s steps (nonzeros, dl, din, dout, dr) from the identity
    on `src` columns over the entries that the cells' patterns store: per
    step `_scatter`'s (term, k, first) and the stored entries' flat indices
    after it."""
    idx = np.arange(src, dtype=np.intp) * (src + 1)
    for (count, offset, outs, *_), dl, din, dout, dr in steps:
        *work, idx = _scatter(idx, count, offset, outs, dl, din, dout, dr * src)
        yield work, idx


def _indexed(steps: list, src: int) -> tuple:
    """The index work of `_plan`'s steps: per step `_scatter`'s (term, k,
    first), or None past `_INDEX_BYTES` of it, which no plan keeps; then
    the last stored entries' flat indices."""
    work, size, idx = [], 0, np.arange(src, dtype=np.intp) * (src + 1)
    for step, idx in _walk(steps, src):
        size += sum(a.nbytes for a in step)
        if size <= _INDEX_BYTES:
            work.append(step)
    return tuple(work) if size <= _INDEX_BYTES else None, idx


# index work is kept up to this many bytes, in the shared cache and in each
# plan: both halves of the r = 14 4-strand knot plan 5.4 MiB and of the
# r = 10 5-strand closure 4.8 MiB, each half of the r = 14 5-strand closure
# 28 MiB; a half of the r = 10 7-strand closure, 149 MiB, keeps none
_INDEX_BYTES = 32 * 2 ** 20
_index_cache: dict = {}  # `_plan`'s key: (plan, bytes), least recently used first


def _shared(key, make):
    """The plan of `key` in `_index_cache`, else make()'s, kept there unless
    larger than `_INDEX_BYTES`; the least recently used make room."""
    plan, size = _index_cache.pop(key, (None, 0))
    if plan is None:
        plan = make()
        work, put = plan
        size = put.nbytes + sum(a.nbytes for arrays in work or () for a in arrays)
        if size > _INDEX_BYTES:
            return plan
        while size + sum(n for _, n in _index_cache.values()) > _INDEX_BYTES:
            del _index_cache[next(iter(_index_cache))]
    _index_cache[key] = plan, size
    return plan


def _scatter(idx, count, offset, outs, dl: int, din: int, dout: int, rest: int) -> tuple:
    """The index work of a step on sorted flat indices `idx` in the (dl,
    din, rest) layout, given its cell's `_nonzeros` count, offset and outs:
    per product, in output order, its stored entry `term` and nonzero `k`;
    where each output's products start; the outputs' sorted flat indices in
    the (dl, dout, rest) layout.  All are intp, the gathers' own index type,
    whatever `idx`'s dtype: a step can take the state past 2**31 positions."""
    # the stored entries come in (l, i, r) order, in blocks of one l * din + i
    block, r = np.divmod(idx.astype(np.intp, copy=False), rest)
    bounds = _run_bounds(block)
    start, size = bounds[:-1], bounds[1:] - bounds[:-1]
    l, col = np.divmod(block[start], din)
    # a block's products are formed nonzero by nonzero (a pair), each over
    # the block's entries: one increasing run of output indices per block,
    # so a stable sort keeps each output's terms in increasing input index
    per = count[col]  # pairs per block
    pair_size = size.repeat(per)
    # a block's pairs have k = offset[col], ..., offset[col] + per - 1, and
    # output l * (dout * rest) + outs[k] * rest + r for each entry's r
    pair_k = np.arange(per.sum(), dtype=np.intp) + (offset[col] + per - per.cumsum()).repeat(per)
    pair_base = (l * (dout * rest)).repeat(per) + outs[pair_k] * rest
    term = (np.arange(pair_size.sum(), dtype=np.intp)
            + (start.repeat(per) + pair_size - pair_size.cumsum()).repeat(pair_size))
    k = pair_k.repeat(pair_size)
    dst = pair_base.repeat(pair_size) + r[term]
    order = dst.argsort(kind="stable")
    dst = dst[order]
    first = _run_bounds(dst)[:-1]
    return term[order], k[order], first, dst[first]


def _run_bounds(x: np.ndarray) -> np.ndarray:
    """Where the runs of equal entries of `x` start, then x.size."""
    new = np.empty(x.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:-1])
    return new.nonzero()[0]


def evaluate(ctx: ScalarContext, d: dg.Diagram) -> np.ndarray:
    """Matrices from realize(source) to realize(target) times the prefactor,
    with a term axis per Kirby color of `d.kirby_colors()`, as in
    `expand_formal`.  Functorial under compose, monoidal under tensor."""
    plan = _plan(ctx, d.slices, d.source, d.kirby_colors(), False)
    put, val = _sweep(ctx, plan)
    val = la.rounded(ctx, val, plan[4]) * ctx.scalar(d.prefactor)
    end = la.zeros(ctx, val.shape[:-1] + (math.prod(plan[3]),))
    end[..., put] = val
    end = end.reshape(*val.shape[:-1], *plan[3])
    terms = tuple(len(k.color_sum(ctx).terms) for k in d.kirby_colors())
    return np.broadcast_to(end, terms + end.shape[-2:]) if terms else end


def _sweep(ctx: ScalarContext, plan: tuple) -> tuple:
    """Run a `_plan`: its steps applied to the identity's stored values.
    Returns the end's stored flat indices in its (rows, src) layout and
    their values on the term axes, a term axis of size 1 where no cell
    holds its color; exact, at the plan's exponent."""
    run, val, put, _, _ = plan
    return put, _run(run(), val, la.product(ctx, operator.mul))


def _run(steps, val, multiply=operator.mul) -> np.ndarray:
    """The stored values `val` through `steps`, as a plan's `run()` yields
    them: each a cell's nonzero values and its index work, products by
    `multiply`."""
    for vals, (term, k, first) in steps:
        val = _apply_sparse(val, vals, term, k, first, multiply)
    return val


def _apply_sparse(val, vals, term, k, first, multiply=operator.mul) -> np.ndarray:
    """A step's arithmetic: the stored values `val` times the cell's nonzero
    values `vals` (by `multiply`), paired and summed per output as `_scatter`
    planned, broadcast over their term axes; the outputs' values."""
    return np.add.reduceat(multiply(vals.take(k, axis=-1), val.take(term, axis=-1)), first, axis=-1)


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
    """The first letter colored by a typical module or by a Kirby color,
    whose summands are all typical, at the boundary above the source that
    splits the cells most evenly between the slices below and above it (the
    lowest such boundary on a tie).  Identities and twists, which are
    diagonal and store no new entry, are not counted."""
    words = d.boundary_words()
    cells = [sum(c.kind not in ("id", "tpos", "tneg") for c in cells) for cells in d.slices]
    below, total, edges = 0, sum(cells), []
    for b in range(1, len(words)):
        below += cells[b - 1]
        i = next((i for i, (_, c) in enumerate(words[b])
                  if isinstance(c, (wc.Typical, wc.Kirby))), None)
        if i is not None:
            edges.append((abs(2 * below - total), b, i))
    return min(edges)[1:] if edges else None


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
    order; it does not depend on the edge, which defaults to
    `find_typical_edge`'s.  F pairs the halves' stored entries of equal
    (a, c) as `_pairing` planned: of all terms at once, exact, rounded once
    per entry, checked by one stacked `wc.scalar_of`; s is read at the
    diagonal entry that `_steadiest` finds.  The opening (plans, pairing,
    exact pivots at the pairs, d(V_alpha), coefficients and where to read
    s) is built whole on the first call and kept on `d` per context and edge.
    """
    key = (ctx, edge if edge is None else tuple(edge))
    opening = d._plans.get(key)
    if opening is None:
        if not d.is_closed():
            raise ValueError("renormalized invariant needs a closed diagram")
        e = edge if edge is not None else find_typical_edge(ctx, d)
        if e is None:
            raise NotAdmissible("closed diagram has no typical edge to open at")
        (b, i), kirby = e, d.kirby_colors()
        word = dg.edge_word(d, b, i)
        if not isinstance(word[i][1], (wc.Typical, wc.Kirby)):
            raise wc.NonTypicalColor(f"f_prime edge must be typical, got {word[i][1]!r}")
        halves = (_plan(ctx, d.slices[:b], d.source, kirby, False),
                  _plan(ctx, d.slices[b:], word, kirby, True))
        pairing, keys = _pairing(halves[0][2], halves[1][2], _letter_dims(ctx, word), i)
        pivots, dim, coeff = _closing(ctx, word, i, kirby, keys)
        pivots, exp = la.exact(ctx, pivots)
        opening = d._plans[key] = (halves, pairing, pivots, exp + halves[0][4] + halves[1][4],
                                   dim, coeff, _steadiest(ctx, halves, pairing, pivots))
    halves, pairing, pivots, exp, dim, coeff, at = opening
    low_at, up_at, first, put, n = pairing
    (_, low), (_, up) = (_sweep(ctx, half) for half in halves)
    multiply = la.product(ctx, operator.mul)
    pairs = multiply(multiply(low.take(low_at, axis=-1), pivots), up.take(up_at, axis=-1))
    ends = np.zeros(pairs.shape[:-1] + (n * n,), pairs.dtype)
    ends[..., put] = np.add.reduceat(pairs, first, axis=-1)
    ends = la.rounded(ctx, ends, exp) * ctx.scalar(d.prefactor)
    wc.scalar_of(ctx, ends.reshape(*ends.shape[:-1], n, n))
    s = ends.reshape(-1)[..., at]
    values = coeff * (s * dim)
    return reduce(operator.add, np.ravel(values), ctx.scalar(0))


def _steadiest(ctx: ScalarContext, halves: tuple, pairing: tuple, pivots) -> np.ndarray:
    """Per term, the flat index in the stack of all terms' F (n by n) of the
    diagonal entry where F = s id is read: the one of least rounding error
    bound, found by running both halves (through `_run`) and the pairing
    on the magnitudes |re| + |im| of every cell value and pivot (each
    step's scaled by its largest, which scales every entry alike)."""
    low_at, up_at, first, put, n = pairing

    def scaled(vals):
        size = la.magnitude(ctx, vals)
        return size / size.max(initial=0)

    low, up = (_run(((scaled(vals), work) for vals, work in run()), la.magnitude(ctx, start))
               for run, start, *_ in halves)
    size = la.magnitude(ctx, pivots)
    sizes = np.add.reduceat(low.take(low_at, axis=-1) * size * up.take(up_at, axis=-1),
                            first, axis=-1)
    missing = np.setdiff1d(np.arange(n) * (n + 1), put)
    if missing.size:  # an entry with no product is exact
        at = np.full(sizes.shape[:-1], missing[0])
    else:
        diagonal = put % (n + 1) == 0
        at = put[diagonal][sizes[..., diagonal].argmin(axis=-1)]
    return at + n * n * np.arange(at.size).reshape(at.shape)


def _pairing(low: np.ndarray, up: np.ndarray, dims: list[int], i: int) -> tuple:
    """The index work of `f_prime`'s pairing of its halves' stored flat
    indices `low` and `up` in the (a, j, c) layout of the edge word, j its
    letter i: each low entry meets the up entries of its key (a, c), found
    by a search in the up keys, sorted.  Returns, per product in order of
    F's flat index (j, k), its low and up entry; where each entry of F
    starts; F's stored flat indices; F's size n, the letter's; and each
    product's key, the flat index of (a, c)."""
    n, rest = dims[i], math.prod(dims[i + 1:])

    def split(idx):  # the key and the j of each flat index
        aj, c = np.divmod(idx, rest)
        a, j = np.divmod(aj, n)
        return a * rest + c, j

    (low_key, low_j), (up_key, up_j) = split(low), split(up)
    up_order = up_key.argsort(kind="stable")
    up_key = up_key[up_order]
    start = up_key.searchsorted(low_key)
    per = up_key.searchsorted(low_key, "right") - start  # up entries per low entry
    low_at = np.flatnonzero(per)
    start, per = start[low_at], per[low_at]
    low_at = low_at.repeat(per)
    up_at = up_order[np.arange(per.sum(), dtype=np.intp)
                     + (start + per - per.cumsum()).repeat(per)]
    dst = low_j[low_at] * n + up_j[up_at]
    order = dst.argsort(kind="stable")
    dst, low_at = dst[order], low_at[order]
    first = _run_bounds(dst)[:-1]
    return (low_at, up_at[order], first, dst[first], n), low_key[low_at]


def _closing(ctx: ScalarContext, letters: tuple, i: int, kirby: tuple, keys: np.ndarray) -> tuple:
    """`f_prime`'s `wc.trace_pivots` for edge letter i at the flat indices
    `keys` of (a, c), d(V_alpha) of that letter and the coefficients, on
    the term axes of `kirby`."""
    def pivots(ls):
        return wc.trace_pivots(ctx, [wc.realize_letter(ctx, x) for x in ls], i, keys)

    # d(V*) = d(V): a -letter's own weight, not its dual's, which
    # `wc.dual_color` rounds to double
    def dimension(ls):
        (_, color), = ls
        return wc.modified_dimension(ctx, complex(color.alpha))

    return (_on_term_axes(ctx, pivots, letters, kirby),
            _on_term_axes(ctx, dimension, letters[i:i + 1], kirby), _coefficients(ctx, kirby))
