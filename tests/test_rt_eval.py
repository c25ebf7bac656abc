import dataclasses
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from cgpkit import _linalg as la
from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import assert_within_rounding, relative_modularity_matrix, strand, typical_edges
from test_kirby_colors import _figures

GENERIC = 0.37 + 0.2j
GENERIC2 = 0.59 - 0.11j


def test_identity_evaluates_to_identity(ctx):
    w = wc.ObjectWord([(1, wc.Typical(GENERIC)), (-1, wc.Typical(GENERIC2))])
    d = dg.identity_diagram(w)
    M = wc.realize(ctx, w)
    assert np.abs(rt_eval.evaluate(ctx, d) - np.eye(M.dim)).max() < 1e-14


def test_cached_values_refuse_in_place_writes(ctx):
    """Cell matrices, realized letters and a diagram's component views are
    cached, and every caller gets the same object: a write to one would
    change every later value built from it, so each write raises."""
    V, W = (1, wc.Typical(GENERIC)), (-1, wc.Typical(GENERIC2))
    for cell in (dg.cross(V, W), dg.cross(W, V, positive=False), dg.Cell("tneg", (W,)),
                 dg.cup(V, left=True), dg.cap(W, left=False)):
        m = rt_eval.cell_matrix(ctx, cell)
        with pytest.raises(ValueError, match="read-only"):
            m *= 2
    for letter in (V, W, (1, wc.Sigma(0))):
        M = wc.realize_letter(ctx, letter)
        for action in (M.actE, M.actF):
            with pytest.raises(ValueError, match="read-only"):
                action[:] = 0
    d = fx.hopf_link(V[1], W[1])
    with pytest.raises(TypeError):
        d.component_colors()[0] = wc.Sigma(0)
    with pytest.raises(AttributeError):
        d.components_with_coupons().add(0)
    assert dict(d.component_colors()) == {0: V[1], 1: W[1]}


def _apply_local(state, m, dl, din, dr, src):
    """The dense step, the reference for the sparse kernel: m (terms...,
    dout, din) on the middle factor of the state (terms..., dl * din * dr,
    src), broadcast over dl."""
    y = np.matmul(m if m.ndim == 2 else m[..., None, :, :],
                  state.reshape(state.shape[:-2] + (dl, din, dr * src)))
    return y.reshape(y.shape[:-3] + (-1, src))


def test_apply_local_matches_kronecker_reference():
    """A local cell on the middle factor acts as I_dl (x) m (x) I_dr."""
    rng = np.random.default_rng(7)
    for dl, din, dout, dr, src in ((1, 3, 3, 4, 2), (5, 2, 4, 1, 3), (3, 4, 1, 2, 1)):
        n = dl * din * dr
        state = rng.standard_normal((n, src)) + 1j * rng.standard_normal((n, src))
        m = rng.standard_normal((dout, din)) + 1j * rng.standard_normal((dout, din))
        ref = np.kron(np.kron(np.eye(dl), m), np.eye(dr)) @ state
        got = _apply_local(state, m, dl, din, dr, src)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _random(ctx, rng, shape, density):
    """Entries with full mantissas; about 1 - density of them zero."""
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a[rng.random(shape) >= density] = 0
    return la.asarray(ctx, a) / ctx.scalar(3)


def _sparse_step(idx, val, nonzeros, dl, din, dout, rest):
    """One sparse step on the stored flat indices `idx` with values `val`:
    `_scatter`'s index work, then `_apply_sparse`'s arithmetic.  Returns the
    outputs' flat indices and values."""
    term, k, first, out = rt_eval._scatter(idx, *nonzeros[:3], dl, din, dout, rest)
    return out, rt_eval._apply_sparse(val, nonzeros[3], term, k, first)


def _reference_apply_sparse(idx, val, nonzeros, dl, din, dout, rest):
    """The sparse step with its index work done on every call, as before
    the plan did it: an oracle for `_scatter` and `_apply_sparse`."""
    count, offset, outs, vals = nonzeros
    l, i, r = np.unravel_index(idx, (dl, din, rest))
    per = count[i]
    term = np.repeat(np.arange(idx.size), per)
    k = np.arange(term.size) + np.repeat(offset[i] + per - np.cumsum(per), per)
    dst = (l * (dout * rest) + r)[term] + outs[k] * rest
    order = np.argsort(dst, kind="stable")
    dst, term, k = dst[order], term[order], k[order]
    first = np.flatnonzero(np.diff(dst, prepend=-1))
    if val.ndim == vals.ndim == 1:
        return dst[first], np.add.reduceat(vals[k] * val[term], first)
    axes = np.broadcast_shapes(val.shape[:-1], vals.shape[:-1])
    val, vals = (np.broadcast_to(a, axes + a.shape[-1:]) for a in (val, vals))
    out = np.empty(axes + first.shape, dtype=val.dtype)
    for t in np.ndindex(axes):
        np.add.reduceat(vals[t][k] * val[t][term], first, out=out[t])
    return dst[first], out


def _reference_sweep(ctx, raw, stored=None):
    """`rt_eval._sweep` as before the plan did the index work, on a plan's
    steps as `_unindexed_halves` gives them: each step is
    `_reference_apply_sparse` from the identity's stored entries, and the
    stored flat indices that each step takes, then the end's, are appended
    to `stored`."""
    steps, src, terms = raw
    idx, val, rows = np.arange(src) * (src + 1), np.full(src, ctx.scalar(1)), src
    for nonzeros, dl, din, dout, dr in steps:
        if stored is not None:
            stored.append(idx)
        idx, val = _reference_apply_sparse(idx, val, nonzeros[:4], dl, din, dout, dr * src)
        rows = dl * dout * dr
    if stored is not None:
        stored.append(idx)
    end = la.zeros(ctx, val.shape[:-1] + (rows * src,))
    end[..., idx] = val
    end = end.reshape(*val.shape[:-1], rows, src)
    return np.broadcast_to(end, terms + end.shape[-2:]) if terms else end


def _swept_end(ctx, plan, xctx=None):
    """The dense end (term axes, rows, src) of `plan`'s sweep:
    `rt_eval._sweep`'s stored values rounded at `xctx` (default ctx) and
    put at their flat indices, zeros elsewhere."""
    xctx = xctx or ctx
    put, val = rt_eval._sweep(ctx, plan)
    val = la.rounded(xctx, val, plan[4])
    end = la.zeros(xctx, val.shape[:-1] + (math.prod(plan[3]),))
    end[..., put] = val
    return end.reshape(*val.shape[:-1], *plan[3])


def _matrix(ctx, nonzeros, din, dout):
    """The cell matrix, on its term axes, whose `_nonzeros` these are."""
    count, _, outs, vals = nonzeros[:4]
    m = la.zeros(ctx, vals.shape[:-1] + (dout, din))
    m[..., outs, np.arange(din).repeat(count)] = vals
    return m


# far more bits than any exact value of these tests' sweeps and closings
# holds, so that mpmath at this precision adds and multiplies them exactly
EXACT_BITS = 1 << 14


def _exact_context(ctx):
    """ctx at 53 bits; above, its level at `EXACT_BITS`."""
    return ScalarContext(ctx.r, precision=EXACT_BITS) if ctx.high_precision else ctx


def _exact_raw(ctx, raw):
    """The context and the raw steps (as `_unindexed_halves` gives them) of
    the reference routes: `_exact_context` and each step's `la.exact`
    values at it, so that above 53 bits the routes compute exactly on the
    values that the sweep lifted."""
    x = _exact_context(ctx)
    return x, ([((*nz[:3], la.rounded(x, *nz[5])), *sizes) for nz, *sizes in raw[0]], *raw[1:])


def _round_once(ctx, a):
    """Each exact value of `a`, at `_exact_context`, rounded to
    ctx's precision; at 53 bits `a`."""
    return np.frompyfunc(ctx.scalar, 1, 1)(a) if ctx.high_precision else a


def _dense_sweep(ctx, raw, patterns=None):
    """The dense route of a plan's steps as `_unindexed_halves` gives them:
    each step's matrix applied by `_apply_local` to the dense state, from
    the identity; the flat indices of each state's nonzeros, over all
    terms, are appended to `patterns`."""
    steps, src, terms = raw
    state = la.eye(ctx, src)
    for nonzeros, dl, din, dout, dr in steps:
        state = _apply_local(state, _matrix(ctx, nonzeros, din, dout), dl, din, dr, src)
        if patterns is not None:
            flat = state.reshape(-1, state.shape[-2] * src)
            patterns.append(np.flatnonzero(flat.astype(bool).any(axis=0)))
    return np.broadcast_to(state, terms + state.shape[-2:]) if terms else state


def _assert_sparse_kernel_matches_matmul(ctx, state, idx, m, nonzeros, dl, din, dr, src):
    """The sparse kernel on the stored entries `idx` of `state` against the
    dense product: the same bits as the object matmul at 106 bits, and
    I_dl (x) m (x) I_dr within rounding at 53 bits."""
    dout = m.shape[0]
    got_idx, got_val = _sparse_step(idx, state.reshape(-1)[idx], nonzeros,
                                    dl, din, dout, dr * src)
    assert np.all(np.diff(got_idx) > 0)
    got = la.zeros(ctx, (dl * dout * dr, src))
    got.reshape(-1)[got_idx] = got_val
    if not ctx.high_precision:
        ref = np.kron(np.kron(np.eye(dl), m), np.eye(dr)) @ state
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        return
    ref = np.matmul(m, state.reshape(dl, din, dr * src)).reshape(-1, src)
    assert all(type(x) is type(ctx.scalar(0)) for x in got_val)
    assert all(x == y for x, y in zip(got.flat, ref.flat))
    # an output is stored exactly when it has a term
    stored = np.zeros(state.size, dtype=bool)
    stored[idx] = True
    has_term = np.matmul(m != 0, stored.reshape(dl, din, dr * src))
    assert np.array_equal(got_idx, np.flatnonzero(has_term))


@pytest.mark.parametrize("precision", [53, 106])
def test_apply_sparse_matches_matmul(precision):
    """The sparse kernel on planted zero patterns, real cell matrices and a
    coupon: bit for bit at 106 bits, within rounding at 53."""
    ctx = ScalarContext(4, precision=precision)
    rng = np.random.default_rng(11)
    # dl = 1, dr = 1, a cup (dout = 1), a cap (din = 1), general cells; the
    # last has many terms per output, where the order of the sum shows
    for dl, din, dout, dr, src in ((1, 3, 3, 4, 2), (5, 2, 4, 1, 3), (3, 4, 1, 2, 1),
                                   (2, 1, 4, 3, 2), (3, 4, 4, 2, 3), (2, 9, 9, 3, 2)):
        state = _random(ctx, rng, (dl * din * dr, src), 0.4)
        blocks = state.reshape(dl, din, dr * src)
        blocks[dl // 2] = ctx.scalar(0)           # a whole zero slice
        blocks[:, din - 1, :dr] = ctx.scalar(0)
        m = _random(ctx, rng, (dout, din), 0.6)
        m[dout // 2] = ctx.scalar(0)              # a zero cell row
        nonzeros = rt_eval._nonzeros(m)
        _assert_sparse_kernel_matches_matmul(ctx, state, np.flatnonzero(state), m, nonzeros,
                                             dl, din, dr, src)
        # stored zeros (e.g. after a cancellation)
        _assert_sparse_kernel_matches_matmul(ctx, state, np.arange(state.size), m, nonzeros,
                                             dl, din, dr, src)
    a, b = wc.Typical(GENERIC), wc.Typical(GENERIC2)
    w = wc.ObjectWord([(1, a), (-1, b)])
    cells = [dg.cross((1, a), (-1, b)), dg.cup((1, a), left=False), dg.cap((1, a), left=True),
             dg.Cell("tneg", ((-1, b),)),
             dg.coupon(w, w, wc.braiding(ctx, wc.realize(ctx, wc.ObjectWord([(1, a)])),
                                         wc.realize(ctx, wc.ObjectWord([(-1, b)]))))]
    for cell in cells:
        m = rt_eval.cell_matrix(ctx, cell)
        din = m.shape[1]
        dl, dr, src = 2, 3, 2
        state = _random(ctx, rng, (dl * din * dr, src), 0.3)
        _assert_sparse_kernel_matches_matmul(ctx, state, np.flatnonzero(state), m,
                                             rt_eval._nonzeros(m) if cell.kind == "coupon" else
                                             rt_eval._cell_nonzeros_cached(
                                                 ctx, cell.kind, cell.letters, (), False),
                                             dl, din, dr, src)


@pytest.mark.parametrize("precision", [53, 106])
def test_apply_sparse_term_axes_match_per_term_calls(precision):
    """State values on term axes (2, 1) and cell values on (1, 3) give the
    six terms' values, each the bits of its own 1-D call."""
    ctx = ScalarContext(4, precision=precision)
    rng = np.random.default_rng(12)
    dl, din, dout, dr, src = 2, 4, 3, 2, 3
    states = [_random(ctx, rng, (dl * din * dr, src), 0.4) for _ in range(2)]
    idx = np.flatnonzero(states[0])  # stored zeros in the second state
    val = np.stack([s.reshape(-1)[idx] for s in states]).reshape(2, 1, idx.size)
    m = np.stack([_random(ctx, rng, (dout, din), 0.6) for _ in range(3)])
    count, offset, outs, vals, _ = rt_eval._nonzeros(m.reshape(1, 3, dout, din))
    got_idx, got = _sparse_step(idx, val, (count, offset, outs, vals), dl, din, dout, dr * src)
    assert got.shape == (2, 3, got_idx.size)
    for a in range(2):
        for b in range(3):
            one_idx, one = _sparse_step(idx, val[a, 0], (count, offset, outs, vals[0, b]),
                                        dl, din, dout, dr * src)
            assert np.array_equal(one_idx, got_idx)
            assert all(x == y for x, y in zip(got[a, b], one))


def _fresh_index_cache(mp):
    """An empty index cache in place of the shared one while `mp` lasts:
    plans are made anew, and none is left behind."""
    mp.setattr(rt_eval, "_index_cache", {})


def _unindexed_halves(monkeypatch, ctx, d, edge=None):
    """The two halves of `d` opened at `edge` (default: the first typical
    one), planned anew: per half, (steps, src, terms) with its steps as
    `_plan` hands them to `_indexed` and the diagram's term axes, and its
    plan."""
    b = (edge or rt_eval.find_typical_edge(ctx, d))[0]
    raws, indexed = [], rt_eval._indexed
    with monkeypatch.context() as mp:
        _fresh_index_cache(mp)
        mp.setattr(rt_eval, "_indexed",
                   lambda steps, src: raws.append(steps) or indexed(steps, src))
        plans = [rt_eval._plan(ctx, d.slices[:b], d.source, d.kirby_colors(), False),
                 rt_eval._plan(ctx, d.slices[b:], d.boundary_words()[b], d.kirby_colors(), True)]
    return [((steps, 1, _terms(ctx, d)), plan) for steps, plan in zip(raws, plans)]


def _terms(ctx, d):
    """The term axes of `d`'s Kirby expansion, one per Kirby color."""
    return tuple(len(k.color_sum(ctx).terms) for k in d.kirby_colors())


@pytest.mark.parametrize("precision", [53, 106])
def test_planned_sparse_steps_match_the_reference(monkeypatch, precision):
    """The planned index work against `_reference_apply_sparse`, `==` at
    either precision: each step on random values at its stored entries, and
    whole sweeps, without term axes (a 3-strand closure) and with them (the
    lens's Kirby color).  The whole sweeps match the dense route too, `==`
    at 106 bits and within rounding at 53.  Above 53 bits the references
    run exactly on the values that the sweep lifted (`_exact_raw`), so they
    are `==` the sweep's exact values.  The planned indices are intp."""
    ctx = ScalarContext(6, precision=precision)
    rng = np.random.default_rng(13)
    for d in (fx.braid_closure(wc.Typical(GENERIC), 3, [1, -2, 1, 2, -1, 1]),
              sfx.lens_unknot_presentation(ctx, 5, 1).diagram):
        raw, plan = _unindexed_halves(monkeypatch, ctx, d)[1]
        (xctx, xraw), stored = _exact_raw(ctx, raw), []
        got = _swept_end(ctx, plan, xctx)
        assert np.all(got == _reference_sweep(xctx, xraw, stored))
        assert plan[2].dtype == np.intp and np.array_equal(plan[2], stored[-1])
        for (vals, (term, k, first)), (nonzeros, dl, din, dout, dr), xstep, idx in zip(
                plan[0](), raw[0], xraw[0], stored[:-1], strict=True):
            assert all(a.dtype == np.intp for a in (term, k, first))
            # random values on the step's weight sector, on the plan's term axes
            val, e = la.exact(ctx, _random(ctx, rng, raw[2] + idx.shape, 1.0))
            want = _reference_apply_sparse(idx, la.rounded(xctx, val, e), xstep[0][:4],
                                           dl, din, dout, dr)[1]
            step = rt_eval._apply_sparse(val, vals, term, k, first, la.product(ctx, operator.mul))
            assert np.all(la.rounded(xctx, step, e + nonzeros[5][1]) == want)
        dense = _dense_sweep(xctx, xraw)
        if ctx.high_precision:
            assert np.all(got == dense)
        else:
            assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def _cancelling_closure_routes():
    """The three routes of the 3-strand closure of [-1, 2, 1, -2, 1, -1]
    at alpha = 0.326975+0.381914j (the `knots` workload's r10:n3 at seed
    701), each on a fresh diagram: its default edge, its last boundary, and
    the rotated word."""
    a, word = wc.Typical(0.326975 + 0.381914j), [-1, 2, 1, -2, 1, -1]
    d = fx.braid_closure(a, 3, word)
    return [(d, None), (fx.braid_closure(a, 3, word), (len(d.slices) - 1, 0)),
            (fx.braid_closure(a, 3, word[1:] + word[:1]), None)]


def test_planned_patterns_hold_the_swept_values(monkeypatch):
    """On the routes of a 3-strand closure and the auto-stabilised split
    unknot at r = 10, a fresh diagram's F' has the bits of the second call,
    each half's sweep has the bits of `_reference_sweep`, and each state of
    the dense route is zero outside the step's planned stored entries (so
    the stored entries hold all its values)."""
    ctx = ScalarContext(10)
    split = sg.auto_stabilize(ctx, sfx.split_surgery_unknot_presentation(ctx, GENERIC, 1))
    for d, edge in _cancelling_closure_routes() + [(split.diagram, None)]:
        assert not d._plans
        assert rt_eval.f_prime(ctx, d, edge) == rt_eval.f_prime(ctx, d, edge)
        seen = 0
        for raw, plan in _unindexed_halves(monkeypatch, ctx, d, edge):
            stored, patterns = [], []
            assert np.all(_swept_end(ctx, plan) == _reference_sweep(ctx, raw, stored))
            _dense_sweep(ctx, raw, patterns)
            assert len(patterns) == len(stored) - 1
            for idx, pattern in zip(stored[1:], patterns):
                assert np.isin(pattern, idx).all()
            seen += len(patterns)
        assert seen


def test_53_bit_routes_of_a_cancelling_closure_match_106_bits():
    """An independent precision for 53-bit sparse sweeps: the three routes
    of a closure whose sweep cancels about two digits, against the 106-bit
    F' of the same diagram.  Measured: 6.9e-14 relative on the default
    route, 3.8e-13 and 2.2e-13 on the second cut and the rotated word."""
    ctx, hp = ScalarContext(10), ScalarContext(10, precision=106)
    routes = _cancelling_closure_routes()
    want = complex(rt_eval.f_prime(hp, routes[0][0]))
    for d, edge in routes:
        assert abs(rt_eval.f_prime(ctx, d, edge) - want) <= 1e-11 * abs(want)


def test_s_is_read_at_the_entry_of_least_rounding_bound():
    """The closure of s1 s1^-1 s1^3 at r = 14 (the `knots` workload's
    r14:n2:rotated at seed 2), opened after s1 s1^-1: its 53-bit F' is
    within 10^3 u |F'| of its 106-bit F'.  Measured: 122 u; read at F[0, 0]
    it was 5030 u off, and at the entry whose products have the least
    absolute sum 5171 u on the r = 10 4-strand closure opened at
    boundary 1."""
    a, word = wc.Typical(1.258697 + 0.236407j), [1, -1, 1, 1, 1]
    ctx, hp = ScalarContext(14), ScalarContext(14, precision=106)
    want = complex(rt_eval.f_prime(hp, fx.braid_closure(a, 2, word)))
    d = fx.braid_closure(a, 2, word)
    assert rt_eval.find_typical_edge(ctx, d) == (4, 0)
    assert abs(rt_eval.f_prime(ctx, d) - want) <= 1e3 * 2.0 ** -53 * abs(want)


def test_106_bit_values_match_192_bits():
    """An independent precision for the exact kernel at 106 bits: F' of
    the odd T(2, n) closures to n = 9 at r = 4 and of the cancelling
    closure at r = 10, and cgp of the lens, S^1 x S^2 and the -1-framed
    unknot at r = 6, against 192-bit runs on the same inputs.  Measured:
    at most 1.8e-35 relative (the cancelling closure), 4.3e-36 elsewhere."""
    def torus(n):
        word = list(range(1, n)) * 2
        return lambda ctx: rt_eval.f_prime(
            ctx, fx.braid_closure(wc.Typical(0.37), n, word, [-len(word)]))

    cases = [(4, torus(n)) for n in (3, 5, 7, 9)] + [
        (10, lambda ctx: rt_eval.f_prime(ctx, _cancelling_closure_routes()[0][0])),
        (6, lambda ctx: sg.cgp(ctx, sfx.lens_unknot_presentation(ctx, 5, 1))),
        (6, lambda ctx: sg.cgp(ctx, sfx.s1xs2_presentation(ctx, wc.Degree(GENERIC2)))),
        (6, lambda ctx: sg.cgp(ctx, sfx.unknot_presentation(ctx, GENERIC, framing=-1)))]
    for r, value in cases:
        got, want = (value(ScalarContext(r, precision=bits)) for bits in (106, 192))
        assert abs(want - got) <= 1e-28 * abs(want)


@pytest.mark.parametrize("special", ["inf", "nan"])
def test_a_non_finite_value_is_refused_not_read_as_zero(special):
    """An mpmath inf or nan has mantissa 0: lifting it exactly refuses it,
    and so does F' of a 106-bit closure with a coupon that holds one."""
    hp = ScalarContext(4, precision=106)
    value = hp.scalar(getattr(hp._mp, special))
    with pytest.raises(la.NumericInstability, match="non-finite"):
        la.exact(hp, np.array([hp.scalar(1), value]))
    H = fx.hopf_link(wc.Typical(GENERIC), wc.Typical(GENERIC2))
    words = H.boundary_words()
    b = next(b for b in range(1, len(words)) if len(words[b]) == 2)
    m = la.eye(hp, math.prod(wc.color_dim(hp, c) for _, c in words[b]))
    m[1, 1] = value
    d = dg.insert_slices(H, b, [[dg.coupon(words[b], words[b], m)]])
    with pytest.raises(la.NumericInstability, match="non-finite"):
        rt_eval.f_prime(hp, d)


@pytest.mark.parametrize("r, alpha", [(6, 0.3 + 200j), (14, 0.3 + 60j)])
def test_an_overflowing_closure_is_refused_not_read_as_nan(r, alpha):
    """A weight this far off the real axis overflows the trefoil's 53-bit
    cell matrices: F' deviates from a scalar by NaN, which is no smaller
    than the bound, and is refused, not returned as nan."""
    with np.errstate(all="ignore"), pytest.raises(la.NumericInstability, match="by nan$"):
        rt_eval.f_prime(ScalarContext(r), fx.trefoil(wc.Typical(alpha)))


@pytest.mark.parametrize("r", [6, 14])
def test_a_power_of_q_past_double_range_is_refused(r):
    """Farther off the real axis, q^alpha itself leaves double range: it
    underflows to 0 in a quantum integer at r = 6 and overflows in K's
    action at r = 14, and either is refused, not raised as a bare
    ZeroDivisionError or OverflowError."""
    with np.errstate(all="ignore"), \
            pytest.raises(la.NumericInstability, match="out of double range at level"):
        rt_eval.f_prime(ScalarContext(r), fx.trefoil(wc.Typical(0.3 + 1000j)))


@pytest.mark.parametrize("precision", [53, 106])
def test_a_zero_coupon_gives_zero_at_every_edge(precision):
    """A Hopf link through a coupon holding the zero matrix: its step
    stores no entry, and F' is 0 opened at the default edge and below the
    coupon."""
    ctx = ScalarContext(4, precision=precision)
    H = fx.hopf_link(wc.Typical(GENERIC), wc.Typical(GENERIC2))
    words = H.boundary_words()
    b = next(b for b in range(1, len(words)) if len(words[b]) == 2)
    d = dg.insert_slices(H, b, [[dg.coupon(words[b], words[b], la.zeros(ctx, (4, 4)))]])
    assert rt_eval.f_prime(ctx, d) == rt_eval.f_prime(ctx, d, edge=(1, 0)) == 0


def test_magnitudes_of_exact_values_past_the_double_range():
    """`la.magnitude` sizes Gaussian integers past 2**1024, which no double
    holds, in one power of 2 for the whole array: their ratios hold."""
    hp = ScalarContext(4, precision=106)
    g = np.array([[3 << 1100, -(1 << 1100), 0], [0, 1 << 1100, 1]], dtype=object)
    size = la.magnitude(hp, g)
    assert np.all(np.isfinite(size)) and size[0] == 1.5 * size[1] > 0 == size[2]
    assert list(la.magnitude(hp, np.array([[3, -1], [-4, 0]], dtype=object))) == [7.0, 1.0]


def _f_prime_dense_route(monkeypatch, ctx, d):
    """f_prime of a copy of `d` at 106 bits, with plans of its own, each half
    swept exactly by `_dense_sweep` on the values that its plan lifted, as
    `la.exact`'s integers at the plan's exponent, read at the plan's stored
    flat indices (the dense end is zero elsewhere)."""
    raws, indexed = [], rt_eval._indexed

    def dense(ctx, plan):
        xctx, raw = _exact_raw(ctx, raws.pop(0) + (_terms(ctx, d),))
        ints, e = la.exact(xctx, _dense_sweep(xctx, raw))
        ints = (ints << (e - plan[4])).reshape(*ints.shape[:-2], -1)
        assert not np.delete(ints, plan[2], axis=-1).any()
        return plan[2], ints[..., plan[2]]

    with monkeypatch.context() as mp:
        _fresh_index_cache(mp)
        mp.setattr(rt_eval, "_indexed",
                   lambda steps, src: raws.append((steps, src)) or indexed(steps, src))
        mp.setattr(rt_eval, "_sweep", dense)
        value = rt_eval.f_prime(ctx, dataclasses.replace(d))
    assert not raws
    return value


def test_f_prime_high_precision_matches_dense_route(monkeypatch):
    hp = ScalarContext(4, precision=106)
    a = wc.Typical(GENERIC)
    closure = fx.figure_eight(a, framing=1)
    H = fx.hopf_link(a, wc.Typical(GENERIC2))
    words = H.boundary_words()
    b = next(b for b in range(1, len(words)) if len(words[b]) == 2)
    w = words[b]
    l0, l1 = w
    # a crossing undone by a coupon holding the inverse crossing's matrix
    undo = rt_eval.cell_matrix(hp, dg.cross(l1, l0, positive=False))
    with_coupon = dg.insert_slices(
        H, b, [dg.wrap_slice(w, 0, dg.cross(l0, l1)),
               [dg.coupon(wc.ObjectWord([l1, l0]), w, undo)]])
    for d in (closure, with_coupon):
        got = rt_eval.f_prime(hp, d)
        assert got == _f_prime_dense_route(monkeypatch, hp, d)
    assert abs(got - rt_eval.f_prime(hp, H)) <= 1e-25 * abs(got)
    # a Kirby-colored figure: all 3 terms of the lens in one sweep
    hp6 = ScalarContext(6, precision=106)
    lens = sfx.lens_unknot_presentation(hp6, 5, 1).diagram
    assert rt_eval.f_prime(hp6, lens) == _f_prime_dense_route(monkeypatch, hp6, lens)


def test_color_keyed_caches_are_bounded():
    """500 recolored 2-strand closures at r = 6, with both crossing signs
    and both twist signs, leave every cache keyed on colors at or under its
    bound (they add 3,000 cell matrices), and the shared index work within
    its bytes."""
    caches = [rt_eval._cell_matrix_cached, rt_eval._cell_nonzeros_cached,
              wc.modified_dimension, wc.realize_letter, wc.kirby_color]
    ctx = ScalarContext(6)
    rng = np.random.default_rng(17)
    for _ in range(500):
        a = wc.Typical(complex(rng.uniform(0.1, 2.9), rng.uniform(0.05, 0.5)))
        d = fx.braid_closure(a, 2, [1, -1, 1], [1, -1])
        assert rt_eval.f_prime(ctx, d) / wc.modified_dimension(ctx, a.alpha) != 0
    for cached in caches:
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cached
    assert sum(size for _, size in rt_eval._index_cache.values()) <= rt_eval._INDEX_BYTES


def _counted_indexed(mp):
    """A list that gains an entry on each `_indexed` call while `mp` lasts."""
    calls, indexed = [], rt_eval._indexed
    mp.setattr(rt_eval, "_indexed", lambda *args: calls.append(1) or indexed(*args))
    return calls


def _half_plans(d):
    """The half plans held by the openings kept on `d`, by context, edge and
    direction (0 up, 1 down)."""
    return {(*key, down): plan for key, (halves, *_) in d._plans.items()
            for down, plan in enumerate(halves)}


def _assert_shared(plan, other):
    """`other`'s steps hold the index arrays of `plan`'s (`is`) with
    nonzero values of their own."""
    for (vals, work), (other_vals, other_work) in zip(plan[0](), other[0](), strict=True):
        assert vals is not other_vals and all(x is y for x, y in zip(work, other_work, strict=True))
    assert plan[2] is other[2]


@pytest.mark.parametrize("precision", [53, 106])
def test_recolored_closures_share_their_index_work(monkeypatch, precision):
    """Two colors of a 3-strand closure plan its halves' index work once:
    their cells have the same nonzero patterns, so their steps hold the
    same index arrays with their own nonzero values, and each F' is `==`
    that of a copy planned in an empty cache."""
    ctx = ScalarContext(6, precision=precision)
    _fresh_index_cache(monkeypatch)
    calls = _counted_indexed(monkeypatch)
    ds = [fx.braid_closure(wc.Typical(a), 3, [1, -2, 1, 2, -1, 1]) for a in (GENERIC, GENERIC2)]
    values = [rt_eval.f_prime(ctx, d) for d in ds]
    assert len(calls) == 2
    plans = _half_plans(ds[0])
    assert len(plans) == 2
    for key, plan in plans.items():
        assert list(plan[0]())
        _assert_shared(plan, _half_plans(ds[1])[key])
    for d, value in zip(ds, values):
        with monkeypatch.context() as mp:
            _fresh_index_cache(mp)
            assert rt_eval.f_prime(ctx, dataclasses.replace(d)) == value


def test_plans_share_index_work_across_precisions_and_term_axes(monkeypatch):
    """A 3-strand closure at 53 and at 106 bits, and Kirby-colored on the
    same nonzero patterns (3 terms at r = 6): the halves' index work is
    made once and held by all three plans (`is`), with nonzero values of
    their own, and each F' is `==` that of a copy planned in an empty
    cache."""
    _fresh_index_cache(monkeypatch)
    calls = _counted_indexed(monkeypatch)
    ctx, hp, word = ScalarContext(6), ScalarContext(6, precision=106), [1, -2, 1, 2, -1, 1]
    d, kd = fx.braid_closure(wc.Typical(GENERIC), 3, word), fx.braid_closure(wc.Kirby(0.5), 3, word)
    cases = [(ctx, d), (hp, d), (ctx, kd)]
    values = [rt_eval.f_prime(c, e) for c, e in cases]
    assert len(calls) == 2
    halves = [{key[1:]: plan for key, plan in _half_plans(e).items() if key[0] == c}
              for c, e in cases]
    assert [len(h) for h in halves] == [2, 2, 2]
    assert all(rt_eval._sweep(ctx, plan)[1].shape[0] == 3 for plan in halves[2].values())
    for key, plan in halves[0].items():
        assert list(plan[0]())
        for other in halves[1:]:
            _assert_shared(plan, other[key])
    for (c, e), value in zip(cases, values):
        with monkeypatch.context() as mp:
            _fresh_index_cache(mp)
            assert rt_eval.f_prime(c, dataclasses.replace(e)) == value


def test_a_coupon_with_one_more_nonzero_gets_its_own_entry(monkeypatch):
    """A Hopf link with a crossing undone by a coupon, then with a coupon
    of one more nonzero (1e-30 in a zero entry): the half through the
    coupon is planned anew, the other is shared, and each F' is `==` that
    of a copy planned in an empty cache."""
    ctx = ScalarContext(6)
    H = fx.hopf_link(wc.Typical(GENERIC), wc.Typical(GENERIC2))
    words = H.boundary_words()
    b = next(b for b in range(1, len(words)) if len(words[b]) == 2)
    w = words[b]
    l0, l1 = w
    undo = rt_eval.cell_matrix(ctx, dg.cross(l1, l0, positive=False))
    more = undo.copy()
    more[tuple(np.argwhere(undo == 0)[0])] = 1e-30
    _fresh_index_cache(monkeypatch)
    keys = []
    for m in (undo, more):
        d = dg.insert_slices(H, b, [dg.wrap_slice(w, 0, dg.cross(l0, l1)),
                                    [dg.coupon(wc.ObjectWord([l1, l0]), w, m)]])
        value = rt_eval.f_prime(ctx, d)
        keys.append(set(rt_eval._index_cache))
        with monkeypatch.context() as mp:
            _fresh_index_cache(mp)
            assert rt_eval.f_prime(ctx, dataclasses.replace(d)) == value
    assert len(keys[0]) == 2 and len(keys[1]) == 3 and keys[0] < keys[1]


def test_a_plan_past_its_budget_walks_its_index_work_anew(monkeypatch):
    """With `_INDEX_BYTES` at 0, no half of a 3-strand closure keeps its
    index work: each warm run walks it again, once per half, and F' at 53
    and 106 bits, cold and warm, has the bits of plans that keep it."""
    word = [1, -2, 1, 2, -1, 1]
    for ctx in (ScalarContext(6), ScalarContext(6, precision=106)):
        want = rt_eval.f_prime(ctx, fx.braid_closure(wc.Typical(GENERIC), 3, word))
        with monkeypatch.context() as mp:
            _fresh_index_cache(mp)
            mp.setattr(rt_eval, "_INDEX_BYTES", 0)
            walks, walk = [], rt_eval._walk
            mp.setattr(rt_eval, "_walk", lambda *args: walks.append(1) or walk(*args))
            d = fx.braid_closure(wc.Typical(GENERIC), 3, word)
            assert rt_eval.f_prime(ctx, d) == want
            cold = len(walks)
            assert rt_eval.f_prime(ctx, d) == want
            assert len(walks) - cold == 2


def test_open_diagrams_share_index_work(monkeypatch):
    """An open braid evaluated on its source's columns plans its index work
    once and leaves it in the shared cache: evaluating it again, and in
    another colour, plans nothing more."""
    _fresh_index_cache(monkeypatch)
    calls = _counted_indexed(monkeypatch)
    ctx = ScalarContext(6)
    for a in (GENERIC, GENERIC, GENERIC2):
        w = wc.ObjectWord([(1, wc.Typical(a))] * 2)
        d = dg.apply_cell(dg.identity_diagram(w), 0, dg.cross(*w))
        assert rt_eval.evaluate(ctx, d).shape == (9, 9)
    assert len(calls) == 1
    assert len(rt_eval._index_cache) == 1


def test_evaluate_keeps_no_plan(ctx):
    """`evaluate` plans and sweeps without keeping anything on the diagram:
    an open braid, a closed knot and a Kirby-colored unknot on its term
    axis."""
    w = wc.ObjectWord([(1, wc.Typical(GENERIC))] * 2)
    for d in (dg.apply_cell(dg.identity_diagram(w), 0, dg.cross(*w)),
              fx.figure_eight(wc.Typical(GENERIC)), fx.unknot(wc.Kirby(0.5))):
        rt_eval.evaluate_formal(ctx, d)
        assert not d._plans


def test_many_patterns_keep_the_index_cache_within_its_budget(monkeypatch):
    """Closures of 40 random braid words on 2-4 strands at r = 6, planned
    in a cache of 16 KiB: after each, the cache holds at most its budget,
    its byte total is that of its plans, and it has dropped plans, the
    least recently used or those over the budget."""
    cache = {}
    monkeypatch.setattr(rt_eval, "_index_cache", cache)
    monkeypatch.setattr(rt_eval, "_INDEX_BYTES", 2 ** 14)
    calls = _counted_indexed(monkeypatch)
    ctx, rng = ScalarContext(6), np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        word = [int(s * g) for s, g in zip(rng.choice((-1, 1), 6), rng.integers(1, n, 6))]
        rt_eval.f_prime(ctx, fx.braid_closure(wc.Typical(GENERIC), n, word))
        assert sum(size for _, size in cache.values()) <= 2 ** 14
    assert len(cache) < len(calls)


def test_four_strand_closure_at_r14_is_cut_independent():
    """A closure whose dense sweep would need a 4.2 GiB state."""
    ctx = ScalarContext(14)
    d = fx.braid_closure(wc.Typical(GENERIC), 4, [1, -2, -3, -1, 2, 3, 2])
    v = rt_eval.f_prime(ctx, d)
    second = rt_eval.f_prime(ctx, d, edge=(len(d.slices) - 1, 0))
    assert abs(v - second) <= 1e-9 * max(1.0, abs(v))


def test_seven_strand_closure_past_int32_positions_at_r10():
    """The closure of s1 ... s6 is the unknot framed 6.  One cap of its
    sweep takes the state from under 2**31 flat positions to over it, with
    the incoming indices stored int32: int32 index arithmetic wrapped there
    and the value was refused with a deviation of 8e3."""
    ctx, c = ScalarContext(10), wc.Typical(0.37 + 0.21j)
    v = rt_eval.f_prime(ctx, fx.braid_closure(c, 7, [1, 2, 3, 4, 5, 6]))
    want = rt_eval.f_prime(ctx, fx.unknot(c, framing=6))
    assert abs(v - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("dr, src", [(2 ** 21, 1), (2 ** 16, 2 ** 5)])
def test_scatter_on_int32_indices_past_int32_outputs(dr, src):
    """A cap-like step (one input, five nonzeros) on int32 input indices in
    a (dl, 1, rest) layout under 2**31 positions, whose (dl, 25, rest)
    output layout is over it, with rest = dr * src as `evaluate` lays it
    out: entry for entry what the same call on int64 indices gives."""
    dl, rest = 1000, dr * src
    assert dl * rest < 2 ** 31 < dl * 25 * rest
    idx = np.unique(np.random.default_rng(23).integers(0, dl * rest, 64))
    count, offset, outs, *_ = rt_eval._nonzeros(np.eye(5).reshape(25, 1))
    got = rt_eval._scatter(idx.astype(np.int32), count, offset, outs, dl, 1, 25, rest)
    want = rt_eval._scatter(idx.astype(np.int64), count, offset, outs, dl, 1, 25, rest)
    assert want[3].max() >= 2 ** 31
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_auto_stabilized_split_sweeps_all_terms_at_once_at_r10():
    """Its widest step forms 16k products for each of its 5 terms, all in
    one broadcast in `_apply_sparse`: a 4.25 MiB traced peak."""
    ctx = ScalarContext(10)
    p = sg.auto_stabilize(ctx, sfx.split_surgery_unknot_presentation(ctx, GENERIC, 1))
    wc.constants(ctx)
    tracemalloc.start()
    try:
        rt_eval.f_prime(ctx, p.diagram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_trefoil_high_precision_matches_53_bits(ctx6):
    hp = ScalarContext(6, precision=106)
    a = wc.Typical(GENERIC)
    ref = rt_eval.f_prime(ctx6, fx.trefoil(a))
    assert abs(complex(rt_eval.f_prime(hp, fx.trefoil(a))) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_nonzeros_make_no_mpmath_comparison(monkeypatch):
    """`_nonzeros` finds a 106-bit matrix's zeros by truthiness, not by an
    mpmath `!=` per entry: with that `!=` raising, it still finds the
    nonzeros of an r = 10 crossing."""
    hp = ScalarContext(10, precision=106)
    m = rt_eval.cell_matrix(hp, dg.cross((1, wc.Typical(GENERIC)), (1, wc.Typical(GENERIC2))))
    want = int(np.count_nonzero(m != 0))

    def refuse(*args):
        raise AssertionError("an mpmath comparison")

    monkeypatch.setattr(type(hp.scalar(0)), "__ne__", refuse)
    assert rt_eval._nonzeros(m)[0].sum() == want


def test_closed_unknot_values(ctx):
    v = rt_eval.evaluate(ctx, fx.unknot(wc.Sigma(ctx.rbar)))[0, 0]
    assert abs(v - wc.sigma_dim(ctx, ctx.rbar)) < 1e-12
    v2 = rt_eval.evaluate(ctx, fx.unknot(wc.Typical(GENERIC)))[0, 0]
    assert abs(v2) < 1e-12


def test_functoriality_and_monoidality(ctx):
    rng = np.random.default_rng(5)
    a = wc.Typical(GENERIC)
    b = wc.Typical(GENERIC2)
    w = wc.ObjectWord([(1, a)])
    pieces = [
        dg.add_curl(dg.identity_diagram(w), 0, positive=True),
        dg.add_curl(dg.identity_diagram(w), 0, positive=False),
        dg.encircle(dg.Diagram(w, []), (0, 1), b, framing=0),
    ]
    for _ in range(25):
        i, j = rng.integers(0, len(pieces), 2)
        d1, d2 = pieces[i], pieces[j]
        comp = dg.compose(d1, d2)
        lhs = rt_eval.evaluate(ctx, comp)
        rhs = rt_eval.evaluate(ctx, d2) @ rt_eval.evaluate(ctx, d1)
        assert np.abs(lhs - rhs).max() < 1e-9
        t = dg.tensor(d1, d2)
        lhs_t = rt_eval.evaluate(ctx, t)
        rhs_t = np.kron(rt_eval.evaluate(ctx, d1), rt_eval.evaluate(ctx, d2))
        assert np.abs(lhs_t - rhs_t).max() < 1e-9


def test_formal_meridian_gives_delta(ctx):
    c = wc.constants(ctx)
    # +-1 framed Kirby meridian around a strand evaluates to the
    # stabilization coefficient times the compensating twist
    a = GENERIC
    V = wc.realize_letter(ctx, (1, wc.Typical(a)))
    theta = wc.twist(ctx, V)[0, 0]
    for fr, expected in ((-1, c.delta_minus * theta), (1, c.delta_plus / theta)):
        g = wc.Degree(a if fr < 0 else -a)
        om = wc.kirby_color(ctx, g)
        d = dg.encircle(strand(wc.Typical(a)), (0, 1), wc.Kirby(g.g, terms=om), fr)
        mat = rt_eval.evaluate_formal(ctx, d)
        got = wc.scalar_of(ctx, mat)
        assert abs(got - expected) < 1e-8 * max(1, abs(expected))


def test_formal_linearity(ctx):
    g = wc.Degree(0.5)
    om = wc.kirby_color(ctx, g)
    base = strand(wc.Typical(GENERIC))
    d = dg.encircle(base, (0, 1), wc.Kirby(g.g, terms=om), 0)
    total = rt_eval.evaluate_formal(ctx, d)
    comp = next(c for c, col in d.component_colors().items() if isinstance(col, wc.Kirby))
    acc = None
    for coeff, color in om.terms:
        plain = d.recolor_component(comp, color)
        val = coeff * rt_eval.evaluate(ctx, plain)
        acc = val if acc is None else acc + val
    assert np.abs(total - acc).max() < 1e-10


def test_f_prime_unknot_and_curl(ctx):
    a = GENERIC
    fp = rt_eval.f_prime(ctx, fx.unknot(wc.Typical(a)))
    assert abs(fp - wc.modified_dimension(ctx, a)) < 1e-12
    fp1 = rt_eval.f_prime(ctx, fx.unknot(wc.Typical(a), framing=1))
    th = wc.twist(ctx, wc.realize_letter(ctx, (1, wc.Typical(a))))[0, 0]
    assert abs(fp1 - th * wc.modified_dimension(ctx, a)) < 1e-11


def test_f_prime_cut_independence(ctx):
    H = fx.hopf_link(wc.Typical(GENERIC), wc.Typical(GENERIC2))
    words = H.boundary_words()
    vals = []
    for b in range(1, len(words)):
        for i, (s, c) in enumerate(words[b]):
            if isinstance(c, wc.Typical):
                vals.append(rt_eval.f_prime(ctx, H, edge=(b, i)))
    assert len(vals) >= 4
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-9 * max(1.0, abs(vals[0]))


def _cut_route(ctx, d, edge):
    """F' by cutting at `edge`, evaluating the cut and taking the modified
    trace of each Kirby term; and the sum of the terms' absolute values."""
    cut = dg.cut(ctx, d, *edge)
    ends, total, size = rt_eval.evaluate(ctx, cut), ctx.scalar(0), 0
    for (coeff, sub), end in zip(rt_eval.expand_formal(ctx, cut),
                                 ends.reshape(-1, *ends.shape[-2:])):
        word = wc.ObjectWord([(sign, sub.get(c, c)) for sign, c in cut.source])
        term = coeff * wc.modified_trace(ctx, word, end)
        total, size = total + term, size + abs(term)
    return total, size


@pytest.mark.parametrize("r, precision", [(4, 53), (6, 53), (4, 106), (6, 106)])
def test_opened_f_prime_matches_the_cut_route_at_every_edge(r, precision):
    ctx = ScalarContext(r, precision=precision)
    a = wc.Typical(GENERIC)
    figures = [fx.figure_eight(a), fx.hopf_link(a, wc.Typical(GENERIC2)), fx.trefoil(a),
               sfx.lens_unknot_presentation(ctx, 5, 1).diagram]
    for d in figures:
        words = d.boundary_words()
        edges = [(b, i) for b in range(1, len(words)) for i, (_, c) in enumerate(words[b])
                 if isinstance(c, (wc.Typical, wc.Kirby))]
        assert len(edges) >= 4
        for e in edges:
            assert_within_rounding(ctx, rt_eval.f_prime(ctx, d, edge=e), *_cut_route(ctx, d, e))


def test_opened_four_strand_closure_matches_the_cut_route_at_r10():
    ctx = ScalarContext(10)
    d = fx.braid_closure(wc.Typical(GENERIC), 4, [1, -2, -3, -1, 2, 3, 2])
    assert_within_rounding(ctx, rt_eval.f_prime(ctx, d), *_cut_route(ctx, d, typical_edges(d)[0]))


def _closures(ctx):
    """A 3- and a 4-strand closure colored GENERIC, by name."""
    a = wc.Typical(GENERIC)
    return {"3-strand": fx.braid_closure(a, 3, [1, -2, 1, 2, -1, 1]),
            "4-strand": fx.braid_closure(a, 4, [1, -2, -3, -1, 2, 3, 2])}


def _assert_intp_openings(d):
    """Every index array of the openings kept on `d` is intp: each half's
    steps and stored entries, and the pairing."""
    for halves, pairing, *_ in d._plans.values():
        arrays = [h[2] for h in halves] + list(pairing[:4])
        arrays += [a for h in halves for _, work in h[0]() for a in work]
        assert all(a.dtype == np.intp for a in arrays)


@pytest.mark.parametrize("r", [4, 6, 10])
def test_every_boundary_opens_to_the_cut_value(r):
    """F' opened at every boundary that has a typical or Kirby letter (at
    its first one), on the closures and on every surgery fixture of
    `test_kirby_colors`, Kirby colors included: each value is within
    10^3 u sum |terms| of the cut route at the lowest such edge, and every
    index array of the openings is intp."""
    ctx = ScalarContext(r)
    for name, d in (_closures(ctx) | _figures(ctx)).items():
        edges = typical_edges(d)
        want, size = _cut_route(ctx, d, edges[0])
        for e in edges:
            assert_within_rounding(ctx, rt_eval.f_prime(ctx, d, edge=e), want, size)
        _assert_intp_openings(d)


@pytest.mark.parametrize("r", [4, 6])
def test_every_boundary_opens_to_the_192_bit_value(r):
    """At 106 bits, F' opened at every boundary of the closures, and at
    r = 4 of every surgery fixture, against a 192-bit run of the same
    diagram at its default edge, within the bound of
    `test_106_bit_values_match_192_bits`."""
    hp, ref = ScalarContext(r, precision=106), ScalarContext(r, precision=192)
    figures = [_closures(c) | (_figures(c) if r == 4 else {}) for c in (hp, ref)]
    for name, d in figures[0].items():
        want = rt_eval.f_prime(ref, figures[1][name])
        for e in typical_edges(d):
            assert abs(want - rt_eval.f_prime(hp, d, edge=e)) <= 1e-28 * abs(want), (name, e)


def test_f_prime_split_sigma_factor(ctx):
    a = wc.Typical(GENERIC)
    u = fx.unknot(a)
    both = dg.tensor(u, fx.unknot(wc.Sigma(ctx.rbar)))
    v1 = rt_eval.f_prime(ctx, u) * wc.sigma_dim(ctx, ctx.rbar)
    v2 = rt_eval.f_prime(ctx, both)
    assert abs(v1 - v2) < 1e-10 * max(1, abs(v1))


def test_f_prime_requires_admissible(ctx):
    with pytest.raises(rt_eval.NotAdmissible):
        rt_eval.f_prime(ctx, fx.unknot(wc.Sigma(0)))
    d = dg.identity_diagram(wc.ObjectWord([(1, wc.Typical(GENERIC))]))
    with pytest.raises(ValueError, match="needs a closed diagram"):
        rt_eval.f_prime(ctx, d)
    assert not d._plans


def test_connected_sum_factorization(ctx):
    a = GENERIC
    T1 = fx.trefoil(wc.Typical(a))
    T2 = fx.figure_eight(wc.Typical(a))
    c1 = dg.cut(ctx, T1, *rt_eval.find_typical_edge(ctx, T1))
    c2 = dg.cut(ctx, T2, *rt_eval.find_typical_edge(ctx, T2))
    joined = dg.trace_closure(dg.compose(c1, c2))
    lhs = rt_eval.f_prime(ctx, joined)
    rhs = rt_eval.f_prime(ctx, T1) * rt_eval.f_prime(ctx, T2) / wc.modified_dimension(ctx, a)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_relative_modularity_offdiagonal(ctx6):
    g = wc.Degree(0.5)
    reps = wc.index_set(ctx6, g)
    h = wc.Degree(0.37 + 0.2j)
    diag_scale = None
    for i, wi in enumerate(reps):
        for j, wj in enumerate(reps):
            A = relative_modularity_matrix(ctx6, wi, wj, h)
            n = float(np.abs(A).max())
            if i == j:
                diag_scale = n if diag_scale is None else min(diag_scale, n)
            else:
                assert n <= 1e-8 * 20
    assert diag_scale > 1.0


def test_alexander_specialization_r4(ctx4):
    # the renormalized knot invariant divided by the modified dimension is
    # the Alexander polynomial at t = q^{2 alpha} (symmetric normalization)
    def ratio(builder, a):
        return rt_eval.f_prime(ctx4, builder(wc.Typical(a))) / \
            wc.modified_dimension(ctx4, a)
    for a in (0.37 + 0.2j, 0.8 + 0.1j):
        t = ctx4.q_power(2 * a)
        assert abs(ratio(fx.unknot, a) - 1) < 1e-10
        assert abs(ratio(fx.figure_eight, a) - (-t + 3 - 1 / t)) < 1e-9
        assert abs(ratio(fx.trefoil, a) - (t - 1 + 1 / t)) < 1e-9


def test_kirby_expansion_order_independence(ctx):
    g = wc.Degree(0.5)
    om = wc.kirby_color(ctx, g)
    reversed_om = wc.FormalColorSum(tuple(reversed(om.terms)))
    base = strand(wc.Typical(GENERIC))
    k = wc.Kirby(g.g, terms=om)
    d = dg.encircle(base, (0, 1), k, -1)
    v1 = rt_eval.evaluate_formal(ctx, d)
    v2 = rt_eval.evaluate_formal(ctx, d.recolor(k, wc.Kirby(g.g, terms=reversed_om)))
    assert np.abs(v1 - v2).max() < 1e-12 * max(1.0, np.abs(v1).max())


def _uncached_closing(ctx, d):
    """f_prime with each term closed as before its closing data was cached:
    a per-term einsum, `wc._pivot` on each realized letter, the mpmath
    scalar check and the uncached modified dimension (d(V*) = d(V), so a
    -letter's own weight); and the sum of the terms' absolute values.  s
    is read at the diagonal entry chosen by the opening that the default
    `f_prime` kept on `d`.  Above 53 bits each half's exact values are
    closed exactly, at `EXACT_BITS`, and each entry rounded once."""
    (b, i), kirby = rt_eval.find_typical_edge(ctx, d), d.kirby_colors()
    word = d.boundary_words()[b]
    xctx = _exact_context(ctx)
    plans = [rt_eval._plan(ctx, d.slices[:b], d.source, kirby, False),
             rt_eval._plan(ctx, d.slices[b:], word, kirby, True)]
    halves = [_swept_end(ctx, plan, xctx) for plan in plans]
    dims = [wc.color_dim(ctx, c) for _, c in word]
    shape = (-1, math.prod(dims[:i]), dims[i], math.prod(dims[i + 1:]))
    at = np.broadcast_to(d._plans[ctx, None][-1] % dims[i] ** 2, _terms(ctx, d)).reshape(-1)
    total, size = ctx.scalar(0), 0
    for (coeff, sub), low, up, j in zip(rt_eval.expand_formal(ctx, d),
                                        *(h.reshape(shape) for h in halves), at // (dims[i] + 1)):
        letters = tuple((sign, sub.get(c, c)) for sign, c in word)
        pivots = reduce(np.multiply.outer, [
            wc._pivot(ctx, wc.realize_letter(ctx, x), 1 if k > i else -1)
            for k, x in enumerate(letters) if k != i], ctx.scalar(1))
        end = np.einsum("ajc,akc->jk", low * np.reshape(pivots, (shape[1], 1, shape[3])), up)
        end = _round_once(ctx, end) * ctx.scalar(d.prefactor)
        s = end[j, j]
        assert la.norm_inf(end - la.eye(ctx, dims[i]) * s) <= ctx.tol * max(1.0, abs(s))
        term = coeff * (s * wc.modified_dimension.__wrapped__(ctx, complex(letters[i][1].alpha)))
        total, size = total + term, size + abs(term)
    return total, size


@pytest.mark.parametrize("precision", [53, 106])
def test_cached_closing_matches_the_uncached_route(precision):
    """The cached pivots and modified dimensions, the double scalar check
    and the one-matmul pairing give the bits of the uncached closing at
    106 bits, where it pairs exactly and rounds each entry once, and agree
    within rounding at 53."""
    ctx6, ctx4 = (ScalarContext(r, precision=precision) for r in (6, 4))
    cases = [(ctx6, sfx.lens_unknot_presentation(ctx6, 5, 1).diagram),
             (ctx6, sfx.unknot_presentation(ctx6, GENERIC, framing=-1).diagram),
             (ctx6, sfx.s1xs2_presentation(ctx6, wc.Degree(GENERIC2)).diagram),
             (ctx4, fx.braid_closure(wc.Typical(GENERIC), 3, [1, -2, 1, 2, -1, 1]))]
    for ctx, d in cases:
        got, (want, size) = rt_eval.f_prime(ctx, d), _uncached_closing(ctx, d)
        if ctx.high_precision:
            assert got == want
        else:
            assert_within_rounding(ctx, got, want, size)
