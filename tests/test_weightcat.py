import itertools

import numpy as np
import pytest
from mpmath.ctx_mp import MPContext

import cgpkit._linalg as la
from cgpkit import checks
from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import drawn_kinks, strand, whole_matrix_zeta

GENERIC = 0.37 + 0.2j
GENERIC2 = 0.59 - 0.11j


def K(a, b):
    return np.kron(a, b)


def test_typicality_window(ctx):
    m = ctx.nilpotency
    assert wc.is_typical_weight(ctx, 0.5)
    assert wc.is_typical_weight(ctx, GENERIC)
    assert wc.is_typical_weight(ctx, m - 1)
    assert wc.is_typical_weight(ctx, m - 1 + m)
    assert not wc.is_typical_weight(ctx, 0)
    if m > 2:
        assert not wc.is_typical_weight(ctx, 1)
    with pytest.raises(wc.NonTypicalColor):
        wc.typical_module(ctx, 0)


def test_module_relations_suite(ctx):
    mods = [
        wc.typical_module(ctx, GENERIC),
        wc.typical_module(ctx, ctx.nilpotency - 1),
        wc.sigma_module(ctx, ctx.rbar),
        wc.sigma_module(ctx, -2 * ctx.rbar),
    ]
    mods.append(wc.dual_module(ctx, mods[0]))
    mods.append(wc.tensor_module(ctx, mods[0], mods[4]))
    mods.append(wc.tensor_module(ctx, mods[0], mods[2]))
    for M in mods:
        assert wc.check_module_relations(ctx, M) < 1e-9


@pytest.mark.parametrize("r", [4, 6, 10])
def test_module_relations_at_working_precision(r):
    # non-dyadic weights: alpha - 2n and alpha - n + 1 are formed at 106 bits
    # (at r = 10 some alpha - n + 1 are inexact in double)
    hp = ScalarContext(r, precision=106)
    V = wc.typical_module(hp, GENERIC)
    W = wc.typical_module(hp, GENERIC2)
    for M in (V, wc.dual_module(hp, V), wc.tensor_module(hp, V, W)):
        assert wc.check_module_relations(hp, M) < 1e-28


def _H(ctx, M):
    """H = diag(weights) on the weight basis of M."""
    return np.diag(la.asarray(ctx, M.weights))


def _K(ctx, M):
    """K = diag(q^w) on the weight basis of M."""
    return np.diag(la.asarray(ctx, [ctx.q_power(w) for w in M.weights]))


def test_realize_examples(ctx):
    unit = wc.realize(ctx, wc.ObjectWord([(1, wc.Sigma(0))]))
    assert unit.dim == 1 and abs(_H(ctx, unit)[0, 0]) < 1e-15
    s = wc.realize(ctx, wc.ObjectWord([(1, wc.Sigma(ctx.rbar))]))
    assert abs(_H(ctx, s)[0, 0] - ctx.rbar) < 1e-15
    assert abs(_K(ctx, s)[0, 0] - ctx.q_power(ctx.rbar)) < 1e-15
    word = wc.ObjectWord([(1, wc.Typical(GENERIC)), (-1, wc.Typical(GENERIC))])
    M = wc.realize(ctx, word)
    assert M.dim == (ctx.nilpotency) ** 2
    assert M.degree.equals(wc.Degree(0j), 1e-9)


def test_zigzags_all_four(ctx):
    for sign in (1, -1):
        M = wc.realize_letter(ctx, (sign, wc.Typical(GENERIC)))
        I = np.eye(M.dim)
        ev_l = wc.ev_coev(ctx, M, "ev_l")
        coev_l = wc.ev_coev(ctx, M, "coev_l")
        ev_r = wc.ev_coev(ctx, M, "ev_r")
        coev_r = wc.ev_coev(ctx, M, "coev_r")
        assert np.abs(K(I, ev_l) @ K(coev_l, I) - I).max() < 1e-12
        assert np.abs(K(ev_r, I) @ K(I, coev_r) - I).max() < 1e-12
        assert np.abs(K(ev_l, I) @ K(I, coev_l) - I).max() < 1e-12
        assert np.abs(K(I, ev_r) @ K(coev_r, I) - I).max() < 1e-12


def test_categorical_dimension_sigma(ctx4, ctx6):
    # closed loop of sigma(rbar): -1 at level 4, +1 at level 6
    assert wc.sigma_dim(ctx4, ctx4.rbar) == -1
    assert wc.sigma_dim(ctx6, ctx6.rbar) == 1
    assert wc.z_mod_zplus(ctx4) == 2
    assert wc.z_mod_zplus(ctx6) == 1


def test_quantum_dimension_of_typical_vanishes(ctx):
    M = wc.realize_letter(ctx, (1, wc.Typical(GENERIC)))
    qdim = (wc.ev_coev(ctx, M, "ev_r") @ wc.ev_coev(ctx, M, "coev_l"))[0, 0]
    assert abs(qdim) < 1e-12


def test_braiding_properties(ctx):
    V = wc.typical_module(ctx, GENERIC)
    W = wc.typical_module(ctx, GENERIC2)
    U = wc.typical_module(ctx, 0.11 + 0.05j)
    c = wc.braiding(ctx, V, W)
    cinv = wc.braiding_inv(ctx, V, W)
    assert np.abs(cinv @ c - np.eye(V.dim * W.dim)).max() < 1e-10
    # hexagons
    UV = wc.tensor_module(ctx, U, V)
    lhs = wc.braiding(ctx, UV, W)
    rhs = K(wc.braiding(ctx, U, W), np.eye(V.dim)) @ K(np.eye(U.dim), wc.braiding(ctx, V, W))
    assert np.abs(lhs - rhs).max() < 1e-10
    VW = wc.tensor_module(ctx, V, W)
    lhs2 = wc.braiding(ctx, U, VW)
    rhs2 = K(np.eye(V.dim), wc.braiding(ctx, U, W)) @ K(wc.braiding(ctx, U, V), np.eye(W.dim))
    assert np.abs(lhs2 - rhs2).max() < 1e-10


def test_periodicity_compatibility(ctx):
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = complex(rng.uniform(0.1, 1.9), rng.uniform(-0.5, 0.5))
        if wc.Degree(g).is_critical(1e-9):
            continue
        k = int(rng.integers(-2, 3)) * ctx.rbar
        V = wc.typical_module(ctx, g)
        S = wc.sigma_module(ctx, k)
        dbl = wc.braiding(ctx, S, V) @ wc.braiding(ctx, V, S)
        expect = ctx.q_power(g * k)
        assert np.abs(dbl - expect * np.eye(V.dim)).max() < 1e-9


def test_twist_properties(ctx):
    for k in (ctx.rbar, 2 * ctx.rbar):
        S = wc.sigma_module(ctx, k)
        assert abs(wc.twist(ctx, S)[0, 0] - 1) < 1e-12
    V = wc.typical_module(ctx, GENERIC)
    th = wc.twist(ctx, V)
    s = th[0, 0]
    assert np.abs(th - s * np.eye(V.dim)).max() < 1e-12
    # self-duality of the twist scalar
    D = wc.dual_module(ctx, V)
    assert abs(wc.twist(ctx, D)[0, 0] - s) < 1e-12
    # tensor formula
    W = wc.typical_module(ctx, GENERIC2)
    VW = wc.tensor_module(ctx, V, W)
    lhs = wc.twist(ctx, VW)
    rhs = wc.braiding(ctx, W, V) @ wc.braiding(ctx, V, W) @ K(wc.twist(ctx, V), wc.twist(ctx, W))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_hom_basis_patterns(ctx):
    wa = wc.ObjectWord([(1, wc.Typical(GENERIC))])
    assert len(wc.hom_basis(ctx, wa, wa)) == 1
    wb = wc.ObjectWord([(1, wc.Typical(GENERIC + 1))])
    assert len(wc.hom_basis(ctx, wa, wb)) == 0


def test_hom_basis_makes_no_mpmath_comparison(monkeypatch):
    """`hom_basis` drops the zero rows of a 106-bit system by truthiness,
    not by an mpmath `!=` per entry: with that `!=` raising, it still finds
    the one endomorphism of a typical module."""
    hp = ScalarContext(4, precision=106)

    def refuse(*args):
        raise AssertionError("an mpmath comparison")

    monkeypatch.setattr(type(hp.scalar(0)), "__ne__", refuse)
    wa = wc.ObjectWord([(1, wc.Typical(GENERIC))])
    assert len(wc.hom_basis(hp, wa, wa)) == 1


def test_hom_basis_normalization_matches_the_first_largest_entry(ctx, monkeypatch):
    """The vectorized pick of `_lead_to_one` against the per-entry loop it
    replaced, bit for bit, on the words of test_hom_basis_patterns and the
    section word U -> U (x) V (x) V*, at 53 and 106 bits."""
    seen = []
    lead_to_one = wc._lead_to_one
    monkeypatch.setattr(wc, "_lead_to_one", lambda f: seen.append((f, lead_to_one(f))) or seen[-1][1])
    wa = wc.ObjectWord([(1, wc.Typical(GENERIC))])
    wb = wc.ObjectWord([(1, wc.Typical(GENERIC + 1))])
    wv = wc.ObjectWord([(1, wc.Typical(GENERIC)), (1, wc.Typical(GENERIC2)),
                        (-1, wc.Typical(GENERIC2))])
    for c in (ctx, ScalarContext(ctx.r, precision=106)):
        for src, dst in ((wa, wa), (wa, wb), (wa, wv)):
            wc.hom_basis(c, src, dst)
    assert len(seen) >= 4
    for f, got in seen:
        flat = f.reshape(-1)
        want = f / flat[max(range(f.size), key=lambda t: abs(flat[t]))]
        assert got.dtype == want.dtype and (got == want).all()


def test_completely_reduced_domination(ctx):
    g = wc.Degree(0.5)
    reps = wc.index_set(ctx, g)
    assert len(reps) == ctx.rbar // 2
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            for k in (-ctx.rbar, 0, ctx.rbar):
                for kp in (-ctx.rbar, 0, ctx.rbar):
                    src = wc.ObjectWord([(1, wc.Typical(a)), (1, wc.Sigma(k))])
                    dst = wc.ObjectWord([(1, wc.Typical(b)), (1, wc.Sigma(kp))])
                    dim = len(wc.hom_basis(ctx, src, dst))
                    assert dim == (1 if (i == j and k == kp) else 0)


def _dense_hom_dim(ctx, src, dst):
    """dim Hom(src, dst) from the full Kronecker system, H rows included."""
    S, D = wc.realize(ctx, src), wc.realize(ctx, dst)
    Is, Id = np.eye(S.dim), np.eye(D.dim)
    A = np.concatenate([np.kron(Id, np.asarray(xs, dtype=complex).T)
                        - np.kron(np.asarray(xd, dtype=complex), Is)
                        for xs, xd in ((_H(ctx, S), _H(ctx, D)), (S.actE, D.actE),
                                       (S.actF, D.actF))])
    s = np.linalg.svd(A, compute_uv=False)
    return S.dim * D.dim - int(np.sum(s > ctx.tol * s[0]))


def _assert_intertwiners(ctx, src, dst, basis):
    S, D = wc.realize(ctx, src), wc.realize(ctx, dst)
    for f in basis:
        assert f.shape == (D.dim, S.dim)
        for x, xs, xd in (("H", _H(ctx, S), _H(ctx, D)), ("E", S.actE, D.actE),
                          ("F", S.actF, D.actF), ("K", _K(ctx, S), _K(ctx, D))):
            dev = la.norm_inf(f @ xs - xd @ f)
            assert dev <= ctx.tol, (src, dst, x, dev)


def test_hom_basis_weight_matched_solve_matches_dense_oracle(ctx):
    """The weight-matched solve against the dense Kronecker nullspace, on
    every src/dst pair with at most three letters between them."""
    a, b = GENERIC, GENERIC2
    letters = [(1, wc.Typical(a)), (-1, wc.Typical(a)), (1, wc.Typical(b)),
               (1, wc.Typical(a + b - 2)), (1, wc.Typical(ctx.nilpotency - 1)),
               (1, wc.Sigma(ctx.rbar))]
    words = [wc.ObjectWord(w) for n in range(4)
             for w in itertools.product(letters, repeat=n)]
    nonzero = 0
    for src in words:
        for dst in words:
            if len(src) + len(dst) > 3:
                continue
            basis = wc.hom_basis(ctx, src, dst)
            assert len(basis) == _dense_hom_dim(ctx, src, dst), (src, dst)
            _assert_intertwiners(ctx, src, dst, basis)
            nonzero += bool(basis)
    assert nonzero >= 20


def test_hom_basis_weight_matched_solve_high_precision():
    hp = ScalarContext(4, precision=106)
    src = wc.ObjectWord([(1, wc.Typical(GENERIC)), (1, wc.Typical(GENERIC2))])
    dst = wc.ObjectWord([(1, wc.Typical(GENERIC + GENERIC2 - 2)), (1, wc.Sigma(0))])
    basis = wc.hom_basis(hp, src, dst)
    assert len(basis) == _dense_hom_dim(hp, src, dst) == 1
    assert basis[0].dtype == object
    _assert_intertwiners(hp, src, dst, basis)


def test_index_set_critical_degree(ctx):
    # a Kirby color of critical degree is refused by its index set
    for f in (wc.index_set, wc.kirby_color):
        with pytest.raises(wc.CriticalDegree, match="degree 1.0 is critical"):
            f(ctx, wc.Degree(1.0))


def test_modified_dimension_properties(ctx):
    d = wc.modified_dimension
    a = GENERIC
    assert abs(d(ctx, a)) > 1e-6
    # dual invariance
    dual = complex(wc.dual_color(ctx, wc.Typical(a)).alpha)
    assert abs(d(ctx, a) - d(ctx, dual)) < 1e-10
    # shift consistency d(V (x) sigma(k)) = d(V) dim sigma(k)
    k = ctx.rbar
    assert abs(d(ctx, a + k) - d(ctx, a) * wc.sigma_dim(ctx, k)) < 1e-10
    # critical-lattice typical gets the continued value
    dc = d(ctx, ctx.nilpotency - 1)
    assert abs(abs(dc) - 1) < 1e-9
    with pytest.raises(wc.NonTypicalColor):
        d(ctx, 0)


def test_trace_compatibility_oracle(ctx):
    """d ratios must match right partial traces of tensor projectors."""
    a, b = GENERIC, GENERIC2
    Va = wc.typical_module(ctx, a)
    Vb = wc.typical_module(ctx, b)
    word = wc.ObjectWord([(1, wc.Typical(a)), (1, wc.Typical(b))])
    for k in range(ctx.nilpotency):
        gam = a + b - 2 * k
        wg = wc.ObjectWord([(1, wc.Typical(gam))])
        u = wc.hom_basis(ctx, wg, word)[0]
        w = wc.hom_basis(ctx, word, wg)[0]
        P = (u @ w) / (w @ u)[0, 0]
        s = wc.partial_trace(ctx, P, [Va, Vb], 0)[0, 0]
        ratio = wc.modified_dimension(ctx, gam) / wc.modified_dimension(ctx, a)
        assert abs(ratio - s) < 1e-9


def test_modified_trace_basics(ctx):
    a = GENERIC
    word = wc.ObjectWord([(1, wc.Typical(a))])
    M = wc.realize(ctx, word)
    t = wc.modified_trace(ctx, word, np.eye(M.dim))
    assert abs(t - wc.modified_dimension(ctx, a)) < 1e-12
    word2 = wc.ObjectWord([(1, wc.Typical(a)), (1, wc.Sigma(ctx.rbar))])
    M2 = wc.realize(ctx, word2)
    t2 = wc.modified_trace(ctx, word2, np.eye(M2.dim))
    expect = wc.modified_dimension(ctx, a) * wc.sigma_dim(ctx, ctx.rbar)
    assert abs(t2 - expect) < 1e-12
    with pytest.raises(wc.NonTypicalColor):
        wc.modified_trace(ctx, wc.ObjectWord([(1, wc.Sigma(0))]), np.eye(1))


def test_modified_trace_cyclicity(ctx):
    rng = np.random.default_rng(3)
    a, b = GENERIC, GENERIC2
    wa = wc.ObjectWord([(1, wc.Typical(a)), (1, wc.Typical(b))])
    wb = wc.ObjectWord([(1, wc.Typical(a + b - 2)), (1, wc.Sigma(0))])
    homs_ab = wc.hom_basis(ctx, wa, wb)
    homs_ba = wc.hom_basis(ctx, wb, wa)
    assert homs_ab and homs_ba
    for _ in range(20):
        f = sum(complex(rng.standard_normal(), rng.standard_normal()) * h
                for h in homs_ab)
        g = sum(complex(rng.standard_normal(), rng.standard_normal()) * h
                for h in homs_ba)
        t1 = wc.modified_trace(ctx, wa, g @ f)
        t2 = wc.modified_trace(ctx, wb, f @ g)
        assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))


def test_kirby_color_shape(ctx4, ctx6):
    om6 = wc.kirby_color(ctx6, wc.Degree(0.5))
    assert len(om6.terms) == 3
    om4 = wc.kirby_color(ctx4, wc.Degree(0.5))
    assert len(om4.terms) == 2
    coes = [co for co, _ in om4.terms]
    assert abs(coes[0] + coes[1]) < 1e-12  # the +- paired form
    for om, ctx in ((om6, ctx6), (om4, ctx4)):
        g = om.degree(ctx)
        assert g.equals(wc.Degree(0.5), 1e-9)


def test_constants_identities(ctx):
    c = wc.constants(ctx)
    nz = c.z_mod_zplus
    assert abs(c.delta_minus * c.delta_plus - nz * c.zeta) < 1e-10 * max(1, abs(c.zeta))
    assert abs(c.D ** 2 - c.delta_minus * c.delta_plus) < 1e-10 * abs(c.zeta)
    assert abs(c.eta - nz / c.D) < 1e-12
    assert abs(c.delta - c.D / c.delta_minus) < 1e-12
    assert abs(c.delta - c.delta_plus / c.D) < 1e-12


def test_constants_probe_independence(ctx):
    from cgpkit.fixtures import stabilization_coefficient
    probes = (0.37 + 0.2j, 1.43 - 0.7j)
    for fr in (-1, 1):
        v1 = stabilization_coefficient(ctx, probes[0], fr)
        v2 = stabilization_coefficient(ctx, probes[1], fr)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_braiding_one_dim_modulus(ctx):
    S1 = wc.sigma_module(ctx, ctx.rbar)
    S2 = wc.sigma_module(ctx, -ctx.rbar)
    c = wc.braiding(ctx, S1, S2)
    assert c.shape == (1, 1)
    assert abs(abs(c[0, 0]) - 1) < 1e-12


def test_high_precision_pipeline():
    from cgpkit import fixtures as fx
    from cgpkit import rt_eval
    hp = ScalarContext(6, precision=200, tol=1e-40)
    a = 0.37 + 0.2j
    fp = rt_eval.f_prime(hp, fx.unknot(wc.Typical(a)))
    d = wc.modified_dimension(hp, a)
    assert abs(complex(fp - d)) < 1e-50
    c = wc.constants(hp)
    assert abs(complex(c.delta_minus * c.delta_plus
                       - c.z_mod_zplus * c.zeta)) < 1e-50


def test_pivot_loop_is_categorical_dimension(ctx):
    # closing a strand with the right evaluation against the left
    # coevaluation traces the pivot
    for letter in ((1, wc.Typical(GENERIC)), (1, wc.Sigma(ctx.rbar))):
        M = wc.realize_letter(ctx, letter)
        pivot = [ctx.q_power((1 - ctx.r // 2) * w) for w in M.weights]
        loop = (wc.ev_coev(ctx, M, "ev_r") @ wc.ev_coev(ctx, M, "coev_l"))[0, 0]
        assert abs(loop - sum(pivot)) < 1e-12
        back = (wc.ev_coev(ctx, M, "ev_l") @ wc.ev_coev(ctx, M, "coev_r"))[0, 0]
        assert abs(back - sum(1 / p for p in pivot)) < 1e-12
        # the partial traces weight an endomorphism's diagonal the same two
        # ways (on the identity both give the vanishing quantum dimension)
        t = np.arange(1, M.dim + 1)
        f = np.diag(t).astype(complex)
        tr_r = sum(x * p for x, p in zip(t, pivot))
        tr_l = sum(x / p for x, p in zip(t, pivot))
        unit = wc.sigma_module(ctx, 0)
        assert abs(wc.partial_trace(ctx, f, [unit, M], 0)[0, 0] - tr_r) < 1e-12
        assert abs(wc.partial_trace(ctx, f, [M, unit], 1)[0, 0] - tr_l) < 1e-12


def test_double_braiding_trivial_on_sigma_pair(ctx):
    for k in (ctx.rbar, -ctx.rbar):
        for kp in (ctx.rbar, 2 * ctx.rbar):
            S1 = wc.sigma_module(ctx, k)
            S2 = wc.sigma_module(ctx, kp)
            dbl = wc.braiding(ctx, S2, S1) @ wc.braiding(ctx, S1, S2)
            assert abs(dbl[0, 0] - 1) < 1e-12


def test_modified_trace_rejects_non_scalar_reduction(ctx):
    a = GENERIC
    word = wc.ObjectWord([(1, wc.Typical(a)), (1, wc.Typical(GENERIC2))])
    M = wc.realize(ctx, word)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((M.dim, M.dim))  # not an intertwiner
    with pytest.raises(la.NumericInstability):
        wc.modified_trace(ctx, word, f)


@pytest.mark.parametrize("precision", [53, 106])
def test_scalar_of_refuses_a_stack_with_one_deviating_term(precision):
    """A stack of multiples of the identity gives its scalars on the
    stack's axes; one deviating matrix among six is refused, and the
    message names its largest deviation."""
    ctx = ScalarContext(4, precision=precision)
    scalars = np.array([[ctx.scalar(complex(k, t)) for k in range(3)] for t in range(2)])
    f = scalars[..., None, None] * la.eye(ctx, 2)
    assert all(x == y for x, y in zip(wc.scalar_of(ctx, f).flat, scalars.flat))
    f[1, 2, 1, 1] += ctx.scalar(1e-6)
    f[1, 2, 0, 1] = ctx.scalar(3e-6)
    with pytest.raises(la.NumericInstability, match="scalar\\*id by 3.000e-06"):
        wc.scalar_of(ctx, f)


def test_constants_explicit_probe(ctx):
    c1 = wc.constants(ctx)
    dm2 = fx.stabilization_coefficient(ctx, 0.7 + 0.3j, framing=-1)
    zeta2 = fx.relative_modularity_scalar(ctx, wc.Degree(0.7 + 0.3j))
    assert abs(c1.delta_minus - dm2) < 1e-9 * max(1, abs(c1.delta_minus))
    assert abs(c1.zeta - zeta2) < 1e-9 * max(1, abs(c1.zeta))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_relations_hold_for_random_typicals(alpha):
    ctx = ScalarContext(6)
    if not wc.is_typical_weight(ctx, alpha):
        alpha = alpha + 0.25j  # push off the integer lattice
    if not wc.is_typical_weight(ctx, alpha):
        return
    M = wc.typical_module(ctx, alpha)
    assert wc.check_module_relations(ctx, M) < 1e-8


# ---------------------------------------------------------------------------
# cell matrices and constants against the dense constructions
# ---------------------------------------------------------------------------

# weights exact in binary, so alpha - 2n is exact and the 106-bit oracles
# can be compared at 106-bit rounding
DYADIC = 0.375 + 0.25j
DYADIC2 = 0.625 - 0.125j


def _braiding_oracle(ctx, V, W):
    """c_{V,W} as a dense product: Theta summed over Kronecker products,
    the Cartan factor q^{lambda mu/2} on every row, then a permutation
    matrix for the swap."""
    dV, dW = V.dim, W.dim
    theta = la.zeros(ctx, (dV * dW, dV * dW))
    Eb, Fb = la.eye(ctx, dV), la.eye(ctx, dW)
    for b in range(ctx.nilpotency):
        if b > 0:
            Eb, Fb = Eb @ V.actE, Fb @ W.actF
        coeff = ctx.q_power(b * (b - 1) / 2) * ctx.brace(1) ** b / ctx.qfact_nonzero(b)
        theta = theta + la.kron(Eb, Fb) * coeff
    for i, lam in enumerate(V.weights):
        for j, mu in enumerate(W.weights):
            theta[i * dW + j, :] *= ctx.q_power(ctx.scalar(lam) * ctx.scalar(mu) / 2)
    P = la.zeros(ctx, (dW * dV, dV * dW))
    for i in range(dV):
        for j in range(dW):
            P[j * dV + i, i * dW + j] = ctx.scalar(1)
    return P @ theta


def _strand_stabilization(ctx, alpha, framing, draw=lambda d: d):
    """Delta_-+ from the meridian figure around a strand, swept from all
    m columns of its source; `draw` redraws the figure first."""
    probe = wc.Typical(alpha)
    g = wc.color_degree(probe)
    index = g if framing < 0 else wc.Degree(-g.g)
    d = draw(dg.encircle(strand(probe), (0, 1), wc.Kirby(index.g), framing))
    fig = wc.scalar_of(ctx, rt_eval.evaluate_formal(ctx, d))
    theta = wc.twist(ctx, wc.realize_letter(ctx, (1, probe)))[0, 0]
    return fig / theta if framing < 0 else fig * theta


def _letter_pairs(ctx, a, b):
    """Typical, dual and sigma letter pairs."""
    s = wc.Sigma(ctx.rbar)
    return [((1, wc.Typical(a)), (1, wc.Typical(b))),
            ((1, wc.Typical(a)), (-1, wc.Typical(b))),
            ((-1, wc.Typical(a)), (-1, wc.Typical(a))),
            ((1, wc.Typical(a)), (1, s)), ((-1, s), (-1, wc.Typical(b)))]


def _inv(ctx, a):
    """The reference inverse: numpy's at 53 bits, mpmath's above."""
    if ctx.high_precision:
        return np.array(ctx._mp.inverse(ctx._mp.matrix(a.tolist())).tolist(), dtype=object)
    return np.linalg.inv(a)


def _max_rel(x, y):
    return max(abs(u - v) for u, v in zip(x.reshape(-1), y.reshape(-1))) / max(
        1.0, max(abs(v) for v in y.reshape(-1)))


@pytest.mark.parametrize("r,precision,tol", [
    (4, 53, 1e-12), (6, 53, 1e-12), (10, 53, 1e-12), (4, 106, 1e-28), (6, 106, 1e-28)])
def test_braiding_matches_dense_oracle(r, precision, tol):
    ctx = ScalarContext(r, precision=precision)
    weights = [(GENERIC, GENERIC2)] + ([(DYADIC, DYADIC2)] if precision > 53 else [])
    for la_, lb in (p for a, b in weights for p in _letter_pairs(ctx, a, b)):
        V, W = wc.realize_letter(ctx, la_), wc.realize_letter(ctx, lb)
        c = wc.braiding(ctx, V, W)
        assert _max_rel(c, _braiding_oracle(ctx, V, W)) < tol, (la_, lb)
        cinv = wc.braiding_inv(ctx, V, W)
        assert _max_rel(cinv, _inv(ctx, c)) < tol, (la_, lb)
        assert _max_rel(c @ cinv, la.eye(ctx, c.shape[0])) < tol, (la_, lb)
        assert _max_rel(cinv @ c, la.eye(ctx, c.shape[0])) < tol, (la_, lb)


@pytest.mark.parametrize("r", [4, 6, 10])
def test_twist_folded_stabilization_matches_curled_figure(r):
    ctx = ScalarContext(r)
    for framing in (-1, 1):
        got = fx.stabilization_coefficient(ctx, GENERIC, framing)
        want = _strand_stabilization(ctx, GENERIC, framing, drawn_kinks)
        assert abs(got - want) <= 1e-11 * abs(want)
    hp = ScalarContext(min(r, 6), precision=106)
    for alpha, framing in itertools.product((0.5, GENERIC), (-1, 1)):
        got = fx.stabilization_coefficient(hp, alpha, framing)
        want = _strand_stabilization(hp, alpha, framing, drawn_kinks)
        assert abs(got - want) <= 1e-28 * abs(want)


@pytest.mark.parametrize("r,precision", itertools.product((4, 6, 10), (53, 106)))
def test_one_column_constants_match_the_whole_figures(r, precision):
    """zeta from one column against the Frobenius fit to the whole figure
    swept from all m^2 columns (1e-12 relative at 53 bits, 1e-30 at 106);
    Delta_-+ from a cap `==` the figure on a strand swept from m columns."""
    ctx, g = ScalarContext(r, precision=precision), wc.Degree(0.5)
    got, want = fx.relative_modularity_scalar(ctx, g), whole_matrix_zeta(ctx, g)
    assert abs(got - want) <= (1e-12 if precision == 53 else 1e-30) * abs(want)
    for alpha, framing in itertools.product((0.5, GENERIC), (-1, 1)):
        got = fx.stabilization_coefficient(ctx, alpha, framing)
        assert got == _strand_stabilization(ctx, alpha, framing)


@pytest.mark.parametrize("r", [22, 26])
def test_constants_at_the_level_frontier(r):
    """At 53 bits zeta is (r/2)^3 within 1e-12 relative, and Delta_+
    Delta_- is |Z/Z_+| zeta within 1e-11 relative, up to r = 26."""
    c = wc.constants(ScalarContext(r))
    cube = (r // 2) ** 3
    assert abs(c.zeta - cube) <= 1e-12 * cube
    nz_zeta = c.z_mod_zplus * c.zeta
    assert abs(c.delta_minus * c.delta_plus - nz_zeta) <= 1e-11 * abs(nz_zeta)


def test_constants_at_r30_refuse_the_delta_figure():
    """At r = 30 and 53 bits the Delta_- figure is not scalar times the
    identity, and `constants` is refused with its deviation."""
    ctx = ScalarContext(30)
    with pytest.raises(la.NumericInstability, match="scalar\\*id by") as delta:
        fx.stabilization_coefficient(ctx, 0.5, -1)
    with pytest.raises(la.NumericInstability) as refused:
        wc.constants(ctx)
    assert str(refused.value) == str(delta.value)


def test_constants_r10_high_precision_match_53_bits():
    lo = wc.constants(ScalarContext(10))
    hi = wc.constants(ScalarContext(10, precision=106))
    for name in ("delta_minus", "delta_plus", "zeta", "D"):
        want = getattr(lo, name)
        assert abs(complex(getattr(hi, name)) - want) <= 1e-9 * abs(want), name


def test_nothing_is_inverted_at_run_time(monkeypatch):
    """Inverse braidings come from Theta-bar: a cold set-up of the constants
    and every inverse braiding of the letter pairs run with numpy's and
    mpmath's matrix inverses refusing."""
    def _refuse(*args):
        raise AssertionError("a matrix was inverted")

    monkeypatch.setattr(np.linalg, "inv", _refuse)
    monkeypatch.setattr(MPContext, "inverse", _refuse)
    rt_eval._cell_matrix_cached.cache_clear()
    for ctx in (ScalarContext(4), ScalarContext(4, precision=106)):
        wc.constants.__wrapped__(ctx)
        for la_, lb in _letter_pairs(ctx, GENERIC, GENERIC2):
            wc.braiding_inv(ctx, wc.realize_letter(ctx, la_), wc.realize_letter(ctx, lb))


@pytest.mark.parametrize("precision", [53, 106])
def test_nullspace_cuts_at_tol_times_top_singular_value(precision):
    """A 3 x 5 matrix with singular values (1, 1, 1e-6) has rank 3 at the
    cut tol * s_max = 1e-9, so a two-dimensional kernel."""
    ctx = ScalarContext(4, precision=precision)
    rng = np.random.default_rng(13)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    v = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    a = la.asarray(ctx, u @ np.diag([1.0, 1.0, 1e-6]) @ v[:3])
    kernel = la.nullspace(ctx, a)
    assert len(kernel) == 2
    assert la.rank(ctx, a) == 3
    for x in kernel:
        assert la.norm_inf(a @ x) < 1e-12


@pytest.mark.parametrize("precision", [53, 106])
def test_rank_refuses_singular_values_astride_the_cut(precision):
    """Singular values 2e-9 and 5e-10 sit on either side of the cut
    tol * s_max = 1e-9 but only a factor 4 apart, less than RANK_GAP, so
    the rank is refused rather than guessed."""
    ctx = ScalarContext(4, precision=precision)
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    v = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    a = la.asarray(ctx, u @ np.diag([1.0, 2e-9, 5e-10]) @ v)
    with pytest.raises(la.NumericInstability, match="2.000e-09 vs 5.000e-10"):
        la.rank(ctx, a)


def test_high_precision_products_keep_the_array_on_the_left(monkeypatch):
    """`scalar * array` with an mpmath scalar first has mpmath convert the
    whole array, formatting it into a TypeError, before numpy's reflected
    product runs; `array * scalar` goes to numpy directly."""
    from mpmath.ctx_mp import MPContext

    arrays = []
    convert = MPContext.npconvert

    def counting(mp, x):
        if isinstance(x, np.ndarray):
            arrays.append(x.shape)
        return convert(mp, x)

    monkeypatch.setattr(MPContext, "npconvert", counting)
    hp = ScalarContext(4, precision=106)
    rt_eval.f_prime(hp, fx.unknot(wc.Typical(GENERIC), framing=1))
    word = wc.ObjectWord([(1, wc.Typical(GENERIC)), (-1, wc.Typical(GENERIC))])
    wc.modified_trace(hp, word, la.eye(hp, wc.realize(hp, word).dim))
    wc.constants.__wrapped__(hp)
    checks.run_all(hp)
    assert arrays == []


def test_norm_inf_matches_elementwise_max():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
    hp = ScalarContext(4, precision=106)
    for x in (a, a.real, a[:0], la.asarray(hp, a), la.zeros(hp, (0, 3))):
        want = float(max((abs(t) for t in x.reshape(-1)), default=0.0))
        got = la.norm_inf(x)
        assert type(got) is float and got == want


@pytest.mark.parametrize("r", [6, 10, 14])
def test_modified_dimension_at_working_precision(r):
    """mu = alpha - (m - 1) is formed at 106 bits, not rounded to a double
    first: d(V_alpha) matches (-1)^{m-1} m {mu}/{m mu}, evaluated from the
    same double alpha in a private 300-bit mpmath context."""
    from mpmath.ctx_mp import MPContext

    mp = MPContext()
    mp.prec = 300
    m = r // 2

    def brace(z):
        qz = mp.exp(z * 2j * mp.pi / r)
        return qz - 1 / qz

    ctx = ScalarContext(r, precision=106)
    for alpha in (GENERIC, GENERIC2):
        mu = mp.mpc(alpha) - (m - 1)
        want = (-1) ** (m - 1) * m * brace(mu) / brace(m * mu)
        got = wc.modified_dimension(ctx, alpha)
        assert abs(mp.mpc(got.real, got.imag) - want) <= 1e-30 * abs(want), alpha


def _rel(got, want) -> float:
    return abs(complex(got - want)) / abs(complex(want))


@pytest.mark.parametrize("precision, tol", [(53, 1e-12), (106, 1e-28)])
@pytest.mark.parametrize("r", [4, 6, 10])
def test_modified_trace_left_route_on_sigma_then_typical(r, precision, tol):
    """The typical letter sits right of sigma(rbar), so the trace reaches it
    by a left partial trace: the identity traces to dim sigma(rbar) d(V)."""
    ctx = ScalarContext(r, precision=precision)
    word = wc.ObjectWord([(1, wc.Sigma(ctx.rbar)), (1, wc.Typical(GENERIC))])
    t = wc.modified_trace(ctx, word, la.eye(ctx, wc.realize(ctx, word).dim))
    want = wc.sigma_dim(ctx, ctx.rbar) * wc.modified_dimension(ctx, GENERIC)
    assert _rel(t, want) <= tol


@pytest.mark.parametrize("precision, tol", [(53, 1e-12), (106, 1e-28)])
@pytest.mark.parametrize("r", [4, 6, 10])
def test_modified_trace_is_ambidextrous(r, precision, tol):
    """For the double braiding f on V (x) W of two typicals, the modified
    trace (a right partial trace onto V) equals d(W) times the scalar of
    the left partial trace of f onto W."""
    ctx = ScalarContext(r, precision=precision)
    V = wc.realize_letter(ctx, (1, wc.Typical(GENERIC)))
    W = wc.realize_letter(ctx, (1, wc.Typical(GENERIC2)))
    f = wc.braiding(ctx, W, V) @ wc.braiding(ctx, V, W)
    word = wc.ObjectWord([(1, wc.Typical(GENERIC)), (1, wc.Typical(GENERIC2))])
    want = (wc.modified_dimension(ctx, GENERIC2)
            * wc.scalar_of(ctx, wc.partial_trace(ctx, f, [V, W], 1)))
    assert _rel(wc.modified_trace(ctx, word, f), want) <= tol


@pytest.mark.parametrize("precision, tol", [(53, 1e-12), (106, 1e-28)])
@pytest.mark.parametrize("r", [4, 6])
def test_modified_trace_keeps_any_typical_letter(r, precision, tol):
    """For an intertwiner of U (x) V (x) W, three typicals, keeping the
    middle letter, which closes U with the inverse pivot and W with the
    pivot, gives the modified trace that keeping the first does."""
    ctx = ScalarContext(r, precision=precision)
    alphas = (GENERIC, GENERIC2, -0.6 + 0.4j)
    U, V, W = mods = [wc.realize_letter(ctx, (1, wc.Typical(a))) for a in alphas]
    double = [wc.braiding(ctx, Y, X) @ wc.braiding(ctx, X, Y) for X, Y in ((U, V), (V, W))]
    f = (la.kron(la.eye(ctx, U.dim), double[1])
         @ la.kron(double[0], la.eye(ctx, W.dim)))
    word = wc.ObjectWord([(1, wc.Typical(a)) for a in alphas])
    middle = (wc.scalar_of(ctx, wc.partial_trace(ctx, f, mods, 1))
              * wc.modified_dimension(ctx, alphas[1]))
    assert _rel(middle, wc.modified_trace(ctx, word, f)) <= tol


def test_cached_letter_data_is_keyed_by_context():
    """Contexts that differ only in precision or tolerance get entries of
    their own in the modified-dimension cache; the closing is formed per
    context, from it, and its pivots and dimension cannot be written to."""
    ctxs = [ScalarContext(6), ScalarContext(6, precision=106), ScalarContext(6, tol=1e-6)]
    alpha = 0.123 + 0.321j  # a weight no other test caches
    letters = ((-1, wc.Typical(GENERIC)), (1, wc.Typical(alpha)), (1, wc.Sigma(6)))
    before = wc.modified_dimension.cache_info().misses
    values = [wc.modified_dimension(ctx, alpha) for ctx in ctxs]
    assert wc.modified_dimension.cache_info().misses == before + 3
    assert all(wc.modified_dimension(ctx, alpha) is v for ctx, v in zip(ctxs, values))
    assert values[2] is not values[0]
    assert isinstance(values[1], ctxs[1]._mp.mpc)
    keys = np.arange(3)  # every (a, c) of the word less letter 1
    assert isinstance(rt_eval._closing(ctxs[1], letters, 1, (), keys)[0].flat[0], ctxs[1]._mp.mpc)
    for ctx, value in zip(ctxs, values):
        pivots, dim, coeff = rt_eval._closing(ctx, letters, 1, (), keys)
        mods = [wc.realize_letter(ctx, x) for x in letters]
        assert pivots.shape == (3,)
        # p-(a) p+(c): letter 0 closes on the left, letter 2 on the right
        outer = np.multiply.outer(wc._pivot(ctx, mods[0], -1), wc._pivot(ctx, mods[2], 1))
        assert (pivots == outer.reshape(-1)).all()
        assert dim[()] == value
        for a in (pivots, dim):
            with pytest.raises(ValueError):
                a.flat[0] = 1
        assert wc.modified_dimension(ctx, alpha) == wc.modified_dimension.__wrapped__(ctx, alpha)
