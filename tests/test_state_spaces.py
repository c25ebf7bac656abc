import random
from itertools import product

import numpy as np
import pytest

from cgpkit import _linalg as la
from cgpkit import diagrams as dg
from cgpkit import state_spaces as ss
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext


def test_sphere_hom_dim_pattern(ctx):
    g = wc.Degree(0.5)
    reps = wc.index_set(ctx, g)
    ks = (-ctx.rbar, 0, ctx.rbar)
    for i, wi in enumerate(reps):
        for j, wj in enumerate(reps):
            for k in ks:
                for kp in ks:
                    got = ss.sphere_hom_dim(ctx, wi, wj, k, kp)
                    assert got == (1 if (i == j and k == kp) else 0)


def test_genus1(ctx4, ctx6):
    assert ss.genus1_dim(ctx4, wc.Degree(0.5)) == 1
    assert ss.genus1_dim(ctx6, wc.Degree(0.5)) == 3
    assert ss.genus1_dim(ctx6, wc.Degree(0.3 + 0.4j)) == 3
    with pytest.raises(wc.CriticalDegree):
        ss.genus1_dim(ctx6, wc.Degree(1.0))


def _random_generic_degrees(ctx, rng, n):
    degs = []
    while len(degs) < n:
        g = wc.Degree(complex(round(rng.uniform(-3, 3), 6),
                              rng.choice([0.0, round(rng.uniform(-1, 1), 6)])))
        if not g.is_critical(ctx.tol):
            degs.append(g)
    return degs


@pytest.mark.parametrize("r, precision", [(4, 53), (6, 53), (10, 53), (4, 106)])
def test_genus1_equals_invariant_counts(r, precision):
    """The index-set count equals the number of invariants in V_a^* (x) V_a
    summed over the representatives a, by the intertwiner solver and by
    the graded nullspace count."""
    ctx = ScalarContext(r, precision=precision)
    degs = [wc.Degree(0.5), wc.Degree(0.3 + 0.4j), *_random_generic_degrees(ctx, random.Random(r), 3)]
    for g in degs:
        words = [wc.ObjectWord([(-1, wc.Typical(a)), (1, wc.Typical(a))])
                 for a in wc.index_set(ctx, g)]
        want = ss.genus1_dim(ctx, g)
        assert want == sum(len(wc.hom_basis(ctx, (), w)) for w in words)
        assert want == sum(wc.hom_dim_graded(ctx, w) for w in words)


@pytest.mark.parametrize("r", [4, 6, 10])
def test_genus1_equals_rank_of_cgp_pairing(r):
    """Universal construction: solid tori with cores colored V_a, a over two
    periods of the index set, paired in S^2 x S^1; the Gram matrix of CGP
    values has rank dim V(T^2), and shifting both colors by a period
    leaves it unchanged."""
    ctx = ScalarContext(r)
    m = ctx.nilpotency
    g = wc.Degree(0.37 + 0.11j)
    reps = wc.index_set(ctx, g)
    colors = reps + [a + ctx.rbar for a in reps]
    gram = np.array([[complex(sg.cgp(ctx, sfx.s1xs2_decorated_presentation(
        ctx, 0.23 + 0.17j, [a, 2 * (m - 1) - b]))) for b in colors] for a in colors])
    assert la.rank(ctx, gram) == ss.genus1_dim(ctx, g)
    n = len(reps)
    assert np.abs(gram[n:, n:] - gram[:n, :n]).max() <= 1e-12 * np.abs(gram).max()


def test_genus2_formula_vs_bruteforce(ctx4):
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j),))
    fast = ss.genus_n_dim(ctx4, data)
    brute = ss.genus_n_dim(ctx4, data, brute=True)
    assert fast == brute
    assert isinstance(fast, int) and fast >= 0


def test_genus_n_representative_independence(ctx4):
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j),))
    base = ss.genus_n_dim(ctx4, data)
    for shift in (1, 2):
        assert ss.genus_n_dim(ctx4, data, rep_shift=shift) == base


def test_genus3(ctx4):
    data = ss.TrivalentSurfaceData(
        3, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j), wc.Degree(0.21)))
    fast = ss.genus_n_dim(ctx4, data)
    assert fast == ss.genus_n_dim(ctx4, data, brute=True)


def _enumerated_dim(ctx, data):
    """The coloring sum term by term: every coloring of the common edges
    e_1 .. e_{n-1}, times the per-piece sums over e', e''."""
    reps0 = wc.index_set(ctx, data.m0)
    total = 0
    for e_colors in product(reps0, repeat=data.genus - 1):
        term = 1
        for i, e in enumerate(e_colors):
            sub = 0
            for ep, epp in product(wc.index_set(ctx, data.mprime[i]),
                                   wc.index_set(ctx, data.msecond(i))):
                wa, wb = ss._vertex_words(ctx, e, ep, epp)
                sub += ss.graded_vertex_dim(ctx, wa) * ss.graded_vertex_dim(ctx, wb)
            term *= sub
        total += term
    return total


@pytest.mark.parametrize("r", [4, 6, 10, 12])
def test_genus3_factorised_sum_equals_enumeration(r):
    """The one-(e', e'')-per-piece count equals the enumeration over every
    coloring, for complex and real classes and shifted representatives."""
    ctx = ScalarContext(r)
    for m0, mp in ((0.5 + 0.15j, (0.3 + 0.4j, 0.21 + 0.35j)), (0.5, (0.3, 0.21))):
        data = ss.TrivalentSurfaceData(3, wc.Degree(m0), tuple(map(wc.Degree, mp)))
        want = _enumerated_dim(ctx, data)
        for shift in (0, 1, -2):
            assert ss.genus_n_dim(ctx, data, rep_shift=shift) == want


def test_genus_n_sums_each_piece_over_e_alone(monkeypatch):
    """At r = 10 genus 3 each of the two pieces makes one pair of vertex
    words per e in the rbar/2 = 5 representatives of m0, not 5^3."""
    ctx = ScalarContext(10)
    data = ss.TrivalentSurfaceData(
        3, wc.Degree(0.5 + 0.15j), (wc.Degree(0.3 + 0.4j), wc.Degree(0.21)))
    calls, vertex_words = [], ss._vertex_words

    def counted(*args):
        calls.append(args)
        return vertex_words(*args)

    monkeypatch.setattr(ss, "_vertex_words", counted)
    assert ss.genus_n_dim(ctx, data) == 5 ** 6
    assert len(calls) == 10


def test_genus3_level6_equals_bruteforce(ctx6):
    data = ss.TrivalentSurfaceData(
        3, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j), wc.Degree(0.21)))
    assert ss.genus_n_dim(ctx6, data) == ss.genus_n_dim(ctx6, data, brute=True) == 729


def test_critical_data_rejected(ctx6):
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(0.5),))
    # m'' = m0 - m' = 0 is critical
    with pytest.raises(wc.CriticalDegree):
        ss.genus_n_dim(ctx6, data)


def _per_sigma_vertex_dim(ctx, word):
    """The intertwiner-solver route: sum dim Hom(1, word (x) sigma(k)) over
    the k in rbar*Z whose negation lies in the word's weight support."""
    weights = {0j}
    for letter in word:
        weights = {w + lw for w in weights
                   for lw in wc.realize_letter(ctx, letter).weights}
    ks = set()
    for wv in weights:
        r = round(wv.real / ctx.rbar)
        if abs(wv.imag) <= ctx.tol and abs(wv.real - r * ctx.rbar) <= 100 * ctx.tol:
            ks.add(-r)
    return sum(len(wc.hom_basis(ctx, (),
                                wc.ObjectWord([*word, (1, wc.Sigma(k * ctx.rbar))])))
               for k in ks)


def _random_vertex_words(ctx, rng, n):
    """n generic vertex words at ctx: the two words of a theta piece whose
    third class is the difference of the first two up to an even shift (or,
    one time in four, off it), alternating with words of random signs whose
    first letter's weight lies on, near or off a fusion channel of the
    other two."""
    m = ctx.nilpotency

    def weight():
        im = rng.choice([0.0, rng.uniform(-1, 1)])
        return complex(round(rng.uniform(-3, 3), 6), round(im, 6))

    words = []
    while len(words) < n:
        e, ep = weight(), weight()
        off = 0.5 if rng.random() < 0.25 else 0.0
        words.extend(ss._vertex_words(ctx, e, ep, e - ep + 2 * rng.randint(-m, m + 2) + off))
        signs = [rng.choice((1, -1)) for _ in range(3)]
        xb, xc = weight(), weight()
        xa = 2 * (m - 1) - (xb + xc) + 2 * rng.randint(-2, m + 2) + rng.choice([0, 0, 0.5, 1e-3j])
        words.append(wc.ObjectWord([
            (s, wc.Typical(x if s > 0 else 2 * (m - 1) - x)) for s, x in zip(signs, (xa, xb, xc))]))
    return words[:n]


@pytest.mark.parametrize("r, n", [(4, 200), (6, 150), (10, 60)])
def test_vertex_count_equals_per_sigma_solver(r, n):
    ctx = ScalarContext(r)
    words = _random_vertex_words(ctx, random.Random(r), n)
    got = [ss.graded_vertex_dim(ctx, w) for w in words]
    assert got == [_per_sigma_vertex_dim(ctx, w) for w in words]
    assert len(set(got)) > 1  # both zero and nonzero counts occur


@pytest.mark.parametrize("r, precision, n", [(4, 53, 12), (6, 53, 6), (10, 53, 3), (4, 106, 4)])
def test_vertex_count_equals_brute(r, precision, n):
    ctx = ScalarContext(r, precision=precision)
    words = _random_vertex_words(ctx, random.Random(100 + r), n)
    assert [ss.graded_vertex_dim(ctx, w) for w in words] == \
        [ss.graded_vertex_dim(ctx, w, brute=True) for w in words]


def test_vertex_count_refuses_other_words(ctx6):
    a, b = wc.Typical(0.3 + 0.4j), wc.Typical(0.2)
    for word in ([(1, a), (-1, b)], [(1, a), (1, b), (1, wc.Sigma(6))],
                 [(1, a), (1, b), (1, wc.Typical(0))], [(1, a), (1, b), (1, wc.Kirby(0.5))]):
        with pytest.raises(ValueError):
            ss.graded_vertex_dim(ctx6, wc.ObjectWord(word))
    with pytest.raises(wc.CriticalDegree):
        ss.graded_vertex_dim(ctx6, wc.ObjectWord([(1, a), (1, b), (-1, wc.Typical(0.2))]))


def _refuse(*args, **kwargs):
    raise AssertionError("the intertwiner solver was called")


@pytest.mark.parametrize("r, precision", [(6, 53), (4, 106)])
def test_genus_n_makes_no_solver_call(monkeypatch, r, precision):
    ctx = ScalarContext(r, precision=precision)
    data = ss.TrivalentSurfaceData(
        3, wc.Degree(0.5 + 0.15j), (wc.Degree(0.3 + 0.4j), wc.Degree(0.21)))
    want = ss.genus_n_dim(ctx, data, brute=True)
    for name in ("hom_basis", "realize", "hom_dim_graded"):
        monkeypatch.setattr(wc, name, _refuse)
    monkeypatch.setattr(la, "nullspace", _refuse)
    assert ss.genus_n_dim(ctx, data) == want
    assert ss.genus1_dim(ctx, wc.Degree(0.3 + 0.4j)) == ctx.rbar // 2


@pytest.mark.parametrize("r", [4, 6, 10, 12, 14, 20])
def test_genus_n_closed_form(r):
    """(r/2)^(3g-3) where rbar = r, and (4 (r/4)^3)^(g-1) where rbar = r/2
    (4^(g-1) at r = 4), up to genus 6."""
    ctx = ScalarContext(r)
    primes = tuple(wc.Degree(complex(0.2 + 0.13 * i, 0.3 + 0.05 * i)) for i in range(5))
    for g in range(2, 7):
        data = ss.TrivalentSurfaceData(g, wc.Degree(0.5 + 0.15j), primes[:g - 1])
        want = (r // 2) ** (3 * g - 3) if ctx.rbar == r else (4 * (r // 4) ** 3) ** (g - 1)
        assert ss.genus_n_dim(ctx, data) == want


def _sigma_g_x_s1(gc: complex, pairs) -> sg.SurgeryPresentation:
    """Sigma_g x S^1 as 0-surgery on an unknot C and, for each (ga, gb) in
    `pairs`, two unknots that form Borromean rings with C (Gompf-Stipsicz,
    4-Manifolds and Kirby Calculus; T^3 for one pair), with those meridian
    degrees.  Each pair is the closure of the pure braid (s1 s2^-1)^3 on
    C's upward strand and its own two, drawn one pair after the other
    inside C's cap, so the diagram is 6 letters wide for any g.  All
    linking numbers and writhes are 0, so every class extends."""
    c = (1, wc.Kirby(gc, 0, True))
    d = dg.apply_cell(dg.Diagram(wc.ObjectWord(()), []), 0, dg.cap(c, left=True))
    for n, (ga, gb) in enumerate(pairs):
        a, b = (1, wc.Kirby(ga, 2 * n + 1, True)), (1, wc.Kirby(gb, 2 * n + 2, True))
        d = dg.apply_cell(d, 1, dg.cap(a, left=True))
        d = dg.apply_cell(d, 2, dg.cap(b, left=True))
        for k in (1, -2) * 3:
            p = abs(k) - 1
            d = dg.apply_cell(d, p, dg.cross(d.target[p], d.target[p + 1], positive=k > 0))
        d = dg.apply_cell(d, 2, dg.cup(b, left=False))
        d = dg.apply_cell(d, 1, dg.cup(a, left=False))
    return sg.SurgeryPresentation(dg.apply_cell(d, 0, dg.cup(c, left=False)))


PAIR_CLASSES = ([(0.23 + 0.4j, 0.61 - 0.17j), (0.41 + 0.13j, -0.29 + 0.33j)],
                [(0.71 - 0.3j, 0.15 + 0.27j), (-0.44 + 0.19j, 0.52 + 0.08j)])


@pytest.mark.parametrize("pairs", PAIR_CLASSES)
def test_sigma2_x_s1_is_the_genus2_count_at_r6(ctx6, pairs):
    """The trace axiom: CGP of Sigma_2 x S^1, through surgery, Kirby colors
    and the sweep over 3^5 terms, equals the fusion count of the genus-2
    state space, which shares no code with it."""
    p = _sigma_g_x_s1(0.37 + 0.21j, pairs)
    assert max(map(len, p.diagram.boundary_words())) == 6
    assert not p.linking.matrix.any()
    want = ss.genus_n_dim(ctx6, ss.TrivalentSurfaceData(
        2, wc.Degree(pairs[0][0]), (wc.Degree(pairs[0][1]),)))
    assert want == 27
    assert abs(sg.cgp(ctx6, p) - want) <= 1e-10 * want


@pytest.mark.parametrize("r", [4, 6])
def test_three_torus_is_the_genus1_count(r):
    ctx = ScalarContext(r)
    pair = PAIR_CLASSES[0][0]
    want = ss.genus1_dim(ctx, wc.Degree(pair[0]))
    assert want == {4: 1, 6: 3}[r]
    assert abs(sg.cgp(ctx, _sigma_g_x_s1(0.37 + 0.21j, [pair])) - want) <= 1e-10 * want


# Z(Sigma_g x S^1) as Laurent coefficients {k: c_k} in zeta = e^{i pi g_C}
# at (r, g): (2 - zeta - 1/zeta)^(g-1) at r = 4, and r = 6 at g = 3
SIGMA_G_X_S1_FORMS = {(4, 2): {-1: -1, 0: 2, 1: -1},
                      (4, 3): {-2: 1, -1: -4, 0: 6, 1: -4, 2: 1},
                      (6, 3): {-2: 108, 0: 513, 2: 108}}
THIRD_PAIR = (0.33 - 0.21j, -0.17 + 0.29j)


@pytest.mark.parametrize("gc", [0.37 + 0.21j, 0.6 - 0.3j])
@pytest.mark.parametrize("pairs", PAIR_CLASSES)
@pytest.mark.parametrize("r, g", list(SIGMA_G_X_S1_FORMS))
def test_sigma_g_x_s1_closed_form(r, g, pairs, gc):
    """CGP of Sigma_g x S^1 is the closed form at zeta = e^{i pi g_C},
    whatever the pairs' classes, and the form's absolute coefficients sum
    to the dimension of the genus-g state space."""
    ctx = ScalarContext(r)
    pairs = (pairs + [THIRD_PAIR])[:g]
    form = SIGMA_G_X_S1_FORMS[r, g]
    data = ss.TrivalentSurfaceData(g, wc.Degree(pairs[0][0]),
                                   tuple(wc.Degree(b) for _, b in pairs[:g - 1]))
    assert sum(map(abs, form.values())) == ss.genus_n_dim(ctx, data)
    zeta = np.exp(1j * np.pi * gc)
    want = sum(c * zeta ** k for k, c in form.items())
    assert abs(sg.cgp(ctx, _sigma_g_x_s1(gc, pairs)) - want) <= 1e-10 * abs(want)
