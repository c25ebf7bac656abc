from itertools import product

import pytest

from cgpkit import state_spaces as ss
from cgpkit import weightcat as wc


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


def test_genus3_factorised_sum_equals_enumeration(ctx):
    data = ss.TrivalentSurfaceData(
        3, wc.Degree(0.5 + 0.15j), (wc.Degree(0.3 + 0.4j), wc.Degree(0.21 + 0.35j)))
    assert ss.genus_n_dim(ctx, data) == _enumerated_dim(ctx, data)


def test_genus3_level6_equals_bruteforce(ctx6):
    data = ss.TrivalentSurfaceData(
        3, wc.Degree(0.5), (wc.Degree(0.3 + 0.1j), wc.Degree(0.21)))
    assert ss.genus_n_dim(ctx6, data) == ss.genus_n_dim(ctx6, data, brute=True) == 729


def test_critical_data_rejected(ctx6):
    data = ss.TrivalentSurfaceData(2, wc.Degree(0.5), (wc.Degree(0.5),))
    # m'' = m0 - m' = 0 is critical
    with pytest.raises(wc.CriticalDegree):
        ss.genus_n_dim(ctx6, data)
