import gc
import itertools
import weakref

import numpy as np
import pytest

from cgpkit import NumericInstability
from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import drawn_kinks, marked

GENERIC = 0.37 + 0.2j


def _stand_in(ctx):
    """A typical color for components that `marked` marks for surgery by
    id."""
    return wc.Typical(2 * ctx.nilpotency - 1)


def test_linking_data_examples(ctx6):
    ph = _stand_in(ctx6)
    # +1 framed unknot
    u = fx.unknot(ph, framing=1)
    comp = u.ports_and_components()[(1, 0)]
    p = marked(u, {comp: wc.Degree(0.5)})
    link = sg.linking_data(ctx6, p)
    assert link.matrix.tolist() == [[1]] and link.signature == 1
    # 0 framed 2-component unlink
    two = dg.tensor(fx.unknot(ph), fx.unknot(ph))
    comps = sorted(set(two.ports_and_components().values()))
    p2 = marked(two, {c: wc.Degree(0.5) for c in comps})
    link2 = sg.linking_data(ctx6, p2)
    assert np.all(link2.matrix == 0) and link2.signature == 0
    # positive Hopf link, 0 writhe: eigenvalues +-1
    hopf = fx.hopf_link(ph, ph)
    comps = sorted(set(hopf.ports_and_components().values()))
    p3 = marked(hopf, {comps[0]: wc.Degree(0.5), comps[1]: wc.Degree(-0.5)})
    link3 = sg.linking_data(ctx6, p3)
    assert link3.matrix.tolist() in ([[0, 1], [1, 0]],)
    assert link3.signature == 0


def test_exact_signature_routes():
    mat = np.array([[6, 1], [1, 1]])
    assert sg._signature(mat) == 2
    assert sg._signature(np.array([[0, 1], [1, 0]])) == 0
    assert sg._signature(np.array([[-3]])) == -1
    assert sg._signature(np.zeros((3, 3), dtype=int)) == 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.integers(-4, 5, (n, n))
        m = m + m.T
        vals = np.linalg.eigvalsh(m.astype(float))
        want = int((vals > 1e-9).sum()) - int((vals < -1e-9).sum())
        assert sg._signature(m) == want
    # 13 and 14 components stay exact, also on a singular matrix (rank 5)
    a = rng.integers(-2, 3, (5, 13))
    for m in (rng.integers(-4, 5, (13, 13)), rng.integers(-4, 5, (14, 14)),
              a.T @ np.diag([1, 1, -1, 2, -3]) @ a):
        m = m + m.T
        vals = np.linalg.eigvalsh(m.astype(float))
        assert sg._signature(m) == int((vals > 1e-9).sum()) - int((vals < -1e-9).sum())


def test_signature_of_zero_diagonals():
    """Zero diagonals need the congruence step once per hyperbolic pair:
    permuted sums of [[0, a], [a, 0]] blocks have signature 0, and so has
    [[0, I], [I, 0]] + diag(2, -3); with diag(2, 3) it is 2."""
    rng = np.random.default_rng(14)
    for k in range(1, 8):
        m = np.zeros((2 * k, 2 * k), dtype=int)
        for i in range(k):
            m[2 * i, 2 * i + 1] = m[2 * i + 1, 2 * i] = rng.choice([-3, -2, -1, 1, 2, 3])
        perm = rng.permutation(2 * k)
        assert sg._signature(m[perm][:, perm]) == 0
    for k in range(1, 7):
        for tail, want in (([2, -3], 0), ([2, 3], 2)):
            m = np.zeros((2 * k + 2, 2 * k + 2), dtype=int)
            m[:k, k:2 * k] = m[k:2 * k, :k] = np.eye(k, dtype=int)
            m[2 * k:, 2 * k:] = np.diag(tail)
            perm = rng.permutation(2 * k + 2)
            assert sg._signature(m) == sg._signature(m[perm][:, perm]) == want


def test_check_computable(ctx6):
    p = sfx.s1xs2_presentation(ctx6, 0.5)
    assert sg.check_computable(ctx6, p) == []
    p2 = sfx.s1xs2_presentation(ctx6, 1.0)
    assert len(sg.check_computable(ctx6, p2)) == 1
    p3 = sfx.s1xs2_presentation(ctx6, 0.5 + 0.0j)
    assert sg.check_computable(ctx6, p3) == []


def test_cohomology_constraint_enforced(ctx6):
    ph = _stand_in(ctx6)
    base = fx.unknot(ph, framing=1)
    d = dg.encircle_at(base, 1, (0, 1), wc.Typical(GENERIC), framing=0)
    comp = d.ports_and_components()[(1, 0)]
    # framing 1 with a generic-degree meridian circle cannot balance
    p = marked(d, {comp: wc.Degree(0.5)})
    with pytest.raises(ValueError):
        sg.validate_presentation(ctx6, p)


def test_cgp_unknot_axiom(ctx):
    a = GENERIC
    c = wc.constants(ctx)
    v = sg.cgp(ctx, sfx.unknot_presentation(ctx, a))
    assert abs(v - c.eta * wc.modified_dimension(ctx, a)) < 1e-10


def test_cgp_blowdown_pair(ctx):
    a = GENERIC
    for mf in (1, -1):
        vm = sg.cgp(ctx, sfx.surgery_meridian_presentation(ctx, a, mf))
        vref = sg.cgp(ctx, sfx.unknot_presentation(ctx, a, framing=-mf))
        assert abs(vm - vref) <= 1e-8 * max(1.0, abs(vref))


def test_cgp_s1xs2(ctx):
    c = wc.constants(ctx)
    g = wc.Degree(0.5)
    v = sg.cgp(ctx, sfx.s1xs2_presentation(ctx, 0.5))
    om = wc.kirby_color(ctx, g)
    expect = c.eta / c.D * sum(
        coeff * wc.modified_dimension(ctx, complex(col.alpha))
        for coeff, col in om.terms)
    assert abs(v - expect) < 1e-9 * max(1.0, abs(expect))


def test_cgp_index2_pair(ctx6):
    c = wc.constants(ctx6)
    pa, pb = sfx.index2_pair(ctx6, wc.Degree(0.5))
    ratio = sg.cgp(ctx6, pb) / sg.cgp(ctx6, pa)
    assert abs(ratio - 1 / c.D) < 1e-9


def test_cgp_multiplicative_disjoint(ctx6):
    a, b = GENERIC, 0.8 + 0.3j
    p1 = sfx.unknot_presentation(ctx6, a)
    p2 = sfx.unknot_presentation(ctx6, b)
    v = sg.cgp_disjoint(ctx6, [p1, p2])
    assert abs(v - sg.cgp(ctx6, p1) * sg.cgp(ctx6, p2)) < 1e-12


def test_cgp_not_computable_and_admissible(ctx6):
    # admissible through the typical circle, but the reading is critical
    p = sfx.s1xs2_decorated_presentation(ctx6, 0.0, [2.0])
    with pytest.raises(sg.NotComputable):
        sg.cgp(ctx6, p, auto=False)
    with pytest.raises(sg.NotAdmissible):
        # critical reading and no typical edge anywhere
        sg.cgp(ctx6, sfx.s1xs2_presentation(ctx6, 0.0), auto=False)


def test_projective_stabilization_invariance(ctx):
    a = GENERIC
    p0 = sfx.unknot_presentation(ctx, a)
    v0 = sg.cgp(ctx, p0)
    d = dg.stabilize_projective(ctx, p0.diagram, 1, 0, wc.index_set(ctx, wc.Degree(0.7))[0])
    v1 = sg.cgp(ctx, sg.SurgeryPresentation(d))
    assert abs(v1 - v0) <= 1e-9 * max(1.0, abs(v0))


def test_generic_stabilization_invariance(ctx):
    a = GENERIC
    p0 = sfx.unknot_presentation(ctx, a)
    v0 = sg.cgp(ctx, p0)
    d = dg.stabilize_generic(ctx, p0.diagram, 1, (0, 1), wc.Degree(a))
    v1 = sg.cgp(ctx, sg.SurgeryPresentation(d))
    assert abs(v1 - v0) <= 1e-9 * max(1.0, abs(v0))


def test_generic_stabilization_s1xs2_and_double_surgery(ctx6):
    ps = sfx.s1xs2_presentation(ctx6, 0.5)
    vs = sg.cgp(ctx6, ps)
    d2 = dg.stabilize_generic(ctx6, ps.diagram, 1, (0, 1), wc.Degree(0.5))
    surg = d2.ports_and_components()[(1, 0)]
    ps2 = marked(d2, {surg: wc.Degree(0.5)})
    assert abs(sg.cgp(ctx6, ps2) - vs) <= 1e-9 * max(1.0, abs(vs))
    # undo by a double index-2 surgery: both circles become surgery
    # components and the stabilization prefactor is dropped
    c = wc.constants(ctx6)
    formal_comps = sorted(c for c, col in d2.component_colors().items()
                          if isinstance(col, wc.Kirby) and not col.surgery)
    d3 = dg.Diagram(d2.source, [list(s) for s in d2.slices],
                    d2.prefactor * (c.delta_minus * c.delta_plus))
    for comp in formal_comps:
        d3 = d3.recolor_component(comp, _stand_in(ctx6))
    mer = {surg: wc.Degree(0.5)}
    for comp in formal_comps:
        mer[comp] = wc.Degree(0.5)
    ps3 = marked(d3, mer)
    assert abs(sg.cgp(ctx6, ps3) - vs) <= 1e-9 * max(1.0, abs(vs))


def test_lens_handle_slide_pair(ctx6):
    for k in (0, 1):
        va = sg.cgp(ctx6, sfx.lens_unknot_presentation(ctx6, 5, k))
        vb = sg.cgp(ctx6, sfx.slid_lens_presentation(ctx6, 5, k))
        assert abs(va - vb) <= 1e-7 * max(1.0, abs(va), abs(vb))


def test_lens_spaces_distinguished(ctx6):
    vals1 = [sg.cgp(ctx6, sfx.lens_unknot_presentation(ctx6, 5, k))
             for k in range(4)]
    vals2 = [sg.cgp(ctx6, sfx.lens_chain_presentation(ctx6, 2, 3, k))
             for k in range(4)]
    best = min(max(abs(a - b) for a, b in zip(vals1, p))
               for p in itertools.permutations(vals2))
    assert best > 1e-3


def test_lens_chain_high_precision_matches_53_bits(ctx6):
    hp = ScalarContext(6, precision=106)
    ref = sg.cgp(ctx6, sfx.lens_chain_presentation(ctx6, 2, 3, 1))
    got = complex(sg.cgp(hp, sfx.lens_chain_presentation(hp, 2, 3, 1)))
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_auto_stabilize_high_precision_matches_53_bits(ctx6):
    # the section of stabilize_projective divides by the open Hopf link at
    # working precision
    hp = ScalarContext(6, precision=106)
    ref = sg.cgp(ctx6, sfx.split_surgery_unknot_presentation(ctx6, GENERIC, 1), auto=True)
    got = complex(sg.cgp(hp, sfx.split_surgery_unknot_presentation(hp, GENERIC, 1),
                         auto=True))
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_auto_stabilize_unchanged_when_computable(ctx6):
    p = sfx.s1xs2_presentation(ctx6, 0.5)
    assert sg.auto_stabilize(ctx6, p) is p


def test_auto_stabilize_critical_meridian_fixture(ctx6):
    p = sfx.s1xs2_decorated_presentation(ctx6, 0.0, [2.0])
    assert sg.check_computable(ctx6, p)
    v1 = sg.cgp(ctx6, p, auto=True)
    v2 = sg.cgp(ctx6, sg.auto_stabilize(ctx6, p, index=wc.Degree(0.85)))
    assert abs(v1 - v2) < 1e-9


def test_auto_stabilize_slide_consistency(ctx6):
    """Threading a computable component leaves the invariant unchanged."""
    ph = _stand_in(ctx6)
    T = wc.Typical(2.0)
    base = fx.unknot(ph)
    d = dg.encircle_at(base, 1, (0, 1), T, framing=0)
    d = dg.encircle_at(d, 1, (0, 1), ph, framing=2)
    d = dg.encircle_at(d, 1, (1, 2), ph, framing=3)
    u2 = d.ports_and_components()[(1, 0)]
    wr = {}
    for a, b, s_, _, _ in d.crossing_records():
        if a == b:
            wr[a] = wr.get(a, 0) + s_
    colors = d.component_colors()
    others = sorted(c for c, col in colors.items() if col == ph and c != u2)
    u1 = next(c for c in others if wr.get(c, 0) == 2)
    u3 = next(c for c in others if wr.get(c, 0) == 3)
    p = marked(d, {u2: wc.Degree(-5.6 + 0j), u1: wc.Degree(0.8 + 0j),
                   u3: wc.Degree(-3.2 + 0j)})
    v_direct = sg.cgp(ctx6, p)
    # thread the (computable) middle component: the reading drops by the
    # index, and the value of the presented manifold is unchanged
    stab = sg._thread_detour(ctx6, p, p.surgery_colors[u2], wc.Degree(0.55))
    v_thread = sg.cgp(ctx6, stab)
    assert abs(v_thread - v_direct) <= 1e-8 * max(1.0, abs(v_direct))


@pytest.mark.parametrize("r", [6, 10])
def test_detour_cables_with_the_shifted_color(monkeypatch, r):
    """Cabling with the shifted color draws the diagram of the route that
    cables with the target's own color and recolors the stabilized result:
    the same `repr` of its slices, on the split surgery unknot."""
    ctx = ScalarContext(r)
    p = sfx.split_surgery_unknot_presentation(ctx, GENERIC, 1)
    target = p.surgery_colors[sg.check_computable(ctx, p)[0]]
    index = sg._pick_index(ctx, target)
    new = sg._thread_detour(ctx, p, target, index).diagram
    insert, find = sg._insert_rider, sg._find_threading_site
    monkeypatch.setattr(sg, "_insert_rider",
                        lambda d, t, rider, color: insert(d, t, rider))
    monkeypatch.setattr(sg, "_find_threading_site", lambda d, color, rider: find(d, target, rider))
    shifted = next(iter(set(new.kirby_colors()) - {target}))
    assert shifted.g == target.g - index.g
    old = sg._thread_detour(ctx, p, target, index).diagram.recolor(target, shifted)
    assert repr(old.slices) == repr(new.slices)


def test_auto_stabilize_split_unknot(ctx6):
    a = GENERIC
    c = wc.constants(ctx6)
    for fr in (1, -1):
        ps = sfx.split_surgery_unknot_presentation(ctx6, a, fr)
        v = sg.cgp(ctx6, ps, auto=True)
        expect = c.eta * wc.modified_dimension(ctx6, a)
        assert abs(v - expect) <= 1e-8 * max(1.0, abs(expect))


def _two_split_unknots(alpha):
    """Two split surgery unknots of meridian degree 0 and framings +1 and
    -1 beside a typical graph unknot, each drawn and closed before the
    next starts: both are critical, so the second is cabled in a diagram
    that holds the first one's stabilization."""
    lg = (1, wc.Typical(alpha))
    d = dg.apply_cell(dg.Diagram(wc.ObjectWord(()), []), 0, dg.cap(lg, left=True))
    for tag, framing in ((0, 1), (1, -1)):
        lk = (1, wc.Kirby(0j, tag, True))
        d = dg.apply_cell(d, 2, dg.cap(lk, left=True))
        d = dg.add_curl(d, 2, positive=framing > 0)
        d = dg.apply_cell(d, 2, dg.cup(lk, left=False))
    return sg.SurgeryPresentation(dg.apply_cell(d, 0, dg.cup(lg, left=False)))


@pytest.mark.parametrize("r", [4, 6])
def test_auto_stabilize_two_critical_components(r):
    """+1 and -1 surgery on split unknots gives back the three-sphere, so
    the value is that of the typical unknot alone."""
    ctx = ScalarContext(r)
    p = _two_split_unknots(GENERIC)
    assert len(sg.check_computable(ctx, p)) == 2
    expect = wc.constants(ctx).eta * wc.modified_dimension(ctx, GENERIC)
    assert abs(sg.cgp(ctx, p, auto=True) - expect) < 1e-12
    assert abs(sg.cgp(ctx, sg.auto_stabilize(ctx, p, index=wc.Degree(0.85))) - expect) < 1e-12


def _reversed_split_unknot(framing):
    """The split surgery unknot with its component drawn the other way
    round: cap_l((-1, K)) ... cup_r((-1, K))."""
    lg, lk = (1, wc.Typical(GENERIC)), (-1, wc.Kirby(0j, 0, True))
    d = dg.apply_cell(dg.Diagram(wc.ObjectWord(()), []), 0, dg.cap(lg, left=True))
    d = dg.apply_cell(d, 2, dg.cap(lk, left=True))
    for _ in range(abs(framing)):
        d = dg.add_curl(d, 2, positive=framing > 0)
    d = dg.apply_cell(d, 2, dg.cup(lk, left=False))
    return sg.SurgeryPresentation(dg.apply_cell(d, 0, dg.cup(lg, left=False)))


def _lk(d, x, y):
    """Linking number of the components colored x and y, read from the
    crossings; the writhe, twist cells included, when y is x."""
    total = sum(s for _, _, s, ca, cb in d.crossing_records() if {ca, cb} == {x, y})
    return total if x == y else total / 2


def _cable_cases(ctx):
    for fr in (1, -1, 2, -2):
        p = sfx.split_surgery_unknot_presentation(ctx, GENERIC, fr)
        yield f"split {fr}", p.diagram
        yield f"drawn split {fr}", drawn_kinks(p.diagram)
        yield f"reversed split {fr}", _reversed_split_unknot(fr).diagram
    yield "decorated s1xs2", sfx.s1xs2_decorated_presentation(ctx, 0.0, [2.0]).diagram
    # the three surgery components of the slide-consistency figure
    ph = _stand_in(ctx)
    d = dg.encircle_at(fx.unknot(ph), 1, (0, 1), wc.Typical(2.0), framing=0)
    d = dg.encircle_at(d, 1, (0, 1), ph, framing=2)
    d = dg.encircle_at(d, 1, (1, 2), ph, framing=3)
    comps = [c for c, col in d.component_colors().items() if col == ph]
    yield "slide", marked(d, {c: wc.Degree(0.8) for c in comps}).diagram


def test_rider_is_the_framed_push_off(ctx6):
    """The rider links every other component as the target does, and links
    the target by its writhe: the blackboard 2-cable, checked from the
    crossings alone."""
    rider = wc.Typical(0.55)
    for name, d in _cable_cases(ctx6):
        colors = set(d.component_colors().values())
        for target in d.kirby_colors():
            out = sg._insert_rider(d, target, rider)
            assert list(out.component_colors().values()).count(rider) == 1
            for x in colors - {target}:
                assert _lk(out, rider, x) == _lk(out, target, x) == _lk(d, target, x), (name, x)
            w = _lk(d, target, target)
            assert _lk(out, rider, target) == _lk(out, rider, rider) == w, name


def test_reversed_component_is_refused_with_a_reason(ctx6):
    with pytest.raises(sg.CannotStabilize, match="no boundary exposes a typical edge"):
        sg.cgp(ctx6, _reversed_split_unknot(1), auto=True)


def _count_stabilizations(monkeypatch):
    """The contexts of each `auto_stabilize` call, in order."""
    calls, stabilize = [], sg.auto_stabilize
    monkeypatch.setattr(sg, "auto_stabilize",
                        lambda ctx, p: calls.append(ctx) or stabilize(ctx, p))
    return calls


def test_a_repeated_auto_call_runs_the_kept_stabilization(monkeypatch, ctx6):
    calls = _count_stabilizations(monkeypatch)
    p = sfx.split_surgery_unknot_presentation(ctx6, GENERIC, 1)
    first = sg.cgp(ctx6, p, auto=True)
    assert p._stabilized[ctx6].diagram._plans
    assert sg.cgp(ctx6, p, auto=True) == first
    assert calls == [ctx6]


def test_auto_stabilizations_are_kept_per_context(monkeypatch):
    """One input at three contexts stabilizes once at each and gives each
    context's value: that of a fresh input."""
    contexts = [ScalarContext(6), ScalarContext(6, precision=106), ScalarContext(10)]
    wants = [sg.cgp(ctx, sfx.split_surgery_unknot_presentation(ctx, GENERIC, 1), auto=True)
             for ctx in contexts]
    calls = _count_stabilizations(monkeypatch)
    p = sfx.split_surgery_unknot_presentation(contexts[0], GENERIC, 1)
    for _ in range(2):
        assert [sg.cgp(ctx, p, auto=True) for ctx in contexts] == wants
    assert calls == contexts
    assert set(p._stabilized) == set(contexts)


def test_a_refused_stabilization_keeps_nothing(ctx6):
    p = _reversed_split_unknot(1)
    tight = ScalarContext(6, tol=1e-16)
    q = sfx.split_surgery_unknot_presentation(tight, GENERIC, 1)
    for _ in range(2):
        with pytest.raises(sg.CannotStabilize):
            sg.cgp(ctx6, p, auto=True)
        with pytest.raises(NumericInstability):
            sg.cgp(tight, q, auto=True)
    assert not p._stabilized and not q._stabilized


def test_a_kept_stabilization_leaves_auto_false_refused(ctx6):
    p = sfx.split_surgery_unknot_presentation(ctx6, GENERIC, 1)
    sg.cgp(ctx6, p, auto=True)
    with pytest.raises(sg.NotComputable):
        sg.cgp(ctx6, p)


def test_a_kept_stabilization_dies_with_its_input(ctx6):
    p = sfx.split_surgery_unknot_presentation(ctx6, GENERIC, 1)
    sg.cgp(ctx6, p, auto=True)
    refs = [weakref.ref(p), weakref.ref(p._stabilized[ctx6].diagram)]
    del p
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
