from dataclasses import replace

import numpy as np
import pytest

import cgpkit._linalg as la
from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import assert_one_color_per_strand, component_letters, exchange_distant

GENERIC = 0.37 + 0.2j
GENERIC2 = 0.59 - 0.11j


def word(*letters):
    return wc.ObjectWord(list(letters))


def test_validate_identity(ctx):
    w = word((1, wc.Typical(GENERIC)), (-1, wc.Sigma(0)))
    d = dg.identity_diagram(w)
    assert dg.validate(ctx, d) is None
    assert d.target == w


def test_validate_reports_mismatch(ctx):
    w = word((1, wc.Typical(GENERIC)))
    d = dg.identity_diagram(w)
    # a slice expecting the wrong letter
    bad = dg.Diagram(d.source, d.slices + ((dg.id_cell((1, wc.Sigma(0))),),))
    msg = dg.validate(ctx, bad)
    assert msg is not None and "slice" in msg


def test_validate_coupon_shape(ctx):
    w = word((1, wc.Typical(GENERIC)))
    bad = dg.Diagram(w, [[dg.coupon(w, w, np.eye(3))]])
    msg = dg.validate(ctx, bad)
    if ctx.nilpotency != 3:
        assert msg is not None and "coupon" in msg
    else:
        assert msg is None
    # the shape is the product of the letter dimensions; each letter's color
    # is checked before it is counted
    m = ctx.nilpotency
    w3 = word((1, wc.Typical(GENERIC)), (-1, wc.Sigma(0)), (-1, wc.Typical(GENERIC2)))
    assert dg.validate(ctx, dg.Diagram(w3, [[dg.coupon(w3, w3, np.eye(m * m))]])) is None
    msg = dg.validate(ctx, dg.Diagram(w3, [[dg.coupon(w3, w, np.zeros((m, m * m + 1)))]]))
    assert msg is not None and f"({m}, {m * m})" in msg
    w0 = word((1, wc.Typical(0)))
    with pytest.raises(wc.NonTypicalColor):
        dg.validate(ctx, dg.Diagram(w0, [[dg.coupon(w0, w0, np.eye(m))]]))


def test_validate_refuses_a_kirby_colored_coupon_leg(ctx):
    """A Kirby color is a formal sum, so no coupon can take it: validate
    refuses the leg before any component is looked at."""
    k = wc.Kirby(0.5)
    w = word((1, k))
    d = dg.apply_cell(dg.Diagram(word(), []), 0, dg.cap((1, k), left=True))
    d = dg.apply_cell(d, 0, dg.coupon(w, w, np.eye(ctx.nilpotency)))
    d = dg.apply_cell(d, 0, dg.cup((1, k), left=False))
    with pytest.raises(ValueError) as err:
        dg.validate(ctx, d)
    assert str(err.value).startswith(f"{k!r} is a formal sum")


@pytest.mark.parametrize("color, kind", [
    (wc.Typical(1), wc.NonTypicalColor),  # critical at r = 6
    (wc.Sigma(5), ValueError),  # off 6Z
])
def test_validate_realizes_every_strand_color(ctx6, color, kind):
    """A strand color that no module realizes is refused as the same color
    on a coupon leg is, not left for the evaluator to trip on."""
    w = word((1, color))
    with pytest.raises(kind) as on_leg:
        dg.validate(ctx6, dg.Diagram(w, [[dg.coupon(w, w, np.eye(1))]]))
    with pytest.raises(kind) as on_strand:
        dg.validate(ctx6, fx.unknot(color))
    assert type(on_strand.value) is type(on_leg.value)
    assert str(on_strand.value) == str(on_leg.value)


def test_compose_requires_matching_boundary(ctx):
    w1 = word((1, wc.Typical(GENERIC)))
    w2 = word((1, wc.Typical(GENERIC2)))
    with pytest.raises(dg.BoundaryMismatch):
        dg.compose(dg.identity_diagram(w1), dg.identity_diagram(w2))
    d = dg.compose(dg.identity_diagram(w1), dg.identity_diagram(w1))
    assert dg.validate(ctx, d) is None


def _component_count(d):
    return len(set(d.ports_and_components().values()))


def test_component_counting(ctx):
    a = wc.Typical(GENERIC)
    u = fx.unknot(a)
    assert _component_count(u) == 1
    both = dg.tensor(u, fx.unknot(wc.Sigma(0)))
    assert _component_count(both) == 2
    tref = fx.trefoil(a)
    assert _component_count(tref) == 1
    hopf = fx.hopf_link(a, wc.Typical(GENERIC2))
    assert _component_count(hopf) == 2


def test_crossing_records_and_linking(ctx):
    a = wc.Typical(GENERIC)
    hopf = fx.hopf_link(a, wc.Typical(GENERIC2))
    recs = hopf.crossing_records()
    assert len(recs) == 2
    assert sum(s for _, _, s, _, _ in recs) == 2  # positive Hopf link
    curl = dg.add_curl(dg.identity_diagram(word((1, a))), 0, positive=True)
    recs = curl.crossing_records()
    assert len(recs) == 1 and recs[0][2] == 1


def test_encircle_linking(ctx):
    a = wc.Typical(GENERIC)
    d = dg.encircle(dg.Diagram(word((1, a)), []), (0, 1), wc.Typical(GENERIC2))
    recs = d.crossing_records()
    comp = d.ports_and_components()
    mer = comp[(1, 0)]
    lk = sum(s for c1, c2, s, _, _ in recs if {c1, c2} == {mer, comp[(0, 0)]})
    assert lk == 2  # two crossings of equal sign: linking number one


def test_recolor_component(ctx):
    a = wc.Typical(GENERIC)
    b = wc.Typical(GENERIC2)
    u = fx.unknot(a, framing=1)
    comp = u.ports_and_components()[(1, 0)]
    u2 = u.recolor_component(comp, b)
    colors = set(u2.component_colors().values())
    assert colors == {b}
    assert dg.validate(ctx, u2) is None


def test_kirby_color_through_compose_tensor(ctx):
    k = wc.Kirby(0.5)
    u = fx.unknot(k)
    # tensor with something on the left shifts ports
    both = dg.tensor(fx.unknot(wc.Typical(GENERIC)), u)
    kirby = [c for c, col in both.component_colors().items() if isinstance(col, wc.Kirby)]
    assert len(kirby) == 1
    colors = component_letters(both)[kirby[0]]
    assert all(c == k for _, c in colors)


def test_serialization_roundtrip(ctx):
    a = wc.Typical(GENERIC)
    d = replace(fx.trefoil(a), prefactor=2.5 - 1.25j)
    om = wc.kirby_color(ctx, wc.Degree(0.5))
    mer = dg.encircle(d, (0, 0), om.terms[0][1])  # empty span circle
    # and a sigma-colored circle beside it
    mer = dg.tensor(mer, fx.unknot(wc.Sigma(-ctx.rbar)))
    blob = dg.diagram_to_json(mer)
    back = dg.diagram_from_json(blob)
    assert dg.validate(ctx, back) is None
    assert back.boundary_words() == mer.boundary_words()
    assert back.prefactor == mer.prefactor
    v1 = rt_eval.evaluate(ctx, mer)
    v2 = rt_eval.evaluate(ctx, back)
    assert np.abs(np.asarray(v1) - np.asarray(v2)).max() < 1e-14


def test_coupon_serialization_roundtrip(ctx):
    a = wc.Typical(GENERIC)
    w = word((1, a))
    M = wc.realize(ctx, w)
    th = wc.twist(ctx, M)
    d = dg.Diagram(w, [[dg.coupon(w, w, th)]])
    back = dg.diagram_from_json(dg.diagram_to_json(d))
    assert np.abs(back.slices[0][0].matrix - th).max() < 1e-15


def test_cut_identity_fixtures(ctx):
    a = wc.Typical(GENERIC)
    u = fx.unknot(a)
    c = dg.cut(ctx, u, 1, 0)
    mat = rt_eval.evaluate(ctx, c)
    assert np.abs(mat - np.eye(ctx.nilpotency)).max() < 1e-12
    # twist loop cuts to the twist matrix
    k = fx.unknot(a, framing=1)
    ck = dg.cut(ctx, k, 1, 0)
    mat = rt_eval.evaluate(ctx, ck)
    th = wc.twist(ctx, wc.realize_letter(ctx, (1, a)))
    assert np.abs(mat - th).max() < 1e-11


def test_cut_requires_typical(ctx):
    s = fx.unknot(wc.Sigma(0))
    with pytest.raises(wc.NonTypicalColor):
        dg.cut(ctx, s, 1, 0)


def test_trace_closure_inverts_cut(ctx):
    a = wc.Typical(GENERIC)
    t = fx.figure_eight(a)
    c = dg.cut(ctx, t, *rt_eval.find_typical_edge(ctx, t))
    again = dg.trace_closure(c)
    v1 = rt_eval.f_prime(ctx, t)
    v2 = rt_eval.f_prime(ctx, again)
    assert abs(v1 - v2) < 1e-9 * max(1, abs(v1))


def test_stabilize_projective_section_property(ctx, monkeypatch):
    calls = []
    hom_basis = wc.hom_basis
    monkeypatch.setattr(wc, "hom_basis", lambda *a: calls.append(a) or hom_basis(*a))
    a = wc.Typical(GENERIC)
    u = fx.unknot(a)
    g = wc.Degree(0.7)
    d = dg.stabilize_projective(ctx, u, 1, 0, wc.index_set(ctx, g)[0])
    assert dg.validate(ctx, d) is None
    # composing the two inserted coupons gives the identity on the edge
    s_cell = d.slices[1][0]
    p_cell = d.slices[2][0]
    comp = p_cell.matrix @ s_cell.matrix
    assert np.abs(comp - np.eye(comp.shape[0])).max() < 1e-10
    # both orientations of a generic and of the integer typical edge, at
    # both precisions: the coupons are module maps and compose to id
    for c in (ctx, ScalarContext(ctx.r, precision=106)):
        for alpha in (GENERIC, c.nilpotency - 1):
            for sign in (1, -1):
                edge = word((sign, wc.Typical(alpha)))
                d = dg.stabilize_projective(c, dg.identity_diagram(edge), 0, 0,
                                            wc.index_set(c, g)[0])
                s_cell, p_cell = d.slices[0][0], d.slices[1][0]
                for cell in (s_cell, p_cell):
                    S, D = wc.realize(c, cell.domain), wc.realize(c, cell.codomain)
                    for xs, xd in ((S.actE, D.actE), (S.actF, D.actF)):
                        assert la.norm_inf(cell.matrix @ xs - xd @ cell.matrix) <= c.tol
                comp = p_cell.matrix @ s_cell.matrix
                assert la.norm_inf(comp - la.eye(c, comp.shape[0])) <= c.tol
    assert calls == []


def test_open_hopf_link_closed_form(ctx):
    # the docstring of stabilize_projective: the right partial trace of the
    # double braiding of U and V is q^{mu nu} {m mu}/{mu}, mu and nu the
    # signed middle weights of U and V
    m = ctx.nilpotency
    V = wc.typical_module(ctx, GENERIC2)
    nu = GENERIC2 - (m - 1)
    for alpha in (GENERIC, 0.5, 2.5 - 1j):
        for sign in (1, -1):
            U = wc.realize_letter(ctx, (sign, wc.Typical(alpha)))
            c2 = wc.braiding(ctx, V, U) @ wc.braiding(ctx, U, V)
            lam = wc.scalar_of(ctx, wc.partial_trace(ctx, c2, [U, V], 0))
            mu = sign * (alpha - (m - 1))
            want = ctx.q_power(mu * nu) * ctx.brace(m * mu) / ctx.brace(mu)
            assert abs(lam - want) <= 1e-12 * abs(want)


def test_stabilize_generic_structure(ctx):
    a = wc.Typical(GENERIC)
    u = fx.unknot(a)
    d = dg.stabilize_generic(ctx, u, 1, (0, 1), wc.Degree(GENERIC))
    assert dg.validate(ctx, d) is None
    assert len(d.kirby_colors()) == 2
    degs = {wc.color_degree(k).reduced() for k in d.kirby_colors()}
    assert len(degs) == 1


def test_exchange_distant_cells(ctx):
    a = wc.Typical(GENERIC)
    b = wc.Typical(GENERIC2)
    # two split circles: their cap/cup slices act on disjoint ranges
    d = dg.tensor(fx.unknot(a), fx.unknot(b))
    count0 = _component_count(d)
    v0 = rt_eval.f_prime(ctx, d)
    # find an exchangeable adjacent pair and swap it
    swapped = None
    for i in range(len(d.slices) - 1):
        try:
            swapped = exchange_distant(d, i)
            break
        except ValueError:
            continue
    assert swapped is not None
    assert dg.validate(ctx, swapped) is None
    assert _component_count(swapped) == count0
    assert abs(rt_eval.f_prime(ctx, swapped) - v0) < 1e-10 * max(1, abs(v0))
    # the swapped pair has its upper cell left of the lower one: exchanging
    # it back gives the original rows
    back = exchange_distant(swapped, i)
    assert back.slices == d.slices
    assert abs(rt_eval.f_prime(ctx, back) - v0) < 1e-10 * max(1, abs(v0))


# -- cached structure -----------------------------------------------------------


def _exchanged(d):
    for i in range(len(d.slices) - 1):
        try:
            return exchange_distant(d, i)
        except ValueError:
            continue
    raise AssertionError("no exchangeable slices")


def _middle_edge(d):
    """A typical edge with letters on both sides of it."""
    words = d.boundary_words()
    return next((b, i) for b in range(1, len(words)) for i in range(1, len(words[b]) - 1)
                if isinstance(words[b][i][1], wc.Typical))


def _rider(ctx):
    p = sfx.split_surgery_unknot_presentation(ctx, GENERIC, 1)
    target = next(iter(p.surgery_colors.values()))
    return sg._insert_rider(p.diagram, target, wc.Typical(GENERIC2))


A, B = wc.Typical(GENERIC), wc.Typical(GENERIC2)
LINE = dg.identity_diagram(word((1, A), (-1, B)))
EDITS = {
    "apply_cell": lambda ctx: dg.apply_cell(LINE, 1, dg.cap((1, B), left=True)),
    "add_curl": lambda ctx: dg.add_curl(LINE, 1, positive=False),
    "encircle": lambda ctx: dg.encircle(LINE, (0, 2), B, framing=1),
    "insert_slices": lambda ctx: dg.encircle_at(fx.hopf_link(A, B), 2, (0, 2), A, framing=-1),
    "compose": lambda ctx: dg.compose(dg.add_curl(LINE, 0, positive=True),
                                      dg.encircle(LINE, (1, 2), A)),
    "tensor": lambda ctx: dg.tensor(fx.hopf_link(A, B), fx.figure_eight(B)),
    "exchange_distant": lambda ctx: _exchanged(dg.tensor(fx.unknot(A), fx.unknot(B))),
    "trace_closure": lambda ctx: dg.trace_closure(
        dg.cut(ctx, fx.figure_eight(A), *_middle_edge(fx.figure_eight(A)))),
    "cut": lambda ctx: dg.cut(ctx, fx.hopf_link(A, B), *_middle_edge(fx.hopf_link(A, B))),
    "recolor_component": lambda ctx: fx.hopf_link(A, B).recolor_component(1, wc.Sigma(0)),
    "stabilize_projective": lambda ctx: dg.stabilize_projective(
        ctx, fx.figure_eight(A), 2, 0, wc.index_set(ctx, wc.Degree(0.7))[0]),
    "stabilize_generic": lambda ctx: dg.stabilize_generic(
        ctx, fx.unknot(A), 1, (0, 1), wc.Degree(GENERIC)),
    "auto_stabilize_rider": _rider,
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_cached_structure_matches_recomputation(ctx, edit):
    """Every cached view is kept, and equals the view of the same slices
    built afresh."""
    d = EDITS[edit](ctx)
    assert dg.validate(ctx, d) is None
    fresh = dg.Diagram(d.source, d.slices, d.prefactor)
    for view in ("boundary_words", "ports_and_components", "components_with_coupons",
                 "component_colors"):
        assert getattr(d, view)() is getattr(d, view)(), view
        assert getattr(d, view)() == getattr(fresh, view)(), view


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_coupon_free_strands_carry_one_color(ctx, edit):
    assert_one_color_per_strand(EDITS[edit](ctx))


def test_mark_components_recolors_in_one_pass(ctx, monkeypatch):
    """Naming both components of the Hopf link rebuilds it once, to what
    recoloring them one at a time gives."""
    hopf = fx.hopf_link(A, B)
    colors = {0: B, 1: wc.Typical(0.37 + 0.21j)}
    want = hopf.recolor_component(0, colors[0]).recolor_component(1, colors[1])
    passes, relettered = [], dg.Diagram._relettered
    monkeypatch.setattr(dg.Diagram, "_relettered",
                        lambda d, rl: passes.append(d) or relettered(d, rl))
    got = dg.mark_components(hopf, colors)
    assert passes == [hopf]
    assert [[(c.kind, c.letters) for c in cells] for cells in got.slices] == \
        [[(c.kind, c.letters) for c in cells] for cells in want.slices]
    assert got.component_colors() == colors


def test_planted_row_mismatch_raises(ctx):
    hopf = fx.hopf_link(A, B)
    w = hopf.boundary_words()[1]
    wrong = [dg.id_cell((1, wc.Sigma(0)))] * len(w)
    with pytest.raises(dg.BoundaryMismatch):
        dg.insert_slices(hopf, 1, [wrong])
    # a row that fits its word but changes it no longer fits the next slice
    with pytest.raises(dg.BoundaryMismatch):
        dg.insert_slices(hopf, 1, [dg.wrap_slice(w, 0, dg.cap((1, A), left=True))])
    with pytest.raises(dg.BoundaryMismatch):
        dg.Stack(LINE).between([[dg.id_cell((1, wc.Sigma(0)))]], 1, 0)
    with pytest.raises(dg.BoundaryMismatch):
        dg.Stack(LINE).between([[dg.id_cell((1, A))]], 0, 0)


def _drawn_hopf_link(c1, c2, framings):
    """The Hopf link as `fx.hopf_link` drew it by hand before it became the
    closure of s1^2: each cap with its twist cells, two crossings, two cups."""
    l1, l2 = (1, c1), (1, c2)
    d = dg.apply_cell(dg.Diagram(word(), []), 0, dg.cap(l1, left=True))
    for _ in range(abs(framings[0])):
        d = dg.add_curl(d, 0, positive=framings[0] > 0)
    d = dg.apply_cell(d, 1, dg.cap(l2, left=True))
    for _ in range(abs(framings[1])):
        d = dg.add_curl(d, 1, positive=framings[1] > 0)
    d = dg.apply_cell(d, 0, dg.cross(l1, l2))
    d = dg.apply_cell(d, 0, dg.cross(l2, l1))
    d = dg.apply_cell(d, 1, dg.cup(l2, left=False))
    return dg.apply_cell(d, 0, dg.cup(l1, left=False))


def _drawn_split_unknot(alpha, framing):
    """The split surgery unknot as `sfx.split_surgery_unknot_presentation`
    drew it cell by cell: the surgery circle beside the graph circle."""
    lg, lk = (1, wc.Typical(alpha)), (1, wc.Kirby(0j, 0, True))
    d = dg.apply_cell(dg.Diagram(word(), []), 0, dg.cap(lg, left=True))
    d = dg.apply_cell(d, 2, dg.cap(lk, left=True))
    for _ in range(abs(framing)):
        d = dg.add_curl(d, 2, positive=framing > 0)
    d = dg.apply_cell(d, 2, dg.cup(lk, left=False))
    return dg.apply_cell(d, 0, dg.cup(lg, left=False))


@pytest.mark.parametrize("framings", [(0, 0), (6, 1), (2, -3), (-1, 4)])
def test_hopf_link_layout_is_pinned(framings):
    """The benchmark times lens chains drawn on these layouts."""
    for c1, c2 in ((A, B), (wc.Kirby(0.3, 0, True), wc.Kirby(-0.3, 1, True))):
        assert (dg.diagram_to_json(fx.hopf_link(c1, c2, framings))
                == dg.diagram_to_json(_drawn_hopf_link(c1, c2, framings)))


@pytest.mark.parametrize("framing", [1, -1])
def test_split_unknot_layout_is_pinned(ctx, framing):
    d = sfx.split_surgery_unknot_presentation(ctx, GENERIC, framing).diagram
    assert dg.diagram_to_json(d) == dg.diagram_to_json(_drawn_split_unknot(GENERIC, framing))


def test_braid_closure_refuses_a_coloring_that_does_not_close():
    """s1 swaps the two strands, so the cups meet B where A's dual is."""
    with pytest.raises(dg.BoundaryMismatch):
        fx.braid_closure([A, B], 2, [1])
    # one color per strand, and no more twist counts than strands
    for color, twists in (([A], ()), ([A, B, A], ()), (A, (1, 0, 1))):
        with pytest.raises(ValueError):
            fx.braid_closure(color, 2, [1, 1], twists)
