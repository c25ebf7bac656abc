"""Kirby colors carried by the letters: one opening per presentation, and
values equal, within rounding, to the route that recolors each Kirby
component and cuts every term of the expansion anew."""

import gc
import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cgpkit import cli
from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import assert_one_color_per_strand, assert_within_rounding, strand, typical_edges

GENERIC = 0.37 + 0.2j


def _recolor_then_cut(ctx, d):
    """F' by recoloring: for every choice of summands, recolor each
    Kirby-colored component by id (ascending ids, the first varying
    slowest), find the first typical edge of the plain diagram, cut it and
    take the modified trace.  Returns the value and the sum of the terms'
    absolute values."""
    kirby = {c: col for c, col in sorted(d.component_colors().items())
             if isinstance(col, wc.Kirby)}
    sums = [k.terms.terms if k.terms is not None else
            wc.kirby_color(ctx, wc.Degree(k.g)).terms for k in kirby.values()]
    total, size = ctx.scalar(0), 0
    for combo in itertools.product(*sums):
        coeff = ctx.scalar(1)
        plain = d
        for cid, (co, col) in zip(kirby, combo):
            coeff = coeff * co
            plain = plain.recolor_component(cid, col)
        cut = dg.cut(ctx, plain, *typical_edges(plain)[0])
        term = coeff * wc.modified_trace(ctx, cut.source, rt_eval.evaluate(ctx, cut))
        total, size = total + term, size + abs(term)
    return total, size


def _figures(ctx):
    pa, pb = sfx.index2_pair(ctx, wc.Degree(0.5))
    split = sfx.split_surgery_unknot_presentation(ctx, GENERIC, 1)
    return {
        "unknot": sfx.unknot_presentation(ctx, GENERIC, framing=1).diagram,
        "meridian+1": sfx.surgery_meridian_presentation(ctx, GENERIC, 1).diagram,
        "meridian-1": sfx.surgery_meridian_presentation(ctx, GENERIC, -1).diagram,
        "s1xs2": sfx.s1xs2_presentation(ctx, 0.5).diagram,
        "s1xs2-decorated": sfx.s1xs2_decorated_presentation(
            ctx, 0.5, [GENERIC, -GENERIC]).diagram,
        "index2-attach": pa.diagram,
        "index2-belt": pb.diagram,
        "lens": sfx.lens_unknot_presentation(ctx, 5, 1).diagram,
        "lens-chain": sfx.lens_chain_presentation(ctx, 2, 3, 1).diagram,
        "slid-lens": sfx.slid_lens_presentation(ctx, 5, 1).diagram,
        "stabilize-generic": dg.stabilize_generic(
            ctx, fx.unknot(wc.Typical(GENERIC)), 1, (0, 1), wc.Degree(GENERIC)),
        "auto-stabilized-split": sg.auto_stabilize(ctx, split).diagram,
    }


CONTEXTS = {"r4": ScalarContext(4), "r6": ScalarContext(6), "r10": ScalarContext(10),
            "hp4": ScalarContext(4, precision=106)}
FIGURES = sorted(_figures(CONTEXTS["r4"]))


@pytest.mark.parametrize("figure", FIGURES)
@pytest.mark.parametrize("level", sorted(CONTEXTS))
def test_f_prime_equals_recolor_then_cut(level, figure):
    ctx = CONTEXTS[level]
    d = _figures(ctx)[figure]
    want, size = _recolor_then_cut(ctx, d)
    assert_within_rounding(ctx, rt_eval.f_prime(ctx, d), want, size)


@pytest.mark.parametrize("figure", FIGURES)
def test_coupon_free_strands_carry_one_color(figure):
    assert_one_color_per_strand(_figures(CONTEXTS["r4"])[figure])


def test_one_opening_per_presentation(monkeypatch, ctx6):
    wc.constants(ctx6)  # the constants evaluate figures of their own
    calls = {"cut": 0, "_plan": 0, "_sweep": 0, "expand_formal": 0}
    halves = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = f(*args, **kwargs)
            if name == "_sweep":
                halves.append(out[1].shape)
            return out
        return wrapper

    for module, name in ((dg, "cut"), (rt_eval, "_plan"), (rt_eval, "_sweep"),
                         (rt_eval, "expand_formal")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    p = sfx.lens_chain_presentation(ctx6, 2, 3, 1)
    value = sg.cgp(ctx6, p)
    # no cut; one sweep below the edge and one above it carry the 3
    # summands on each of 2 components at once, on their term axes (size 1
    # for the component with no cell below the edge)
    assert calls == {"cut": 0, "_plan": 2, "_sweep": 2, "expand_formal": 0}
    assert [h[:2] for h in halves] == [(3, 1), (3, 3)]
    # a second call runs the plans kept on the diagram
    assert sg.cgp(ctx6, p) == value
    assert calls == {"cut": 0, "_plan": 2, "_sweep": 4, "expand_formal": 0}
    # the coefficients meet the matrices on those axes, not term by term
    rt_eval.evaluate_formal(ctx6, p.diagram)
    assert calls == {"cut": 0, "_plan": 3, "_sweep": 5, "expand_formal": 0}


def test_plans_are_kept_per_context(monkeypatch):
    """One diagram evaluated at three contexts builds the two half plans of
    each and gives each context's value: that of a fresh diagram."""
    contexts = [ScalarContext(6), ScalarContext(6, precision=106), ScalarContext(10)]
    a = wc.Typical(GENERIC)
    wants = [rt_eval.f_prime(ctx, fx.figure_eight(a)) for ctx in contexts]
    builds = []
    plan = rt_eval._plan
    monkeypatch.setattr(rt_eval, "_plan", lambda ctx, *args: builds.append(ctx) or plan(ctx, *args))
    d = fx.figure_eight(a)
    for _ in range(2):
        assert [rt_eval.f_prime(ctx, d) for ctx in contexts] == wants
    assert builds == [ctx for ctx in contexts for _ in range(2)]
    assert {key[0] for key in d._plans} == set(contexts)
    assert rt_eval.f_prime(contexts[0], d) != rt_eval.f_prime(contexts[2], d)


def test_plans_die_with_their_diagram(ctx6):
    """No cache outside the diagram keeps an auto-stabilised diagram, which
    each call makes anew, alive."""
    crit = sfx.s1xs2_decorated_presentation(ctx6, 0.0, [2.0]).diagram
    p = sg.SurgeryPresentation(dg.tensor(crit, fx.unknot(wc.Kirby(0.5, 1, True))))
    q = sg.auto_stabilize(ctx6, p, index=wc.Degree(0.85))
    rt_eval.f_prime(ctx6, q.diagram)
    assert q.diagram._plans
    ref = weakref.ref(q.diagram)
    del q
    gc.collect()
    assert ref() is None


def test_auto_stabilization_shifts_only_the_target(ctx6):
    crit = sfx.s1xs2_decorated_presentation(ctx6, 0.0, [2.0]).diagram
    generic = fx.unknot(wc.Kirby(0.5, 1, True))
    p = sg.SurgeryPresentation(dg.tensor(crit, generic))
    index = wc.Degree(0.85)
    target = p.surgery_colors[sg.check_computable(ctx6, p)[0]]
    q = sg.auto_stabilize(ctx6, p, index=index)
    assert sg.check_computable(ctx6, q) == []
    want = set(p.surgery_colors.values()) - {target} | {replace(target, g=target.g - index.g)}
    assert set(q.surgery_colors.values()) == want
    assert sorted(g.g.real for g in q.meridian_degrees.values()) == [-0.85, 0.5]


def test_kirby_colored_diagram_roundtrips_through_json(ctx):
    om = wc.kirby_color(ctx, wc.Degree(0.5))
    twisted = wc.FormalColorSum(tuple((co * (0.25 - 1.5j), col) for co, col in om.terms))
    d = dg.encircle(strand(wc.Typical(GENERIC)), (0, 1), wc.Kirby(0.5, 0, terms=twisted))
    d = dg.encircle(d, (0, 1), wc.Kirby(-0.25 + 0.1j, 1, surgery=True), framing=-1)
    d = dg.encircle(d, (0, 1), wc.Kirby(0.7, 2))
    back = dg.diagram_from_json(dg.diagram_to_json(d))

    def cells(x):
        return [[(c.kind, c.letters) for c in s] for s in x.slices]

    assert back.source == d.source and cells(back) == cells(d)
    assert back.kirby_colors() == d.kirby_colors()
    assert back.kirby_colors()[0].terms == twisted


def test_formal_json_becomes_kirby_letters(ctx):
    om = wc.kirby_color(ctx, wc.Degree(0.5))
    d = dg.encircle(strand(wc.Typical(GENERIC)), (0, 1), wc.Typical(GENERIC))
    mer = d.ports_and_components()[(1, 0)]
    blob = dg.diagram_to_json(d)
    blob["formal"] = {str(mer): [[[complex(co).real, complex(co).imag], dg.color_to_json(col)]
                                 for co, col in om.terms]}
    back = cli.load_presentation({"diagram": blob, "surgery_components": []}).diagram
    (k,) = back.kirby_colors()
    assert k.terms == om and back.component_colors()[mer] == k
    direct = rt_eval.evaluate_formal(ctx, d.recolor_component(mer, wc.Kirby(0.5)))
    assert np.abs(rt_eval.evaluate_formal(ctx, back) - direct).max() < 1e-12
    # the diagram reader alone gives no uncolored diagram
    with pytest.raises(ValueError, match="formal"):
        dg.diagram_from_json(blob)
    blob["formal"] = {"99": blob["formal"][str(mer)]}
    with pytest.raises(dg.ComponentError):
        cli.load_presentation({"diagram": blob, "surgery_components": []})


def test_a_kirby_color_on_no_cell_keeps_all_its_terms(ctx6):
    # a through-strand: every term is the identity, with its own coefficient
    k = wc.Kirby(0.5)
    d = dg.identity_diagram(wc.ObjectWord([(1, k), (1, wc.Typical(GENERIC))]))
    terms = [(0.25 - 1.5j, col) for _, col in k.color_sum(ctx6).terms]
    d = d.recolor(k, wc.Kirby(0.5, terms=wc.FormalColorSum(tuple(terms))))
    assert rt_eval.evaluate(ctx6, d).shape == (len(terms), 9, 9)
    want = len(terms) * (0.25 - 1.5j) * np.eye(9)
    assert np.abs(rt_eval.evaluate_formal(ctx6, d) - want).max() < 1e-12


def test_validate_refuses_a_kirby_color_on_two_components(ctx):
    k = wc.Kirby(0.5)
    d = dg.tensor(fx.unknot(k), fx.unknot(k))
    assert "components" in dg.validate(ctx, d)
    assert dg.validate(ctx, dg.tensor(fx.unknot(k), fx.unknot(replace(k, tag=1)))) is None


def test_realize_refuses_a_kirby_color(ctx):
    with pytest.raises(ValueError):
        wc.realize_letter(ctx, (1, wc.Kirby(0.5)))
    assert wc.color_dim(ctx, wc.Kirby(0.5)) == ctx.nilpotency
    assert wc.color_degree(wc.Kirby(0.5 + 0.1j, surgery=True)) == wc.Degree(0.5 + 0.1j)
