"""Every refusal here is raised by a guard that the rest of the suite never
reaches; each case names the exception type and the message it expects,
so removing the guard fails the case."""

import re

import numpy as np
import pytest

from cgpkit import diagrams as dg
from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import state_spaces as ss
from cgpkit import surgery as sg
from cgpkit import surgery_fixtures as sfx
from cgpkit import weightcat as wc
from conftest import exchange_distant

GENERIC = 0.37 + 0.2j
A, B = wc.Typical(GENERIC), wc.Typical(0.59 - 0.11j)
LINE = dg.identity_diagram(wc.ObjectWord([(1, A), (-1, B)]))


def _coupon_loop(ctx):
    w = wc.ObjectWord([(1, A)])
    return dg.Diagram(w, [[dg.coupon(w, w, np.eye(ctx.nilpotency))]])


def _coupon_cap(ctx):
    """A coupon with output legs only."""
    w = wc.ObjectWord([(1, A), (-1, A)])
    return dg.Diagram(wc.ObjectWord([]), [[dg.coupon(wc.ObjectWord([]), w,
                                                     np.zeros((ctx.nilpotency ** 2, 1)))]])


REFUSALS = {
    "recolor_component on a coupon": (
        lambda ctx: _coupon_loop(ctx).recolor_component(0, B),
        ValueError, "cannot recolor a component attached to coupons"),
    "recolor_component on an output-only coupon": (
        lambda ctx: _coupon_cap(ctx).recolor_component(0, B),
        ValueError, "cannot recolor a component attached to coupons"),
    "exchange_distant out of range": (
        lambda ctx: exchange_distant(fx.unknot(A), 1),
        ValueError, "slice index out of range"),
    # slices -1 and 0 are the last and the first: no adjacent pair
    "exchange_distant at a negative index": (
        lambda ctx: exchange_distant(dg.tensor(fx.unknot(A), fx.unknot(B)), -1),
        ValueError, "slice index out of range"),
    "exchange_distant of identities": (
        lambda ctx: exchange_distant(dg.compose(LINE, LINE), 0),
        ValueError, "nothing to exchange"),
    "wrap_slice misfit": (
        lambda ctx: dg.wrap_slice(LINE.source, 1, dg.cup((1, B), left=True)),
        dg.BoundaryMismatch, "cell cup_l does not fit word at 1"),
    "encircle bad span": (
        lambda ctx: dg.encircle(LINE, (1, 3), B),
        ValueError, "span out of range"),
    "trace_closure of two letters": (
        lambda ctx: dg.trace_closure(LINE),
        ValueError, "trace closure needs an endomorphism of one letter"),
    "cut of an open diagram": (
        lambda ctx: dg.cut(ctx, LINE, 1, 0),
        ValueError, "cut needs a closed diagram"),
    "cut at the bottom boundary": (
        lambda ctx: dg.cut(ctx, fx.unknot(A), 0, 0),
        ValueError, "boundary index out of range"),
    "cut at the top boundary": (
        lambda ctx: dg.cut(ctx, fx.unknot(A), 3, 0),
        ValueError, "boundary index out of range"),
    # the Hopf link's boundary words have 0, 2, 4, 4, 4, 2 and 0 letters
    "cut past the last letter": (
        lambda ctx: dg.cut(ctx, fx.hopf_link(A, B), 2, 5),
        ValueError, "letter position out of range"),
    "cut at the empty top word": (
        lambda ctx: dg.cut(ctx, fx.hopf_link(A, B), 6, 0),
        ValueError, "letter position out of range"),
    "cut at a negative letter": (
        lambda ctx: dg.cut(ctx, fx.hopf_link(A, B), 2, -1),
        ValueError, "letter position out of range"),
    "f_prime at the empty bottom word": (
        lambda ctx: rt_eval.f_prime(ctx, fx.hopf_link(A, B), (0, 0)),
        ValueError, "boundary index out of range"),
    "f_prime past the last letter": (
        lambda ctx: rt_eval.f_prime(ctx, fx.hopf_link(A, B), (1, 5)),
        ValueError, "letter position out of range"),
    "f_prime past the top boundary": (
        lambda ctx: rt_eval.f_prime(ctx, fx.hopf_link(A, B), (99, 0)),
        ValueError, "boundary index out of range"),
    "f_prime at a negative letter": (
        lambda ctx: rt_eval.f_prime(ctx, fx.hopf_link(A, B), (1, -1)),
        ValueError, "letter position out of range"),
    "f_prime at a negative boundary": (
        lambda ctx: rt_eval.f_prime(ctx, fx.hopf_link(A, B), (-1, 0)),
        ValueError, "boundary index out of range"),
    "f_prime at a sigma edge": (
        lambda ctx: rt_eval.f_prime(ctx, fx.hopf_link(A, wc.Sigma(ctx.rbar)), (2, 1)),
        wc.NotProjective, "f_prime edge must be typical, got sigma({rbar})"),
    "stabilize_projective at a negative letter": (
        lambda ctx: dg.stabilize_projective(ctx, fx.hopf_link(A, B), 2, -1, GENERIC),
        ValueError, "letter position out of range"),
    "stabilize_projective past the last letter": (
        lambda ctx: dg.stabilize_projective(ctx, fx.hopf_link(A, B), 2, 9, GENERIC),
        ValueError, "letter position out of range"),
    "stabilize_projective at a negative boundary": (
        lambda ctx: dg.stabilize_projective(ctx, fx.hopf_link(A, B), -1, 0, GENERIC),
        ValueError, "boundary index out of range"),
    "stabilize_projective on a sigma edge": (
        lambda ctx: dg.stabilize_projective(ctx, fx.unknot(wc.Sigma(0)), 1, 0, GENERIC),
        wc.NotProjective, "projective stabilization needs a typical edge"),
    "stabilize_generic at a critical index": (
        lambda ctx: dg.stabilize_generic(ctx, fx.unknot(A), 1, (0, 1), wc.Degree(1.0)),
        wc.CriticalDegree, "stabilization index 1.0 is critical"),
    "color_from_json unknown": (
        lambda ctx: dg.color_from_json(["rainbow"]),
        ValueError, "bad color: ['rainbow']"),
    "braid_closure bad generator": (
        lambda ctx: fx.braid_closure(A, 2, [1, -2]),
        ValueError, "braid generator -2 out of range"),
    "stabilization_coefficient framing 0": (
        lambda ctx: fx.stabilization_coefficient(ctx, GENERIC, 0),
        ValueError, "stabilization coefficient needs framing +-1"),
    "stabilization_coefficient framing 2": (
        lambda ctx: fx.stabilization_coefficient(ctx, GENERIC, 2),
        ValueError, "stabilization coefficient needs framing +-1"),
    "surgery_meridian_presentation framing 0": (
        lambda ctx: sfx.surgery_meridian_presentation(ctx, GENERIC, 0),
        ValueError, "meridian framing must be +-1"),
    "surgery_meridian_presentation framing 2": (
        lambda ctx: sfx.surgery_meridian_presentation(ctx, GENERIC, 2),
        ValueError, "meridian framing must be +-1"),
    "TrivalentSurfaceData genus 1": (
        lambda ctx: ss.TrivalentSurfaceData(1, wc.Degree(0.5), ()),
        ValueError, "trivalent data needs genus >= 2"),
    "TrivalentSurfaceData class count": (
        lambda ctx: ss.TrivalentSurfaceData(3, wc.Degree(0.5), (wc.Degree(0.3),)),
        ValueError, "need one primed class per piece"),
    "validate_presentation of an open diagram": (
        lambda ctx: sg.validate_presentation(ctx, sg.SurgeryPresentation(LINE)),
        ValueError, "surgery presentations need a closed diagram"),
    "check_color sigma off rbar Z": (
        lambda ctx: wc.check_color(ctx, wc.Sigma(ctx.rbar + 1)),
        ValueError, "sigma index {k} not a multiple of rbar={rbar}"),
    "sigma_module off rbar Z": (
        lambda ctx: wc.sigma_module(ctx, ctx.rbar + 1),
        ValueError, "sigma index {k} not a multiple of rbar={rbar}"),
    "check_color of a non-color": (
        lambda ctx: wc.check_color(ctx, "red"),
        TypeError, "not a color: 'red'"),
    "ev_coev unknown flavor": (
        lambda ctx: wc.ev_coev(ctx, wc.typical_module(ctx, GENERIC), "ev_x"),
        ValueError, "unknown flavor 'ev_x'"),
    "modified_trace shape mismatch": (
        lambda ctx: wc.modified_trace(ctx, wc.ObjectWord([(1, A)]), np.eye(ctx.nilpotency + 1)),
        ValueError, "endomorphism shape ({n}, {n}) does not match word dim {m}"),
    "empty FormalColorSum": (
        lambda ctx: wc.FormalColorSum(()),
        ValueError, "formal color sum must be nonempty"),
    # int() and bool() would read these as sigma(0), sigma(3), sigma(1),
    # tag 1 and a surgery color, and any sign but "+" as -1
    "color_from_json fractional sigma": (
        lambda ctx: dg.color_from_json({"sigma": 0.5}),
        ValueError, "not an integer: 0.5"),
    "color_from_json string sigma": (
        lambda ctx: dg.color_from_json({"sigma": "3"}),
        ValueError, "not an integer: '3'"),
    "color_from_json boolean sigma": (
        lambda ctx: dg.color_from_json({"sigma": True}),
        ValueError, "not an integer: True"),
    "color_from_json fractional Kirby tag": (
        lambda ctx: dg.color_from_json({"kirby": {"g": [0.5, 0], "tag": 1.7, "surgery": False}}),
        ValueError, "not an integer: 1.7"),
    "color_from_json string surgery flag": (
        lambda ctx: dg.color_from_json({"kirby": {"g": [0.5, 0], "tag": 0, "surgery": "false"}}),
        ValueError, "surgery is not a boolean: 'false'"),
    "letter_from_json sign x": (
        lambda ctx: dg.letter_from_json(["x", {"sigma": 0}]),
        ValueError, "letter sign is not '+' or '-': 'x'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(ctx, case):
    call, kind, message = REFUSALS[case]
    message = message.format(k=ctx.rbar + 1, rbar=ctx.rbar, m=ctx.nilpotency,
                             n=ctx.nilpotency + 1)
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as err:
        call(ctx)
    assert type(err.value) is kind
