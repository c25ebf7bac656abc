"""Curated surgery presentations: unknots, stabilization pairs, lens
spaces, and handle-slide partners, used by the equivalence suites and the
command-line check runner.  Surgery components are drawn in their surgery
Kirby colors, tagged 0, 1, ... in the order of their component ids.
"""

from __future__ import annotations

from dataclasses import replace

from . import diagrams as dg
from . import fixtures as fx
from . import weightcat as wc
from .qscalars import ScalarContext
from .surgery import SurgeryPresentation


def _surgery(g, tag: int = 0) -> wc.Kirby:
    return wc.Kirby(g.g if isinstance(g, wc.Degree) else complex(g), tag, True)


def unknot_presentation(ctx: ScalarContext, alpha: complex,
                        framing: int = 0) -> SurgeryPresentation:
    """Empty surgery: the three-sphere with one framed typical unknot."""
    d = fx.unknot(wc.Typical(complex(alpha)), framing=framing)
    return SurgeryPresentation(d)


def surgery_meridian_presentation(ctx: ScalarContext, alpha: complex,
                                  mer_framing: int) -> SurgeryPresentation:
    """A +-1 framed surgery meridian around a 0-framed typical unknot.

    Blowing the meridian down gives the three-sphere with the unknot
    reframed by the opposite sign.  The compatible meridian degree is
    minus the strand degree over the framing.
    """
    if mer_framing not in (-1, 1):
        raise ValueError("meridian framing must be +-1")
    alpha = complex(alpha)
    base = fx.unknot(wc.Typical(alpha))
    return SurgeryPresentation(dg.encircle_at(base, 1, (0, 1), _surgery(-mer_framing * alpha),
                                              framing=mer_framing))


def split_surgery_unknot_presentation(ctx: ScalarContext, alpha: complex,
                                      framing: int) -> SurgeryPresentation:
    """A framed surgery unknot split from a typical graph unknot.

    Built interleaved (shared slice boundaries) so the stacked-layout
    requirement of automatic stabilization is met; the meridian degree of
    the split component is 0, which is critical.
    """
    lg = (1, wc.Typical(complex(alpha)))
    st = dg.Stack(dg.Diagram((), []))
    st.cell(0, dg.cap(lg, left=True))
    st.between(fx.unknot(_surgery(0j), framing).slices, 2, 0)
    st.cell(0, dg.cup(lg, left=False))
    return SurgeryPresentation(st.diagram(1.0 + 0.0j))


def s1xs2_presentation(ctx: ScalarContext, g) -> SurgeryPresentation:
    """Zero-framed unknot surgery with generic meridian degree, no graph."""
    return SurgeryPresentation(fx.unknot(_surgery(g)))


def s1xs2_decorated_presentation(ctx: ScalarContext, g,
                                 weights: list[complex]) -> SurgeryPresentation:
    """Zero-framed unknot surgery with typical meridian graph circles.

    The graph meridian degrees must sum to zero in C/2Z for the ambient
    class to extend; a single weight needs a critical-degree typical, two
    weights can be generic with opposite classes.
    """
    d = fx.unknot(_surgery(g))
    for wgt in weights:
        d = dg.encircle_at(d, 1, (0, 1), wc.Typical(complex(wgt)), framing=0)
    return SurgeryPresentation(d)


def _critical_typical(ctx: ScalarContext) -> complex:
    """The minimal integer typical weight; its degree class is critical."""
    return complex(ctx.nilpotency - 1)


def index2_pair(ctx: ScalarContext, g) -> tuple:
    """Attach/belt pair for the index-2 surgery axiom.

    Both sides share one diagram: a critical-degree typical unknot with a
    meridian circle of the same weight, and a 0-framed index-g Kirby
    circle around the pair of strands (whose degree flux cancels).  On the
    attach side the Kirby circle is a graph component colored Omega_g; on
    the belt side it is a surgery component of meridian degree g.  The
    invariants differ by exactly 1/D.
    """
    alpha = _critical_typical(ctx)
    belt = _surgery(g)
    attach = replace(belt, surgery=False)
    base = fx.unknot(wc.Typical(alpha))
    d = dg.encircle_at(base, 1, (0, 1), wc.Typical(alpha), framing=0)
    # inner boundary of the meridian block reads (-T)(+U)(+T)(-U); the
    # span (+U)(+T) has flux 2(m-1), zero in C/2Z
    d = dg.encircle_at(d, 3, (1, 3), attach, framing=0)
    return SurgeryPresentation(d), SurgeryPresentation(d.recolor(attach, belt))


def lens_unknot_presentation(ctx: ScalarContext, p: int, k: int) -> SurgeryPresentation:
    """L(p, 1)-type lens space: p-framed unknot with a critical-degree
    typical meridian circle; ambient class indexed by k.

    The extension constraint reads p*g + (m-1) = 0 in C/2Z, so the
    admissible classes are g = (m - 1 + 2k)/p.
    """
    alpha = _critical_typical(ctx)
    base = fx.unknot(_surgery((alpha.real + 2 * k) / p), framing=p)
    return SurgeryPresentation(dg.encircle_at(base, 1, (0, 1), wc.Typical(alpha), framing=0))


def lens_chain_presentation(ctx: ScalarContext, f1: int, f2: int,
                            k: int) -> SurgeryPresentation:
    """Two-component Hopf chain with framings (f1, f2), decorated with a
    critical-degree typical meridian on the first component.

    Extension constraints: f1 g1 + g2 + (m-1) = 0 and g1 + f2 g2 = 0 in
    C/2Z, solved by g2 = (m - 1 + 2k)/det, g1 = -f2 g2 with
    det = f1 f2 - 1.
    """
    alpha = _critical_typical(ctx)
    det = f1 * f2 - 1
    g2 = (alpha.real + 2 * k) / det
    g1 = -f2 * g2
    d = fx.hopf_link(_surgery(g1, 0), _surgery(g2, 1), framings=(f1, f2))
    # the first component's cap sits at slice 0; its (+) letter is at (1, 0)
    return SurgeryPresentation(dg.encircle_at(d, 1, (0, 1), wc.Typical(alpha), framing=0))


def slid_lens_presentation(ctx: ScalarContext, p: int, k: int) -> SurgeryPresentation:
    """Handle-slide partner of the p-framed unknot presentation: the first
    component slid over a +1-framed stabilization circle, giving Hopf-linked
    framings (p+1, 1) with the meridian decoration carried along.

    The extension constraints force g2 = -g1 and p g1 + (m-1) = 0, the
    same admissible classes as the one-component presentation.
    """
    alpha = _critical_typical(ctx)
    g1 = (alpha.real + 2 * k) / p
    d = fx.hopf_link(_surgery(g1, 0), _surgery(-g1, 1), framings=(p + 1, 1))
    return SurgeryPresentation(dg.encircle_at(d, 1, (0, 1), wc.Typical(alpha), framing=0))
