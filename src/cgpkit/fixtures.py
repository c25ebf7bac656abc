"""Reusable diagram fixtures: unknots, meridians and braid closures,
framed by twist cells (`dg.add_curl`), and the meridian figures that
define the stabilization coefficients and the relative modularity scalar.
"""

from __future__ import annotations

import numpy as np

from . import _linalg as la
from . import diagrams as dg
from . import rt_eval
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar


def strand(color: wc.Color) -> dg.Diagram:
    return dg.Diagram(wc.ObjectWord([(1, color)]), [])


def unknot(color: wc.Color, framing: int = 0) -> dg.Diagram:
    """Closed circle, the closure of the empty braid on one strand; its framing
    is |framing| twist cells, so it is two letters wide at any framing."""
    return braid_closure(color, 1, [], curls=[(0, 1 if framing > 0 else -1)] * abs(framing))


def braid_closure(color: wc.Color, n: int, word: list[int],
                  curls: list[tuple[int, int]] | None = None) -> dg.Diagram:
    """Trace closure of a braid word on n strands of one color.

    word entries are +-k for the positive/negative crossing of strands
    (k-1, k), 1-indexed.  curls is a list of (strand position, +-1) framing
    changes, twist cells inserted after the braid.
    """
    letter = (1, color)
    d = dg.Diagram(wc.ObjectWord(()), [])
    for t in range(n):
        d = dg.apply_cell(d, t, dg.cap(letter, left=True))
    for g in word:
        k = abs(g)
        if not 1 <= k < n:
            raise ValueError(f"braid generator {g} out of range")
        d = dg.apply_cell(d, k - 1, dg.cross(letter, letter, positive=g > 0))
    for pos, s in curls or []:
        d = dg.add_curl(d, pos, positive=s > 0)
    for t in range(n - 1, -1, -1):
        d = dg.apply_cell(d, t, dg.cup(letter, left=False))
    return d


def trefoil(color: wc.Color, framing: int = 0) -> dg.Diagram:
    """Right-handed trefoil; the closure of the cubed positive 2-braid has
    writhe +3, compensated down to the requested framing by twist cells."""
    return braid_closure(color, 2, [1, 1, 1],
                         curls=[(0, -1)] * (3 - framing) if framing <= 3 else
                               [(0, 1)] * (framing - 3))


def figure_eight(color: wc.Color, framing: int = 0) -> dg.Diagram:
    """Figure-eight knot as the closure of (s1 s2^-1)^2, writhe 0."""
    curls = [(0, 1)] * framing if framing >= 0 else [(0, -1)] * (-framing)
    return braid_closure(color, 3, [1, -2, 1, -2], curls=curls)


def hopf_link(c1: wc.Color, c2: wc.Color, framings: tuple[int, int] = (0, 0)) -> dg.Diagram:
    """Positive Hopf link with both components 0-framed by default."""
    d = dg.Diagram(wc.ObjectWord(()), [])
    l1 = (1, c1)
    l2 = (1, c2)
    d = dg.apply_cell(d, 0, dg.cap(l1, left=True))
    for _ in range(abs(framings[0])):
        d = dg.add_curl(d, 0, positive=framings[0] > 0)
    d = dg.apply_cell(d, 1, dg.cap(l2, left=True))
    for _ in range(abs(framings[1])):
        d = dg.add_curl(d, 1, positive=framings[1] > 0)
    d = dg.apply_cell(d, 0, dg.cross(l1, l2))
    d = dg.apply_cell(d, 0, dg.cross(l2, l1))
    d = dg.apply_cell(d, 1, dg.cup(l2, left=False))
    d = dg.apply_cell(d, 0, dg.cup(l1, left=False))
    return d


# ---------------------------------------------------------------------------
# constants extractors
# ---------------------------------------------------------------------------


def stabilization_coefficient(ctx: ScalarContext, probe_alpha: complex,
                              framing: int) -> Scalar:
    """Negative/positive stabilization coefficient from the meridian figure.

    The -1 framed Kirby meridian around a typical strand of degree g
    carries the compatible index +g and evaluates to Delta_- times a +1
    twist of the strand; the +1 framed meridian carries index -g and
    evaluates to Delta_+ times a -1 twist.  Blowing the meridian down
    twists the strand, so the extraction divides the compensating twist
    back out.  The result is independent of the probe.
    """
    if framing not in (-1, 1):
        raise ValueError("stabilization coefficient needs framing +-1")
    probe = wc.Typical(complex(probe_alpha))
    g = wc.color_degree(ctx, probe)
    index = g if framing < 0 else wc.Degree(-g.g)
    d = dg.encircle(strand(probe), (0, 1), wc.Kirby(index.g), framing)
    fig = wc.scalar_of(ctx, rt_eval.evaluate_formal(ctx, d))
    theta = wc.twist(ctx, wc.realize_letter(ctx, (1, probe)))[0, 0]
    return fig / theta if framing < 0 else fig * theta


def relative_modularity_matrix(ctx: ScalarContext, wi: complex, wj: complex,
                               h: wc.Degree) -> np.ndarray:
    """Evaluation of the index-h Kirby meridian around the pair of strands
    colored V_i (upward) and V_j (downward)."""
    word = wc.ObjectWord([(1, wc.Typical(complex(wi))), (-1, wc.Typical(complex(wj)))])
    d = dg.encircle(dg.Diagram(word, []), (0, 2), wc.Kirby(h.g))
    return rt_eval.evaluate_formal(ctx, d)


def relative_modularity_scalar(ctx: ScalarContext, g: wc.Degree) -> Scalar:
    """Extract the modularity parameter from the i = j projector figure.

    The index-g meridian around the V_i / dual-V_i strand pair, V_i of
    degree g, evaluates to the parameter times the through-unit projector,
    normalized by the modified dimension: fig = zeta * (coev_l o ev_r) / d(V_i).
    """
    wi = wc.index_set(ctx, g)[0]
    A = relative_modularity_matrix(ctx, wi, wi, g)
    Vi = wc.realize(ctx, wc.ObjectWord([(1, wc.Typical(wi))]))
    B = wc.ev_coev(ctx, Vi, "coev_l") @ wc.ev_coev(ctx, Vi, "ev_r")
    denom = la.frobenius_inner(B, B)
    fit = la.frobenius_inner(B, A) / denom
    resid = la.norm_inf(A - B * fit)
    if resid > ctx.tol * max(1.0, la.norm_inf(A)) * 10:
        raise la.NumericInstability(
            f"meridian figure is not a multiple of the unit projector "
            f"(residual {resid:.3e})")
    return fit * wc.modified_dimension(ctx, wi)
