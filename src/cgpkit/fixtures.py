"""Reusable diagram fixtures: unknots, Hopf links and knots, all braid
closures framed by twist cells, and the meridian figures that define the
stabilization coefficients and the relative modularity scalar.
"""

from __future__ import annotations

import numpy as np

from . import _linalg as la
from . import diagrams as dg
from . import rt_eval
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar


def strand(color: wc.Color) -> dg.Diagram:
    return dg.Diagram(((1, color),), [])


def unknot(color: wc.Color, framing: int = 0) -> dg.Diagram:
    """Closed circle, the closure of the empty braid on one strand, framed by
    |framing| twist cells: two letters wide at any framing."""
    return braid_closure(color, 1, [], [framing])


def braid_closure(color: wc.Color | list, n: int, word: list[int], twists=()) -> dg.Diagram:
    """Trace closure of a braid word on n strands, colored by one color or
    by n colors, one per strand.  word entries are +-k for the positive or
    negative crossing of strands (k-1, k), 1-indexed.  Strand t takes
    |twists[t]| twist cells of its sign after its cap; twists has at most n
    entries, 0 where missing.  Crossings and cups read their letters off the
    word below them, so a closure that does not match up raises
    BoundaryMismatch.
    """
    colors = color if isinstance(color, (list, tuple)) else [color] * n
    twists = list(twists) + [0] * (n - len(twists))
    st = dg.Stack(dg.Diagram((), []))
    for t, c, f in zip(range(n), colors, twists, strict=True):
        st.cell(t, dg.cap((1, c), left=True))
        for _ in range(abs(f)):
            st.cell(t, dg.Cell("tpos" if f > 0 else "tneg", ((1, c),)))
    for g in word:
        k = abs(g)
        if not 1 <= k < n:
            raise ValueError(f"braid generator {g} out of range")
        st.cell(k - 1, dg.cross(*st.words[-1][k - 1:k + 1], positive=g > 0))
    for t in range(n - 1, -1, -1):
        st.cell(t, dg.cup(st.words[-1][t], left=False))
    return st.diagram(1.0 + 0.0j)


def trefoil(color: wc.Color, framing: int = 0) -> dg.Diagram:
    """Right-handed trefoil; the closure of the cubed positive 2-braid has
    writhe +3, compensated down to the requested framing by twist cells."""
    return braid_closure(color, 2, [1, 1, 1], [framing - 3])


def figure_eight(color: wc.Color, framing: int = 0) -> dg.Diagram:
    """Figure-eight knot as the closure of (s1 s2^-1)^2, writhe 0."""
    return braid_closure(color, 3, [1, -2, 1, -2], [framing])


def hopf_link(c1: wc.Color, c2: wc.Color, framings: tuple[int, int] = (0, 0)) -> dg.Diagram:
    """Positive Hopf link, the closure of s1^2, 0-framed by default."""
    return braid_closure([c1, c2], 2, [1, 1], framings)


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
    g = wc.color_degree(probe)
    index = g if framing < 0 else wc.Degree(-g.g)
    d = dg.encircle(strand(probe), (0, 1), wc.Kirby(index.g), framing)
    fig = wc.scalar_of(ctx, rt_eval.evaluate_formal(ctx, d))
    theta = wc.twist(ctx, wc.realize_letter(ctx, (1, probe)))[0, 0]
    return fig / theta if framing < 0 else fig * theta


def relative_modularity_matrix(ctx: ScalarContext, wi: complex, wj: complex,
                               h: wc.Degree) -> np.ndarray:
    """Evaluation of the index-h Kirby meridian around the pair of strands
    colored V_i (upward) and V_j (downward)."""
    word = ((1, wc.Typical(complex(wi))), (-1, wc.Typical(complex(wj))))
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
    Vi = wc.realize_letter(ctx, (1, wc.Typical(wi)))
    B = wc.ev_coev(ctx, Vi, "coev_l") @ wc.ev_coev(ctx, Vi, "ev_r")
    denom = la.frobenius_inner(B, B)
    fit = la.frobenius_inner(B, A) / denom
    resid = la.norm_inf(A - B * fit)
    if resid > ctx.tol * max(1.0, la.norm_inf(A)) * 10:
        raise la.NumericInstability(
            f"meridian figure is not a multiple of the unit projector "
            f"(residual {resid:.3e})")
    return fit * wc.modified_dimension(ctx, wi)
