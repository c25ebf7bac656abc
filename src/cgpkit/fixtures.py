"""Reusable diagram fixtures: unknots, Hopf links and knots, all braid
closures framed by twist cells, and the meridian figures that define the
stabilization coefficients and the relative modularity scalar, each swept
as one column from the empty word and read by `weightcat.scalar_of`.
"""

from __future__ import annotations

import numpy as np

from . import diagrams as dg
from . import rt_eval
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar


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


def _meridian_scalar(ctx: ScalarContext, source: dg.Cell, span: tuple[int, int],
                     color: wc.Kirby, framing: int = 0) -> Scalar:
    """The scalar of the (m, m) reshape of the column that the `color`
    meridian around letters `span` of V (x) V* sweeps from `source`, a
    cell on the empty word; m = dim V."""
    d = dg.encircle(dg.Diagram((), [[source]]), span, color, framing)
    m = wc.color_dim(ctx, source.out_letters()[0][1])
    return wc.scalar_of(ctx, rt_eval.evaluate_formal(ctx, d).reshape(m, m))


def stabilization_coefficient(ctx: ScalarContext, probe_alpha: complex,
                              framing: int) -> Scalar:
    """Negative/positive stabilization coefficient from the meridian figure.

    The -1 framed Kirby meridian around a typical strand of degree g
    carries the compatible index +g and evaluates to Delta_- times a +1
    twist of the strand; the +1 framed meridian carries index -g and
    evaluates to Delta_+ times a -1 twist.  Blowing the meridian down
    twists the strand, so the extraction divides the compensating twist
    back out.  The result is independent of the probe.  The strand is the
    first letter of a cap coev_l, which carries no pivot, so the figure X
    on it sweeps the column of (X (x) id) coev_l, whose (m, m) reshape is X.
    """
    if framing not in (-1, 1):
        raise ValueError("stabilization coefficient needs framing +-1")
    probe = wc.Typical(complex(probe_alpha))
    g = wc.color_degree(probe)
    index = g if framing < 0 else wc.Degree(-g.g)
    fig = _meridian_scalar(ctx, dg.cap((1, probe), left=True), (0, 1), wc.Kirby(index.g), framing)
    theta = wc.twist(ctx, wc.realize_letter(ctx, (1, probe)))[0, 0]
    return fig / theta if framing < 0 else fig * theta


def relative_modularity_scalar(ctx: ScalarContext, g: wc.Degree) -> Scalar:
    """Extract the modularity parameter from the i = j projector figure.

    The index-g meridian around the V_i / dual-V_i strand pair, V_i of
    degree g, evaluates to the parameter times the through-unit projector,
    normalized by the modified dimension: fig = zeta * (coev_l o ev_r) / d(V_i).
    On a coupon 1 -> V_i (x) V_i* holding e_0 (x) phi_0 it sweeps the column
    (zeta p_0 / d(V_i)) sum_j e_j (x) phi_j, with p_0 the pivot of ev_r on
    e_0, whose (m, m) reshape is scalar times the identity.
    """
    wi = wc.index_set(ctx, g)[0]
    letter = (1, wc.Typical(wi))
    m = wc.color_dim(ctx, letter[1])
    e0 = dg.coupon((), (letter, dg.flip(letter)), np.eye(m * m, 1, dtype=complex))
    p0 = wc.ev_coev(ctx, wc.realize_letter(ctx, letter), "ev_r")[0, 0]
    return _meridian_scalar(ctx, e0, (0, 2), wc.Kirby(g.g)) * wc.modified_dimension(ctx, wi) / p0
