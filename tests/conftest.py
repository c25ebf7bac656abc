import os

# one BLAS thread: the suite's many small SVDs run slower, and erratically,
# under threaded BLAS; set before cgpkit imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from cgpkit import _linalg as la
from cgpkit import diagrams as dg
from cgpkit import rt_eval
from cgpkit import surgery as sg
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext


@pytest.fixture(scope="session")
def ctx4():
    return ScalarContext(4)


@pytest.fixture(scope="session")
def ctx6():
    return ScalarContext(6)


@pytest.fixture(scope="session", params=[4, 6])
def ctx(request):
    return ScalarContext(request.param)


def strand(color):
    """One upward letter of `color` and no slices: an open diagram whose
    evaluation sweeps every column of its source."""
    return dg.Diagram(((1, color),), [])


def marked(d, degrees):
    """The surgery presentation of `d` whose components named by id in
    `degrees` carry the surgery Kirby colors of their meridian degrees,
    tagged from `dg.fresh_tag` in id order, as the JSON loader colors them."""
    tag = dg.fresh_tag(d)
    return sg.SurgeryPresentation(dg.mark_components(d, {
        c: wc.Kirby(g.g, tag + t, True) for t, (c, g) in enumerate(sorted(degrees.items()))}))


def relative_modularity_matrix(ctx, wi, wj, h):
    """Evaluation of the index-h Kirby meridian around the pair of strands
    colored V_i (upward) and V_j (downward), swept from all m^2 columns of
    its source."""
    word = ((1, wc.Typical(complex(wi))), (-1, wc.Typical(complex(wj))))
    d = dg.encircle(dg.Diagram(word, []), (0, 2), wc.Kirby(h.g))
    return rt_eval.evaluate_formal(ctx, d)


def whole_matrix_zeta(ctx, g):
    """The modularity parameter fitted to the whole i = j figure, A =
    zeta (coev_l o ev_r) / d(V_i), by the Frobenius inner product, with V_i
    the first of the index set of g; the residual of the fit must be at
    most 10 tol max(1, |A|)."""
    wi = wc.index_set(ctx, g)[0]
    A = relative_modularity_matrix(ctx, wi, wi, g)
    Vi = wc.realize_letter(ctx, (1, wc.Typical(wi)))
    B = wc.ev_coev(ctx, Vi, "coev_l") @ wc.ev_coev(ctx, Vi, "ev_r")
    fit = (np.conjugate(B).reshape(-1) * A.reshape(-1)).sum() / (
        np.conjugate(B).reshape(-1) * B.reshape(-1)).sum()
    assert la.norm_inf(A - B * fit) <= ctx.tol * max(1.0, la.norm_inf(A)) * 10
    return fit * wc.modified_dimension(ctx, wi)


def drawn_kinks(d):
    """The diagram with each twist cell drawn as the curl it stands for: a
    cap_l, a self-crossing of the twist's sign and a cup_r.  An oracle that
    builds on no twist-cell code."""
    st = dg.Stack(dg.Diagram(d.source, []))
    for row in d.slices:
        st.add([dg.id_cell(c.letters[0]) if c.kind in ("tpos", "tneg") else c for c in row])
        pos = 0
        for c in row:
            if c.kind in ("tpos", "tneg"):
                letter = c.letters[0]
                st.cell(pos + 1, dg.cap(letter, left=True))
                st.cell(pos, dg.cross(letter, letter, positive=c.kind == "tpos"))
                st.cell(pos + 1, dg.cup(letter, left=False))
            pos += len(c.out_letters())
    return st.diagram(d.prefactor)


def exchange_distant(d, i):
    """Swap slices i and i+1 when their nontrivial cells act on disjoint
    letter ranges (a slice-level isotopy rewrite, normalized slices only)."""
    if not 0 <= i < len(d.slices) - 1:
        raise ValueError("slice index out of range")
    lo, hi = dg.normalized_cell(d.slices[i]), dg.normalized_cell(d.slices[i + 1])
    if lo is None or hi is None:
        raise ValueError("nothing to exchange")
    (p_lo, c_lo), (p_hi, c_hi) = lo, hi
    n_lo, m_lo = len(c_lo.in_letters()), len(c_lo.out_letters())
    n_hi, m_hi = len(c_hi.in_letters()), len(c_hi.out_letters())
    w0 = d.boundary_words()[i]
    if p_hi >= p_lo + m_lo:
        # upper cell sits right of the lower one: pull it down first
        first, p_second = dg.wrap_slice(w0, p_hi - m_lo + n_lo, c_hi), p_lo
    elif p_hi + n_hi <= p_lo:
        first, p_second = dg.wrap_slice(w0, p_hi, c_hi), p_lo + m_hi - n_hi
    else:
        raise ValueError("slices are not distant")
    w1 = dg.ObjectWord([letter for cell in first for letter in cell.out_letters()])
    second = dg.wrap_slice(w1, p_second, c_lo)
    return dg.Diagram(d.source, d.slices[:i] + (first, second) + d.slices[i + 2:],
                      d.prefactor)


def component_letters(d):
    """The letters at every port of each component, read off the port map
    and the boundary words."""
    words = d.boundary_words()
    letters = {}
    for (b, i), c in d.ports_and_components().items():
        letters.setdefault(c, set()).add(words[b][i])
    return letters


def assert_one_color_per_strand(d):
    """Each coupon-free component's letters, at every one of its ports,
    carry exactly one color, the one `component_colors` reports for it."""
    coupons, colors = d.components_with_coupons(), d.component_colors()
    for c, letters in component_letters(d).items():
        if c not in coupons:
            assert {col for _, col in letters} == {colors[c]}, c


def typical_edges(d):
    """The first letter colored by a typical module or by a Kirby color at
    each boundary above the source that has one, lowest boundary first:
    one edge per boundary that `rt_eval.f_prime` can open at."""
    return [(b, next(i for i, (_, c) in enumerate(word) if isinstance(c, (wc.Typical, wc.Kirby))))
            for b, word in enumerate(d.boundary_words())
            if b and any(isinstance(c, (wc.Typical, wc.Kirby)) for _, c in word)]


def assert_within_rounding(ctx, got, want, size):
    """|got - want| <= 10^3 u `size`, with u the unit roundoff of the
    context's precision and `size` the sum of the absolute values of the
    terms that make up `want`.  Opening a closed diagram sums in another
    order than cutting it: the worst difference measured is 805 u `size`,
    the 3-strand closure of `test_every_boundary_opens_to_the_cut_value`
    opened at boundary 8 at r = 10 (975 u off its 106-bit value, where
    the cut is 170 u off).  A bound relative to |want| cannot hold, since some values
    are zero within rounding (|F'| about 1e-14 to 1e-11)."""
    assert abs(got - want) <= 1e3 * 2.0 ** -ctx.precision * size, (got, want, size)


def laurent_coefficients(ctx, f, alpha0: float, n: int) -> dict:
    """The coefficients c_p of f as a Laurent polynomial in x = q^alpha,
    f(alpha) = sum over p of c_p x^p, for -n/2 < p <= n/2: the DFT of the n
    samples f(alpha0 + r k / n), which is exact when f's span in p is below
    n.  alpha0 is real, so |x| = 1 and the DFT is unitary."""
    samples = [complex(f(alpha0 + ctx.r * k / n)) for k in range(n)]
    spectrum = np.fft.fft(samples) / n  # c_p x0^p at p mod n
    x0 = complex(ctx.q_power(alpha0))
    return {p: spectrum[p % n] / x0 ** p for p in range(1 - n // 2, n // 2 + 1)}
