"""Dimensions of the graded TQFT state spaces of generic decorated surfaces.

The spaces are those of the universal construction (Blanchet-Habegger-
Masbaum-Vogel): cobordisms into the surface modulo the radical of the CGP
pairing.  The genus-1 dimension is the size of the meridian class's
index set; genus n > 1 sums over fundamental colorings of a trivalent
spine the products of vertex dimensions, each the total periodicity-
graded Hom from the unit to the vertex's colors: a fusion multiplicity
counted from highest weights, as generic tensor products of typicals are
semisimple.  The index sets are complete residue systems mod rbar, so
each piece of the spine is summed over one edge's colors alone.  Neither
count solves for intertwiners; the tests check both against the solver,
and genus 1 against the rank of the CGP pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import weightcat as wc
from .qscalars import ScalarContext


@dataclass(frozen=True)
class TrivalentSurfaceData:
    """Meridian degree data of a generic surface of genus n >= 2.

    The spine is a chain of n-1 theta-shaped pieces: edges e_i carry one
    common meridian class m0, and each piece has a parallel pair e'_i,
    e''_i with m''_i = m0 - m'_i.
    """

    genus: int
    m0: wc.Degree
    mprime: tuple[wc.Degree, ...]

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("trivalent data needs genus >= 2")
        if len(self.mprime) != self.genus - 1:
            raise ValueError("need one primed class per piece")

    def msecond(self, i: int) -> wc.Degree:
        return wc.Degree(self.m0.g - self.mprime[i].g)

    def all_generic(self, tol: float) -> bool:
        degs = [self.m0, *self.mprime,
                *(self.msecond(i) for i in range(self.genus - 1))]
        return all(not d.is_critical(tol) for d in degs)


def sphere_hom_dim(ctx: ScalarContext, wi: complex, wj: complex,
                   k: int, kp: int) -> int:
    """dim Hom(V_i (x) sigma(k) (x) V_j^*, sigma(k')); the two-sphere
    state-space dimension, equal to delta_ij delta_kk' on index-set
    representatives."""
    src = ((1, wc.Typical(complex(wi))), (1, wc.Sigma(k)), (-1, wc.Typical(complex(wj))))
    dst = ((1, wc.Sigma(kp)),)
    return len(wc.hom_basis(ctx, src, dst))


def genus1_dim(ctx: ScalarContext, g: wc.Degree) -> int:
    """State-space dimension of a generic genus-1 surface: the size of the
    index set of its meridian class, one solid-torus vector per
    representative color of the core."""
    if g.is_critical(ctx.tol):
        raise wc.CriticalDegree(f"genus-1 class {g.g} is critical")
    return len(wc.index_set(ctx, g))


def _vertex_words(ctx: ScalarContext, e: complex, ep: complex, epp: complex):
    """The two vertex words of one theta piece, e -> e' + e''."""
    wa = ((1, wc.Typical(e)), (-1, wc.Typical(ep)), (-1, wc.Typical(epp)))
    wb = ((-1, wc.Typical(e)), (1, wc.Typical(ep)), (1, wc.Typical(epp)))
    return wa, wb


def graded_vertex_dim(ctx: ScalarContext, word: wc.ObjectWord,
                      brute: bool = False) -> int:
    """Total periodicity-graded invariant dimension of a vertex word a b c.

    Default route, for three typical letters with b (x) c generic: with x
    the highest weight of a letter's module, b (x) c is the sum over j < r/2
    of V_{x_b + x_c - 2j}, and a summand meets a in one graded invariant
    iff it is a sigma shift of a's dual, so this counts the j with
    (x_b + x_c - 2j) - x_a* in rbar*Z.  Brute route, for any word: count
    joint null vectors of the raising and lowering actions with weight in
    rbar*Z, directly on the full tensor word.
    """
    if brute:
        return wc.hom_dim_graded(ctx, word)
    if len(word) != 3 or not all(isinstance(c, wc.Typical) and wc.is_typical_weight(ctx, c.alpha)
                                 for _, c in word):
        raise ValueError(f"a vertex word has three typical letters, not {word}")
    xa, xb, xc = (complex(c.alpha if s > 0 else wc.dual_color(ctx, c).alpha) for s, c in word)
    if wc.Degree(xb + xc).is_critical(ctx.tol):
        raise wc.CriticalDegree(f"vertex pair of critical degree {xb + xc}")
    total = 0
    for j in range(ctx.nilpotency):
        d = xb + xc - 2 * j - (2 * (ctx.nilpotency - 1) - xa)
        r = round(d.real / ctx.rbar)
        if abs(d.imag) <= ctx.tol and abs(d.real - r * ctx.rbar) <= 100 * ctx.tol:
            total += 1
    return total


def genus_n_dim(ctx: ScalarContext, data: TrivalentSurfaceData,
                brute: bool = False, rep_shift: int = 0) -> int:
    """State-space dimension of a generic surface of genus n >= 2.

    Sums over fundamental colorings (index-set representatives per edge
    class, optionally shifted by rep_shift periods) the products of the two
    vertex dimensions of every theta piece.  Each piece sees only its own
    edges, so the sum factorises into prod_i sum_{e, e', e''} of piece i's
    terms, linear in the genus.  Both vertex counts see u = e' + e'' - e
    mod rbar alone, and u meets every residue of its class once as e runs
    over its index set, so piece i's sum is |I'_i| |I''_i| times its sum
    over e at the first e', e'': rbar/2 pairs of r/2-term fusion counts,
    O(r^2) a piece.  brute=True enumerates every coloring and recounts each
    vertex dimension by `wc.hom_dim_graded` on the full tensor word.
    """
    if not data.all_generic(ctx.tol):
        raise wc.CriticalDegree("all spine meridian classes must be generic")
    shift = rep_shift * ctx.rbar
    reps0 = [a + shift for a in wc.index_set(ctx, data.m0)]
    total = 1
    for i in range(data.genus - 1):
        repsp = [a + shift for a in wc.index_set(ctx, data.mprime[i])]
        repspp = [a + shift for a in wc.index_set(ctx, data.msecond(i))]
        ways = 1
        if not brute:  # every (e', e'') has the same sum over e
            ways, repsp, repspp = len(repsp) * len(repspp), repsp[:1], repspp[:1]
        sub = 0
        for e, ep, epp in product(reps0, repsp, repspp):
            wa, wb = _vertex_words(ctx, e, ep, epp)
            da = graded_vertex_dim(ctx, wa, brute=brute)
            if da:
                sub += da * graded_vertex_dim(ctx, wb, brute=brute)
        total *= ways * sub
        if total == 0:
            break
    return total
