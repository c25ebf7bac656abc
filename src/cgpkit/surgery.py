"""Decorated surgery presentations and the CGP invariant.

A presentation is a closed diagram and an integer signature defect.  Its
surgery components are the components colored by a surgery Kirby color,
which carries the degree that the ambient cohomology class takes on the
component's meridian.  The invariant expands the Kirby colors linearly,
evaluates the renormalized invariant, and multiplies the normalization
eta D^{-ell} delta^{n - sigma(L)}.  Component ids name surgery
components only in what the properties report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import diagrams as dg
from . import rt_eval
from . import weightcat as wc
from .qscalars import NumericInstability, ScalarContext, Scalar
from .rt_eval import NotAdmissible


class NotComputable(ValueError):
    """Some surgery meridian degree is critical."""


class CannotStabilize(ValueError):
    """Automatic stabilization does not apply to this presentation."""


class SurgeryPresentation:
    """A closed diagram whose surgery components carry surgery Kirby colors.

    Component ids appear only in what the properties report.  `_stabilized`
    keeps `cgp(auto=True)`'s validated stabilization of a critical
    presentation per `ScalarContext` (r, precision, tol), so it lives
    exactly as long as the presentation does.
    """

    def __init__(self, diagram: dg.Diagram, signature_defect: int = 0):
        self.diagram = diagram
        self.signature_defect = signature_defect
        self._stabilized: dict[ScalarContext, SurgeryPresentation] = {}

    @cached_property
    def surgery_colors(self) -> dict[int, wc.Kirby]:
        """The surgery Kirby color of each surgery component, by id."""
        return {c: k for c, k in sorted(self.diagram.component_colors().items())
                if isinstance(k, wc.Kirby) and k.surgery}

    @property
    def surgery_components(self) -> frozenset[int]:
        return frozenset(self.surgery_colors)

    @property
    def meridian_degrees(self) -> dict[int, wc.Degree]:
        return {c: wc.Degree(k.g) for c, k in self.surgery_colors.items()}

    @cached_property
    def crossing_signs(self) -> dict[tuple[wc.Color, wc.Color], int]:
        """Summed crossing signs by ordered color pair, each crossing
        counted at both ends: twice the linking number of two colors, or
        twice the writhe of one color, twist cells included."""
        table = {}
        for _, _, s, ca, cb in self.diagram.crossing_records():
            for pair in ((ca, cb), (cb, ca)):
                table[pair] = table.get(pair, 0) + s
        return table

    @cached_property
    def linking(self) -> LinkingData:
        """Linking matrix of the surgery components and its exact signature:
        half the surgery block of `crossing_signs`, rows following the
        component ids (each surgery color sits on one component of a valid
        presentation), the writhes on the diagonal."""
        ks = list(self.surgery_colors.values())
        mat = np.array([[self.crossing_signs.get((a, b), 0) for b in ks] for a in ks],
                       dtype=np.int64).reshape(len(ks), len(ks))
        if (mat % 2).any():
            raise ValueError("odd crossing count between distinct components")
        mat //= 2
        return LinkingData(mat, _signature(mat))


@dataclass(frozen=True)
class LinkingData:
    matrix: np.ndarray  # integer linking matrix over ordered surgery comps
    signature: int


def validate_presentation(ctx: ScalarContext, p: SurgeryPresentation) -> None:
    msg = dg.validate(ctx, p.diagram)
    if msg is not None:
        raise ValueError(f"invalid diagram: {msg}")
    if not p.diagram.is_closed():
        raise ValueError("surgery presentations need a closed diagram")
    _check_cohomology(ctx, p)


def linking_data(ctx: ScalarContext, p: SurgeryPresentation) -> LinkingData:
    """Linking matrix of the surgery components and its exact signature."""
    return p.linking


def _signature(mat: np.ndarray) -> int:
    """Exact signature of an integer symmetric matrix.

    Symmetric elimination over the rationals (Sylvester's law of inertia):
    a nonzero diagonal pivot adds its sign and leaves its Schur complement.
    When the diagonal is zero but a_ij is not, adding row and column j to
    row and column i is a congruence that makes the pivot 2 a_ij.
    """
    a = np.array([[Fraction(int(x)) for x in row] for row in mat], dtype=object).reshape(mat.shape)
    sig = 0
    while (nz := np.argwhere(a != 0)).size:
        diag = nz[nz[:, 0] == nz[:, 1]]
        p, j = diag[0] if diag.size else nz[0]
        if p != j:
            a[p] += a[j]
            a[:, p] += a[:, j]
        sig += 1 if a[p, p] > 0 else -1
        rest = np.arange(len(a)) != p
        a = a[rest][:, rest] - np.outer(a[rest, p], a[p, rest]) / a[p, p]
    return sig


def check_computable(ctx: ScalarContext, p: SurgeryPresentation) -> list[int]:
    """Empty list when computable, else the offending component ids."""
    return [c for c, g in sorted(p.meridian_degrees.items())
            if g.is_critical(ctx.tol)]


def check_admissible(ctx: ScalarContext, p: SurgeryPresentation) -> bool:
    """Some edge is typical: a typical graph letter, a Kirby-colored graph
    component, or a surgery component of generic meridian degree."""
    return any(isinstance(c, wc.Typical) or (isinstance(c, wc.Kirby) and not (
                   c.surgery and wc.Degree(c.g).is_critical(ctx.tol)))
               for w in p.diagram.boundary_words() for _, c in w)


def _check_cohomology(ctx: ScalarContext, p: SurgeryPresentation) -> None:
    """Each surgery longitude must evaluate to zero in C/2Z.

    The longitude class is half the component's row of `crossing_signs`
    summed against the color degrees (a Kirby color's is its index, a
    surgery component's its meridian degree); the crossing sign includes
    the strand orientation, so the unsigned degree enters.
    """
    for i, k in p.surgery_colors.items():
        total = sum((s * wc.color_degree(b).g
                     for (a, b), s in p.crossing_signs.items() if a == k), 0j) / 2
        if not wc.Degree(total).equals(wc.Degree(0j), 100 * ctx.tol):
            raise ValueError(
                f"cohomology constraint fails on surgery component {i}: "
                f"longitude evaluates to {total}")


def cgp(ctx: ScalarContext, p: SurgeryPresentation, auto: bool = False) -> Scalar:
    """CGP invariant of the presented closed 3-manifold.

    Kirby-colors each surgery component by the color of its meridian
    degree, expands, applies the renormalized invariant, and multiplies
    eta D^{-ell} delta^{n - sigma(L)}.  `auto` stabilizes a critical `p`
    once per context, kept in `p._stabilized`; `p`'s own checks run on
    every call, and a refused stabilization keeps nothing.  NumericInstability
    if |n - sigma(L)| passes tol 2^precision, where delta's power, whose
    relative error grows like |n - sigma(L)| u, rounds past tol.
    """
    validate_presentation(ctx, p)
    if not check_admissible(ctx, p):
        raise NotAdmissible("presentation is not admissible")
    # stabilization adds only graph components, so the link is the input's
    link = linking_data(ctx, p)
    offending = check_computable(ctx, p)
    if offending:
        if not auto:
            raise NotComputable(f"critical meridian degrees on components {offending}")
        if ctx not in p._stabilized:
            stab = auto_stabilize(ctx, p)
            validate_presentation(ctx, stab)
            p._stabilized[ctx] = stab
        p = p._stabilized[ctx]
    power = p.signature_defect - link.signature
    if abs(power) > ctx.tol * 2 ** ctx.precision:  # int against float: no overflow
        raise NumericInstability(f"|n - sigma(L)| passes tol 2^precision = "
                                 f"{ctx.tol * 2 ** ctx.precision:.3g}: delta's power rounds past tol")
    consts = wc.constants(ctx)
    ell = len(p.surgery_components)
    fp = rt_eval.f_prime(ctx, p.diagram)
    return consts.eta * consts.D ** (-ell) * consts.delta ** power * fp


def cgp_disjoint(ctx: ScalarContext, pieces: list[SurgeryPresentation],
                 auto: bool = False) -> Scalar:
    """Product over the connected pieces of a disjoint-union presentation."""
    total = ctx.scalar(1)
    for p in pieces:
        total = total * cgp(ctx, p, auto=auto)
    return total


# ---------------------------------------------------------------------------
# automatic stabilization
# ---------------------------------------------------------------------------


def _find_threading_site(d: dg.Diagram, target: wc.Kirby, rider: wc.Typical):
    """Boundary exposing (-T)(+U)(+rider) with T a typical graph letter and
    U the target component's upward leg."""
    words = d.boundary_words()
    for b in range(1, len(words)):
        w = words[b]
        for i in range(len(w) - 2):
            l0, l1, l2 = w[i], w[i + 1], w[i + 2]
            if (l0[0] < 0 and isinstance(l0[1], wc.Typical) and l0[1] != rider
                    and l1 == (1, target) and l2 == (1, rider)):
                return b, i
    return None


def _insert_rider(d: dg.Diagram, target: wc.Kirby, rider: wc.Typical,
                  color: wc.Kirby | None = None) -> dg.Diagram:
    """The diagram with the component colored `target` replaced by its
    blackboard 2-cable, whose second strand is a rider circle and whose
    first carries `color` (default `target`).

    A letter of the component becomes a pair, the rider on its right:
    (+U) becomes (+U)(+R) and (-U) becomes (-R)(-U).  Each cell becomes
    the cells of its cable: a crossing crosses every strand of one cable
    with every strand of the other, a twist twists each strand and then
    the pair, theta_{U (x) R} = c_{R,U} c_{U,R} (theta_U (x) theta_R),
    and a cap or cup nests one cap or cup per strand.  So the rider is the
    framed push-off, linking everything exactly as the component does.
    """
    color = color or target
    pairs = {(1, target): ((1, color), (1, rider)),
             (-1, target): ((-1, rider), (-1, color))}

    def cable(l):
        return pairs.get(l, (l,))

    words = d.boundary_words()
    st = dg.Stack(dg.Diagram(d.source, []))
    for si, cells in enumerate(d.slices):
        main = dg.normalized_cell(cells, CannotStabilize)
        if main is None:
            st.add([dg.id_cell(l) for l in st.words[-1]])
            continue
        pin, cell = main
        k = cell.kind
        p = pin + sum(color == target for _, color in words[si][:pin])
        if k in ("xpos", "xneg"):
            a, b = map(cable, cell.letters)
            for j, y in enumerate(b):
                for i in reversed(range(len(a))):
                    st.cell(p + i + j, dg.Cell(k, (a[i], y)))
        elif k in ("tpos", "tneg"):
            c = cable(cell.letters[0])
            for t, l in enumerate(c):
                st.cell(p + t, dg.Cell(k, (l,)))
            if len(c) == 2:
                cx = "xpos" if k == "tpos" else "xneg"
                st.cell(p, dg.Cell(cx, c))
                st.cell(p, dg.Cell(cx, c[::-1]))
        elif k[:3] in ("cap", "cup"):
            # the cable of the left created (cap) or consumed (cup) letter;
            # caps nest outer strand first, cups close inner strand first
            c = cable((cell.out_letters() or cell.in_letters())[0])
            same = k in ("cap_l", "cup_r")
            for t in (range(len(c)) if k[:3] == "cap" else reversed(range(len(c)))):
                st.cell(p + t, dg.Cell(k, (c[t] if same else dg.flip(c[t]),)))
        elif any(color == target for _, color in cell.in_letters() + cell.out_letters()):
            raise CannotStabilize(f"cell {k} on the critical component")
        else:
            st.cell(p, cell)
    return st.diagram(d.prefactor)


def auto_stabilize(ctx: ScalarContext, p: SurgeryPresentation,
                   index: wc.Degree | None = None) -> SurgeryPresentation:
    """Make every meridian degree generic without changing the invariant.

    Projectively stabilizes a typical graph edge and slides the detour
    over each critical surgery component: the detour acquires a companion
    circle, the second strand of the component's blackboard 2-cable
    (linking everything the component links), and the component's meridian
    reading drops by the stabilization index.  The cabled diagram must have
    a threading site, a boundary reading (-T)(+U)(+R) with T a typical
    graph letter, U the component and R the rider; otherwise, or when a
    slice holds several non-identity cells, CannotStabilize is raised.  The
    critical colors are threaded in turn; a detour recolors only its
    target, so the input's colors name every target.
    """
    cur = p
    for c in check_computable(ctx, p):
        target = p.surgery_colors[c]
        cur = _thread_detour(ctx, cur, target, index or _pick_index(ctx, target))
    offending = check_computable(ctx, cur)
    if offending:
        raise CannotStabilize(f"still critical after stabilization: {offending}")
    return cur


def _thread_detour(ctx: ScalarContext, p: SurgeryPresentation, target: wc.Kirby,
                   index: wc.Degree) -> SurgeryPresentation:
    """Stabilize a typical edge and slide the detour over the surgery
    component colored `target`.

    The component's meridian reading drops by the stabilization index, and
    its cable carries the shifted color.
    """
    vh = wc.Typical(complex(wc.index_set(ctx, index)[0]))
    shifted = replace(target, g=target.g - index.g)
    d_r = _insert_rider(p.diagram, target, vh, shifted)
    site = _find_threading_site(d_r, shifted, vh)
    if site is None:
        raise CannotStabilize(
            "no boundary exposes a typical edge beside the critical "
            "component and its rider")
    b, i = site
    d1 = dg.stabilize_projective(ctx, d_r, b, i, vh.alpha)
    # tether: detour end crosses its partner and the (+U) leg, swaps with
    # the rider, and the rider's lower strand returns into the coupon
    det = (1, vh)
    st = dg.Stack(dg.Diagram(d1.boundary_words()[b + 1], []))

    def w1(t):
        return st.words[-1][t]

    st.cell(i + 1, dg.cross(det, w1(i + 2), positive=True))   # over the partner
    st.cell(i + 2, dg.cross(det, w1(i + 3), positive=True))   # over the (+U) leg
    st.cell(i + 3, dg.cross(det, w1(i + 4), positive=True))   # swap with the rider
    # the three mutual crossings above leave writhe +1 on the detour loop;
    # a negative twist restores its zero framing
    st.cell(i + 4, dg.Cell("tneg", (det,)))
    st.cell(i + 2, dg.cross(w1(i + 2), det, positive=False))  # return over (+U)
    st.cell(i + 1, dg.cross(w1(i + 1), det, positive=False))  # return over partner
    return SurgeryPresentation(dg.insert_slices(d1, b + 1, st.slices),
                               signature_defect=p.signature_defect)


def _pick_index(ctx: ScalarContext, target: wc.Kirby) -> wc.Degree:
    """A generic index that keeps the target's degree generic either way."""
    for k in range(1, 64):
        cand = 0.5 + k / 16.0
        if not any(wc.Degree(g).is_critical(ctx.tol)
                   for g in (cand, target.g + cand, target.g - cand)):
            return wc.Degree(complex(cand))
    raise CannotStabilize("could not find a sufficiently generic index")
