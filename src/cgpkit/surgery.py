"""Decorated surgery presentations and the CGP invariant.

A presentation is a closed diagram together with a subset of its strand
components marked for surgery, the degree that the ambient cohomology
class takes on each surgery meridian, and an integer signature defect.
The invariant Kirby-colors every surgery component, expands linearly,
evaluates the renormalized invariant, and multiplies the normalization
eta D^{-ell} delta^{n - sigma(L)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import diagrams as dg
from . import rt_eval
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar
from .rt_eval import NotAdmissible


class NotComputable(ValueError):
    """Some surgery meridian degree is critical."""


class CannotStabilize(ValueError):
    """Automatic stabilization does not apply to this presentation."""


@dataclass
class SurgeryPresentation:
    diagram: dg.Diagram
    surgery_components: frozenset[int]
    meridian_degrees: dict[int, wc.Degree]
    signature_defect: int = 0

    def __post_init__(self):
        self.surgery_components = frozenset(self.surgery_components)
        self.meridian_degrees = {
            c: (g if isinstance(g, wc.Degree) else wc.Degree(complex(g)))
            for c, g in self.meridian_degrees.items()
        }


@dataclass(frozen=True)
class LinkingData:
    matrix: np.ndarray  # integer linking matrix over ordered surgery comps
    components: tuple[int, ...]
    signature: int


def validate_presentation(ctx: ScalarContext, p: SurgeryPresentation) -> None:
    msg = dg.validate(ctx, p.diagram)
    if msg is not None:
        raise ValueError(f"invalid diagram: {msg}")
    if not p.diagram.is_closed():
        raise ValueError("surgery presentations need a closed diagram")
    comps = set(p.diagram.ports_and_components().values())
    unknown = p.surgery_components - comps
    if unknown:
        raise ValueError(f"surgery components {sorted(unknown)} not in diagram")
    if set(p.meridian_degrees) != set(p.surgery_components):
        raise ValueError("meridian degrees must cover exactly the surgery components")
    with_coupons = p.diagram.components_with_coupons()
    bad = p.surgery_components & with_coupons
    if bad:
        raise ValueError(f"surgery components {sorted(bad)} contain coupons")
    formal = set(p.diagram.formal)
    if formal & p.surgery_components:
        raise ValueError("surgery components may not be pre-colored formally")
    _check_cohomology(ctx, p)


def _component_link_sums(p: SurgeryPresentation):
    """Signed crossing sums per unordered component pair."""
    lk2 = {}
    for a, b, s, _, _ in p.diagram.crossing_records():
        key = (min(a, b), max(a, b))
        lk2[key] = lk2.get(key, 0) + s
    return lk2


def linking_data(ctx: ScalarContext, p: SurgeryPresentation) -> LinkingData:
    """Linking matrix of the surgery components and its exact signature.

    Off-diagonal entries are half the signed crossing count between the
    two components; diagonal entries are the writhes (blackboard
    self-linking).
    """
    comps = tuple(sorted(p.surgery_components))
    idx = {c: i for i, c in enumerate(comps)}
    n = len(comps)
    mat = np.zeros((n, n), dtype=np.int64)
    lk2 = _component_link_sums(p)
    for (a, b), s in lk2.items():
        if a in idx and b in idx:
            if a == b:
                mat[idx[a], idx[a]] += s
            else:
                if s % 2 != 0:
                    raise ValueError("odd crossing count between distinct components")
                mat[idx[a], idx[b]] += s // 2
                mat[idx[b], idx[a]] += s // 2
    return LinkingData(mat, comps, _signature(ctx, mat))


def _signature(ctx: ScalarContext, mat: np.ndarray) -> int:
    n = mat.shape[0]
    if n == 0:
        return 0
    if n <= 12:
        return _signature_exact(mat)
    vals = np.linalg.eigvalsh(mat.astype(np.float64))
    thresh = ctx.tol * max(1.0, float(np.abs(mat).sum()))
    return int(np.sum(vals > thresh)) - int(np.sum(vals < -thresh))


def _signature_exact(mat: np.ndarray) -> int:
    """Exact eigenvalue sign count of an integer symmetric matrix.

    Characteristic polynomial by Faddeev-LeVerrier over the rationals;
    all roots are real, so Descartes' rule counts positive and negative
    roots exactly.
    """
    n = mat.shape[0]
    A = [[Fraction(int(mat[i, j])) for j in range(n)] for i in range(n)]

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    I = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    cs = [Fraction(1)]
    M = [row[:] for row in I]
    AM = mul(A, M)
    for k in range(1, n + 1):
        ck = -sum(AM[i][i] for i in range(n)) / k
        cs.append(ck)
        if k == n:
            break
        M = [[AM[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        AM = mul(A, M)
    # cs are the coefficients of lambda^{n-k}; count sign changes for
    # positive roots, and of the alternating sequence for negative roots
    zeros = 0
    while zeros < n and cs[n - zeros] == 0:
        zeros += 1

    def sign_changes(seq):
        seq = [s for s in seq if s != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))

    pos = sign_changes(cs)
    neg = sign_changes([c * ((-1) ** k) for k, c in enumerate(cs)])
    assert pos + neg + zeros == n
    return pos - neg


def check_computable(ctx: ScalarContext, p: SurgeryPresentation) -> list[int]:
    """Empty list when computable, else the offending component ids."""
    return [c for c, g in sorted(p.meridian_degrees.items())
            if g.is_critical(ctx.tol)]


def check_admissible(ctx: ScalarContext, p: SurgeryPresentation) -> bool:
    comp = p.diagram.ports_and_components()
    words = p.diagram.boundary_words()
    for b, w in enumerate(words):
        for i, (_, color) in enumerate(w):
            if isinstance(color, wc.Typical) and comp[(b, i)] not in p.surgery_components:
                return True
    for c in p.diagram.formal:
        if c not in p.surgery_components:
            return True  # Kirby-colored graph components are projective
    return any(not g.is_critical(ctx.tol) for g in p.meridian_degrees.values())


def _check_cohomology(ctx: ScalarContext, p: SurgeryPresentation) -> None:
    """Each surgery longitude must evaluate to zero in C/2Z.

    The longitude class is writhe * own meridian degree plus, for every
    crossing with another strand, half the crossing sign times the degree
    carried by that strand (its meridian degree for surgery components, the
    Kirby index for formally colored ones, the color degree otherwise).
    """
    formal = p.diagram.formal
    crossings = p.diagram.crossing_records()

    def deg_of(c: int, color) -> complex:
        if c in p.meridian_degrees:
            return p.meridian_degrees[c].g
        if c in formal:
            return formal[c].degree(ctx).g
        return wc.color_degree(ctx, color).g

    for i in sorted(p.surgery_components):
        total = 0j
        for a, b, s, ca, cb in crossings:
            if i not in (a, b):
                continue
            if a == b == i:
                total += s * p.meridian_degrees[i].g
            else:
                # the crossing sign includes the strand orientation, so the
                # unsigned color degree enters here
                other, color = (b, cb) if a == i else (a, ca)
                total += (s / 2) * deg_of(other, color)
        d = wc.Degree(total)
        if not d.equals(wc.Degree(0j), 100 * ctx.tol):
            raise ValueError(
                f"cohomology constraint fails on surgery component {i}: "
                f"longitude evaluates to {total}")


def cgp(ctx: ScalarContext, p: SurgeryPresentation, auto: bool = False) -> Scalar:
    """CGP invariant of the presented closed 3-manifold.

    Kirby-colors each surgery component by the color of its meridian
    degree, expands, applies the renormalized invariant, and multiplies
    eta D^{-ell} delta^{n - sigma(L)}.
    """
    validate_presentation(ctx, p)
    if not check_admissible(ctx, p):
        raise NotAdmissible("presentation is not admissible")
    offending = check_computable(ctx, p)
    if offending:
        if not auto:
            raise NotComputable(f"critical meridian degrees on {offending}")
        p = auto_stabilize(ctx, p)
        validate_presentation(ctx, p)
        offending = check_computable(ctx, p)
        if offending:
            raise CannotStabilize(f"still critical after stabilization: {offending}")
    consts = wc.constants(ctx)
    link = linking_data(ctx, p)
    ell = len(p.surgery_components)
    extra = {c: wc.kirby_color(ctx, p.meridian_degrees[c])
             for c in sorted(p.surgery_components)}
    fp = rt_eval.f_prime(ctx, p.diagram, extra=extra)
    n = p.signature_defect
    return (consts.eta * consts.D ** (-ell) * consts.delta ** (n - link.signature)
            * fp)


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


def _find_threading_site(ctx: ScalarContext, p: SurgeryPresentation, target: int,
                         rider: wc.Typical):
    """Boundary exposing (-T)(+U)(+rider) with T a typical graph letter and
    U the target component's upward leg."""
    words = p.diagram.boundary_words()
    comp = p.diagram.ports_and_components()
    for b in range(1, len(words)):
        w = words[b]
        for i in range(len(w) - 2):
            l0, l1, l2 = w[i], w[i + 1], w[i + 2]
            if (l0[0] < 0 and isinstance(l0[1], wc.Typical)
                    and l0[1] != rider
                    and comp[(b, i)] not in p.surgery_components
                    and comp[(b, i + 1)] == target and l1[0] > 0
                    and l2 == (1, rider)):
                return b, i
    return None


def _insert_rider(ctx: ScalarContext, d: dg.Diagram, target: int,
                  rider: wc.Typical) -> dg.Diagram:
    """Add a companion circle riding parallel inside a round component.

    The rider pair is created just inside the component's cap and closed
    just inside its cup; crossings of other strands with the component's
    legs are widened to cross the rider too, and framing curls become
    cable curls, so the rider follows the framed push-off and links
    everything exactly as the component does.  The new word at each
    boundary is the old one with the rider's letters inserted right after
    the upward leg and right before the downward leg.
    """
    comp = d.ports_and_components()
    words = d.boundary_words()
    rl = (1, rider)
    rd = (-1, rider)
    out_slices: list[list[dg.Cell]] = []
    w: list = list(d.source.letters)
    port_map: dict[tuple[int, int], tuple[int, int]] = {}

    def legs_at(bi: int):
        up = dn = None
        for t, (sgn, _) in enumerate(words[bi]):
            if comp[(bi, t)] == target:
                if sgn > 0 and up is None:
                    up = t
                else:
                    dn = t
        return up, dn

    def pad_row(cells_with_pos):
        row = []
        pos = 0
        for cpos, cell in sorted(cells_with_pos):
            while pos < cpos:
                row.append(dg.id_cell(tuple(w[pos])))
                pos += 1
            row.append(cell)
            pos += len(cell.in_letters())
        while pos < len(w):
            row.append(dg.id_cell(tuple(w[pos])))
            pos += 1
        return row

    def apply_row(row):
        nonlocal w
        out = []
        for cell in row:
            out.extend(cell.out_letters())
        out_slices.append(row)
        w = out

    for si, cells in enumerate(d.slices):
        up, dn = legs_at(si)

        def record_ports():
            for t in range(len(words[si])):
                port_map[(si, t)] = (len(out_slices), newpos(t))

        def newpos(op, insertion=False):
            # letters shift by one past the upward leg and once more at the
            # downward leg; a pure insertion at the downward leg lands
            # inside the annulus, before the rider's return strand
            np_ = op
            if up is not None and op > up:
                np_ += 1
            if dn is not None and (op > dn if insertion else op >= dn):
                np_ += 1
            return np_

        record_ports()
        # locate the one nontrivial cell of this slice (normalized form)
        pin = 0
        pout = 0
        main = None
        for cell in cells:
            if cell.kind != "id":
                if main is not None:
                    raise CannotStabilize("slice with several nontrivial cells")
                main = (pin, pout, cell)
            pin += len(cell.in_letters())
            pout += len(cell.out_letters())
        if main is None:
            apply_row(pad_row([]))
            continue
        pin, pout, cell = main
        nin = len(cell.in_letters())
        nout = len(cell.out_letters())
        touches_in = [comp[(si, pin + t)] == target for t in range(nin)]
        touches_out = [comp[(si + 1, pout + t)] == target for t in range(nout)]
        k = cell.kind
        if not (any(touches_in) or any(touches_out)):
            apply_row(pad_row([(newpos(pin, insertion=nin == 0), cell)]))
        elif k == "cap_l" and any(touches_out):
            pos = newpos(pin, insertion=True)
            apply_row(pad_row([(pos, cell)]))
            apply_row(pad_row([(pos + 1, dg.cap(rl, left=True))]))
        elif k == "cup_r" and any(touches_in):
            apply_row(pad_row([(newpos(pin) + 1, dg.cup(rl, left=False))]))
            apply_row(pad_row([(newpos(pin), cell)]))
        elif k in ("xpos", "xneg") and touches_in[1] and not touches_in[0]:
            mover = cell.letters[0]
            leg = cell.letters[1]
            if leg[0] > 0:
                # rightward across the upward leg, then across the rider
                apply_row(pad_row([(newpos(pin), cell)]))
                apply_row(pad_row([(newpos(pin) + 1, dg.Cell(k, (mover, rl)))]))
            else:
                # rightward: the rider's return strand sits just before
                # the downward leg
                apply_row(pad_row([(newpos(pin), dg.Cell(k, (mover, rd)))]))
                apply_row(pad_row([(newpos(pin) + 1, cell)]))
        elif k in ("xpos", "xneg") and touches_in[0] and not touches_in[1]:
            mover = cell.letters[1]
            leg = cell.letters[0]
            if leg[0] > 0:
                # leftward back across the rider, then the upward leg
                apply_row(pad_row([(newpos(pin) + 1, dg.Cell(k, (rl, mover)))]))
                apply_row(pad_row([(newpos(pin), cell)]))
            else:
                apply_row(pad_row([(newpos(pin), cell)]))
                apply_row(pad_row([(newpos(pin) - 1, dg.Cell(k, (rd, mover)))]))
        elif k in ("xpos", "xneg") and touches_in[0] and touches_in[1]:
            # framing curl of the component: curl the two-strand cable,
            # so the rider follows the framed push-off through the kink
            P = newpos(pin)
            lu = w[P]
            lc = w[P + 1]
            lu2 = w[P + 2]
            lc2 = w[P + 3]
            apply_row(pad_row([(P + 1, dg.Cell(k, (lc, lu2)))]))
            apply_row(pad_row([(P, dg.Cell(k, (lu, lu2)))]))
            apply_row(pad_row([(P + 2, dg.Cell(k, (lc, lc2)))]))
            apply_row(pad_row([(P + 1, dg.Cell(k, (lu, lc2)))]))
        else:
            raise CannotStabilize(
                f"unsupported cell {k} on the critical component")
    # ports of the final boundary
    nb = len(d.slices)
    up, dn = legs_at(nb)

    def final_newpos(op):
        np_ = op
        if up is not None and op > up:
            np_ += 1
        if dn is not None and op >= dn:
            np_ += 1
        return np_

    for t in range(len(words[nb])):
        port_map[(nb, t)] = (len(out_slices), final_newpos(t))
    return dg.Diagram(d.source, out_slices, d.prefactor, dict(d.formal)), port_map


def auto_stabilize(ctx: ScalarContext, p: SurgeryPresentation,
                   index: wc.Degree | None = None) -> SurgeryPresentation:
    """Make every meridian degree generic without changing the invariant.

    Projectively stabilizes a typical graph edge and slides the detour
    over each critical surgery component: the detour acquires a companion
    circle running parallel to the component (linking everything the
    component links), and the component's meridian reading drops by the
    stabilization index.  Components must be round unknots (framing curls
    allowed) in the standard layout with a typical letter next to their
    upward leg; otherwise CannotStabilize is raised.
    """
    offending = check_computable(ctx, p)
    if not offending:
        return p
    cur = p
    for _ in range(len(offending)):
        cur = _stabilize_one(ctx, cur, index)
        offending = check_computable(ctx, cur)
        if not offending:
            return cur
    raise CannotStabilize(f"still critical after stabilization: {offending}")


def _stabilize_one(ctx: ScalarContext, p: SurgeryPresentation,
                   index: wc.Degree | None) -> SurgeryPresentation:
    offending = check_computable(ctx, p)
    target = offending[0]
    if index is None:
        index = _pick_index(ctx, p, [target])
    return _thread_detour(ctx, p, target, index)


def _thread_detour(ctx: ScalarContext, p: SurgeryPresentation, target: int,
                   index: wc.Degree) -> SurgeryPresentation:
    """Stabilize a typical edge and slide the detour over one component.

    The component's meridian reading drops by the stabilization index.
    """
    vh = wc.Typical(complex(wc.index_set(ctx, index)[0]))

    d_r, port_map = _insert_rider(ctx, p.diagram, target, vh)
    remap = _remap_components(p, d_r, port_map)
    target_new = remap[target]
    p_mid = SurgeryPresentation(
        d_r, frozenset(remap.values()),
        {remap[c]: g for c, g in p.meridian_degrees.items()},
        p.signature_defect)
    site = _find_threading_site(ctx, p_mid, target_new, vh)
    if site is None:
        raise CannotStabilize(
            "no boundary exposes a typical edge beside the critical "
            "component and its rider")
    b, i = site
    d1 = dg.stabilize_projective(ctx, d_r, b, i, index, vh.alpha)
    # tether: detour end crosses its partner and the (+U) leg, swaps with
    # the rider, and the rider's lower strand returns into the coupon
    det = (1, vh)
    w1 = list(d1.boundary_words()[b + 1].letters)
    rows = []

    def row(pos, cell):
        nonlocal w1
        r = ([dg.id_cell(l) for l in w1[:pos]] + [cell]
             + [dg.id_cell(l) for l in w1[pos + len(cell.in_letters()):]])
        w1 = w1[:pos] + list(cell.out_letters()) + w1[pos + len(cell.in_letters()):]
        rows.append(r)

    row(i + 1, dg.cross(det, w1[i + 2], positive=True))   # over the partner
    row(i + 2, dg.cross(det, w1[i + 3], positive=True))   # over the (+U) leg
    row(i + 3, dg.cross(det, w1[i + 4], positive=True))   # swap with the rider
    # the three mutual crossings above leave writhe +1 on the detour loop;
    # a negative kink restores its zero framing
    row(i + 5, dg.cap(det, left=True))
    row(i + 4, dg.cross(det, det, positive=False))
    row(i + 5, dg.cup(det, left=False))
    row(i + 2, dg.cross(w1[i + 2], det, positive=False))  # return over (+U)
    row(i + 1, dg.cross(w1[i + 1], det, positive=False))  # return over partner
    d2 = dg.insert_slices(d1, b + 1, rows)

    comp_mid = d_r.ports_and_components()
    comp_fin = d2.ports_and_components()
    n_ins = 2 + len(rows)
    remap2 = {}
    for cid in p_mid.surgery_components:
        port = min(pp for pp, cc in comp_mid.items() if cc == cid)
        bb, ii = port
        remap2[cid] = comp_fin[(bb, ii) if bb <= b else (bb + n_ins, ii)]
    new_deg = {}
    for cid, g in p_mid.meridian_degrees.items():
        shifted = wc.Degree(g.g - index.g) if cid == target_new else g
        new_deg[remap2[cid]] = shifted
    return SurgeryPresentation(
        d2, frozenset(remap2.values()), new_deg, p.signature_defect)


def _remap_components(p: SurgeryPresentation, d_new: dg.Diagram,
                      port_map: dict) -> dict[int, int]:
    comp_old = p.diagram.ports_and_components()
    comp_new = d_new.ports_and_components()
    remap = {}
    for cid in p.surgery_components:
        port = min(pp for pp, cc in comp_old.items() if cc == cid)
        remap[cid] = comp_new[port_map[port]]
    return remap


def _pick_index(ctx: ScalarContext, p: SurgeryPresentation, offending) -> wc.Degree:
    existing = [p.meridian_degrees[c].g for c in offending]
    for k in range(1, 64):
        cand = 0.5 + k / 16.0
        ok = not wc.Degree(complex(cand)).is_critical(ctx.tol)
        for g in existing:
            for s in (+1, -1):
                if wc.Degree(g + s * cand).is_critical(ctx.tol):
                    ok = False
        if ok:
            return wc.Degree(complex(cand))
    raise CannotStabilize("could not find a sufficiently generic index")


# ---------------------------------------------------------------------------
# Kirby equivalence reporting
# ---------------------------------------------------------------------------


def kirby_equivalence_suite(ctx: ScalarContext, fixtures) -> list[dict]:
    """Evaluate curated presentation pairs of one decorated manifold.

    fixtures: iterable of (name, presentation_a, presentation_b); report
    entries carry both values and their difference.
    """
    report = []
    for name, pa, pb in fixtures:
        va = cgp(ctx, pa, auto=True)
        vb = cgp(ctx, pb, auto=True)
        denom = max(1.0, abs(va), abs(vb))
        report.append({
            "name": name,
            "value_a": va,
            "value_b": vb,
            "difference": abs(va - vb),
            "relative": abs(va - vb) / denom,
            "pass": abs(va - vb) / denom <= 100 * ctx.tol,
        })
    return report
