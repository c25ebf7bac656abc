"""Sliced combinatorial ribbon-graph diagrams.

A diagram is a tuple of slices read bottom to top; each slice is a tuple
of cells acting on adjacent groups of letters of the current boundary
word.  Cells are the elementary tangles: identities, the two crossings,
the four cup/cap flavors, the two twists and coupons holding explicit
matrices.  Framing is blackboard, and a framing change on a strand is one
twist cell, `tpos` or `tneg`, which evaluates to theta^{+-1}: what a curl
drawn as a cap, a self-crossing and a cup evaluates to, two letters
narrower.  Linking data read a twist cell as that curl's self-crossing.

Diagrams are immutable: every edit returns a new diagram.  Each diagram
computes its boundary words and finds its strands once, on first use.
Edits that stack rows on a diagram extend its words row by row, checking
each row against the word below it, and a recolored diagram takes over
the component map of the diagram it came from.

Strand components are recovered by union-find over boundary ports; a
coupon joins all of its legs into one component.  That map is the one
record of the strands: one pass over it finds the components through a
coupon and reads each other component's one color at its first port.  A
Kirby color is a color like any other, carried by the letters of one
coupon-free component, so no edit has to track it; the evaluator
substitutes its summands cell by cell.  Component ids appear
only where input names components by id, in `mark_components`, which the
JSON presentation loader calls once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from types import MappingProxyType

import numpy as np

from . import _linalg as la
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar
from .weightcat import (
    Color,
    FormalColorSum,
    Kirby,
    Letter,
    ObjectWord,
    Sigma,
    Typical,
    realize_letter,
)


class BoundaryMismatch(ValueError):
    pass


class ComponentError(ValueError):
    """Input names a component id that is not in the diagram, or one that
    cannot take the color it is given."""


def flip(letter: Letter) -> Letter:
    sign, color = letter
    return (-sign, color)


# the letters each non-coupon cell kind consumes and produces, spelled in
# the cell's own letters a and b, with A for a flipped
_SHAPES = {
    "id": ("a", "a"), "tpos": ("a", "a"), "tneg": ("a", "a"),
    "xpos": ("ab", "ba"), "xneg": ("ab", "ba"),
    "cup_l": ("Aa", ""), "cup_r": ("aA", ""), "cap_l": ("", "aA"), "cap_r": ("", "Aa"),
}

# each shape as (letter index, flipped) pairs, and where each of a cell's
# letters sits: (0, t) is input port t of the cell, (1, t) output port t
_SPELLING = {kind: tuple(tuple(("ab".index(x.lower()), x.isupper()) for x in w) for w in shape)
             for kind, shape in _SHAPES.items()}
_LETTER_PORTS = {
    kind: tuple(next((side, w.index(x)) for side, w in enumerate(shape) if x in w)
                for x in "ab" if x in "".join(shape))
    for kind, shape in _SHAPES.items()
}


@dataclass(frozen=True, eq=False)
class Cell:
    """One elementary tangle piece inside a slice.  Its input and output
    letters are spelled once, when it is built; an unknown kind or a letter
    count the kind does not take is refused then."""

    kind: str  # a key of _SHAPES, or coupon
    letters: tuple[Letter, ...] = ()
    domain: ObjectWord | None = None
    codomain: ObjectWord | None = None
    matrix: np.ndarray | None = None
    _spelled: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.kind == "coupon":
            spelled = (self.domain, self.codomain)
        elif self.kind in _SPELLING and len(self.letters) == len(_LETTER_PORTS[self.kind]):
            ls = self.letters
            spelled = tuple(tuple([flip(ls[i]) if flipped else ls[i] for i, flipped in side])
                            for side in _SPELLING[self.kind])
        else:
            raise ValueError(f"bad cell: kind {self.kind!r} with {len(self.letters)} letters")
        object.__setattr__(self, "_spelled", spelled)

    def in_letters(self) -> tuple[Letter, ...]:
        return self._spelled[0]

    def out_letters(self) -> tuple[Letter, ...]:
        return self._spelled[1]


def id_cell(letter: Letter) -> Cell:
    return Cell("id", (letter,))


def cross(letter1: Letter, letter2: Letter, positive: bool = True) -> Cell:
    return Cell("xpos" if positive else "xneg", (letter1, letter2))


def cup(letter: Letter, left: bool) -> Cell:
    return Cell("cup_l" if left else "cup_r", (letter,))


def cap(letter: Letter, left: bool) -> Cell:
    return Cell("cap_l" if left else "cap_r", (letter,))


def coupon(domain: ObjectWord, codomain: ObjectWord, matrix: np.ndarray) -> Cell:
    return Cell("coupon", (), domain, codomain, matrix)


Slice = tuple[Cell, ...]

def _next_word(word: ObjectWord, row, s: int) -> ObjectWord:
    """The boundary word above slice s, whose cells must consume `word`."""
    out = []
    pos = 0
    for cell in row:
        ins = cell.in_letters()
        if word[pos:pos + len(ins)] != ins:
            raise BoundaryMismatch(
                f"slice {s}: cell {cell.kind} expects {ins}, boundary has "
                f"{word[pos:pos + len(ins)]}"
            )
        pos += len(ins)
        out.extend(cell.out_letters())
    if pos != len(word):
        raise BoundaryMismatch(f"slice {s}: {len(word) - pos} unconsumed letters")
    return tuple(out)


def _extend(words: list[ObjectWord], rows) -> list[ObjectWord]:
    """Append the word above each row, checking each row against the word
    below it."""
    for row in rows:
        words.append(_next_word(words[-1], row, len(words) - 1))
    return words


@dataclass(frozen=True)
class Diagram:
    """Immutable; `slices` may be given as any iterables of cells and is
    stored as a tuple of tuples.  Boundary words, the component map, the
    strand pass and the Kirby colors are computed on first use and kept;
    all are read-only, since every caller gets the same object.  `_plans`
    holds `rt_eval.f_prime`'s openings of the diagram with their halves'
    sweep plans, which live as long as it does (their index work, shared,
    in a byte-bounded cache)."""

    source: ObjectWord
    slices: tuple[Slice, ...]
    prefactor: Scalar = 1.0 + 0.0j
    _words: tuple[ObjectWord, ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    _comp: MappingProxyType | None = field(
        default=None, init=False, repr=False, compare=False)
    _strands: tuple | None = field(
        default=None, init=False, repr=False, compare=False)
    _kirby: tuple[Kirby, ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(map(tuple, self.slices)))

    def _cache(self, words=None, comp=None) -> "Diagram":
        if words is not None:
            object.__setattr__(self, "_words", tuple(words))
        if comp is not None:
            object.__setattr__(self, "_comp", comp)
        return self

    # -- structure ---------------------------------------------------------

    def boundary_words(self) -> tuple[ObjectWord, ...]:
        if self._words is None:
            self._cache(_extend([self.source], self.slices))
        return self._words

    @property
    def target(self) -> ObjectWord:
        return self.boundary_words()[-1]

    def is_closed(self) -> bool:
        return len(self.source) == 0 and len(self.target) == 0

    def kirby_colors(self) -> tuple[Kirby, ...]:
        """The Kirby colors on the letters, by first appearance scanning the
        boundaries bottom to top, left to right: the order of their
        components' ids."""
        if self._kirby is None:
            object.__setattr__(self, "_kirby", tuple(dict.fromkeys(
                c for w in self.boundary_words() for _, c in w if isinstance(c, Kirby))))
        return self._kirby

    # -- components ---------------------------------------------------------

    def _placed_cells(self):
        """(slice, first input port, first output port, cell) of every cell."""
        for s, cells in enumerate(self.slices):
            pin = pout = 0
            for cell in cells:
                yield s, pin, pout, cell
                pin += len(cell.in_letters())
                pout += len(cell.out_letters())

    def ports_and_components(self):
        """Union-find over boundary ports; returns (port -> comp id) map.

        A port is (boundary index, letter index).  Components are numbered
        by first appearance scanning boundaries bottom to top, left to
        right.
        """
        if self._comp is not None:
            return self._comp
        words = self.boundary_words()
        parent = {(b, i): (b, i) for b, w in enumerate(words) for i in range(len(w))}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for s, pin, pout, cell in self._placed_cells():
            ports = [(s, pin + t) for t in range(len(cell.in_letters()))]
            ports += [(s + 1, pout + t) for t in range(len(cell.out_letters()))]
            if cell.kind in ("xpos", "xneg"):
                joins = ((ports[0], ports[3]), (ports[1], ports[2]))
            else:
                # every other cell is one strand, or a coupon joining its legs
                joins = ((ports[0], p) for p in ports[1:])
            for p, q in joins:
                parent[find(p)] = find(q)
        roots: dict[tuple[int, int], int] = {}
        self._cache(comp=MappingProxyType(
            {p: roots.setdefault(find(p), len(roots)) for p in parent}))
        return self._comp

    def _strand_pass(self) -> tuple[set[int], dict[int, Color]]:
        """The components running through a coupon, and the color of every
        other component, read at its first port; found once.

        A non-coupon cell puts one letter on all the ports of its strand,
        and `_next_word` checks every port, so a coupon-free component
        carries one color.
        """
        if self._strands is None:
            comp, words = self.ports_and_components(), self.boundary_words()
            # a coupon's legs are one component: look it up at the first leg
            coupons = {comp[(s, pin) if cell.in_letters() else (s + 1, pout)]
                       for s, pin, pout, cell in self._placed_cells()
                       if cell.kind == "coupon" and (cell.in_letters() or cell.out_letters())}
            first: dict[int, tuple[int, int]] = {}
            for p, c in comp.items():
                first.setdefault(c, p)
            colors = {c: words[b][i][1] for c, (b, i) in first.items() if c not in coupons}
            object.__setattr__(self, "_strands", (coupons, colors))
        return self._strands

    def components_with_coupons(self) -> set[int]:
        return self._strand_pass()[0]

    def _relettered(self, rl) -> "Diagram":
        """The letter l at port p of the source and of every non-coupon cell
        replaced by rl(l, p).  The components stay, so the result takes over
        this diagram's component map."""
        new_source = tuple(rl(l, (0, i)) for i, l in enumerate(self.source))
        new_slices: list[list[Cell]] = [[] for _ in self.slices]
        for s, pin, pout, cell in self._placed_cells():
            k = cell.kind
            if k != "coupon":
                letters = tuple(rl(l, (s + up, (pout if up else pin) + off))
                                for l, (up, off) in zip(cell.letters, _LETTER_PORTS[k]))
                if letters != cell.letters:
                    cell = Cell(k, letters)
            new_slices[s].append(cell)
        return Diagram(new_source, new_slices, self.prefactor)._cache(comp=self._comp)

    def recolor_component(self, comp_id: int, color: Color) -> "Diagram":
        """Replace the color on every leg of one coupon-free component."""
        comp = self.ports_and_components()
        if comp_id in self.components_with_coupons():
            raise ValueError("cannot recolor a component attached to coupons")
        return self._relettered(
            lambda letter, port: (letter[0], color) if comp[port] == comp_id else letter)

    def recolor(self, old: Color, new: Color) -> "Diagram":
        """Replace the color `old` by `new` on every letter outside coupons."""
        return self._relettered(
            lambda letter, port: (letter[0], new) if letter[1] == old else letter)

    def crossing_records(self) -> list[tuple[int, int, int, Color, Color]]:
        """(comp a, comp b, sign, color a, color b) for every crossing; a
        twist cell counts as the self-crossing of the curl it stands for."""
        comp = self.ports_and_components()
        out = []
        for s, pin, _, cell in self._placed_cells():
            if cell.kind in ("xpos", "xneg", "tpos", "tneg"):
                (e1, col1), (e2, col2) = cell.letters[0], cell.letters[-1]
                sign = e1 * e2 * (1 if cell.kind.endswith("pos") else -1)
                out.append((comp[(s, pin)], comp[(s, pin + len(cell.letters) - 1)],
                            sign, col1, col2))
        return out

    def component_colors(self) -> dict[int, Color]:
        """The color of each coupon-free component.  Components running
        through coupons are genuine graphs and may carry several edge
        colors; they are omitted here."""
        return self._strand_pass()[1]


# ---------------------------------------------------------------------------
# validation / category structure
# ---------------------------------------------------------------------------


def validate(ctx: ScalarContext, d: Diagram) -> str | None:
    """None when structurally sound, else a description of the first problem."""
    try:
        d.boundary_words()
    except BoundaryMismatch as e:
        return str(e)
    for s, cells in enumerate(d.slices):
        for cell in cells:
            if cell.kind == "coupon":
                for _, color in (*cell.domain, *cell.codomain):
                    wc.check_color(ctx, color)
                dom, cod = (prod(wc.color_dim(ctx, c) for _, c in w)
                            for w in (cell.domain, cell.codomain))
                if cell.matrix.shape != (cod, dom):
                    return (f"slice {s}: coupon matrix shape {cell.matrix.shape} "
                            f"!= ({cod}, {dom})")
    # a Kirby color on a coupon leg was refused above, so every Kirby color
    # is the color of a coupon-free component
    owner: dict[Kirby, int] = {}
    for c, color in d.component_colors().items():
        if isinstance(color, Kirby) and owner.setdefault(color, c) != c:
            return f"{color!r} on components {owner[color]} and {c}"
    # a Kirby color sums typical colors of one degree, its own
    for k in d.kirby_colors():
        if k.terms is not None:
            try:
                for _, c in k.terms.terms:
                    if not isinstance(c, Typical):
                        raise wc.NonTypicalColor(f"summand {c!r} is not typical")
                    wc.check_color(ctx, c)
                if not k.terms.degree(ctx).equals(wc.Degree(k.g), ctx.tol):
                    raise ValueError(f"summands are not of degree {k.g}")
            except ValueError as e:
                return f"{k!r}: {e}"
    return None


def mark_components(d: Diagram, colors: dict[int, Color]) -> Diagram:
    """Recolor the components named by id, as input from outside names
    them.  ComponentError if an id names no coupon-free component, or one
    that a graph Kirby color already expands (a surgery color may be
    replaced)."""
    now = d.component_colors() if colors else {}
    bad = [c for c in sorted(colors) if c not in now
           or isinstance(now[c], Kirby) and not now[c].surgery]
    if bad:
        raise ComponentError(f"components {bad} are not in the diagram, "
                             f"touch coupons or carry a graph Kirby color")
    for c in sorted(colors):
        d = d.recolor_component(c, colors[c])
    return d


def fresh_tag(d: Diagram) -> int:
    """A Kirby tag that no Kirby color of d carries."""
    return 1 + max((k.tag for k in d.kirby_colors()), default=-1)


def identity_diagram(word: ObjectWord) -> Diagram:
    return Diagram(word, [[id_cell(l) for l in word]] if len(word) else [])


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """d2 after d1; boundary words must match exactly."""
    if d1.target != d2.source:
        raise BoundaryMismatch("compose: target of first != source of second")
    return Diagram(d1.source, d1.slices + d2.slices, d1.prefactor * d2.prefactor)


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Horizontal juxtaposition, stacking d1's slices below d2's."""
    w1t = d1.target
    w2s = d2.source
    slices = [s + tuple(id_cell(l) for l in w2s) for s in d1.slices]
    slices += [tuple(id_cell(l) for l in w1t) + s for s in d2.slices]
    return Diagram(d1.source + d2.source, slices, d1.prefactor * d2.prefactor)


# ---------------------------------------------------------------------------
# slice building helpers
# ---------------------------------------------------------------------------


def normalized_cell(cells, error=ValueError) -> tuple[int, Cell] | None:
    """(first input letter, cell) of the one non-identity cell of a
    normalized slice; None when all its cells are identities.  Raises
    `error` when the slice has several."""
    pos, found = 0, None
    for cell in cells:
        if cell.kind != "id":
            if found is not None:
                raise error("slice with several non-identity cells")
            found = (pos, cell)
        pos += len(cell.in_letters())
    return found


def insert_slices(d: Diagram, boundary: int, rows: list[Slice]) -> Diagram:
    """Insert word-preserving slices at an interior boundary.

    The inserted block must consume and reproduce the boundary word there.
    """
    old = d.boundary_words()
    words = _extend(list(old[:boundary + 1]), rows)
    # rows that give back the word leave the words above it as they were;
    # any other word fails at the next slice, or is the new target
    if words[-1] == old[boundary]:
        words.extend(old[boundary + 1:])
    else:
        _extend(words, d.slices[boundary:])
    return Diagram(d.source, d.slices[:boundary] + tuple(rows) + d.slices[boundary:],
                   d.prefactor)._cache(words)


def wrap_slice(word: ObjectWord, pos: int, cell: Cell) -> list[Cell]:
    """One-nontrivial-cell slice acting at a given letter position."""
    ins = cell.in_letters()
    if word[pos:pos + len(ins)] != ins:
        raise BoundaryMismatch(f"cell {cell.kind} does not fit word at {pos}")
    row = [id_cell(l) for l in word[:pos]]
    row.append(cell)
    row.extend(id_cell(l) for l in word[pos + len(ins):])
    return row


class Stack:
    """Rows stacked on top of a diagram, each checked against the boundary
    word below it as it is added."""

    def __init__(self, d: Diagram):
        self.source = d.source
        self.slices = list(d.slices)
        self.words = list(d.boundary_words())

    def add(self, row) -> None:
        self.words.append(_next_word(self.words[-1], row, len(self.slices)))
        self.slices.append(row)

    def cell(self, pos: int, cell: Cell) -> None:
        self.add(wrap_slice(self.words[-1], pos, cell))

    def between(self, slices, nleft: int, nright: int) -> None:
        """Stack slices between identities on the nleft leftmost and the
        nright rightmost letters."""
        for s in slices:
            w = self.words[-1]
            self.add([*map(id_cell, w[:nleft]), *s, *map(id_cell, w[len(w) - nright:])])

    def diagram(self, prefactor: Scalar) -> Diagram:
        return Diagram(self.source, self.slices, prefactor)._cache(self.words)


def apply_cell(d: Diagram, pos: int, cell: Cell) -> Diagram:
    """Append one slice containing the cell at position pos."""
    st = Stack(d)
    st.cell(pos, cell)
    return st.diagram(d.prefactor)


def add_curl(d: Diagram, pos: int, positive: bool) -> Diagram:
    """Framing change +-1 on the strand at letter position pos: one twist
    cell, theta^{+-1}."""
    return apply_cell(d, pos, Cell("tpos" if positive else "tneg", (d.target[pos],)))


def encircle(d: Diagram, span: tuple[int, int], color: Color, framing: int = 0,
             sign: int = 1) -> Diagram:
    """Insert a meridian circle of the given color around letters [i, j).

    The circle crosses the enclosed strands once in front and once behind,
    linking each enclosed strand by its orientation sign.  Framing is
    |framing| twist cells on the circle.  Returns the new diagram; the
    circle is the component of the freshly created letters.
    """
    i, j = span
    w = d.target
    if not (0 <= i <= j <= len(w)):
        raise ValueError("span out of range")
    mer = (sign, color)
    st = Stack(d)
    st.cell(i, cap(mer, left=False))  # creates (flip mer, mer) at i
    # meridian letter sits at position i+1; twists for framing
    for _ in range(abs(framing)):
        st.cell(i + 1, Cell("tpos" if framing > 0 else "tneg", (mer,)))
    # pass in front (over) of the enclosed letters, left to right
    for t in range(j - i):
        st.cell(i + 1 + t, cross(mer, w[i + t], positive=True))
    # pass behind (under) on the way back
    for t in range(j - i - 1, -1, -1):
        st.cell(i + 1 + t, cross(w[i + t], mer, positive=True))
    st.cell(i, cup(mer, left=True))
    return st.diagram(d.prefactor)


def trace_closure(d: Diagram) -> Diagram:
    """Close an endomorphism diagram of a single letter around the right.

    Gives the closed diagram ev_r o (d (x) id) o coev_l whose renormalized
    invariant is the modified trace of the evaluation of d.
    """
    if len(d.source) != 1 or len(d.target) != 1 or d.source != d.target:
        raise ValueError("trace closure needs an endomorphism of one letter")
    letter = d.source[0]
    st = Stack(Diagram((), ()))
    st.cell(0, cap(letter, left=True))
    st.between(d.slices, 0, 1)
    st.cell(0, cup(letter, left=False))
    return st.diagram(d.prefactor)


# ---------------------------------------------------------------------------
# cutting a closed diagram open along an edge
# ---------------------------------------------------------------------------


def edge_word(words, boundary: int, pos: int, lowest: int = 1) -> ObjectWord:
    """words[boundary], the boundary word holding the edge at letter pos;
    refuses a boundary outside lowest <= boundary < len(words) or a
    position outside the word."""
    if not lowest <= boundary < len(words):
        raise ValueError("boundary index out of range")
    w = words[boundary]
    if not 0 <= pos < len(w):
        raise ValueError("letter position out of range")
    return w


def cut(ctx: ScalarContext, d: Diagram, boundary: int, pos: int) -> Diagram:
    """Cutting presentation of a closed diagram along one edge.

    The edge is the strand crossing the given slice boundary at letter
    position pos; it must be colored by a typical module or by a Kirby
    color, all of whose summands are typical.  The result is an
    endomorphism diagram of that single letter whose trace closure is
    isotopic to the input: its modified trace is the renormalized invariant,
    which `rt_eval.f_prime` gets by opening the diagram instead.  Duality
    bends route the remaining letters around the sides, with no crossings.
    """
    if not d.is_closed():
        raise ValueError("cut needs a closed diagram")
    w = edge_word(d.boundary_words(), boundary, pos)
    v = w[pos]
    if not isinstance(v[1], (Typical, Kirby)):
        raise wc.NotProjective(f"cut edge must be typical, got {v[1]!r}")
    x = w[:pos]
    y = w[pos + 1:]
    # one pass, bottom to top, with a running boundary word
    st = Stack(identity_diagram((v,)))
    # create the x-letters to the left: caps outermost first
    for t in range(len(x) - 1, -1, -1):
        st.cell(len(x) - 1 - t, cap(x[t], left=False))
    # create the y-letters to the right: caps outermost first
    base = 2 * len(x) + 1
    for t in range(len(y)):
        st.cell(base + t, cap(y[t], left=True))
    # the upper part (consumes x, v, y in the middle), then the lower part,
    # between the dual tails
    st.between(d.slices[boundary:], len(x), len(y))
    st.between(d.slices[:boundary], len(x), len(y))
    # close x-duals innermost first
    for t in range(len(x)):
        st.cell(len(x) - 1 - t, cup(x[t], left=True))
    # close y-duals innermost first
    for t in range(len(y) - 1, -1, -1):
        st.cell(1 + t, cup(y[t], left=False))
    return st.diagram(d.prefactor)


# ---------------------------------------------------------------------------
# stabilizations
# ---------------------------------------------------------------------------


def stabilize_projective(ctx: ScalarContext, d: Diagram, boundary: int, pos: int,
                         index_weight: complex) -> Diagram:
    """Projective stabilization along the edge at (boundary, pos).

    Replaces an identity segment of a typical-colored edge by the coupon
    pair (section, id (x) right evaluation) introducing a detour colored by
    the simple projective module V of highest weight index_weight (of
    generic degree).  Skein-equivalent: closed evaluations are unchanged.

    The section is written down, not solved for: with c2 = c_{V,U} c_{U,V},
    s = (c2 (x) id_V*) o (id_U (x) coev_l) / lambda, where lambda id_U is the
    right partial trace of c2, the open Hopf link; so (id (x) ev_r) o s = id.
    The naive section id (x) coev_l fails, as qdim(V) = 0.  But lambda =
    q^{mu nu} {m mu}/{mu}, mu and nu the signed middle weights of U and V, is
    (-1)^{m-1} q^{mu nu} m/d(U), d the modified dimension: nonzero wherever
    U is typical.  A lambda within tol of zero is refused.
    """
    w = edge_word(d.boundary_words(), boundary, pos, lowest=0)
    letter = w[pos]
    if not isinstance(letter[1], Typical):
        raise wc.NotProjective("projective stabilization needs a typical edge")
    vi = Typical(complex(index_weight))
    uword = (letter,)
    bigword = (letter, (1, vi), (-1, vi))
    U = realize_letter(ctx, letter)
    Vi = realize_letter(ctx, (1, vi))
    c2 = wc.braiding(ctx, Vi, U) @ wc.braiding(ctx, U, Vi)
    lam = wc.scalar_of(ctx, wc.partial_trace(ctx, c2, [U, Vi], 0))
    if abs(lam) <= ctx.tol:
        raise la.NumericInstability(f"open Hopf link {complex(lam):.3e} vanishes")
    # coev_l pairs basis vectors without a pivot, so (c2 (x) id)(id (x)
    # coev_l) is c2 with its input V leg turned into an output V* leg
    dU, dV = U.dim, Vi.dim
    smat = c2.reshape(dU, dV, dU, dV).transpose(0, 1, 3, 2).reshape(dU * dV * dV, dU) / lam
    eye_u = la.eye(ctx, dU)
    proj = la.kron(eye_u, wc.ev_coev(ctx, Vi, "ev_r"))
    resid = la.norm_inf(proj @ smat - eye_u)
    if resid > ctx.tol:
        raise la.NumericInstability(f"section residual {resid:.3e}")
    w2 = w[:pos] + bigword + w[pos + 1:]
    rows = [
        wrap_slice(w, pos, coupon(uword, bigword, smat)),
        wrap_slice(w2, pos, coupon(bigword, uword, proj)),
    ]
    return insert_slices(d, boundary, rows)


def stabilize_generic(ctx: ScalarContext, d: Diagram, boundary: int,
                      span: tuple[int, int], g) -> Diagram:
    """Generic stabilization around a vertical corridor of the diagram.

    Inserts the two-component Kirby-colored pair: a -1 framed circle of
    index g around the corridor strands, and a +1 framed circle of index g
    around that circle, scaling the prefactor by 1/(Delta_- Delta_+).  The
    corridor's degree flux must be (the generic) g for the enclosing
    invariant to be unchanged.
    """
    deg = g if isinstance(g, wc.Degree) else wc.Degree(complex(g))
    if deg.is_critical(ctx.tol):
        raise wc.CriticalDegree(f"stabilization index {deg.g} is critical")
    consts = wc.constants(ctx)
    tag = fresh_tag(d)

    # two concentric circles of index g around the corridor, oppositely
    # oriented, framings -1 and +1; blowing both down is a trivial double
    # surgery, and the two stabilization skeins cancel their twists
    out = encircle_at(d, boundary, span, Kirby(deg.g, tag), framing=-1, sign=+1)
    out = encircle_at(out, boundary, span, Kirby(deg.g, tag + 1), framing=+1, sign=-1)
    prefactor = out.prefactor / (consts.delta_minus * consts.delta_plus)
    return replace(out, prefactor=prefactor)._cache(out._words, out._comp)


def encircle_at(d: Diagram, boundary: int, span: tuple[int, int], color: Color,
                framing: int = 0, sign: int = 1) -> Diagram:
    """Encircle strands at an interior slice boundary, as `encircle` does."""
    w = d.boundary_words()[boundary]
    rows = encircle(Diagram(w, []), span, color, framing=framing, sign=sign).slices
    return insert_slices(d, boundary, rows)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def terms_from_json(terms) -> FormalColorSum:
    return FormalColorSum(tuple((complex_from_json(co[0], co[1]), color_from_json(c))
                                for co, c in terms))


def color_to_json(c: Color):
    if isinstance(c, Typical):
        a = complex(c.alpha)
        return {"typical": {"re": a.real, "im": a.imag}}
    if isinstance(c, Kirby):
        out = {"g": _pair(c.g), "tag": c.tag, "surgery": c.surgery}
        if c.terms is not None:
            out["terms"] = [[_pair(co), color_to_json(col)] for co, col in c.terms.terms]
        return {"kirby": out}
    return {"sigma": c.k}


def integer_from_json(v) -> int:
    """v as an int: a JSON integer, or an integral float such as 2.0.
    ValueError for anything else, such as 6.5, "6" or true, which int()
    would truncate or convert."""
    if isinstance(v, float) and v.is_integer() or isinstance(v, int) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"not an integer: {v!r}")


def complex_from_json(re, im=0.0) -> complex:
    """re + i im from JSON numbers; ValueError for any other value, such as true."""
    for v in (re, im):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"not a number: {v!r}")
    return complex(re, im)


def color_from_json(obj) -> Color:
    if "typical" in obj:
        return Typical(complex_from_json(obj["typical"]["re"], obj["typical"]["im"]))
    if "sigma" in obj:
        return Sigma(integer_from_json(obj["sigma"]))
    if "kirby" in obj:
        k = obj["kirby"]
        if not isinstance(k["surgery"], bool):
            raise ValueError(f"surgery is not a boolean: {k['surgery']!r}")
        terms = terms_from_json(k["terms"]) if "terms" in k else None
        return Kirby(complex_from_json(*k["g"]), integer_from_json(k["tag"]), k["surgery"], terms)
    raise ValueError(f"bad color: {obj!r}")


def letter_to_json(l: Letter):
    return ["+" if l[0] > 0 else "-", color_to_json(l[1])]


def letter_from_json(obj) -> Letter:
    if obj[0] not in ("+", "-"):
        raise ValueError(f"letter sign is not '+' or '-': {obj[0]!r}")
    return (1 if obj[0] == "+" else -1, color_from_json(obj[1]))


def _matrix_to_json(m: np.ndarray):
    return [[[complex(x).real, complex(x).imag] for x in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(a, b) for a, b in row] for row in rows],
                    dtype=np.complex128)


def cell_to_json(cell: Cell):
    out = {"kind": cell.kind}
    if cell.kind == "coupon":
        out["domain"] = [letter_to_json(l) for l in cell.domain]
        out["codomain"] = [letter_to_json(l) for l in cell.codomain]
        out["matrix"] = _matrix_to_json(cell.matrix)
    else:
        out["letters"] = [letter_to_json(l) for l in cell.letters]
    return out


def cell_from_json(obj) -> Cell:
    """ValueError on an unknown kind or on a letter count it does not take."""
    if obj["kind"] == "coupon":
        return coupon(
            tuple(letter_from_json(l) for l in obj["domain"]),
            tuple(letter_from_json(l) for l in obj["codomain"]),
            _matrix_from_json(obj["matrix"]),
        )
    return Cell(obj["kind"], tuple(letter_from_json(l) for l in obj["letters"]))


def diagram_to_json(d: Diagram):
    out = {
        "source": [letter_to_json(l) for l in d.source],
        "slices": [{"cells": [cell_to_json(c) for c in s]} for s in d.slices],
    }
    pf = complex(d.prefactor)
    if pf != 1.0 + 0.0j:
        out["prefactor"] = [pf.real, pf.imag]
    return out


def diagram_from_json(obj) -> Diagram:
    """The diagram's structure.  ValueError on a `formal` map, which names
    components by id and is read with its presentation."""
    if "formal" in obj:
        raise ValueError("a formal map is read with its presentation")
    source = tuple(letter_from_json(l) for l in obj["source"])
    slices = [[cell_from_json(c) for c in s["cells"]] for s in obj["slices"]]
    pf = obj.get("prefactor", (1.0, 0.0))
    return Diagram(source, slices, complex_from_json(pf[0], pf[1]))
