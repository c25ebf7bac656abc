"""Evaluation of sliced diagrams into matrices, and the renormalized
invariant of admissible closed diagrams.

The functor sends a diagram to the composite of its slice matrices; the
basis of a tensor word is lexicographic in letter position then weight
index.  Closed diagrams with a typical edge are evaluated through a
cutting presentation and the modified trace, which is independent of the
chosen cut.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import _linalg as la
from . import diagrams as dg
from . import weightcat as wc
from .qscalars import ScalarContext, Scalar


class NotAdmissible(ValueError):
    """Closed evaluation requested without any typical edge."""


@lru_cache(maxsize=None)
def _cell_matrix_cached(ctx: ScalarContext, kind: str, letters) -> np.ndarray:
    if kind == "xpos":
        V = wc.realize_letter(ctx, letters[0])
        W = wc.realize_letter(ctx, letters[1])
        return wc.braiding(ctx, V, W)
    if kind == "xneg":
        V = wc.realize_letter(ctx, letters[1])
        W = wc.realize_letter(ctx, letters[0])
        return wc.braiding_inv(ctx, V, W)
    sign, color = letters[0]
    M = wc.realize_letter(ctx, (1, color))
    flavor = {
        ("cup_l", 1): "ev_l", ("cup_l", -1): "ev_r",
        ("cup_r", 1): "ev_r", ("cup_r", -1): "ev_l",
        ("cap_l", 1): "coev_l", ("cap_l", -1): "coev_r",
        ("cap_r", 1): "coev_r", ("cap_r", -1): "coev_l",
    }[(kind, 1 if sign > 0 else -1)]
    return wc.ev_coev(ctx, M, flavor)


def cell_matrix(ctx: ScalarContext, cell: dg.Cell) -> np.ndarray:
    if cell.kind == "coupon":
        return cell.matrix if not ctx.high_precision else la.asarray(ctx, cell.matrix)
    return _cell_matrix_cached(ctx, cell.kind, cell.letters)


def _letter_dims(ctx: ScalarContext, word: wc.ObjectWord) -> list[int]:
    return [wc.color_dim(ctx, c) for _, c in word]


def evaluate(ctx: ScalarContext, d: dg.Diagram) -> np.ndarray:
    """Matrix of the diagram from realize(source) to realize(target).

    Functorial under compose and monoidal under tensor.  The diagram's
    scalar prefactor multiplies the result.  Formal color labels must be
    expanded first.
    """
    if d.formal:
        raise ValueError("diagram carries formal colors; use evaluate_formal")
    words = d.boundary_words()
    src_dim = int(np.prod(_letter_dims(ctx, words[0]))) if len(words[0]) else 1
    state = la.eye(ctx, src_dim)
    for s, cells in enumerate(d.slices):
        dims = _letter_dims(ctx, words[s])
        pos = 0
        out_dims_prefix: list[int] = []
        for cell in cells:
            nin = len(cell.in_letters())
            if cell.kind == "id":
                out_dims_prefix.append(dims[pos])
                pos += 1
                continue
            m = cell_matrix(ctx, cell)
            din = int(np.prod(dims[pos:pos + nin])) if nin else 1
            dl = int(np.prod(out_dims_prefix + [1]))
            dr = int(np.prod(dims[pos + nin:] + [1]))
            state = _apply_local(ctx, state, m, dl, din, dr, src_dim)
            out_lets = cell.out_letters()
            out_dims_prefix.extend(wc.color_dim(ctx, c) for _, c in out_lets)
            dims[pos:pos + nin] = [wc.color_dim(ctx, c) for _, c in out_lets]
            pos += len(out_lets)
    return state * ctx.scalar(d.prefactor)


def _apply_local(ctx: ScalarContext, state: np.ndarray, m: np.ndarray,
                 dl: int, din: int, dr: int, src: int) -> np.ndarray:
    # state: (dl * din * dr, src); apply m (dout x din) on the middle factor.
    # Broadcasting m over the left index writes the product straight into
    # the new layout, so the state is never copied into transposed order.
    y = np.matmul(m, state.reshape(dl, din, dr * src))
    return y.reshape(dl * m.shape[0] * dr, src)


def expand_formal(ctx: ScalarContext, d: dg.Diagram,
                  extra: dict[int, wc.FormalColorSum] | None = None):
    """Iterate (coefficient, plain diagram) over all formal color choices."""
    assignments = dict(d.formal)
    if extra:
        for cid, fc in extra.items():
            if cid in assignments:
                raise ValueError(f"component {cid} already formally colored")
            assignments[cid] = fc
    if not assignments:
        yield ctx.scalar(1), d
        return
    comp_ids = sorted(assignments)
    for combo in itertools.product(*(assignments[c].terms for c in comp_ids)):
        coeff = ctx.scalar(1)
        plain = d
        for cid, (co, col) in zip(comp_ids, combo):
            coeff = coeff * co
            plain = plain.recolor_component(cid, col)
        plain.formal = {}
        yield coeff, plain


def evaluate_formal(ctx: ScalarContext, d: dg.Diagram,
                    extra: dict[int, wc.FormalColorSum] | None = None) -> np.ndarray:
    """Linear expansion of Kirby-colored components, summed with coefficients."""
    total = None
    for coeff, plain in expand_formal(ctx, d, extra):
        val = coeff * evaluate(ctx, plain)
        total = val if total is None else total + val
    return total


def find_typical_edge(ctx: ScalarContext, d: dg.Diagram) -> tuple[int, int] | None:
    words = d.boundary_words()
    for b in range(1, len(words)):
        for i, (sign, color) in enumerate(words[b]):
            if isinstance(color, wc.Typical):
                return (b, i)
    return None


def f_prime(ctx: ScalarContext, d: dg.Diagram,
            edge: tuple[int, int] | None = None,
            extra: dict[int, wc.FormalColorSum] | None = None) -> Scalar:
    """Renormalized invariant of an admissible closed diagram.

    Cuts along a typical edge, evaluates, and applies the modified trace;
    the value does not depend on the chosen cut.  Formal color labels are
    expanded linearly before cutting.
    """
    if not d.is_closed():
        raise ValueError("renormalized invariant needs a closed diagram")
    total = ctx.scalar(0)
    found_any = False
    for coeff, plain in expand_formal(ctx, d, extra):
        e = edge if edge is not None else find_typical_edge(ctx, plain)
        if e is None:
            raise NotAdmissible("closed diagram has no typical edge to cut")
        found_any = True
        cut_d = dg.cut(ctx, plain, e[0], e[1])
        word = cut_d.source
        mat = evaluate(ctx, cut_d)
        total = total + coeff * wc.modified_trace(ctx, word, mat)
    if not found_any:
        raise NotAdmissible("empty expansion")
    return total
