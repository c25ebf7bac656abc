"""F'(K)/d(alpha) of a 0-framed knot K is a Laurent polynomial in
q^(2 alpha): the ADO invariant (Akutsu, Deguchi and Ohtsuki, J. Knot Theory
Ramifications 1 (1992) 161), and at r = 4 the Alexander polynomial.  Its
coefficients, read off by a DFT over the color, are an oracle for every
53-bit sweep that does not share the sweep's summation order."""

import importlib.util
from pathlib import Path

import pytest

from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext
from conftest import laurent_coefficients
from test_acceptance import seifert_alexander

_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

ALPHA0 = 0.37  # real and not an integer, so every sample is typical


def _closure(n, word):
    """The closure of `word` on n strands, 0-framed: twist cells undo its writhe."""
    writhe = sum(1 if g > 0 else -1 for g in word)
    return lambda color: fx.braid_closure(color, n, word, [-writhe])


# (name, builder, Seifert matrix); the 3-strand closure is 5_2 (Alexander
# polynomial 2t - 3 + 2/t, genus 1), the 4-strand one the positive word of
# the `knots` workload (genus 2)
KNOTS = [("figure-eight", fx.figure_eight, [[1, 1], [0, -1]]),
         ("trefoil", fx.trefoil, [[-1, 1], [0, -1]]),
         ("3-strand", _closure(3, [1, 1, 2, -1, 2, 2]),
          oracles.braid_seifert_matrix([1, 1, 2, -1, 2, 2], 3)),
         ("4-strand", _closure(4, [1, 2, 3, 1, 2, 3, 2]),
          oracles.braid_seifert_matrix([1, 2, 3, 1, 2, 3, 2], 4))]


# Measured, not asserted: the degree in q^(2 alpha) was g(K) (r/2 - 1) for
# all four knots at r = 4, 6 and 10, with g(K) = 1, 1, 1 and 2, so the
# support lay in |p| <= 2r - 4.  The largest deviations measured were
# 1.4e-13 outside the support (5_2 at r = 10), 3.0e-14 from Z[q] (5_2 at
# r = 6) and 3.6e-15 from the Alexander polynomial (the 4-strand closure).
@pytest.mark.parametrize("r", [4, 6, 10])
def test_knot_values_are_laurent_polynomials(r):
    """With 6r samples, every coefficient of an odd power of x or beyond
    |p| = 2r is below 1e-12; at r = 4 and 6 every coefficient is within
    1e-12 of Z[q] (rank 2 there, so one complex value fixes the point),
    and at r = 4 the coefficients are those of the Seifert-matrix
    Alexander polynomial in t = x^2."""
    ctx = ScalarContext(r)
    n, q = 6 * r, complex(ctx.q)
    for name, knot, seifert in KNOTS:
        def ratio(a):
            return rt_eval.f_prime(ctx, knot(wc.Typical(a))) / wc.modified_dimension(ctx, a)

        c = laurent_coefficients(ctx, ratio, ALPHA0, n)
        tail = max(abs(v) for p, v in c.items() if p % 2 or abs(p) > 2 * r)
        assert tail <= 1e-12, (name, tail)
        if r == 10:
            continue
        for p, v in c.items():
            b = v.imag / q.imag
            a = v.real - b * q.real
            assert abs(v - (round(a) + round(b) * q)) <= 1e-12, (name, p, v)
        if r == 4:
            alexander = laurent_coefficients(
                ctx, lambda a: seifert_alexander(seifert, ctx.q_power(2 * a)), ALPHA0, n)
            assert max(abs(c[p] - alexander[p]) for p in c) <= 1e-12, name
