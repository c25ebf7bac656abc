"""F'(K)/d(alpha) of a 0-framed knot K is a Laurent polynomial in
q^(2 alpha): the ADO invariant (Akutsu, Deguchi and Ohtsuki, J. Knot Theory
Ramifications 1 (1992) 161), and at r = 4 the Alexander polynomial.  Its
coefficients, read off by a DFT over the color, are an oracle for every
53-bit sweep that does not share the sweep's summation order."""

import importlib.util
import random
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


# An exact width ladder.  Typical colours at which F'/d(alpha) of a
# 0-framed knot is its Alexander polynomial in t = q^(2 alpha) at r = 4; the
# largest relative deviation measured was 1.9e-14 (T(2, 15)), and no value
# below lies near a zero of its polynomial (|Delta(t)| >= 0.2).
WIDTH_ALPHAS = (0.37, 0.61 + 0.13j)
WIDTH_REL = 1e-10


def _alexander_ratio(ctx, n, word, alpha):
    """F'/d(alpha) of the 0-framed closure of `word` on n strands."""
    knot = _closure(n, word)(wc.Typical(alpha))
    return rt_eval.f_prime(ctx, knot) / wc.modified_dimension(ctx, alpha)


@pytest.mark.parametrize("n", range(3, 19, 2))
def test_torus_knots_match_their_alexander_polynomial(n):
    """The closure of (s_1 ... s_{n-1})^2 on n strands is T(2, n) for odd
    n, with Alexander polynomial t^(-(n-1)/2) sum_{k<n} (-t)^k.  n = 17 is
    a closed diagram 17 strands wide: 1.3 s and 0.2 GB per colour on a
    2-CPU x86 machine, where n = 19 takes 8.5 s and 0.5 GB."""
    ctx = ScalarContext(4)
    word = list(range(1, n)) * 2
    for alpha in WIDTH_ALPHAS:
        t = complex(ctx.q_power(2 * alpha))
        want = t ** (-(n - 1) / 2) * sum((-t) ** k for k in range(n))
        got = _alexander_ratio(ctx, n, word, alpha)
        assert abs(got - want) <= WIDTH_REL * abs(want), (n, alpha, got, want)


def test_random_braid_knots_match_the_seifert_alexander_polynomial():
    """20 seeded random braid knots on 3 to 7 strands, each with an
    Alexander polynomial other than the unknot's at the sampled t, against
    det(V - t V^T) / t^g of the braid's Seifert matrix V."""
    ctx = ScalarContext(4)
    rng = random.Random(27)
    alpha = WIDTH_ALPHAS[1]
    t = complex(ctx.q_power(2 * alpha))
    seen = 0
    while seen < 20:
        n = rng.randint(3, 7)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(n, 2 * n + 4))]
        if not oracles.closes_to_knot(word, n):
            continue
        want = oracles.alexander_from_seifert(oracles.braid_seifert_matrix(word, n), t)
        if abs(want - 1) < 1e-6:
            continue
        seen += 1
        got = _alexander_ratio(ctx, n, word, alpha)
        assert abs(got - want) <= WIDTH_REL * abs(want), (word, got, want)
