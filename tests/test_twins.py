"""Twin diagrams: a wide and a narrow braid closure of one 0-framed knot
have one F', at every level.

- T(p, n) = T(n, p): the closure of (s1 ... s_{n-1})^p on n strands is
  the closure of (s1 ... s_{p-1})^n on p strands.
- A Markov stabilisation b -> b s_n^{+-1} (Birman, Braids, Links, and
  Mapping Class Groups, 1974) adds a strand and leaves the knot as it was.

Each closure is colored alpha = 0.37+0.21i and 0-framed by twist cells, so
the twins differ in their diagram, their width and their summation order,
not in their value.  The narrow twin is the reference, at 106 bits; the
wide one runs at 53 bits and must agree within 1e-10 relative.  Measured:
at most 7.0e-14 at r = 6 and 1.8e-12 at r = 10, both on a random knot;
1.1e-12 on the 5_2 word +3 at r = 10.
"""

import random

import pytest

from cgpkit import fixtures as fx
from cgpkit import rt_eval
from cgpkit import weightcat as wc
from cgpkit.qscalars import ScalarContext

ALPHA = wc.Typical(0.37 + 0.21j)
FIVE_TWO = [1, 1, 2, -1, 2, 2]


def _closure(n, word):
    """The closure of `word` on n strands, 0-framed by twist cells on its
    first strand."""
    return fx.braid_closure(ALPHA, n, word, [-sum(1 if g > 0 else -1 for g in word)])


def _torus(p, n):
    """T(p, n) as the closure of (s1 ... s_{n-1})^p on n strands."""
    return n, list(range(1, n)) * p


def _stabilised(n, word, signs):
    """(n, word) with one Markov stabilisation per sign, on new strands."""
    return n + len(signs), word + [s * (n + t) for t, s in enumerate(signs)]


def _twins(r):
    """(name, wide, narrow) per case at level r: T(2, n) for odd n up to
    9 at r = 6 and 7 at r = 10 (1.8 s; n = 11 at r = 6 takes 3.4 s),
    T(3, 4), T(3, 5) and the 5_2 word stabilised +1 to +3."""
    cases = [(f"T(2,{n})", _torus(2, n), _torus(n, 2)) for n in range(3, 11 if r == 6 else 9, 2)]
    cases += [(f"T(3,{n})", _torus(3, n), _torus(n, 3)) for n in (4, 5)]
    cases += [(f"5_2+{k}", _stabilised(3, FIVE_TWO, [1] * k), (3, FIVE_TWO)) for k in (1, 2, 3)]
    return cases


def _is_knot(n, word):
    """Whether the closure of `word` on n strands has one component: its
    permutation is one n-cycle."""
    perm = list(range(n))
    for g in word:
        k = abs(g)
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
    at, steps = perm[0], 1
    while at != 0:
        at, steps = perm[at], steps + 1
    return steps == n


def _random_knots(seed, count):
    """`count` random braid words on 2 or 3 strands, 6 to 10 letters, whose
    closures are knots, each with its twice stabilised twin."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.choice((2, 3))
        word = [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(rng.randint(6, 10))]
        if _is_knot(n, word):
            out.append((_stabilised(n, word, [rng.choice((-1, 1)) for _ in range(2)]), (n, word)))
    return out


def _assert_twins(r, wide, narrow):
    want = rt_eval.f_prime(ScalarContext(r, precision=106), _closure(*narrow))
    got = rt_eval.f_prime(ScalarContext(r), _closure(*wide))
    assert abs(got - want) <= 1e-10 * abs(want), (r, wide, narrow, complex(got), complex(want))


@pytest.mark.parametrize("r, wide, narrow", [pytest.param(r, wide, narrow, id=f"r{r}-{name}")
                                             for r in (6, 10) for name, wide, narrow in _twins(r)])
def test_wide_closures_match_their_narrow_twins(r, wide, narrow):
    _assert_twins(r, wide, narrow)


@pytest.mark.parametrize("r", [6, 10])
def test_random_knots_match_their_twice_stabilised_twins(r):
    for wide, narrow in _random_knots(30 + r, 20):
        _assert_twins(r, wide, narrow)
