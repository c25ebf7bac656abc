"""Independent reference computations used by the workload checks.

Nothing here calls cgpkit: the checks compare the program's outputs with
these closed forms and with properties the method must have.
"""

from __future__ import annotations

import cmath
import re

import numpy as np


def modified_dimension(r: int, alpha: complex) -> complex:
    """d(V_alpha) = (-1)^(m-1) m {alpha-(m-1)} / {m(alpha-(m-1))} at level r,
    with m = r/2, {z} = q^z - q^-z and q = exp(2 pi i / r)."""
    m = r // 2
    mu = complex(alpha) - (m - 1)

    def brace(z):
        return cmath.exp(2j * cmath.pi * z / r) - cmath.exp(-2j * cmath.pi * z / r)

    return (-1) ** (m - 1) * m * brace(mu) / brace(m * mu)


def q_power(r: int, z: complex) -> complex:
    return cmath.exp(2j * cmath.pi * complex(z) / r)


def twist(r: int, alpha: complex) -> complex:
    """Twist eigenvalue q^((mu^2 - (m-1)^2)/2) of V_alpha, mu = alpha-(m-1)."""
    m = r // 2
    mu = complex(alpha) - (m - 1)
    return q_power(r, (mu * mu - (m - 1) ** 2) / 2)


def braid_permutation(word: list[int], n: int) -> list[int]:
    perm = list(range(n))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def closes_to_knot(word: list[int], n: int) -> bool:
    """True when the braid closure has one component (an n-cycle)."""
    perm = braid_permutation(word, n)
    x, steps = perm[0], 1
    while x != 0:
        x, steps = perm[x], steps + 1
    return steps == n


def braid_seifert_matrix(word: list[int], n: int) -> np.ndarray:
    """Seifert matrix of a braid closure from Seifert's algorithm.

    The surface is n stacked disks joined by one half-twisted band per
    crossing.  For generator i with crossings at word positions
    p_1 < ... < p_k, the loops through bands (p_j, p_{j+1}) of the same
    generator form a basis of H_1.  Entries are the linking numbers of
    each loop with the positive push-off of the others: the self-linking
    -(e_p + e_q)/2, the shared-band terms of consecutive loops of one
    generator, and +-1 for interleaved loops of adjacent generators.
    """
    loops = []
    for i in range(1, n):
        pos = [k for k, g in enumerate(word) if abs(g) == i]
        loops.extend((i, p, q) for p, q in zip(pos, pos[1:]))
    eps = [1 if g > 0 else -1 for g in word]
    V = np.zeros((len(loops), len(loops)))
    for a, (i, p, q) in enumerate(loops):
        for b, (j, s, u) in enumerate(loops):
            if a == b:
                V[a, b] = -(eps[p] + eps[q]) / 2
            elif i == j and q == s:
                V[a, b] = (1 + eps[q]) / 2
            elif i == j and p == u:
                V[a, b] = (eps[p] - 1) / 2
            elif j == i + 1 and p < s < q < u:
                V[a, b] = 1
            elif j == i + 1 and s < p < u < q:
                V[a, b] = -1
    return V


def alexander_from_seifert(V: np.ndarray, t: complex) -> complex:
    """Symmetric Alexander polynomial det(V - t V^T) / t^g of a knot,
    normalised so that its value at t = 1 is +1."""
    g = V.shape[0] // 2
    at_one = np.linalg.det(V - V.T).real
    return complex(np.linalg.det(V - t * V.T) / t ** g / at_one)


def alexander_from_burau(word: list[int], n: int, t: complex) -> complex:
    """Alexander polynomial of a braid-closure knot from the Burau matrix,
    up to a unit +-t^k; used only to test the Seifert construction."""
    M = np.eye(n, dtype=complex)
    for g in word:
        i = abs(g) - 1
        blk = np.array([[1 - t, t], [1, 0]], dtype=complex)
        if g < 0:
            blk = np.linalg.inv(blk)
        B = np.eye(n, dtype=complex)
        B[i:i + 2, i:i + 2] = blk
        M = M @ B
    return complex(np.linalg.det((np.eye(n) - M)[1:, 1:]))


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def perturb(value, rel: float = 1e-6):
    """The value scaled by (1 + rel): numbers directly, every numeric token
    of a text, and each field of a CLI result (exit code, stdout, stderr)."""
    if isinstance(value, tuple):
        return tuple(perturb(v, rel) for v in value)
    if isinstance(value, str):
        return _NUMBER.sub(lambda m: format(float(m.group()) * (1 + rel), ".17g"), value)
    return value * (1 + rel)
