"""Root-of-unity scalar arithmetic for an even level r.

Everything downstream is anchored at the primitive r-th root of unity
q = exp(2*pi*i/r).  The level must be even, at least 4, and not divisible
by 8; these are the levels at which the whole construction works.  The
context also carries the periodicity rbar (r for r = 2 mod 4, r/2 for
r = 4 mod 8), the working precision in bits, and the comparison tolerance
used by every numerical equality test in the package.

At the default precision (53 bits) scalars are plain Python complex
numbers.  Above 53 bits they are mpmath complex numbers created through a
private mpmath context, one per precision and shared by every
ScalarContext at that precision: contexts at different precisions never
interfere with one another, and equal contexts, which share every cached
matrix, also share the mpmath types of its entries.  This module's
scalars (`ScalarContext.sqrt` among them) and `_linalg`'s matrices are the
only places that read the precision to choose the arithmetic.  Every
number the package cannot trust is refused as this module's
`NumericInstability`, which `_linalg` and `cgpkit` import.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

Scalar = complex  # or mpmath.mpc in high-precision mode


class NumericInstability(ArithmeticError):
    """A rank with no clear gap, a failed scalar check, or a bad number."""


@lru_cache(maxsize=None)
def _make_mp(precision: int) -> MPContext:
    from mpmath.ctx_mp import MPContext  # 53-bit runs never load mpmath

    ctx = MPContext()
    ctx.prec = precision + 16  # guard digits; results carry full precision
    return ctx


@dataclass(frozen=True)
class ScalarContext:
    """Immutable arithmetic context at even level r.

    Parameters
    ----------
    r : even integer >= 4 with r % 8 != 0.
    precision : working precision in bits (>= 53; above 53 switches the
        scalar type to mpmath complex numbers).
    tol : dimensionless comparison tolerance, positive and finite.
    """

    r: int
    precision: int = 53
    tol: float = 1e-9
    _mp: MPContext | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("level", self.r), ("precision", self.precision)):
            try:
                operator.index(value)  # what range() and shapes take: no float, however whole
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.r < 4 or self.r % 2 != 0:
            raise ValueError(f"level must be an even integer >= 4, got {self.r}")
        if self.r % 8 == 0:
            raise ValueError(f"level must not be divisible by 8, got {self.r}")
        if self.precision < 53:
            raise ValueError("precision must be at least 53 bits")
        if not 0 < self.tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.precision > 53 and self._mp is None:
            object.__setattr__(self, "_mp", _make_mp(self.precision))

    # -- basic properties -------------------------------------------------

    @property
    def nilpotency(self) -> int:
        """Order r/2 at which the raising/lowering generators vanish."""
        return self.r // 2

    @property
    def rbar(self) -> int:
        """Periodicity: r when r = 2 mod 4, r/2 when r = 4 mod 8."""
        return self.r if self.r % 4 == 2 else self.r // 2

    @property
    def pivot_power(self) -> int:
        """Exponent p with pivotal element K^p, p = 1 - r/2.

        On integer-weight objects this acts exactly like K^{r/2+1} (the two
        powers differ by the transparent K^r), but only K^{1-r/2} makes the
        twist self-dual on complex-weight modules, i.e. gives a ribbon and
        not merely a pivotal braided category.
        """
        return 1 - self.r // 2

    @property
    def q(self) -> Scalar:
        return self.q_power(1)

    @property
    def high_precision(self) -> bool:
        return self.precision > 53

    # -- scalar constructors ----------------------------------------------

    def scalar(self, value) -> Scalar:
        """Coerce a number to the context's scalar type."""
        if self.high_precision:
            return self._mp.mpc(value)
        return complex(value)

    def q_power(self, z) -> Scalar:
        """q^z = exp(z * 2*pi*i / r) for an arbitrary complex exponent; at
        53 bits NumericInstability unless q^z is a finite nonzero double."""
        if self.high_precision:
            mp = self._mp
            return mp.exp(mp.mpc(z) * 2j * mp.pi / self.r)
        z = complex(z)
        if z.imag == 0.0:
            # unit-modulus result for real exponents
            return cmath.rect(1.0, 2.0 * math.pi * z.real / self.r)
        try:
            qz = cmath.exp(z * 2j * math.pi / self.r)
        except OverflowError:
            qz = 0j
        if not (qz and cmath.isfinite(qz)):
            raise NumericInstability(f"q^{z} is out of double range at level {self.r}")
        return qz

    def sqrt(self, z) -> Scalar:
        """The principal square root of z."""
        if self.high_precision:
            return self._mp.sqrt(z)
        return cmath.sqrt(z)

    def brace(self, z) -> Scalar:
        """{z} = q^z - q^{-z}.  Antisymmetric in z exactly, by evaluating
        on a canonical sign representative."""
        zc = complex(z)
        if zc.real < 0 or (zc.real == 0 and zc.imag < 0):
            return -self.brace(-z)
        qz = self.q_power(z)
        return qz - 1 / qz

    def qint(self, k) -> Scalar:
        """Quantum integer [k] = {k}/{1}; defined for complex k as well."""
        return self.brace(k) / self.brace(1)

    def qfact_nonzero(self, k: int) -> Scalar:
        """[k]!, raising NumericInstability if any factor vanishes.

        Used wherever [k]! sits in a denominator; vanishing happens exactly
        when k >= r/2, which callers are expected to avoid.
        """
        out = self.scalar(1)
        for j in range(1, k + 1):
            f = self.qint(j)
            if abs(f) <= self.tol:
                raise NumericInstability(f"[{j}] vanishes at level {self.r}")
            out = out * f
        return out
