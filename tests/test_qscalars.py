import cmath
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgpkit.qscalars import NumericInstability, ScalarContext


def test_context_validation():
    with pytest.raises(ValueError):
        ScalarContext(5)
    with pytest.raises(ValueError):
        ScalarContext(8)
    with pytest.raises(ValueError):
        ScalarContext(2)
    with pytest.raises(ValueError):
        ScalarContext(6, precision=32)
    for tol in (0.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ScalarContext(6, tol=tol)


@pytest.mark.parametrize("args, kwargs, message", [
    ((4.0,), {}, "level must be an integer, got 4.0"),
    ((6.0,), {}, "level must be an integer, got 6.0"),
    (("6",), {}, "level must be an integer, got '6'"),
    ((6,), {"precision": 53.5}, "precision must be an integer, got 53.5"),
    ((6,), {"precision": 106.0}, "precision must be an integer, got 106.0"),
])
def test_a_level_or_precision_that_is_no_integer_is_refused(args, kwargs, message):
    """A whole float is refused too: a float level died later as a bare
    TypeError, and a fractional precision built a fractional mpmath one."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScalarContext(*args, **kwargs)


def test_rbar_periodicity():
    assert ScalarContext(6).rbar == 6
    assert ScalarContext(10).rbar == 10
    assert ScalarContext(4).rbar == 2
    assert ScalarContext(12).rbar == 6
    for r in (4, 6, 12):
        assert ScalarContext(r).rbar % 2 == 0


def test_q_power_examples():
    c4 = ScalarContext(4)
    assert abs(c4.q_power(1) - 1j) < 1e-15
    assert abs(c4.q_power(2) + 1) < 1e-15
    c6 = ScalarContext(6)
    assert abs(c6.q_power(3) + 1) < 1e-15


def test_q_power_unit_modulus_real_exponent():
    ctx = ScalarContext(6)
    for z in (0.3, 1.7, -2.25, 11.0):
        assert abs(abs(ctx.q_power(z)) - 1.0) < 1e-15


def test_primitive_root():
    for r in (4, 6, 10):
        ctx = ScalarContext(r)
        assert abs(ctx.q_power(r) - 1) < 1e-12
        for k in range(1, r):
            assert abs(ctx.q_power(k) - 1) > 0.1


def test_brace_examples():
    c4 = ScalarContext(4)
    assert abs(c4.brace(0)) == 0.0
    assert abs(c4.brace(1) - 2j) < 1e-15
    c6 = ScalarContext(6)
    assert abs(c6.brace(1) - 2j * cmath.sin(cmath.pi / 3)) < 1e-15


def test_qint_examples():
    c4 = ScalarContext(4)
    assert abs(c4.qint(2)) < 1e-15
    c6 = ScalarContext(6)
    assert abs(c6.qint(1) - 1) < 1e-15
    assert abs(c6.qint(3)) < 1e-15


def test_qint_vanishing_pattern():
    for r in (4, 6, 10):
        ctx = ScalarContext(r)
        m = r // 2
        for k in range(1, 2 * r + 1):
            v = ctx.qint(k)
            if k % m == 0:
                assert abs(v) < 1e-12, (r, k)
            else:
                assert abs(v) > 1e-6, (r, k)


def test_qfact_nonzero_guard():
    ctx = ScalarContext(6)
    with pytest.raises(NumericInstability):
        ctx.qfact_nonzero(ctx.nilpotency)


@pytest.mark.parametrize("z", [1000j, -1000j])
def test_q_power_out_of_double_range_is_refused(z):
    """q^1000j underflows to 0 and q^-1000j overflows at r = 6: neither is
    a double to compute with; 106 bits hold both."""
    with pytest.raises(NumericInstability, match="out of double range at level 6"):
        ScalarContext(6).q_power(z)
    assert ScalarContext(6, precision=106).q_power(z) != 0


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_q_power_additive(z1, z2):
    ctx = ScalarContext(6)
    lhs = ctx.q_power(z1 + z2)
    rhs = ctx.q_power(z1) * ctx.q_power(z2)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_brace_antisymmetric(z):
    ctx = ScalarContext(4)
    assert ctx.brace(-z) == -ctx.brace(z)


def test_high_precision_mode():
    ctx = ScalarContext(6, precision=220)
    v = ctx.q_power(1)
    # magnitude correct to far beyond double precision
    assert abs(abs(v) - 1) < 1e-50
    assert abs(complex(v) - cmath.exp(2j * cmath.pi / 6)) < 1e-15


def test_equal_contexts_share_one_mpmath_context():
    """Cell matrices are cached per equal context, so a matrix built under
    one 106-bit context must hold the mpc type of every equal context."""
    from cgpkit import diagrams as dg
    from cgpkit import rt_eval
    from cgpkit import weightcat as wc

    a = ScalarContext(4, precision=106)
    b = ScalarContext(4, precision=106)
    assert type(a.scalar(0)) is type(b.scalar(0))
    letter = (1, wc.Typical(0.37 + 0.2j))
    cell = dg.cross(letter, letter)
    rt_eval.cell_matrix(a, cell)
    assert type(rt_eval.cell_matrix(b, cell)[0, 0]) is type(b.scalar(0))
