import math

import pytest
from hypothesis import given, strategies as st

from dumbbell.scaled import ScaledAmplitude


def test_from_float_round_trip():
    for x in [1.0, -2.5, 3.7e-200, -9.9e250, 1e-8, math.pi]:
        s = ScaledAmplitude.from_float(x)
        assert s.to_float() == pytest.approx(x, rel=1e-15)
        assert 1.0 <= s.mantissa < math.e
        assert s.exponent == math.floor(s.exponent)


def test_zero():
    z = ScaledAmplitude.zero()
    assert z.is_zero()
    assert z.to_float() == 0.0
    assert (z * ScaledAmplitude.from_float(5.0)).is_zero()
    assert (ScaledAmplitude.from_float(3.0) + z).to_float() == pytest.approx(3.0, rel=1e-15)


def test_huge_exponents_no_overflow():
    big = ScaledAmplitude.from_float(1.0).scale_exp(5000.0)
    small = ScaledAmplitude.from_float(1.0).scale_exp(-5000.0)
    prod = big * small
    assert prod.to_float() == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(OverflowError):
        big.to_float()
    assert (big * big).log_abs == pytest.approx(10000.0, rel=1e-15)


@given(
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from([-1, 1]),
    st.sampled_from([-1, 1]),
)
def test_mul_div_inverse(la, lb, sa, sb):
    a = ScaledAmplitude.from_float(float(sa)).scale_exp(la)
    b = ScaledAmplitude.from_float(float(sb)).scale_exp(lb)
    c = (a * b) / b
    # exact in the exponent, 1e-15 in the mantissa
    assert c.sign == a.sign
    assert c.exponent == a.exponent
    assert c.mantissa == pytest.approx(a.mantissa, rel=1e-15)


@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=-50, max_value=50))
def test_add_matches_float(la, lb):
    a = ScaledAmplitude.from_float(1.0).scale_exp(la)
    b = ScaledAmplitude.from_float(-1.0).scale_exp(lb)
    expect = math.exp(la) - math.exp(lb)
    got = (a + b).to_float()
    # near-cancellation is limited by the mantissa ulp of the larger operand
    assert got == pytest.approx(expect, rel=1e-12,
                                abs=1e-14 * math.exp(max(la, lb)))


def test_sqrt():
    a = ScaledAmplitude.from_float(9.0)
    assert (a.sqrt()).to_float() == pytest.approx(3.0, rel=1e-15)


def test_scale_exp_exact():
    a = ScaledAmplitude.from_float(2.0)
    b = a.scale_exp(-3000.0)
    assert b.log_abs == pytest.approx(math.log(2.0) - 3000.0, rel=1e-15)


def test_serialization_round_trip():
    a = ScaledAmplitude.from_float(-1.0).scale_exp(1234.5678)
    d = a.to_dict()
    assert ScaledAmplitude.from_dict(d) == a
