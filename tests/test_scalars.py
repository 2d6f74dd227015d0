from fractions import Fraction

import pytest

from germcalc.scalars import Scalar


def test_canonical_form():
    s = Scalar(Fraction(2, 4), Fraction(-3, -6))
    assert s.re == Fraction(1, 2) and s.im == Fraction(1, 2)


def test_arithmetic():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert a * b == Scalar(5, 5)
    assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_equality_with_plain_numbers():
    assert Scalar(3) == 3
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(0, 1) != 1


def test_immutable():
    z = Scalar(1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)


def test_hash_consistency():
    assert hash(Scalar(5)) == hash(Fraction(5))
    assert Scalar(1, 1) in {Scalar(1, 1)}
