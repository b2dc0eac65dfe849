from fractions import Fraction

import numpy as np
import pytest

from lgplucker import GF, QQ


def test_rational_arithmetic():
    a = QQ.coerce(Fraction(3, 4))
    b = QQ.coerce(2)
    assert QQ.add(a, b) == Fraction(11, 4)
    assert QQ.mul(a, QQ.inv(a)) == 1
    assert QQ.sub(b, b) == 0
    assert QQ.neg(a) == Fraction(-3, 4)


def test_rationals_reject_floats():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


def test_prime_field_arithmetic():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert f.coerce(-1) == 6
    assert f.coerce(Fraction(1, 2)) == f.inv(2)


def test_prime_field_coerce():
    f = GF(7)
    values = [10, True, False, -8, Fraction(3, 2), Fraction(-14, 2), Fraction(9, 1)]
    assert [f.coerce(x) for x in values] == [3, 1, 0, 6, 5, 0, 2]
    assert all(type(f.coerce(x)) is int for x in values)
    for bad in (0.5, "3", np.int64(3)):
        with pytest.raises(TypeError):
            f.coerce(bad)
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, 14))


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_elements():
    assert list(GF(3).elements()) == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()


def test_field_identity_and_equality():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
