from fractions import Fraction

import pytest

from germlin.scalars import CC, QC, QQI, as_complex


def test_field_arithmetic_exact():
    a = QC(Fraction(3, 5), Fraction(4, 5))
    b = QC(Fraction(1, 2), Fraction(-1, 3))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (QC(1) / a) == QC(1)
    assert a.abs2() == Fraction(1)


def test_integer_powers_including_negative():
    a = QC(Fraction(1, 2), Fraction(1, 2))
    assert a ** 0 == QC(1)
    assert a ** 3 == a * a * a
    assert a ** -2 == QC(1) / (a * a)
    with pytest.raises(TypeError):
        a ** 0.5


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QC(1) / QC(0)


def test_parse_decimal_and_rational_strings():
    assert QC.parse("0.25") == QC(Fraction(1, 4))
    assert QC.parse("1/3", "-2/7") == QC(Fraction(1, 3), Fraction(-2, 7))


def test_serialization_roundtrip_bit_exact():
    c = QC(Fraction(1, 3), Fraction(-7, 11))
    re, im = QQI.to_strings(c)
    assert QQI.from_strings(re, im) == c
    z = 0.1 + 0.2j
    re, im = CC.to_strings(z)
    assert CC.from_strings(re, im) == z


def test_mixed_coercion_and_hash():
    a = QC(2)
    assert a + 1 == QC(3)
    assert 1 + a == QC(3)
    assert 2 * a == QC(4)
    assert Fraction(1, 2) * a == QC(1)
    assert hash(QC(1, 0)) == hash(QC(Fraction(2, 2)))
    assert CC.abs2(0.6 + 0.8j) == pytest.approx(1.0)
    assert as_complex(a) == 2 + 0j


def test_immutability():
    a = QC(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)
