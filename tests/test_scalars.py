import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# ----------------------------------------------------------------------
# QC against a plain (Fraction, Fraction) reference

def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _ref_mul(out, x)
    return out if n >= 0 else _ref_div((Fraction(1), Fraction(0)), out)


def _same(q, ref):
    """q holds ref's value in its reduced form (d > 0, gcd(a, b, d) = 1)."""
    assert (q.re, q.im) == ref
    assert all(type(v) is int for v in (q.a, q.b, q.d))
    assert q.d > 0 and math.gcd(q.a, q.b, q.d) == 1


_HEIGHT = st.sampled_from((3, 2 ** 40, 2 ** 200))


@st.composite
def _gaussian_pairs(draw):
    """Two Gaussian rationals as (re, im) pairs; their four parts may share
    one denominator, and zero and large heights are drawn often."""
    h = draw(_HEIGHT)
    nums = st.integers(-h, h) | st.just(0)
    dens = st.integers(1, h)
    shared = draw(st.booleans())
    d = draw(dens)
    parts = [Fraction(draw(nums), d if shared else draw(dens)) for _ in range(4)]
    return tuple(parts[:2]), tuple(parts[2:])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gaussian_pairs(), st.integers(-3, 3), st.integers(-4, 4))
def test_qc_matches_fraction_pair_reference(pair, k, n):
    x, y = pair
    qx, qy = QC(*x), QC(*y)
    _same(qx, x)
    _same(qx + qy, (x[0] + y[0], x[1] + y[1]))
    _same(qx - qy, (x[0] - y[0], x[1] - y[1]))
    _same(qx * qy, _ref_mul(x, y))
    _same(k * qx, (k * x[0], k * x[1]))
    _same(qx * k, (k * x[0], k * x[1]))
    _same(y[0] * qx, (y[0] * x[0], y[0] * x[1]))
    _same(qx + k, (x[0] + k, x[1]))
    _same(k - qx, (k - x[0], -x[1]))
    _same(-qx, (-x[0], -x[1]))
    _same(qx.conjugate(), (x[0], -x[1]))
    if qy:
        _same(qx / qy, _ref_div(x, y))
        _same(k / qy, _ref_div((Fraction(k), Fraction(0)), y))
    else:
        with pytest.raises(ZeroDivisionError):
            qx / qy
    if qx or n >= 0:
        _same(qx ** n, _ref_pow(x, n))
    else:
        with pytest.raises(ZeroDivisionError):
            qx ** n
    assert qx.abs2() == x[0] * x[0] + x[1] * x[1]
    assert (qx == qy) == (x == y)
    # floats bit for bit, as the float(Fraction) parts gave them
    assert repr(qx.to_complex()) == repr(complex(float(x[0]), float(x[1])))
    assert repr(abs(qx)) == repr(math.sqrt(float(x[0] * x[0] + x[1] * x[1])))
    assert QQI.to_strings(qx) == (str(x[0]), str(x[1]))
    assert hash(qx) == hash((x[0], x[1]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_gaussian_pairs(), st.integers(2, 9))
def test_equal_values_built_differently_are_equal(pair, k):
    (re, im), _ = pair
    q = QC(re, im)
    unreduced = QC.parse(f"{re.numerator * k}/{re.denominator * k}",
                         f"{im.numerator * k}/{im.denominator * k}")
    built = [unreduced, QC(re) + QC(0, im), (q * k) / k, q + 0, -(-q),
             q.conjugate().conjugate(), QC(re, 0) + QC(0, 1) * im]
    if q:
        built.append(1 / (1 / q))
    if im.denominator == 1 and re.denominator == 1:
        built.append(QC(int(re), int(im)))
    for other in built:
        assert other == q and (other.a, other.b, other.d) == (q.a, q.b, q.d)
        assert hash(other) == hash(q)
