"""Exact Gaussian-rational scalars and the two coefficient fields.

Coefficients, deck eigenvalues and divisors live in one of two fields:
:data:`QQI`, the Gaussian rationals Q(i) with :class:`QC` elements
(integers over one common denominator, so equality is decidable and every
zero test is exact), or :data:`CC`, the builtin ``complex`` floats, where
each zero test compares a modulus with its own tolerance.  A field's
``name`` is the ``"mode"`` of configs and series payloads.  The series and
solver code does its arithmetic through the protocol ``QC`` and ``complex``
share, and asks the field for its constants, conversions, string codec and
zero tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import wraps
from math import gcd

# float coefficients below FLOAT_CLEAN_REL * (largest coefficient) are
# treated as accumulated noise and dropped
FLOAT_CLEAN_REL = 1e-14
# a float coefficient beyond the Laurent budget overflows unless its modulus
# is below FLOAT_OVERFLOW_TOL times the largest coefficient of its series
FLOAT_OVERFLOW_TOL = 1e-13


def _operand(op):
    """The binary operator that calls ``op(self, a, b, d)`` with the integers
    (a + b i) / d of its other operand, a QC, an int or a Fraction, and
    returns NotImplemented for any other type."""
    @wraps(op)
    def method(self, other):
        if other.__class__ is QC:
            return op(self, other.a, other.b, other.d)
        if isinstance(other, int):
            return op(self, other, 0, 1)
        if isinstance(other, Fraction):
            return op(self, other.numerator, 0, other.denominator)
        return NotImplemented
    return method


class QC:
    """A Gaussian rational (a + b i) / d held as three integers, with d > 0
    and gcd(a, b, d) = 1.  That form is unique, so ``==`` compares the
    integers; ``re`` and ``im`` read the parts as ``Fraction``.  Built from
    ints, ``Fraction``s or anything ``Fraction()`` reads."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # over the lcm of two reduced denominators, gcd(a, b, d) is 1
            d = math.lcm(re.denominator, im.denominator)
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))

    @classmethod
    def parse(cls, re: str, im: str = "0") -> "QC":
        """Build from digit strings, '0.25' or '1/4', or ints."""
        return cls(_digits(re), _digits(im))

    @_operand
    def __add__(self, a, b, d):
        e = self.d
        if d == e:
            return _reduced(self.a + a, self.b + b, d)
        return _reduced(self.a * d + a * e, self.b * d + b * e, e * d)

    __radd__ = __add__

    @_operand
    def __sub__(self, a, b, d):
        e = self.d
        if d == e:
            return _reduced(self.a - a, self.b - b, d)
        return _reduced(self.a * d - a * e, self.b * d - b * e, e * d)

    @_operand
    def __rsub__(self, a, b, d):
        return _qc(a, b, d) - self

    def __neg__(self):
        return _qc(-self.a, -self.b, self.d)

    @_operand
    def __mul__(self, a, b, d):
        if b == 0 and d == 1:
            # an integer factor, such as substitute_shift's binomials,
            # can only cancel against the denominator
            g = gcd(a, self.d)
            a //= g
            return _qc(self.a * a, self.b * a, self.d // g)
        return _reduced(self.a * a - self.b * b, self.a * b + self.b * a, self.d * d)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, a, b, d):
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero QC")
        return _reduced((self.a * a + self.b * b) * d, (self.b * a - self.a * b) * d,
                        self.d * n)

    @_operand
    def __rtruediv__(self, a, b, d):
        return _qc(a, b, d) / self

    def __pow__(self, n: int) -> "QC":
        if not isinstance(n, int):
            raise TypeError("QC powers must be integers")
        if n < 0:
            return (QC(1) / self) ** (-n)
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QC":
        return _qc(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __abs__(self) -> float:
        # int true division is correctly rounded, so this is float(abs2())
        return math.sqrt((self.a * self.a + self.b * self.b) / (self.d * self.d))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    @_operand
    def __eq__(self, a, b, d) -> bool:
        return self.a == a and self.b == b and self.d == d

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        # the same floats as complex(self.re, self.im)
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a, _set_b, _set_d = (vars(QC)[name].__set__ for name in QC.__slots__)


def _qc(a: int, b: int, d: int) -> QC:
    """The QC (a + b i) / d of integers already in its reduced form."""
    out = _new(QC)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + b i) / d of integers with d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _qc(a, b, d)
    return _qc(a // g, b // g, d // g)


def as_complex(c) -> complex:
    return c.to_complex() if isinstance(c, QC) else complex(c)


def _digits(x):
    """x, a digit string or an int: a float's binary value is not the decimal it spells."""
    if x.__class__ is not str and x.__class__ is not int:
        raise TypeError(f"a number must be a digit string or an integer, got {x!r}")
    return x


def _float(s) -> float:
    """A decimal or 'p/q' string, or an int, as the nearest float; a minus
    zero keeps its sign, so ``repr`` output reads back bit for bit."""
    x = float(Fraction(_digits(s)))
    return x if x or not str(s).lstrip().startswith("-") else -0.0


class _Field:
    """``name``, ``zero``, ``one``; ``from_strings``/``to_strings``, the
    (re, im) digit-string codec; ``coerce`` of a QC into the field; ``admits``
    a series scaling factor; ``abs2``; and the zero tests: ``is_zero(x, tol)``
    (strict, ``tol()`` is called only over CC) and ``prune(terms)`` of a
    series."""

    __slots__ = ()

    def inv(self, values) -> tuple:
        """Entrywise reciprocals ``one / x``."""
        one = self.one
        return tuple(one / x for x in values)


class _GaussianRationals(_Field):
    __slots__ = ()
    name, zero, one = "exact", QC(), QC(1)
    from_strings = staticmethod(QC.parse)
    abs2 = staticmethod(QC.abs2)

    def to_strings(self, c) -> tuple[str, str]:
        return str(c.re), str(c.im)

    def coerce(self, c):
        return c

    def admits(self, factor) -> bool:
        return isinstance(factor, (int, Fraction, QC))

    def is_zero(self, x, tol) -> bool:
        return not x

    def prune(self, terms: dict):
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]


class _ComplexFloats(_Field):
    __slots__ = ()
    name, zero, one = "float", 0j, 1 + 0j
    coerce = staticmethod(as_complex)

    def from_strings(self, re: str, im: str) -> complex:
        return complex(_float(re), _float(im))

    def to_strings(self, c) -> tuple[str, str]:
        z = complex(c)
        return repr(z.real), repr(z.imag)

    def admits(self, factor) -> bool:
        return True

    def abs2(self, c) -> float:
        return c.real * c.real + c.imag * c.imag

    def is_zero(self, x, tol) -> bool:
        return abs(x) < tol()

    def prune(self, terms: dict):
        """Drop coefficients at or below FLOAT_CLEAN_REL times the largest."""
        if not terms:
            return
        floor = FLOAT_CLEAN_REL * max(abs(c) for c in terms.values())
        for k in [k for k, c in terms.items() if abs(c) <= floor]:
            del terms[k]


QQI = _GaussianRationals()
CC = _ComplexFloats()
FIELDS = {QQI.name: QQI, CC.name: CC}


def json_int(data: dict, name: str) -> int:
    """``data[name]``, which must be a JSON integer: not a float, a string or
    a bool."""
    x = data[name]
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"field {name!r} must be a JSON integer, got {x!r}")
    return x


def field_of(values):
    """QQI when every value is a QC, CC when none is, None when mixed."""
    exact = [isinstance(v, QC) for v in values]
    if all(exact):
        return QQI
    return None if any(exact) else CC
