"""Exact Gaussian-rational scalars and the two coefficient fields.

Coefficients, deck eigenvalues and divisors live in one of two fields:
:data:`QQI`, the Gaussian rationals Q(i) with :class:`QC` elements
(``Fraction`` parts, so equality is decidable and every zero test is
exact), or :data:`CC`, the builtin ``complex`` floats, where each zero test
compares a modulus with its own tolerance.  A field's ``name`` is the
``"mode"`` of configs and series payloads.  The series and solver code does
its arithmetic through the protocol ``QC`` and ``complex`` share, and asks
the field for its constants, conversions, string codec and zero tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

# float coefficients below FLOAT_CLEAN_REL * (largest coefficient) are
# treated as accumulated noise and dropped
FLOAT_CLEAN_REL = 1e-14
# a float coefficient beyond the Laurent budget overflows unless its modulus
# is below FLOAT_OVERFLOW_TOL times the largest coefficient of its series
FLOAT_OVERFLOW_TOL = 1e-13


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @classmethod
    def parse(cls, re: str, im: str = "0") -> "QC":
        """Build from digit strings; accepts both '0.25' and '1/4'."""
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs2()))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


def _coerce(value):
    if isinstance(value, QC):
        return value
    if isinstance(value, (int, Fraction)):
        return QC(value)
    return NotImplemented


def as_complex(c) -> complex:
    return c.to_complex() if isinstance(c, QC) else complex(c)


def _float(s: str) -> float:
    """A decimal or 'p/q' string as the nearest float; a minus zero keeps its
    sign, so ``repr`` output reads back bit for bit."""
    x = float(Fraction(s))
    return x if x or not s.lstrip().startswith("-") else -0.0


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
