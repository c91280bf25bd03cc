r"""Exact coefficient fields.

Three fields are supported, which is what rank-2 spectral curve
computations on the line require:

* ``QQ``                       rationals (elements are ``fractions.Fraction``)
* ``QuadExtField(d)``          the quadratic extension ``QQ(sqrt(d))``
* ``FractionField()``          ``QQ(h)``, rational functions in one generator
  (:mod:`quantcurve.algebra.poly`)

Elements of ``QuadExtField`` and ``FractionField`` overload the usual
arithmetic operators, so series code is generic over the field; polynomials
and rational functions are over QQ only.  Everything is exact; there is no
floating point anywhere.

A series holds its coefficients as numerators over one denominator, and
each field supplies the protocol for it: ``split`` values into (den, nums),
``reduce`` a pair, read one ``value``, and ``convolve`` numerator lists.
Over QQ the numerators are ints over a positive den with gcd(den, *nums) =
1, the layout a ``Poly`` keeps too; ``QuadExtField`` and ``FractionField``
elements hold their own denominators, so there den is 1 and the numerators
are the elements.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _fraction_sqrt(q):
    """Exact square root of a Fraction, or None if not a perfect square."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class RationalField:
    """The field of rational numbers; elements are ``Fraction`` objects."""

    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into QQ")

    def is_zero(self, v):
        return v == 0

    def is_square(self, v):
        return _fraction_sqrt(v) is not None

    def sqrt(self, v):
        return _fraction_sqrt(v)

    def to_str(self, v):
        return str(v)

    def split(self, values):
        """(den, int numerators) of a list of ints and Fractions over the lcm
        of their denominators, which leaves gcd(den, *nums) = 1."""
        # a list, not a generator: star-args from a generator build the tuple by
        # resizing, and each freed one is parked in the tuple free list, which
        # then holds up to 2000 tuples of every length up to 20 (~4 MB)
        den = math.lcm(*[x.denominator for x in values])
        return den, [x.numerator * (den // x.denominator) for x in values]

    def reduce(self, den, nums):
        """(den, nums) over a positive den with gcd(den, *nums) = 1."""
        g = math.gcd(den, *nums) * (-1 if den < 0 else 1)
        return (den, nums) if g == 1 else (den // g, [c // g for c in nums])

    def value(self, den, c):
        return Fraction(c, den)

    def convolve(self, a, b, n):
        """The first ``n`` coefficients of the product of int numerator lists."""
        return _int_convolve(a, b, n)

    def __repr__(self):
        return "QQ"


def _int_convolve(A, B, n):
    """The first ``n`` coefficients of the product of two int lists."""
    out = [0] * n
    for i, x in enumerate(A[:n]):
        if x:
            for j, y in enumerate(B[: n - i]):
                out[i + j] += x * y
    return out


QQ = RationalField()


class QuadExtElement:
    """a + b*s with s**2 = d; a and b are rationals."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b

    def _own(self, other):
        return isinstance(other, QuadExtElement) and other.field is self.field

    def _coerce(self, other):
        if self._own(other):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.of(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtElement(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if self._own(other):
            a, b, d = other.a, other.b, self.field.d
            return QuadExtElement(self.field, self.a * a + d * self.b * b, self.a * b + self.b * a)
        if isinstance(other, (int, Fraction)):
            return QuadExtElement(self.field, self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        d = self.field.d
        nrm = self.a * self.a - d * self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return QuadExtElement(self.field, self.a / nrm, -self.b / nrm)

    def __truediv__(self, other):
        if self._own(other):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return QuadExtElement(self.field, self.a / other, self.b / other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # equal to a rational when b == 0, so it must hash like one
        if not self.b:
            return hash(self.a)
        return hash((id(self.field), self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.field.d}))"


class ElementField:
    """The numerator protocol of a field whose elements hold their own
    denominators: a series keeps the elements themselves over den = 1, and
    ``split`` keeps ints and Fractions as they are, so that a scalar acts
    on each element with one operation."""

    def split(self, values):
        return 1, list(values)

    def reduce(self, den, nums):
        return den, nums

    def value(self, den, c):
        return c


class QuadExtField(ElementField):
    """The quadratic extension QQ(sqrt(d)); d must not be a square in QQ."""

    def __init__(self, d):
        d = QQ.of(d)
        if d == 0:
            raise ValueError("cannot adjoin sqrt(0)")
        if QQ.is_square(d):
            raise ValueError(f"{d} is already a square in QQ")
        self.d = d
        self.name = f"QQ(sqrt({d}))"
        self.gen = QuadExtElement(self, Fraction(0), Fraction(1))

    def zero(self):
        return QuadExtElement(self, Fraction(0), Fraction(0))

    def one(self):
        return QuadExtElement(self, Fraction(1), Fraction(0))

    def of(self, v):
        if isinstance(v, QuadExtElement) and v.field is self:
            return v
        return QuadExtElement(self, QQ.of(v), Fraction(0))

    def is_zero(self, v):
        return not self.of(v)

    def sqrt(self, v):
        # Only rational elements are handled: a = r**2 or a = d*r**2.
        # That covers every square root a rank-2 construction asks for.
        v = self.of(v)
        if v.b:
            return None
        r = _fraction_sqrt(v.a)
        if r is not None:
            return self.of(r)
        r = _fraction_sqrt(v.a / self.d)
        if r is not None:
            return QuadExtElement(self, Fraction(0), r)
        return None

    def to_str(self, v):
        v = self.of(v)
        return f"[{v.a},{v.b}]"

    def convolve(self, a, b, n):
        """The first ``n`` coefficients of the product of coefficient lists.

        (A + B s)(C + D s) = (AC + d BD) + (AD + BC) s.  Each operand's two
        parts are scaled once to integer numerators over one common
        denominator; three int convolutions give AC, BD and (A + B)(C + D),
        and d's numerator and denominator are folded in last, so the 2n
        output ``Fraction``s hold the only gcds.
        """
        a, b = a[:n], b[:n]
        (dx, X), (dy, Y) = (QQ.split([x.a for x in a] + [x.b for x in a]),
                            QQ.split([y.a for y in b] + [y.b for y in b]))
        i, j = len(a), len(b)
        aa, bb = _int_convolve(X[:i], Y[:j], n), _int_convolve(X[i:], Y[j:], n)
        mixed = _int_convolve([p + q for p, q in zip(X[:i], X[i:])],
                              [p + q for p, q in zip(Y[:j], Y[j:])], n)
        dn, dd = self.d.numerator, self.d.denominator
        den = dx * dy
        return [QuadExtElement(self, Fraction(p * dd + dn * q, den * dd), Fraction(m - p - q, den))
                for p, q, m in zip(aa, bb, mixed)]

    def __repr__(self):
        return self.name
