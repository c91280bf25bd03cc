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
``reduce`` a pair, read one ``value``, ``convolve`` numerator lists, and
``nil`` is the zero numerator.  Over QQ the numerators are ints over a
positive den with gcd(den, *nums) = 1, the layout a ``Poly`` keeps too.
Over ``QuadExtField(d)`` they are int pairs (a, b) over such a den, each
meaning (a + b r) / den with r**2 = D = num(d) den(d), and gcd(den, every a
and b) = 1: no product of the field builds a ``Fraction``.
``FractionField`` elements hold their own denominators, so there den is 1
and the numerators are the elements.
"""

from __future__ import annotations

import math
import weakref
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
    nil = 0

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
        return hash((self.field.d, self.a, self.b))

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
        """nums over den = 1: any other den (an antiderivative's lcm) is
        divided into each element."""
        return (den, nums) if den == 1 else (1, [c / den for c in nums])

    def value(self, den, c):
        return c

    @property
    def nil(self):
        return self.zero()


class SurdPair:
    """a + b r for ints a and b, r**2 = D: a numerator of QQ(sqrt d) over a
    series' den.  Each ``QuadExtField`` has its own subclass, which holds
    its D.  A pair is multiplied by an int, or by a pair of its field."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return self.__class__(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return self.__class__(-self.a, -self.b)

    def __mul__(self, k):
        if isinstance(k, int):
            return self.__class__(self.a * k, self.b * k)
        return self.__class__(self.a * k.a + self.D * self.b * k.b, self.a * k.b + self.b * k.a)

    def __bool__(self):
        return self.a != 0 or self.b != 0


# one live field per d, so that elements built from two QuadExtField(d)
# calls compare, add and hash as one field's
_QUAD_FIELDS = weakref.WeakValueDictionary()


class QuadExtField:
    """The quadratic extension QQ(sqrt(d)); d must not be a square in QQ.

    A series over it keeps int pairs (a, b) over its den (``SurdPair``):
    with r**2 = D = num(d) den(d), sqrt(d) = r / den(d), so the pair means
    a / den + (b den(d) / den) sqrt(d).  QuadExtField(d) returns the live
    field of d when there is one."""

    def __new__(cls, d):
        d = QQ.of(d)
        field = _QUAD_FIELDS.get(d)
        if field is not None:
            return field
        if d == 0:
            raise ValueError("cannot adjoin sqrt(0)")
        if QQ.is_square(d):
            raise ValueError(f"{d} is already a square in QQ")
        field = _QUAD_FIELDS[d] = super().__new__(cls)
        field.d = d
        field.name = f"QQ(sqrt({d}))"
        field.gen = QuadExtElement(field, Fraction(0), Fraction(1))
        field.num = type("SurdPair", (SurdPair,), {"__slots__": (), "D": d.numerator * d.denominator})
        field.nil = field.num(0, 0)
        return field

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

    def split(self, values):
        """(den, pairs) of a list of elements over the least den; a list of
        ints and Fractions splits as over QQ, to ints, which act on pairs
        as scalars."""
        if not values or not isinstance(values[0], QuadExtElement):
            return QQ.split(values)
        # a + b sqrt(d) = (a + (b / den(d)) r), both parts over QQ's least den
        n, dd = len(values), self.d.denominator
        den, nums = QQ.split([x.a for x in values] + [x.b / dd for x in values])
        return den, [self.num(p, q) for p, q in zip(nums[:n], nums[n:])]

    def reduce(self, den, nums):
        """(den, pairs) over a positive den with gcd(den, every a and b) = 1."""
        g = math.gcd(den, *[c.a for c in nums], *[c.b for c in nums]) * (-1 if den < 0 else 1)
        if g == 1:
            return den, nums
        num = self.num
        return den // g, [num(c.a // g, c.b // g) for c in nums]

    def value(self, den, c):
        return QuadExtElement(self, Fraction(c.a, den), Fraction(c.b * self.d.denominator, den))

    def convolve(self, x, y, n):
        """The first ``n`` coefficients of the product of pair lists.

        (A + B r)(C + E r) = (AC + D BE) + (AE + BC) r, each part an int
        convolution.  Only an operand with both parts nonzero needs all
        four: mixed times mixed takes Karatsuba's three, AC, BE and
        (A + B)(C + E).  Otherwise one of A, B, C, E is zero and at most
        two cross products are not: one for a pure rational or pure surd
        operand times another, two for a pure operand times a mixed one.
        """
        x, y = x[:n], y[:n]
        A, B, C, E = [c.a for c in x], [c.b for c in x], [c.a for c in y], [c.b for c in y]
        a, b, c, e = any(A), any(B), any(C), any(E)
        num, D = self.num, self.num.D
        if a and b and c and e:
            ac, be = _int_convolve(A, C, n), _int_convolve(B, E, n)
            mixed = _int_convolve([p + q for p, q in zip(A, B)], [p + q for p, q in zip(C, E)], n)
            return [num(p + D * q, m - p - q) for p, q, m in zip(ac, be, mixed)]
        zero = [0] * n
        re = (_int_convolve(A, C, n) if a and c
              else [D * q for q in _int_convolve(B, E, n)] if b and e else zero)
        im = _int_convolve(A, E, n) if a and e else _int_convolve(B, C, n) if b and c else zero
        return [num(p, q) for p, q in zip(re, im)]

    def __repr__(self):
        return self.name
