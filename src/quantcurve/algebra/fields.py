r"""Exact coefficient fields, organized as a small run-time tower.

Four towers are supported, which is exactly what rank-2 spectral curve
computations on the line require:

* ``QQ``                          rationals (elements are ``fractions.Fraction``)
* ``QuadExtField(QQ, d)``         a quadratic extension ``QQ(sqrt(d))``
* ``FractionField(QQ, "h")``      rational functions in one generator
* ``QuadExtField(FractionField(QQ, "h"), p)``   square roots of a rational function

Elements of ``QuadExtField`` and ``FractionField`` overload the usual
arithmetic operators, so polynomial and series code is generic over the
tower.  Everything is exact; there is no floating point anywhere.
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
        if isinstance(v, str):
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

    def convolve(self, a, b, n):
        """The first ``n`` coefficients of the product of coefficient lists.

        Each operand is scaled once to integer numerators over the lcm of its
        denominators, the numerators are convolved as plain ints, and each
        output coefficient is one ``Fraction`` over the product of the two
        lcms: exact, O(len(a) len(b)) int products and n gcds in place of
        one gcd per coefficient product.
        """
        (A, da), (B, db) = _numerators(a[:n]), _numerators(b[:n])
        den = da * db
        return [Fraction(c, den) for c in _int_convolve(A, B, n)]

    def quad_convolve(self, xa, xb, ya, yb, d, n):
        """The two parts of (xa + xb s)(ya + yb s), s**2 = d, through ``n``
        coefficients; each operand's two parts have equal lengths.

        Each operand is scaled once to integer numerators over one common
        denominator; three int convolutions give xa ya, xb yb and
        (xa + xb)(ya + yb), and d's numerator and denominator are folded in
        last, so the 2n output ``Fraction``s hold the only gcds.
        """
        (X, dx), (Y, dy) = _numerators(xa[:n] + xb[:n]), _numerators(ya[:n] + yb[:n])
        i, j = len(X) // 2, len(Y) // 2
        aa, bb = _int_convolve(X[:i], Y[:j], n), _int_convolve(X[i:], Y[j:], n)
        mixed = _int_convolve([p + q for p, q in zip(X[:i], X[i:])],
                              [p + q for p, q in zip(Y[:j], Y[j:])], n)
        dn, dd = d.numerator, d.denominator
        den = dx * dy
        return ([Fraction(p * dd + dn * q, den * dd) for p, q in zip(aa, bb)],
                [Fraction(m - p - q, den) for p, q, m in zip(aa, bb, mixed)])

    def __repr__(self):
        return "QQ"


def _numerators(xs):
    """(integer numerators, common denominator) of a list of rationals."""
    # a list, not a generator: star-args from a generator build the tuple by
    # resizing, and each freed one is parked in the tuple free list, which
    # then holds up to 2000 tuples of every length up to 20 (~4 MB)
    den = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


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
    """a + b*s with s**2 = d in the base field."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b

    def _own(self, other):
        return isinstance(other, QuadExtElement) and other.field is self.field

    def _scalar(self, other):
        """``other`` as a base-field scalar, or None.  Test ``_own`` first:
        in a tower the outer and inner elements share a type."""
        if isinstance(other, (int, Fraction)):
            return other
        if type(other) is type(self.a):
            return self.field.base_of(other)
        return None

    def _coerce(self, other):
        if self._own(other):
            return other
        c = self._scalar(other)
        if c is None:
            return None
        return QuadExtElement(self.field, self.field.base_of(c), self.field.base.zero())

    def _reflect(self, other, name):
        """``other``'s reflected operator when ``other`` lies in an extension
        built over this field: outer and inner elements share a type, so
        Python never tries the reflected method by itself."""
        f = other.field.base if isinstance(other, QuadExtElement) else None
        while isinstance(f, QuadExtField) and f is not self.field:
            f = f.base
        return getattr(other, name)(self) if f is self.field else NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return self._reflect(other, "__radd__")
        return QuadExtElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return self._reflect(other, "__rsub__")
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
        c = self._scalar(other)
        if c is None:
            return self._reflect(other, "__rmul__")
        return QuadExtElement(self.field, self.a * c, self.b * c)

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
        c = self._scalar(other)
        if c is None:
            return self._reflect(other, "__rtruediv__")
        return QuadExtElement(self.field, self.a / c, self.b / c)

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
        # equal to a base element when b == 0, so it must hash like one
        if not self.b:
            return hash(self.a)
        return hash((id(self.field), self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.field.d}))"


class QuadExtField:
    """Quadratic extension base(sqrt(d)); d must not be a square in the base."""

    def __init__(self, base, d):
        d = base.of(d)
        if base.is_zero(d):
            raise ValueError("cannot adjoin sqrt(0)")
        if base.is_square(d):
            raise ValueError(f"{d} is already a square in {base}")
        self.base = base
        self.d = d
        self.name = f"{base.name}(sqrt({base.to_str(d)}))"
        self.gen = QuadExtElement(self, base.zero(), base.one())

    def base_of(self, v):
        return self.base.of(v)

    def zero(self):
        return QuadExtElement(self, self.base.zero(), self.base.zero())

    def one(self):
        return QuadExtElement(self, self.base.one(), self.base.zero())

    def of(self, v):
        if isinstance(v, QuadExtElement) and v.field is self:
            return v
        return QuadExtElement(self, self.base.of(v), self.base.zero())

    def make(self, a, b):
        return QuadExtElement(self, self.base.of(a), self.base.of(b))

    def is_zero(self, v):
        return not self.of(v)

    def is_square(self, v):
        return self.sqrt(v) is not None

    def sqrt(self, v):
        # Only pure base elements are handled: a = r**2 or a = d*r**2.
        # That covers every square root a rank-2 tower construction asks for.
        v = self.of(v)
        if not self.base.is_zero(v.b):
            return None
        r = self.base.sqrt(v.a)
        if r is not None:
            return self.of(r)
        r = self.base.sqrt(v.a / self.d)
        if r is not None:
            return QuadExtElement(self, self.base.zero(), r)
        return None

    def to_str(self, v):
        v = self.of(v)
        return f"[{self.base.to_str(v.a)},{self.base.to_str(v.b)}]"

    def convolve(self, a, b, n):
        """The first ``n`` coefficients of the product of coefficient lists.

        Splits each operand into its base parts once and hands the product
        (A + B s)(C + D s) = (AC + d BD) + (AD + BC) s to the base's
        ``quad_convolve``: exact, at the cost of three base convolutions.
        """
        a, b = a[:n], b[:n]
        re, im = self.base.quad_convolve([x.a for x in a], [x.b for x in a],
                                         [y.a for y in b], [y.b for y in b], self.d, n)
        return [QuadExtElement(self, p, q) for p, q in zip(re, im)]

    def quad_convolve(self, xa, xb, ya, yb, d, n):
        return three_product_convolve(self, xa, xb, ya, yb, d, n)

    def __repr__(self):
        return self.name


def three_product_convolve(field, xa, xb, ya, yb, d, n):
    """``quad_convolve`` from three ``field.convolve`` calls and O(n) field
    operations: xa ya + d xb yb and (xa + xb)(ya + yb) - xa ya - xb yb."""
    aa, bb = field.convolve(xa, ya, n), field.convolve(xb, yb, n)
    mixed = field.convolve([p + q for p, q in zip(xa, xb)], [p + q for p, q in zip(ya, yb)], n)
    return ([p + d * q for p, q in zip(aa, bb)],
            [m - p - q for p, q, m in zip(aa, bb, mixed)])
