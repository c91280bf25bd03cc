r"""Dense univariate polynomials and rational functions over QQ.

``Poly`` stores int numerators by degree over one positive denominator, in
the layout of ``QQ.split`` that a ``TruncSeries`` over QQ also keeps (zero
polynomial = [] over 1); ``coeffs`` reads them as ``Fraction``s.  ``RatFunc``
is a reduced fraction of polynomials with monic denominator.  Other fields
enter only as series coefficients, and series code is generic over the
fields of :mod:`quantcurve.algebra.fields`.  On top of ``RatFunc``,
``FractionField`` turns rational functions of the quantization parameter
into a coefficient field of its own.  ``RatFunc.order_at`` is the one
valuation at a place of the projective line: INF, a point, or a monic
irreducible polynomial.

Products, ``divrem``, ``gcd``, the reduction of ``RatFunc``, ``compose``,
``ratfunc_sum`` and ``ratfunc_of_fractions`` run on those numerators: int
convolutions, pseudo-division by the primitive divisor, primitive
pseudo-remainder gcds and exact integer quotients, and each result is one
``_poly(den, nums)``.

``factor_over`` factors over the rationals in the package: Zassenhaus on
integer coefficient lists (squarefree parts, a factorization modulo a small
prime, Hensel lifting and recombination).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from .fields import QQ, ElementField, _int_convolve


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


#: the place at infinity (uniformizer 1/x)
INF = _Infinity()


class Poly:
    """Polynomial over QQ in the layout of ``QQ.split``: int numerators
    ``nums`` by degree over one denominator ``den > 0``, with gcd(den,
    *nums) = 1 and no trailing zero; the zero polynomial is [] over 1.
    ``Poly(values)`` coerces each value with ``QQ.of``, which raises
    ``TypeError`` for one outside QQ, and ``coeffs`` reads the values."""

    __slots__ = ("den", "nums")
    field = QQ

    def __init__(self, coeffs):
        self._take(*QQ.split([QQ.of(c) for c in coeffs]))

    def _take(self, den, nums):
        """Hold nums / den: trailing zeros popped off ``nums`` in place,
        reduced by ``QQ.reduce``."""
        self.den, self.nums = QQ.reduce(den, _trim(nums))
        return self

    @staticmethod
    def const(c):
        return Poly([c])

    @staticmethod
    def x():
        return _poly(1, [0, 1])

    @property
    def coeffs(self):
        """The coefficients by degree, as ``Fraction``s."""
        return [Fraction(c, self.den) for c in self.nums]

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums

    def leading(self):
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, tuple(self.nums)))

    def __add__(self, other):
        den = lcm(self.den, other.den)
        return _poly(den, _lincomb([c * (den // self.den) for c in self.nums],
                                   other.nums, den // other.den))

    def __neg__(self):
        return _poly(self.den, [-c for c in self.nums])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a = self.nums
        if isinstance(other, Poly):
            b = other.nums
            return _poly(self.den * other.den, _int_convolve(a, b, len(a) + len(b) - 1))
        c = other if isinstance(other, int) else QQ.of(other)
        return _poly(self.den * c.denominator, [x * c.numerator for x in a])

    __rmul__ = __mul__

    def divrem(self, other):
        """Quotient and remainder; raises on division by the zero polynomial.

        Integer pseudo-division by the primitive divisor (``_pdivrem``).
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        A, da, B, db = self.nums, self.den, other.nums, other.den
        P = _primitive(B)
        # s A = q P + r with B = (B[-1] / P[-1]) P, so self = A / da and
        # other = B / db give q db P[-1] / (s da B[-1]) and r / (s da)
        s, q, r = _pdivrem(A, P)
        qn = db * P[-1]
        return _poly(s * da * B[-1], [c * qn for c in q]), _poly(s * da, r)

    def __mod__(self, other):
        return self.divrem(other)[1]

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def gcd(self, other):
        """Monic greatest common divisor (zero for two zeros): the primitive
        integer gcd ``_int_gcd`` over its leading coefficient."""
        a, b = self.nums, other.nums
        if not a:
            if not b:
                return _poly(1, [])
            a, b = b, a
        g = _int_gcd(a, b)
        return _poly(g[-1], g)

    def monic(self):
        if self.is_zero():
            return self
        # nums ends in a nonzero entry, so _poly pops nothing off it
        return _poly(self.nums[-1], self.nums)

    def derivative(self):
        return _poly(self.den, [i * c for i, c in enumerate(self.nums)][1:])

    def __call__(self, v):
        """The value at v.  At a rational p / q it is one int homogenized
        Horner sum, sum c_k p^k q^(deg - k) over den q^deg, and one
        ``Fraction``; any other argument takes the generic Horner steps."""
        if isinstance(v, (int, Fraction)):
            nums = self.nums
            if not nums:
                return Fraction(0)
            p, q = v.numerator, v.denominator
            acc, qk = nums[-1], 1
            for c in nums[-2::-1]:
                qk *= q
                acc = acc * p + c * qk
            return Fraction(acc, self.den * qk)
        acc = 0
        for c in reversed(self.nums):
            acc = acc * v + c
        return Fraction(1, self.den) * acc

    def sqrt(self):
        """Exact square root, or None.  The root is R / den with R^2 = den
        nums, and a rational R whose square has int coefficients has int
        ones (Gauss), so R is solved from the top down on ints: an inexact
        division means there is no root."""
        if self.is_zero():
            return self
        if self.degree % 2 != 0:
            return None
        M = [c * self.den for c in self.nums]
        n = self.degree // 2
        rl = isqrt(M[-1]) if M[-1] > 0 else 0
        if rl * rl != M[-1]:
            return None
        R = [0] * n + [rl]
        for k in range(n - 1, -1, -1):
            acc = M[k + n]
            for i in range(k + 1, n):
                acc -= R[i] * R[k + n - i]
            R[k], rem = divmod(acc, 2 * rl)
            if rem:
                return None
        return _poly(self.den, R) if _mul(R, R) == M else None

    def to_str(self, var="x"):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*{var}")
            else:
                parts.append(f"({c})*{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_str()})"


def _poly(den, nums):
    """The Poly nums / den for a list of ints the caller owns (or one that
    ends in a nonzero entry): ``_take`` pops its trailing zeros in place."""
    return Poly.__new__(Poly)._take(den, nums)


#: largest degree ``factor_over`` accepts: the Hensel modulus grows like
#: 2**degree and the recombination tries up to 2**(factors mod p) subsets
MAX_FACTOR_DEGREE = 32


def factor_over(p):
    """Irreducible monic factors of a Poly over QQ: list of (Poly, mult),
    sorted by (degree, coefficient strings).

    Zassenhaus on integer coefficient lists (Cohen, GTM 138, §3.5): clear
    denominators, split off Yun's squarefree parts, factor each part modulo
    the smallest good odd prime, Hensel-lift past the Landau–Mignotte bound
    and recombine subsets by trial division.  The zero polynomial and a
    degree above ``MAX_FACTOR_DEGREE`` raise ``ValueError``.
    """
    if p.degree <= 1:
        if p.is_zero():
            raise ValueError("the zero polynomial has no factorization")
        return [(p.monic(), 1)] if p.degree == 1 else []
    if p.degree > MAX_FACTOR_DEGREE:
        raise ValueError(f"cannot factor a polynomial of degree {p.degree} "
                         f"(at most {MAX_FACTOR_DEGREE})")
    out = []
    for mult, part in enumerate(_squarefree_parts(_primitive(p.nums)), 1):
        if len(part) > 1:
            out += [(_poly(g[-1], g), mult) for g in _zassenhaus(part)]
    out.sort(key=lambda fm: (fm[0].degree, tuple(str(c) for c in fm[0].coeffs)))
    return out


# Integer polynomials below are coefficient lists, lowest degree first, with
# no trailing zeros ([] is zero).  Lists taken mod m hold residues in [0, m).


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mod(a, m):
    return _trim([c % m for c in a])


def _mul(a, b):
    return _trim(_int_convolve(a, b, len(a) + len(b) - 1))


def _lincomb(a, b, k):
    """a + k b."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _trim([x + k * y for x, y in zip(a, b + [0] * (len(a) - len(b)))])


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a):
    """A nonzero a over its content, with a positive leading coefficient."""
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


def _exact_quotient(a, b):
    """a / b when b divides a in Z[x], else None."""
    a, db = list(a), len(b) - 1
    if len(a) <= db:
        return None
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + db], b[-1])
        if r:
            return None
        q[k] = c
        if c:
            for i in range(db):
                a[k + i] -= c * b[i]
    return None if any(a[:db]) else q


def _pdivrem(a, b):
    """(s, q, r) with s a = q b + r in Z[x] and deg r < deg b, for b with a
    positive leading coefficient.  The scale s starts at 1 and grows only by
    the part of lc(b) that does not divide the current top coefficient, so
    division by a monic b is plain int arithmetic."""
    r, db, lead = list(a), len(b) - 1, b[-1]
    s, q = 1, [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        t = r[k + db]
        if t:
            if t % lead:
                m = lead // gcd(t, lead)
                s, t = s * m, t * m
                r = [c * m for c in r[:k + db]]
                q = [c * m for c in q]
            c = t // lead
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    return s, q, _trim(r[:db])


def _int_gcd(a, b):
    """Primitive gcd in Z[x] of a nonzero a and any b, by primitive
    pseudo-remainders."""
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _pdivrem(a, b)[2]
    return a


def _int_lcm(polys):
    """Primitive lcm in Z[x] of nonzero integer polynomials."""
    out = [1]
    for p in polys:
        p = _primitive(p)
        out = _mul(out, _exact_quotient(p, _int_gcd(p, out)))
    return out


def _squarefree_parts(f):
    """Yun: primitive, pairwise coprime g_1, g_2, ... with f = c prod g_i**i
    (a missing multiplicity gives [1])."""
    df = _derivative(f)
    c = _int_gcd(f, df)
    w, y = _exact_quotient(f, c), _exact_quotient(df, c)
    parts = []
    while len(w) > 1:
        z = _lincomb(y, _derivative(w), -1)
        g = _int_gcd(w, z)
        parts.append(g)
        w, y = _exact_quotient(w, g), (_exact_quotient(z, g) if z else [])
    return parts


def _divmod_mod(a, b, m):
    """Quotient and remainder of a by b mod m; lc(b) must be a unit mod m."""
    r, db = [c % m for c in a], len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % m
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] = (r[k + i] - c * b[i]) % m
    return q, _trim(r[:db])


def _powmod(a, e, f, m):
    """a**e mod (f, m), e >= 1."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else _divmod_mod(_mul(out, a), f, m)[1]
        e >>= 1
        if not e:
            return out
        a = _divmod_mod(_mul(a, a), f, m)[1]


def _product_mod(c, polys, m):
    """c times the product of polys, mod m."""
    out = [c % m]
    for u in polys:
        out = _mod(_mul(out, u), m)
    return out


def _monic_mod(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd_mod(a, b, p):
    """Monic gcd of a nonzero pair mod a prime p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _bezout_mod(g, h, p):
    """s, t with s g + t h = 1 mod p, deg s < deg h, deg t < deg g, for
    coprime g, h mod p of positive degree."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_lincomb(s0, _mul(q, s1), -1), p)
        t0, t1 = t1, _mod(_lincomb(t0, _mul(q, t1), -1), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _good_prime(f):
    """Smallest odd prime dividing neither lc(f) nor disc(f), so that f mod p
    keeps its degree and stays squarefree.  Odd, because the equal-degree
    split takes (p**d - 1)/2 powers."""
    df, p = _derivative(f), 1
    while True:
        p += 2
        if (all(p % q for q in range(3, isqrt(p) + 1, 2)) and f[-1] % p
                and len(_gcd_mod(_mod(f, p), _mod(df, p), p)) == 1):
            return p


def _factor_mod(f, p, rng):
    """Monic irreducible factors mod p of a squarefree f mod p: distinct-degree
    split, then Cantor–Zassenhaus equal-degree split."""
    f, h, d, out = _monic_mod(f, p), [0, 1], 0, []
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _mod(_lincomb(h, [0, 1], -1), p), p)
        if len(g) > 1:
            out += _split_equal_degree(g, d, p, rng)
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    return out + [f] if len(f) > 1 else out


def _split_equal_degree(f, d, p, rng):
    """Monic irreducible factors of f mod p, all of degree d."""
    if len(f) - 1 == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _gcd_mod(f, _mod(_lincomb(_powmod(a, e, f, p), [1], -1), p), p)
        if 1 < len(g) < len(f):
            return (_split_equal_degree(g, d, p, rng)
                    + _split_equal_degree(_divmod_mod(f, g, p)[0], d, p, rng))


def _hensel_pair(f, g, h, p, m):
    """G = g, H = h mod p with f = G H mod m and H monic, for f = g h mod p,
    h monic and g, h coprime mod p: von zur Gathen–Gerhard's Hensel step
    (Modern Computer Algebra, Alg. 15.10) at doubling precision."""
    s, t = _bezout_mod(g, h, p)
    q = p
    while q < m:
        q = min(q * q, m)
        e = _mod(_lincomb(f, _mul(g, h), -1), q)
        c, r = _divmod_mod(_mul(s, e), h, q)
        g = _mod(_lincomb(_lincomb(g, _mul(t, e), 1), _mul(c, g), 1), q)
        h = _mod(_lincomb(h, r, 1), q)
        if q < m:
            b = _mod(_lincomb(_lincomb(_mul(s, g), _mul(t, h), 1), [1], -1), q)
            c, r = _divmod_mod(_mul(s, b), h, q)
            s = _mod(_lincomb(s, r, -1), q)
            t = _mod(_lincomb(_lincomb(t, _mul(t, b), -1), _mul(c, g), -1), q)
    return g, h


def _hensel_lift(f, factors, p, m):
    """Monic lifts mod m of the monic factors mod p of f, by a binary tree of
    two-factor lifts (lc(f) must be a unit mod p)."""
    if len(factors) == 1:
        return [_monic_mod(f, m)]
    k = len(factors) // 2
    g, h = _hensel_pair(f, _product_mod(f[-1], factors[:k], p),
                        _product_mod(1, factors[k:], p), p, m)
    return _hensel_lift(g, factors[:k], p, m) + _hensel_lift(h, factors[k:], p, m)


def _zassenhaus(f):
    """Irreducible factors in Z[x] of a primitive squarefree f."""
    if len(f) == 2:
        return [f]
    p = _good_prime(f)
    factors = _factor_mod(f, p, random.Random(0))
    if len(factors) == 1:
        return [f]
    n = len(f) - 1
    bound = 2 * f[-1] * (isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f))
    m = p
    while m <= bound:
        m *= p
    lifts = _hensel_lift(f, factors, p, m)
    out, size = [], 1
    while 2 * size <= len(lifts):
        for subset in combinations(range(len(lifts)), size):
            # a true factor's constant term divides lc(f) f(0): test it first
            c0 = f[-1]
            for i in subset:
                c0 = c0 * lifts[i][0] % m
            c0 = c0 - m if 2 * c0 > m else c0
            if f[0] and (not c0 or f[-1] * f[0] % c0):
                continue
            g = _product_mod(f[-1], [lifts[i] for i in subset], m)
            g = _primitive([c - m if 2 * c > m else c for c in g])
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifts = [u for i, u in enumerate(lifts) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


class RatFunc:
    """Reduced quotient of polynomials over QQ with monic denominator; the
    reduction runs on the integer numerators of both (``_qq_reduced``)."""

    __slots__ = ("num", "den")
    field = QQ

    def __init__(self, num, den=None):
        if den is None:
            self.num, self.den = num, _poly(1, [1])
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _qq_reduced(num.nums, den.nums, den.den, num.den)

    @staticmethod
    def const(c):
        return RatFunc(Poly.const(c))

    @staticmethod
    def x():
        return RatFunc(Poly.x())

    @staticmethod
    def from_coeffs(num_coeffs, den_coeffs=(1,)):
        return RatFunc(Poly(num_coeffs), Poly(den_coeffs))

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.degree == 0

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        return RatFunc.const(other)

    def derivative(self):
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def __call__(self, v):
        dv = self.den(v)
        if dv == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(v) / dv

    def compose(self, other):
        """self(other) for a RatFunc argument, by homogenization: with
        other = A / B and k = max(deg num, deg den), self(A / B) is
        B^k num(A / B) / B^k den(A / B), two int polynomials in A and B
        (sum c_i A^i B^(k-i)) and one reduction."""
        N, dn, D, dd = self.num.nums, self.num.den, self.den.nums, self.den.den
        A, da, B, db = other.num.nums, other.num.den, other.den.nums, other.den.den
        # A / B over Z[x]: (A db) / (B da)
        A, B = [c * db for c in A], [c * da for c in B]
        k = max(len(N), len(D)) - 1
        apow, bpow = [[1]], [[1]]
        for _ in range(k):
            apow.append(_mul(apow[-1], A))
            bpow.append(_mul(bpow[-1], B))

        def homogenized(P):
            out = []
            for i, c in enumerate(P):
                if c:
                    out = _lincomb(out, _mul(apow[i], bpow[k - i]), c)
            return out

        num, den = homogenized(N), homogenized(D)
        if not den:
            raise ZeroDivisionError("division by zero rational function")
        # self = (N / dn) / (D / dd)
        return _ratfunc(*_qq_reduced(num, den, dd, dn))

    def sqrt(self):
        """Exact square root, or None.  The roots of a reduced num and a monic
        den are coprime and the den's is monic, so the root is reduced."""
        rn = self.num.sqrt()
        rd = None if rn is None else self.den.sqrt()
        return None if rd is None else _ratfunc(rn, rd)

    def order_at(self, place):
        """Order of vanishing at a place of P^1 (negative for a pole).

        ``place`` is INF, a rational point, or a monic irreducible Poly.
        """
        if self.is_zero():
            raise ValueError("zero function has no order")
        if place is INF:
            return self.den.degree - self.num.degree
        if not isinstance(place, Poly):
            place = Poly([-QQ.of(place), 1])
        return root_multiplicity(self.num, place) - root_multiplicity(self.den, place)

    def to_str(self, var="x"):
        if self.is_poly():
            return self.num.to_str(var)
        return f"({self.num.to_str(var)}) / ({self.den.to_str(var)})"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


def _ratfunc(num, den):
    """The RatFunc num / den of a pair already in lowest terms, den monic."""
    f = RatFunc.__new__(RatFunc)
    f.num, f.den = num, den
    return f


def _qq_reduced(N, D, sn, sd):
    """(num, den) Polys over QQ of sn N / (sd D) in lowest terms with a monic
    den, for int lists N and D (D nonzero, no trailing zero) and ints sn, sd
    != 0.  A constant D runs no gcd."""
    if not N:
        return _poly(1, []), _poly(1, [1])
    if len(D) > 1:
        g = _int_gcd(D, N)
        if len(g) > 1:
            N, D = _exact_quotient(N, g), _exact_quotient(D, g)
    return _poly(sd * D[-1], [c * sn for c in N]), _poly(D[-1], D)


def ratfunc_sum(terms):
    """The reduced RatFunc over QQ of the sum of c * num / den over
    (c, num, den) triples.

    Numerators become int lists over one denominator and add up per
    denominator; each denominator becomes a primitive int list, the groups
    meet over the primitive lcm of those (``_int_lcm``), and the one gcd
    reduction is that of the total.
    """
    groups = {}
    for c, num, den in terms:
        if c:
            groups.setdefault(den, []).append((num.nums, c.numerator, num.den * c.denominator))
    parts = []
    for den, nums in groups.items():
        # sum_t c_t num_t = M / e over one denominator e
        e = lcm(*[d for _, _, d in nums])
        M = []
        for N, cn, d in nums:
            M = _lincomb(M, N, cn * (e // d))
        D, dd = den.nums, den.den
        P = _primitive(D)
        # den = (D[-1] / (dd P[-1])) P, so the group is (M dd P[-1] / (e D[-1])) / P
        parts.append((M, dd * P[-1], e * D[-1], P))
    L = _int_lcm([P for *_, P in parts])
    E = lcm(*[d for _, _, d, _ in parts])
    total = []
    for M, n, d, P in parts:
        total = _lincomb(total, _mul(M, _exact_quotient(L, P)), n * (E // d))
    return _ratfunc(*_qq_reduced(total, L, 1, E))


def ratfunc_of_fractions(fractions, den=1):
    """The RatFunc (1 / den) sum c / (x - p)^k over partial fractions
    {(p, k): c}, with c x^k for p = INF, c an int or a Fraction and p
    rational.

    Over the monic denominator prod (x - p)^D_p, D_p the largest k at p with
    c != 0, the numerator at p is c_(p, D_p) prod_(p' != p) (p - p')^D_p',
    which is not zero: the pair is in lowest terms and needs no gcd.  With
    p = a / b and L_p = b x - a, the part at p is H_p / L_p^D_p, H_p = sum_k
    c_(p, k) b^k L_p^(D_p - k) by Horner, and the parts meet over the
    product of the L_p^D_p, all on ints over one lcm of the c's."""
    fractions = {pk: c for pk, c in fractions.items() if c}
    E = lcm(*[c.denominator for c in fractions.values()])
    C = {pk: c.numerator * (E // c.denominator) for pk, c in fractions.items()}
    top = {}
    for p, k in C:
        top[p] = max(top.get(p, 0), k)
    num = [C.get((INF, k), 0) for k in range(top.pop(INF, -1) + 1)]
    dens = [1]
    for p, D in top.items():
        a, b = p.numerator, p.denominator
        L, part, power = [-a, b], [], [1]
        for k in range(1, D + 1):
            part, power = _lincomb(_mul(part, L), [b ** k], C.get((p, k), 0)), _mul(power, L)
        num, dens = _lincomb(_mul(num, power), _mul(part, dens), 1), _mul(dens, power)
    return _ratfunc(_poly(den * E * dens[-1], num), _poly(dens[-1], dens))


def root_multiplicity(p, fac):
    """Multiplicity of the irreducible factor ``fac`` in ``p`` (0 for p = 0)."""
    if p.is_zero():
        return 0
    m = 0
    while True:
        q, r = p.divrem(fac)
        if not r.is_zero():
            return m
        m += 1
        p = q


class FracFuncElement:
    """Element of QQ(h), wrapping a RatFunc in h."""

    __slots__ = ("rf",)

    def __init__(self, rf):
        self.rf = rf

    def _coerce(self, other):
        try:
            return FractionField.of(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.rf + o.rf)

    __radd__ = __add__

    def __neg__(self):
        return FracFuncElement(-self.rf)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.rf - o.rf)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.rf * o.rf)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.rf / o.rf)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rf == o.rf

    def __hash__(self):
        # a constant equals its base value, so it must hash like one
        if self.rf.is_poly() and self.rf.num.degree <= 0:
            return hash(self.rf.num.leading())
        return hash(self.rf)

    def __bool__(self):
        return not self.rf.is_zero()

    def __repr__(self):
        return self.rf.to_str(FractionField.var)


class FractionField(ElementField):
    """The field QQ(h) of rational functions in the quantization parameter,
    used as a coefficient field (its one instance is ``HBAR_FIELD``)."""

    base = QQ
    var = "h"
    name = "QQ(h)"

    def __init__(self):
        self.gen = FracFuncElement(RatFunc.x())

    def zero(self):
        return FracFuncElement(RatFunc.const(0))

    def one(self):
        return FracFuncElement(RatFunc.const(1))

    @staticmethod
    def of(v):
        if isinstance(v, FracFuncElement):
            return v
        if isinstance(v, RatFunc):
            return FracFuncElement(v)
        return FracFuncElement(RatFunc.const(v))

    def is_zero(self, v):
        return not self.of(v)

    def sqrt(self, v):
        root = self.of(v).rf.sqrt()
        return None if root is None else FracFuncElement(root)

    def to_str(self, v):
        rf = self.of(v).rf
        return rf.to_str(self.var)

    def convolve(self, a, b, n):
        """The first ``n`` coefficients of the product of coefficient lists.

        Schoolbook, O(len(a) len(b)) exact RatFunc products: the only
        coefficient field without an integer kernel.
        """
        out = [self.zero()] * n
        for i, x in enumerate(a[:n]):
            if not self.is_zero(x):
                for j, y in enumerate(b[: n - i]):
                    if not self.is_zero(y):
                        out[i + j] = out[i + j] + x * y
        return out

    def __repr__(self):
        return self.name


def poly_pow(p, k):
    """p**k for k >= 0."""
    out = _poly(1, [1])
    for _ in range(k):
        out = out * p
    return out
