r"""Dense univariate polynomials and rational functions over a field tower.

``Poly`` stores coefficients by degree (zero polynomial = empty list) and is
generic over the fields of :mod:`quantcurve.algebra.fields`.  ``RatFunc`` is
a reduced fraction of polynomials with monic denominator.  On top of these,
``FractionField`` turns ``RatFunc`` arithmetic into a coefficient field of
its own, which is how rational functions of the quantization parameter enter
the tower.

Irreducible factorization over the rationals is delegated to sympy; all
other arithmetic is local.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, QuadExtField


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, normalize=True):
        if normalize:
            coeffs = [field.of(c) for c in coeffs]
            while coeffs and field.is_zero(coeffs[-1]):
                coeffs.pop()
        self.field = field
        self.coeffs = coeffs

    @staticmethod
    def const(field, c):
        return Poly(field, [field.of(c)])

    @staticmethod
    def x(field):
        return Poly(field, [field.zero(), field.one()])

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            return self.field.zero()
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal coefficients hash alike across the tower (QQ(sqrt d) elements
        # with b == 0 hash like their base value), so equal polys do too
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = []
        for i in range(n):
            x = a[i] if i < len(a) else f.zero()
            y = b[i] if i < len(b) else f.zero()
            out.append(x + y)
        return Poly(f, out, normalize=False)._trim()

    def _trim(self):
        f = self.field
        while self.coeffs and f.is_zero(self.coeffs[-1]):
            self.coeffs.pop()
        return self

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs], normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly(f, [])
            return Poly(f, f.convolve(a, b, len(a) + len(b) - 1), normalize=False)._trim()
        c = f.of(other)
        return Poly(f, [ci * c for ci in self.coeffs], normalize=False)._trim()

    __rmul__ = __mul__

    def divrem(self, other):
        """Quotient and remainder; raises on division by the zero polynomial."""
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [f.zero()] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        dlead = other.leading()
        dd = other.degree
        while len(r) - 1 >= dd and r:
            k = len(r) - 1 - dd
            c = r[-1] / dlead
            q[k] = c
            for i, oc in enumerate(other.coeffs):
                r[k + i] = r[k + i] - c * oc
            while r and f.is_zero(r[-1]):
                r.pop()
        return Poly(f, q, normalize=False)._trim(), Poly(f, r, normalize=False)._trim()

    def __mod__(self, other):
        return self.divrem(other)[1]

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def gcd(self, other):
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(self.field, [c / lead for c in self.coeffs], normalize=False)

    def derivative(self):
        f = self.field
        return Poly(f, [f.of(i) * c for i, c in enumerate(self.coeffs)][1:], normalize=False)._trim()

    def __call__(self, v):
        f = self.field
        acc = f.zero()
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def shift(self, k):
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Poly(self.field, [self.field.zero()] * k + self.coeffs, normalize=False)

    def squarefree_decomposition(self):
        """Yun decomposition: list of (factor, multiplicity), factors monic."""
        f = self.field
        p = self.monic()
        out = []
        if p.degree <= 0:
            return out
        d = p.derivative()
        a = p.gcd(d)
        b = p // a
        c = d // a
        i = 1
        while b.degree > 0:
            z = c - b.derivative()
            g = b.gcd(z)
            if g.degree > 0:
                out.append((g, i))
            b = b // g
            c = z // g
            i += 1
        return out

    def sqrt(self):
        """Exact square root, or None.  Works recursively over the tower."""
        f = self.field
        if self.is_zero():
            return self
        if self.degree % 2 != 0:
            return None
        rl = f.sqrt(self.leading())
        if rl is None:
            return None
        n = self.degree // 2
        out = [f.zero()] * (n + 1)
        out[n] = rl
        # Solve (sum out_i x^i)^2 = self from the top coefficient down.
        for k in range(n - 1, -1, -1):
            idx = k + n
            acc = self.coeffs[idx] if idx < len(self.coeffs) else f.zero()
            for i in range(k + 1, n):
                j = idx - i
                if k < j <= n:
                    acc = acc - out[i] * out[j]
            out[k] = acc / (rl + rl)
        cand = Poly(f, out)
        if cand * cand == self:
            return cand
        return None

    def to_str(self, var="x"):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            cs = self.field.to_str(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"({cs})*{var}")
            else:
                parts.append(f"({cs})*{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_str()})"


def factor_rational_poly(p):
    """Irreducible monic factors of a Poly over QQ: list of (Poly, mult).

    Backed by sympy's exact factorization over the rationals.
    """
    import sympy

    if p.field is not QQ:
        raise ValueError("factorization implemented over QQ only")
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)], x, domain="QQ")
    _, factors = sp.factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(str(c)) for c in reversed(fac.all_coeffs())]
        out.append((Poly(QQ, coeffs).monic(), mult))
    out.sort(key=lambda fm: (fm[0].degree, tuple(str(c) for c in fm[0].coeffs)))
    return out


def factor_over(field, p):
    """Factor a monic squarefree-ish Poly into irreducibles over the tower.

    Over QQ this is full factorization.  Over a quadratic extension, the QQ
    factors of the underlying rational polynomial are refined once: a
    quadratic factor splits when its discriminant becomes a square.
    """
    if field is QQ:
        return factor_rational_poly(p)
    if isinstance(field, QuadExtField) and field.base is QQ:
        rat = Poly(QQ, [_as_fraction(field, c) for c in p.coeffs])
        out = []
        for fac, mult in factor_rational_poly(rat):
            lifted = Poly(field, [field.of(c) for c in fac.coeffs])
            if fac.degree == 2:
                c0, c1 = lifted.coeffs[0], lifted.coeffs[1]
                disc = c1 * c1 - 4 * c0
                r = field.sqrt(disc)
                if r is not None:
                    half = field.of(Fraction(1, 2))
                    r1 = (-c1 + r) * half
                    r2 = (-c1 - r) * half
                    out.append((Poly(field, [-r1, field.one()]), mult))
                    out.append((Poly(field, [-r2, field.one()]), mult))
                    continue
            out.append((lifted, mult))
        return out
    raise ValueError(f"factorization not supported over {field}")


def _as_fraction(field, c):
    if not field.base.is_zero(c.b):
        raise ValueError("coefficient does not descend to QQ")
    return c.a


class RatFunc:
    """Reduced quotient of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        field = num.field
        if den is None:
            den = Poly.const(field, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading()
            if not field.is_zero(lead - field.one()):
                num = num * (field.one() / lead)
                den = den.monic()
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @staticmethod
    def const(field, c):
        return RatFunc(Poly.const(field, c))

    @staticmethod
    def x(field):
        return RatFunc(Poly.x(field))

    @staticmethod
    def from_coeffs(field, num_coeffs, den_coeffs=(1,)):
        return RatFunc(Poly(field, list(num_coeffs)), Poly(field, list(den_coeffs)))

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
        return RatFunc(-self.num, self.den, reduce=False)

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
        return RatFunc.const(self.field, other)

    def derivative(self):
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def __call__(self, v):
        dv = self.den(v)
        if isinstance(dv, Fraction) and dv == 0:
            raise ZeroDivisionError("evaluation at a pole")
        if not isinstance(dv, Fraction) and self.field.is_zero(dv):
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(v) / dv

    def compose(self, other):
        """self(other) for a RatFunc argument."""
        f = self.field
        num = RatFunc.const(f, 0)
        for c in reversed(self.num.coeffs):
            num = num * other + RatFunc.const(f, c)
        den = RatFunc.const(f, 0)
        for c in reversed(self.den.coeffs):
            den = den * other + RatFunc.const(f, c)
        return num / den

    def is_square(self):
        rn = self.num.sqrt()
        if rn is None:
            return False
        return self.den.sqrt() is not None

    def order_at_infinity(self):
        """Order of vanishing at infinity (negative for a pole)."""
        if self.is_zero():
            raise ValueError("zero function has no order")
        return self.den.degree - self.num.degree

    def order_at(self, c):
        """Order of vanishing at a finite point (negative for a pole)."""
        if self.is_zero():
            raise ValueError("zero function has no order")
        f = self.field
        lin = Poly(f, [-f.of(c), f.one()])
        ordn = root_multiplicity(self.num, lin)
        ordd = root_multiplicity(self.den, lin)
        return ordn - ordd

    def to_str(self, var="x"):
        if self.is_poly():
            return self.num.to_str(var)
        return f"({self.num.to_str(var)}) / ({self.den.to_str(var)})"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


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
    """Element of a rational function field, wrapping a RatFunc."""

    __slots__ = ("parent", "rf")

    def __init__(self, parent, rf):
        self.parent = parent
        self.rf = rf

    def _coerce(self, other):
        if isinstance(other, FracFuncElement) and other.parent is self.parent:
            return other
        try:
            return self.parent.of(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.parent, self.rf + o.rf)

    __radd__ = __add__

    def __neg__(self):
        return FracFuncElement(self.parent, -self.rf)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.parent, self.rf - o.rf)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.parent, self.rf * o.rf)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FracFuncElement(self.parent, self.rf / o.rf)

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

    def evaluate(self, v):
        return self.rf(v)

    def __repr__(self):
        return self.rf.to_str(self.parent.var)


class FractionField:
    """Field of rational functions base(var), used as a coefficient field."""

    def __init__(self, base, var="h"):
        self.base = base
        self.var = var
        self.name = f"{base.name}({var})"
        self.gen = FracFuncElement(self, RatFunc.x(base))

    def zero(self):
        return FracFuncElement(self, RatFunc.const(self.base, 0))

    def one(self):
        return FracFuncElement(self, RatFunc.const(self.base, 1))

    def of(self, v):
        if isinstance(v, FracFuncElement):
            if v.parent is self:
                return v
            if v.parent.base is self.base and v.parent.var == self.var:
                return FracFuncElement(self, v.rf)
        if isinstance(v, RatFunc) and v.field is self.base:
            return FracFuncElement(self, v)
        return FracFuncElement(self, RatFunc.const(self.base, self.base.of(v)))

    def is_zero(self, v):
        return not self.of(v)

    def is_square(self, v):
        return self.of(v).rf.is_square()

    def sqrt(self, v):
        rf = self.of(v).rf
        rn = rf.num.sqrt()
        if rn is None:
            return None
        rd = rf.den.sqrt()
        if rd is None:
            return None
        return FracFuncElement(self, RatFunc(rn, rd))

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


def partial_fractions(f):
    """Split a RatFunc into a polynomial part and per-place pole parts.

    Returns ``(poly_part, parts)`` where ``parts`` is a list of
    ``(factor, [(exponent, numerator_poly)])`` over the monic irreducible
    factors of the denominator, with ``deg numerator < deg factor``.  The sum
    of all pieces reproduces ``f`` exactly.
    """
    field = f.field
    poly_part, rem = f.num.divrem(f.den)
    if rem.is_zero():
        return poly_part, []
    factors = factor_over(field, f.den)
    parts = []
    num_left = rem
    den_left = f.den
    for fac, mult in factors:
        fm = poly_pow(fac, mult)
        other = den_left // fm
        # split num_left/(fm*other) = a/fm + b/other via Bezout
        g, s, t = _xgcd(fm, other)
        # g is 1 (factors are coprime); num/(fm*other) = num*t/fm + num*s/other
        a = (num_left * t) % fm
        terms = []
        r = a
        for j in range(mult, 0, -1):
            q, rr = r.divrem(fac)
            if not rr.is_zero():
                terms.append((j, rr))
            r = q
        terms.reverse()
        if terms:
            parts.append((fac, terms))
        num_left = (num_left * s) % other if other.degree > 0 else Poly(field, [])
        den_left = other
    return poly_part, parts


def poly_pow(p, k):
    """p**k for k >= 0."""
    out = Poly.const(p.field, 1)
    for _ in range(k):
        out = out * p
    return out


def _xgcd(a, b):
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.const(field, 1), Poly(field, [])
    t0, t1 = Poly(field, []), Poly.const(field, 1)
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading()
    inv = field.one() / lead
    return r0.monic(), s0 * inv, t0 * inv


def residue_at(f, place):
    """Residue of the differential f(t) dt at a finite point or at infinity.

    ``place`` is a field element or the string ``"inf"``.  At infinity the
    substitution t = 1/s, dt = -ds/s**2 is used.
    """
    from .series import expand_ratfunc, INF

    field = f.field
    if isinstance(place, str) and place == "inf":
        s = expand_ratfunc(f, INF, order=2)
        return -s.coefficient(1)
    c = field.of(place)
    ordc = f.order_at(c) if not f.is_zero() else 0
    if f.is_zero() or ordc >= 0:
        return field.zero()
    s = expand_ratfunc(f, c, order=0)
    return s.coefficient(-1)
