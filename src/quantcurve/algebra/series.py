r"""Truncated Laurent and Puiseux series with explicit order tracking.

A ``TruncSeries`` holds coefficients of ``tau^k`` for ``k`` from its
valuation up to a guaranteed order (inclusive).  The chart tau**e = w, w the
uniformizer of the expansion place, belongs to the caller: e = 2 gives
half-integer exponents in w at branch points.  Every operation returns the
minimum order it can actually guarantee; nothing is silently padded with
zeros.

The coefficients are numerators over one denominator, in the field's
protocol (``fields``): the coefficient of tau^(val + k) is nums[k] / den,
with nums[0] and nums[-1] nonzero, and the zero series has no nums and val
= order + 1.  Over QQ the nums are ints over den > 0 with gcd(den, *nums) =
1, so a product is one int convolution and one gcd; over QQ(sqrt d) they
are int pairs over such a den, so a product is one to three int
convolutions; over QQ(h) den is 1 and the nums are the field's elements.
``coeffs``, ``coefficient`` and ``items`` read values.

``LogSeries`` carries one extra logarithmic term ``lam * log(w)`` on top of a
series body, and the chart's e; antiderivatives produce it, derivatives fold
it back.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import QQ, _int_convolve
from .poly import INF


def product_order(a, b):
    """The order through which the product of two series is known: a
    coefficient beyond it would read a term beyond one factor's order."""
    return min(a.order + b.val, b.order + a.val)


def _series(field, val, den, nums, order):
    """The TruncSeries nums / den from tau^val through ``order``."""
    return TruncSeries.__new__(TruncSeries)._take(field, val, den, nums, order)


def _scaled(nums, k):
    """nums times the int k; over a field of elements k is 1, which costs
    no element operation."""
    return nums if k == 1 else [c * k for c in nums]


class TruncSeries:
    __slots__ = ("field", "val", "den", "nums", "order")

    def __init__(self, field, val, coeffs, order):
        self._take(field, val, *field.split([field.of(c) for c in coeffs]), order)

    def _take(self, field, val, den, nums, order):
        """Hold nums / den from tau^val: clipped to ``order``, zeros stripped
        at both ends, reduced by the field."""
        end = max(0, min(len(nums), order - val + 1))
        lo = 0
        while lo < end and not nums[lo]:
            lo += 1
        while end > lo and not nums[end - 1]:
            end -= 1
        self.field, self.order = field, order
        if lo == end:
            self.val, self.den, self.nums = order + 1, 1, []
        else:
            self.val = val + lo
            self.den, self.nums = field.reduce(den, nums[lo:end])
        return self

    @staticmethod
    def zero(field, order):
        return _series(field, order + 1, 1, [], order)

    @staticmethod
    def const(field, c, order):
        return TruncSeries(field, 0, [c], order)

    @staticmethod
    def uniformizer(field, order):
        """The series tau itself."""
        return TruncSeries(field, 1, [field.one()], order)

    @property
    def coeffs(self):
        """The coefficients from tau^val on, as values of the field."""
        return [self.field.value(self.den, c) for c in self.nums]

    def is_zero(self):
        return not self.nums

    def coefficient(self, k):
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond guaranteed order {self.order}")
        if k < self.val or k >= self.val + len(self.nums):
            return self.field.zero()
        return self.field.value(self.den, self.nums[k - self.val])

    def items(self):
        for k, c in enumerate(self.nums, self.val):
            if c:
                yield k, self.field.value(self.den, c)

    def truncate(self, order):
        if order >= self.order:
            return self
        return _series(self.field, self.val, self.den, self.nums, order)

    def over(self, field):
        """This series over QQ as one over ``field``, a QuadExtField: the
        same den, each int numerator n the pair (n, 0)."""
        return _series(field, self.val, self.den, [field.num(c, 0) for c in self.nums], self.order)

    def scale_exponents(self, k):
        """Substitute tau -> tau^k (exponent dilation)."""
        nums = []
        gap = [self.field.nil] * (k - 1)
        for c in self.nums:
            nums += [c] + gap
        return _series(self.field, self.val * k, self.den, nums, self.order * k)

    def shift(self, k):
        """Multiply by tau^k."""
        return _series(self.field, self.val + k, self.den, self.nums, self.order + k)

    def __add__(self, other):
        f = self.field
        if not isinstance(other, TruncSeries):
            other = TruncSeries.const(f, f.of(other), self.order)
        order = min(self.order, other.order)
        if self.is_zero():
            return other.truncate(order)
        if other.is_zero():
            return self.truncate(order)
        # both over the lcm of the dens, which is 1 over a field of elements
        den = lcm(self.den, other.den)
        val = min(self.val, other.val)
        out = [f.nil] * (order - val + 1)
        lo, cs = self.val - val, _scaled(self.nums[: max(0, order - self.val + 1)], den // self.den)
        out[lo: lo + len(cs)] = cs
        for i, c in enumerate(_scaled(other.nums[: max(0, order - other.val + 1)], den // other.den),
                              other.val - val):
            out[i] = out[i] + c
        return _series(f, val, den, out, order)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.field, self.val, self.den, [-c for c in self.nums], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, TruncSeries):
            # a scalar splits like a coefficient: an int or a Fraction acts
            # on the denominator and as an int on QQ numerators and QQ(sqrt d)
            # pairs, and on each element of QQ(h) as it is
            c = other if isinstance(other, (int, Fraction)) else f.of(other)
            cd, (cn,) = f.split([c])
            if not cn:
                return TruncSeries.zero(f, self.order)
            return _series(f, self.val, self.den * cd, [x * cn for x in self.nums], self.order)
        order = product_order(self, other)
        if self.is_zero() or other.is_zero():
            return TruncSeries.zero(f, order)
        val = self.val + other.val
        nums = f.convolve(self.nums, other.nums, order - val + 1)
        return _series(f, val, self.den * other.den, nums, order)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, exact through the order this series allows.

        Newton iteration g <- g - g (u g - 1) on the unit part u = U / du:
        each step doubles the number of correct coefficients with two
        ``convolve`` calls, so the cost is a constant times one full-length
        product.  With g = G / gd, the step appends -G E / (gd^2 du) to G,
        E the numerators of coefficients m .. m2 - 1 of U G.
        """
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero series")
        v, U, du = self.val, self.nums, self.den
        n = self.order - v + 1  # the unit part is known through order - v
        gd, G = f.split([f.one() / self.coefficient(v)])
        m = 1
        while m < n:
            m2 = min(2 * m, n)
            # u g = 1 + O(tau^m): only coefficients m .. m2 - 1 of u g - 1 remain
            err = f.convolve(U, G, m2)[m:]
            k = gd * du
            gd, G = f.reduce(gd * k, _scaled(G, k) + [-c for c in f.convolve(G, err, m2 - m)])
            m = m2
        return _series(f, -v, gd, G, self.order - 2 * v)

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            return self * (self.field.one() / self.field.of(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def sqrt(self, root_of_leading=None):
        """Square root with prescribed leading coefficient root.

        Requires even valuation.  If ``root_of_leading`` is omitted the
        canonical field square root of the leading coefficient is used.
        """
        f = self.field
        if self.is_zero():
            raise ValueError("square root of zero truncated series")
        if self.val % 2 != 0:
            raise ValueError(f"odd valuation {self.val} has no series square root")
        lead = self.coefficient(self.val)
        if root_of_leading is None:
            root_of_leading = f.sqrt(lead)
            if root_of_leading is None:
                raise ValueError("leading coefficient is not a square in the field")
        root_of_leading = f.of(root_of_leading)
        if not f.is_zero(root_of_leading * root_of_leading - lead):
            raise ValueError("root_of_leading squared does not match the leading coefficient")
        v, U, du = self.val, self.nums, self.den
        n = self.order - v + 1  # the unit part is known through order - v
        # Newton on the inverse square root, h <- h - h (u h^2 - 1) / 2 with
        # h = H / hd: each step doubles the correct coefficients with three
        # convolves, and appends -H E / (2 hd^3 du) to H
        hd, H = f.split([f.one() / root_of_leading])
        half_d, (half_n,) = f.split([Fraction(-1, 2)])
        m = 1
        while m < n:
            m2 = min(2 * m, n)
            # u h^2 = 1 + O(tau^m): only coefficients m .. m2 - 1 remain
            err = f.convolve(U, f.convolve(H, H, m2), m2)[m:]
            k = hd * hd * du * half_d
            hd, H = f.reduce(hd * k, _scaled(H, k) + [c * half_n for c in f.convolve(H, err, m2 - m)])
            m = m2
        return _series(f, v // 2, du * hd, f.convolve(U, H, n), self.order - v + v // 2)

    def log1(self):
        """log of a series with leading term 1 at valuation 0."""
        f = self.field
        if self.val != 0 or not f.is_zero(self.coefficient(0) - f.one()):
            raise ValueError("log requires leading term 1 at valuation 0")
        u = self - TruncSeries.const(f, f.one(), self.order)
        out = TruncSeries.zero(f, self.order)
        if u.is_zero():
            return out
        k = 1
        sign = 1
        power = u
        while power.val <= self.order:
            out = out + power * Fraction(sign, k)
            power = power * u
            k += 1
            sign = -sign
        return out

    def derivative(self):
        """d/dtau."""
        out = [c * k for k, c in enumerate(self.nums, self.val)]
        return _series(self.field, self.val - 1, self.den, out, self.order - 1)

    def integrate(self):
        """Antiderivative in tau.  Returns (log_coefficient, series).

        The coefficient of tau^-1 cannot be integrated into a power and is
        returned separately as the coefficient of log(tau).
        """
        f = self.field
        logc = self.coefficient(-1) if self.val <= -1 <= self.order else f.zero()
        # c / (k + 1) over one lcm L of the k + 1: c (L / (k + 1)) over den L
        ks = range(self.val + 1, self.val + len(self.nums) + 1)
        L = lcm(*[k for k in ks if k])
        out = [c * (L // k) if k else f.nil for k, c in zip(ks, self.nums)]
        return logc, _series(f, self.val + 1, self.den * L, out, self.order + 1)

    def compose(self, inner):
        """self(inner) for a power series self and inner of valuation >= 1.

        Horner from the top (``_horner``), trimmed to the precision that
        survives: with v = inner.val the result is known through R =
        min(inner.order, (self.order + 1) v - 1), and the partial sum after
        coefficient k is still multiplied by inner k more times, so it is
        carried only through order R - k v.
        """
        if self.val < 0:
            raise ValueError("composition requires a power series (valuation >= 0)")
        if inner.val < 1:
            raise ValueError("composition requires inner valuation >= 1")
        v = inner.val
        R = min(inner.order, (self.order + 1) * v - 1)
        top = min(self.order, R // v)
        # the numerators of coefficients 0 .. top; a zero one is never read
        C = ([0] * self.val + self.nums + [0] * (top + 1))[: top + 1]
        out = _horner(self.field, C, inner, R - (top + 1) * v)
        return _series(self.field, out.val, out.den * self.den, out.nums, out.order)

    def reversion(self):
        """Compositional inverse.

        For valuation +1 the result g satisfies self(g(s)) = s.  For
        valuation -1 (a simple pole) the reciprocal is inverted, so the
        result g satisfies self(g(s)) = 1/s.

        Newton iteration g <- g - (self(g) - s) g' (Brent-Kung): if g is
        right through order m, self(g) = s + O(s^(m+1)) and g' = 1/self'(g)
        + O(s^m), so one composition at order 2m doubles the correct terms
        and the whole inverse costs about two full-length compositions.
        """
        f = self.field
        if self.is_zero() or self.val not in (1, -1):
            raise ValueError("reversion requires valuation +1 or -1")
        if self.val == -1:
            return self.inverse().reversion()
        g, m = TruncSeries(f, 1, [f.one() / self.coefficient(1)], 1), 1
        while m < self.order:
            m = min(2 * m, self.order)
            # g's terms, claimed through m
            gs = _series(f, 1, g.den, g.nums, m)
            err = self.truncate(m).compose(gs) - TruncSeries.uniformizer(f, m)
            g = gs - err * gs.derivative()
        return _series(f, 1, g.den, g.nums, self.order)

    def eq_through(self, other, order=None):
        o = min(self.order, other.order)
        if order is not None:
            o = min(o, order)
        for k in range(min(self.val, other.val), o + 1):
            if not self.field.is_zero(self.coefficient(k) - other.coefficient(k)):
                return False
        return True

    def to_str(self):
        if self.is_zero():
            return f"O(t^{self.order + 1})"
        parts = [f"({self.field.to_str(c)})*t^{k}" for k, c in self.items()]
        return " + ".join(parts) + f" + O(t^{self.order + 1})"

    def __repr__(self):
        return f"TruncSeries({self.to_str()})"


def _horner(field, C, s, order):
    """sum_k C[k] s^k for numerators C of the field at a series s, by Horner
    from the zero series through ``order`` with TruncSeries' bookkeeping:
    each step is known through ``product_order``, sheds leading zeros and
    clips to its order.  The partial sums stay unreduced, over s.den to the
    number of steps that multiplied a nonzero one; the result is reduced."""
    sv, so, sd, S = s.val, s.order, s.den, s.nums
    val, den, nums = order + 1, 1, []
    for c in reversed(C):
        order = min(order + sv, so + val)
        if nums and S:
            val += sv
            nums, den = field.convolve(nums, S, order - val + 1), den * sd
        else:
            val, den, nums = order + 1, 1, []
        if c and order >= 0:
            if val > 0:
                nums, val = [field.nil] * val + nums, 0
            nums[-val] += c if den == 1 else c * den
            while nums and not nums[0]:
                del nums[0]
                val += 1
    return _series(field, val, den, nums, order)


def _local_ints(N, D, place):
    """Int lists n, d and the valuation v with N(x) / D(x) = u^v n(u) / d(u)
    in the uniformizer u at the place (x - place, or 1/x at INF), for int
    lists N and D (D nonzero); n[0] and d[0] are nonzero, and d[0] > 0."""
    if place is INF:
        n, d, v = N[::-1], D[::-1], len(D) - len(N)
    else:
        # with place = a / b and m = max(deg N, deg D), b^m P((a + y) / b) is
        # the int list b^(m - i) p_i shifted by a; y = b u scales y^k by b^k
        a, b = place.numerator, place.denominator
        m = max(len(N), len(D)) - 1
        n, d = ([c * b ** (m - i) for i, c in enumerate(P)] for P in (N, D))
        for P in (n, d):
            if a:
                for i in range(len(P) - 1):
                    for k in range(len(P) - 2, i - 1, -1):
                        P[k] += a * P[k + 1]
            if b != 1:
                P[:] = [c * b ** k for k, c in enumerate(P)]
        zn = next(i for i, c in enumerate(n) if c)
        zd = next(i for i, c in enumerate(d) if c)
        n, d, v = n[zn:], d[zd:], zn - zd
    if d[0] < 0:
        n, d = [-c for c in n], [-c for c in d]
    return n, d, v


def expand_ratfunc(f, place, order, e=1):
    """Laurent expansion of a QQ rational function at a place, as a
    ``TruncSeries`` exact through ``order``.

    With n / d the local numerator and denominator on ints, the quotient
    q_k = (n_k - sum_i d_i q_{k-i}) / d_0 runs on ints (``_int_quotient``):
    n terms cost O(n * deg den) int products and one gcd at the end.  The
    result is a series in the local parameter tau with tau**e equal to the
    uniformizer (x - place, or 1/x at INF); rational functions only produce
    exponents divisible by e.
    """
    if f.is_zero():
        out = TruncSeries.zero(QQ, order)
    else:
        n, d, val = _local_ints(f.num.nums, f.den.nums, place)
        nums, den = _int_quotient(n, d, order - val + 1, f.den.den)
        out = _series(QQ, val, den * f.num.den, nums, order)
    return out.scale_exponents(e) if e != 1 else out


def _int_quotient(n, d, size, scale=1):
    """The first ``size`` coefficients of scale * n / d for int lists n and
    d, d[0] != 0, as (nums, d[0]^size): the quotient q_k = (n_k - sum_i d_i
    q_{k-i}) / d_0 runs on Q_k = q_k d_0^(k+1) = n_k d_0^k - sum_i d_i
    d_0^(i-1) Q_{k-i}, O(size * len(d)) int products and no gcd."""
    d0 = d[0]
    # e[i - 1] = d_i d0^(i-1)
    e = [c * d0 ** j for j, c in enumerate(d[1:size])]
    Q, p = [], 1
    for k in range(size):
        acc = n[k] * p if k < len(n) else 0
        for i, c in enumerate(e[:k], 1):
            acc -= c * Q[k - i]
        Q.append(acc)
        p *= d0
    # q_k = Q_k / d0^(k+1) = Q_k d0^(size-1-k) / d0^size
    nums, s = [0] * size, scale
    for k in range(size - 1, -1, -1):
        nums[k] = Q[k] * s
        s *= d0
    return nums, p


def linear_forms_ints(forms, place, order):
    """The product of the powers (alpha t + beta)^k over ``forms``, a list of
    (alpha, beta, k) with rational alpha and beta not both zero, at a place
    of P^1: a series over QQ exact through u^order in the uniformizer u (t -
    place, or 1/t at INF).

    At the place a form is u^s (A + B u) with A != 0 and s in {-1, 0, 1},
    and (A + B u)^k = A^k sum_j C(k, j) (B/A)^j u^j is a binomial series,
    C(k, j) = k (k - 1) ... (k - j + 1) / j! for k of either sign.  The
    recursion's basis functions 1/(t - q)^d and t^(d - 2), and their
    pullbacks by a Mobius involution, are such products.
    """
    val, parts = 0, []
    for alpha, beta, k in forms:
        if place is INF:
            s, A, B = (-1, alpha, beta) if alpha else (0, beta, 0)
        else:
            A = alpha * place + beta
            s, A, B = (0, A, alpha) if A else (1, alpha, 0)
        val += s * k
        if k:
            # A^k = ln / ld and B / A = rn / rd on ints, with ld, rd > 0
            an, ad, bn, bd = A.numerator, A.denominator, B.numerator, B.denominator
            ln, ld = (an ** k, ad ** k) if k > 0 else (ad ** -k, an ** -k)
            rn, rd = bn * ad, bd * an
            if ld < 0:
                ln, ld = -ln, -ld
            if rd < 0:
                rn, rd = -rn, -rd
            parts.append((ln, ld, rn, rd, k))
    size = order - val + 1
    nums, den = [1] + [0] * (size - 1), 1
    for ln, ld, rn, rd, k in parts:
        den *= ld
        if not rn:
            nums = [c * ln for c in nums]
            continue
        # ln C(k, j) rn^j rd^(size - 1 - j) over ld rd^(size - 1)
        rdp = [1]
        for _ in range(size - 1):
            rdp.append(rdp[-1] * rd)
        series, c, rnj = [], ln, 1
        for j in range(size):
            series.append(c * rnj * rdp[size - 1 - j])
            c = c * (k - j) // (j + 1)
            rnj *= rn
        nums, den = _int_convolve(nums, series, size), den * rdp[-1]
    return _series(QQ, val, den, nums, order)


def ratfunc_at_series(f, s):
    """A QQ rational function at a Laurent series over QQ: the series
    f.num(s) / f.den(s), each by ``_horner`` from the order its leading
    power allows, then the quotient on ints, with the val, order and
    coefficients of num(s) * den(s).inverse()."""
    if s.field is not QQ:
        raise ValueError(f"a rational function is evaluated at a series over QQ, not {s.field!r}")
    lift = max(0, -s.val)
    dn, dd = f.num.den, f.den.den
    num = _horner(QQ, f.num.nums, s, s.order - lift * f.num.degree)
    den = _horner(QQ, f.den.nums, s, s.order - lift * f.den.degree)
    if den.is_zero():
        raise ZeroDivisionError("inverse of zero series")
    # num times the inverse of den (val -den.val, order den.order - 2 den.val)
    order = min(num.order - den.val, den.order - 2 * den.val + num.val)
    if num.is_zero():
        return TruncSeries.zero(QQ, order)
    val = num.val - den.val
    # num(s) / den(s) = (num.nums / (num.den dn)) / (den.nums / (den.den dd))
    nums, d0 = _int_quotient(num.nums, den.nums, order - val + 1, den.den * dd)
    return _series(QQ, val, d0 * num.den * dn, nums, order)


def monomial_sum(terms, factors, order):
    """sum (p / q) prod_{i in M} factors[i] over the terms (M, p, q), p != 0,
    for series over QQ keyed by the entries of the sortable tuples M: the
    TruncSeries sum zero(order) + ... of the products const(p / q, order) *
    factors[M[0]] * factors[M[1]] * ...

    A product is known through the sum of its factors' vals plus the least
    of their precisions (order - val, and order for the scalar), and the sum
    through the least of these and ``order``.  The monomials are walked in
    sorted order with a stack of prefix products, so a prefix that monomials
    share is multiplied once, and only through that order; the products add
    up on ints over one lcm.
    """
    terms = sorted(terms)
    vals = [sum(factors[i].val for i in M) for M, _, _ in terms]
    order = min([order] + [v + min([order] + [factors[i].order - factors[i].val for i in M])
                           for v, (M, _, _) in zip(vals, terms)])
    # need[j][i] + 1 terms of the prefix M_j[:i + 1] serve every monomial
    # that shares it; shared[j] is the prefix length M_j shares with M_j-1
    need, shared = [None] * len(terms), [0] * len(terms)
    for j in range(len(terms) - 1, -1, -1):
        M = terms[j][0]
        need[j] = [order - vals[j]] * len(M)
        if j + 1 < len(terms):
            for i, key in enumerate(terms[j + 1][0][: len(M)]):
                if key != M[i]:
                    break
                need[j][i] = max(need[j][i], need[j + 1][i])
                shared[j + 1] = i + 1
    stack, products = [], []
    for j, (M, p, q) in enumerate(terms):
        del stack[shared[j]:]
        for i in range(len(stack), len(M)):
            factor = factors[M[i]]
            v, den, nums = factor.val, factor.den, factor.nums
            size = max(0, need[j][i] + 1)
            if stack:
                pv, pden, pnums = stack[-1]
                v, den, nums = pv + v, pden * den, _int_convolve(pnums, nums, size)
            stack.append((v, den, nums[:size]))
        v, den, nums = stack[-1]
        if v <= order:
            products.append((v, p, q * den, nums[: order - v + 1]))
    low = min([order + 1] + [v for v, _, _, _ in products])
    L = lcm(*[q for _, _, q, _ in products])
    acc = [0] * (order - low + 1)
    for v, p, q, nums in products:
        w = p * (L // q)
        for k, x in enumerate(nums, v - low):
            acc[k] += w * x
    return _series(QQ, low, L, acc, order)


class LogSeries:
    """lam * log(w) + body, with w = tau**e the uniformizer."""

    __slots__ = ("lam", "body", "e")

    def __init__(self, lam, body, e=1):
        self.lam = body.field.of(lam)
        self.body = body
        self.e = e

    @property
    def field(self):
        return self.body.field

    def has_log(self):
        return not self.field.is_zero(self.lam)

    def __repr__(self):
        w = f"t^{self.e}" if self.e != 1 else "t"
        return f"({self.field.to_str(self.lam)})*log({w}) + {self.body.to_str()}"
