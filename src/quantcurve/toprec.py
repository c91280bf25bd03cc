r"""Eynard-Orantin recursion on genus-zero curves with an involution, in
exact rational arithmetic.

A curve is a rational parametrization x(t), y(t) with a Mobius involution
sigma exchanging the two sheets of x.  The recursion transports the bracket

    W_{g-1,n+1}(z, sz, rest) + sum' W_{g1}(z, .) W_{g2}(sz, .),  sz = sigma(z)

through the kernel (1/(t1 - sz) - 1/(t1 - z)) / Omega(z) and takes residues
at every zero and pole of Omega = sigma^* W01 - W01, exactly as stated; the
vanishing of the contributions away from ramification points is checked,
not assumed.

Multilinear differentials are stored slot-separably: a symmetric table maps
sorted tuples of pole-basis keys (place, order) to the coefficient of each
labeled monomial product.  The basis function of (q, d) is dt/(t-q)^d, and
(INF, d) stands for t^(d-2) dt.  Residues are extracted from local series
whose coefficients are vectors over the same basis in the external
variables, so each step stays one-dimensional.  Each residue transform is
computed once per engine, from local series taken through the exact order
that the valuations of its inputs fix; an input shorter than that raises.
A local series is rebuilt only when a transform reads beyond it, and then
through at least twice its old order.  Since sigma is a Mobius map, the
pullback of a basis function by sigma is written down in closed form from
``curve.mobius``, and its valuation at p is that of the basis function at
sigma(p) (``curve.images``): a basis function and its pullback are products
of powers of linear forms in t, whose local series are binomial series
(``series.linear_forms_ints``).  So are the powers of sigma's local
coordinate in the kernel and coupled factors: at p it is alpha u / (1 +
gamma u) (``curve.germs``).

Inside the recursion a basis key is a small int, d * P + rank(q) with P
the number of support places ranked in ``key_sort`` order
(``TopRecEngine._key_id``), and a multiset of keys is a sorted tuple of
ints; the local vectors, the transforms, the bracket jobs and the
accumulation all hash and sort ints only.  So do the local memo keys: a
support point is its index in ``curve.support``, a transform maps indices
to its coefficients, and a factor's valuations are one tuple over the
indices.  The arithmetic is on int numerators over one denominator per
piece.  A local series is a ``TruncSeries`` over QQ, which holds int
numerators over one denominator (``den``, ``nums``); every transform's
scalar carries sigma'/Omega, which is one factor per point, and the scalar
of a transform is one int convolution chain of its factors' numerators.
The kernel and coupled vectors are (key id, int) pairs over one
denominator per point, and a transform returns ints over one denominator
per point.  A table's data are its int items (den, {key ids: int}), the
bracket's job coefficients are ints over one denominator per bracket,
and the accumulation adds ints over one common denominator per table;
every read of a table is one ``contract`` of its items with a column per
slot, the values of a named gauge ("basis", "primitive" or "odd") of each
key at one point.  Keys are decoded (``TopRecEngine._key_of``) where they
leave the recursion: in the public view that a table builds once (keyed
by (place, order) tuples sorted by ``key_sort``, with ``Fraction``
coefficients), in the gauge functions, in the scalar factors of basis
functions and in error messages.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm

from .algebra import (
    INF, QQ, LogSeries, Poly, RatFunc, expand_ratfunc, factor_over, linear_forms_ints, monomial_sum,
    ratfunc_at_series, ratfunc_of_fractions, ratfunc_sum,
)
from .algebra.fields import _int_convolve
from .algebra.series import _series
from .spectral import KSection, divisor_of


# ---------------------------------------------------------------------------
# pole basis



def key_sort(k):
    """Deterministic ordering of basis keys mixing finite places and INF."""
    q, d = k
    if q is INF:
        return (1, Fraction(0), d)
    return (0, q, d)


_basis_cache = {}


def basis_fractions(key):
    """The basis function of a key as partial fractions {(place, k): c}:
    c / (t - place)^k, or c t^k at INF."""
    q, d = key
    return {(INF, max(0, d - 2)) if q is INF else key: 1}


def basis_function(key):
    """The rational function behind a basis key."""
    cached = _basis_cache.get(key)
    if cached is None:
        cached = _basis_cache[key] = ratfunc_of_fractions(basis_fractions(key))
    return cached


def basis_order(key, r):
    """Order at the point r of P^1 of the basis function of key."""
    q, d = key
    if q is INF:  # t^(d - 2), or 1 for d <= 2
        k = max(0, d - 2)
        return -k if r is INF else k if r == 0 else 0
    return d if r is INF else -d if r == q else 0


def primitive_fractions(key, normpt):
    """The primitive of the basis function vanishing at the normalization
    point, as partial fractions: -1 / ((d - 1) (t - q)^(d - 1)), or t^(d -
    1) / (d - 1) at INF, minus its value at normpt, a constant (INF, 0)."""
    q, d = key
    if q is INF:
        if normpt is INF:
            raise ValueError("cannot normalize a polynomial primitive at infinity")
        c = Fraction(1, d - 1)
        out, at = {(INF, d - 1): c}, c * normpt ** (d - 1)
    else:
        if d == 1:
            raise ValueError("first-order pole integrates to a log in the stable range")
        c = Fraction(-1, d - 1)
        out, at = {(q, d - 1): c}, 0 if normpt is INF else c / (normpt - q) ** (d - 1)
    if at:
        out[(INF, 0)] = -at
    return out


# ---------------------------------------------------------------------------
# parametrized curve


def _points(places, what):
    """The points of P^1 behind a list of places (INF or monic irreducible
    polynomials), which must all be rational."""
    points = []
    for q in places:
        if q is not INF and q.degree != 1:
            raise ValueError(
                f"{what} has an irrational point (factor {q.to_str()}); "
                "the residue engine needs rational support"
            )
        points.append(q if q is INF else -q.coeffs[0])
    return points


class ParamCurve:
    """A parametrization x(t), y(t) with the involution sigma exchanging the
    sheets of x, and the points of P^1 that the recursion reads, each derived
    once here: ``mobius`` = (a, b, c, e) with sigma(t) = (a t + b) / (c t +
    e), the ramification points (zeros of dx that sigma fixes), the
    ``support`` (the zeros and poles of Omega), its ``images`` under sigma
    and sigma's ``germs`` there, by index."""

    def __init__(self, x, y, sigma, normalization_point, spectral=None):
        self.x = x
        self.y = y
        self.sigma = sigma
        self.normpt = normalization_point
        if sigma.compose(sigma) != RatFunc.x():
            raise ValueError("sigma is not an involution")
        # a rational involution of P^1 has degree 1 (sigma of degree k
        # composes with itself to degree k^2)
        (b, a), (e, c) = ((f.coeffs + [Fraction(0)] * 2)[:2] for f in (sigma.num, sigma.den))
        self.mobius = (a, b, c, e)
        if x.compose(sigma) != x:
            raise ValueError("x is not sigma-invariant")
        ysig = y.compose(sigma)
        if ysig == y:
            raise ValueError("y is sigma-invariant: the cover is reducible")
        if spectral is not None:
            a1x = spectral.a1.f.compose(x)
            a2x = spectral.a2.f.compose(x)
            if ysig + y != -a1x or ysig * y != a2x:
                raise ValueError("y(sigma(t)) is not the conjugate root of the spectral curve")
        self.y_sigma = ysig
        self.sigma_prime = sigma.derivative()
        self.xprime = x.derivative()
        # Omega = (y(sigma(t)) - y(t)) x'(t) dt
        self.omega = (ysig - y) * self.xprime
        # dx = x'(t) dt has order ord(x') - 2 at infinity
        dx_zeros = [q for q, _ in factor_over(self.xprime.num)]
        if self.xprime.order_at(INF) > 2:
            dx_zeros.append(INF)
        self.ram_points = [p for p in _points(dx_zeros, "dx") if self.sigma_at(p) == p]
        self.support = _points(divisor_of(KSection(self.omega, 1)).items, "Omega")
        self.images = tuple(map(self.sigma_at, self.support))
        self.germs = tuple(map(self._germ, self.support, self.images))
        for r in self.ram_points:
            if r not in self.support:
                raise AssertionError("ramification point missing from the recursion support")

    def local_degree(self):
        """The local degree e of x at the normalization point t0, the chart
        index of a section through t0: the order of the pole of x there, or
        else of the zero of x - x(t0), where dx = x'(t) dt has order e - 1
        (x'(t) dt has order ord(x') - 2 at t0 = INF)."""
        t0 = self.normpt
        v = self.x.order_at(t0)
        return -v if v < 0 else self.xprime.order_at(t0) - (2 if t0 is INF else 0) + 1

    def sigma_at(self, p):
        """sigma(p) on P^1: INF at the pole -e/c, and a/c (INF for c = 0) at
        INF."""
        a, b, c, e = self.mobius
        if p is INF:
            return a / c if c else INF
        den = c * p + e
        return (a * p + b) / den if den else INF

    def _germ(self, p, q):
        """(alpha, gamma) with l(sigma(t(u))) = alpha u / (1 + gamma u), u the
        local coordinate at p (t - p, or 1/t at INF) and l the one at q =
        sigma(p): the Mobius matrix of l, times sigma's, times that of t(u)
        is [[A, 0], [C, D]], as l(q) = 0, and alpha = A/D, gamma = C/D."""
        a, b, c, e = self.mobius
        # t(u) is [[1, p], [0, 1]] or [[0, 1], [1, 0]], and l(w) is [[1, -q],
        # [0, 1]] or [[0, 1], [1, 0]]
        (a, b), (c, e) = ((b, a), (e, c)) if p is INF else ((a, a * p + b), (c, c * p + e))
        A, (C, D) = (c, (a, b)) if q is INF else (a - q * c, (c, e))
        return A / D, C / D


# ---------------------------------------------------------------------------
# symmetric separable tables


class SymTable:
    """Symmetric table of n slots: its items on the engine's int keys,
    {sorted key-id tuples: int numerator} over ``den``, are what every read
    takes; ``table``, built once here by ``keys_of`` (the engine's decoding
    of a key-id tuple), maps sorted (place, order) key tuples to the
    ``Fraction`` coefficient of each labeled monomial."""

    def __init__(self, n, den, ids, keys_of):
        self.n = n
        self.den = den
        self.ids = ids
        self.table = {keys_of(M): Fraction(v, den) for M, v in ids.items()}

    def items(self):
        return self.table.items()


def _multiset_counts(M):
    out = {}
    for k in M:
        out[k] = out.get(k, 0) + 1
    return out


def _merge_binomial(k1, k2):
    """Number of slot splittings realizing the (K1, K2) decomposition."""
    out = 1
    for v, m in _multiset_counts(k1).items():
        out *= comb(m + k2.count(v), m)
    return out


def _placements(rest, extras):
    """Ways to put the coupled keys ``extras`` into the slots of rest + extras
    that carry them: the product over extras[i] of its count in rest + extras
    less its count in extras[:i]."""
    full = rest + extras
    out = 1
    for i, r in enumerate(extras):
        out *= full.count(r) - extras[:i].count(r)
    return out


def arrangement_sum(M, value, last=None):
    """Sum over the distinct orderings k of the multiset M of the products
    value(k[0], 0) * ... * value(k[n-1], n-1).

    A dynamic program over the counts of the keys not yet placed: each
    sub-multiset is visited once and each value(key, slot) is evaluated
    once.  With a slot ``last`` that slot is left open and never evaluated:
    the result is the linear form {key: weight} with the sum equal to
    sum(weight * value(key, last)), one weight per distinct key of M.  The
    products start from the int 1, so int values (numerators over one
    denominator per slot) give int sums and weights.
    """
    counts = _multiset_counts(M)
    keys = list(counts)
    partial = {tuple(counts.values()): 1}
    for i in range(len(M)):
        if i == last:
            continue
        vals = [value(key, i) for key in keys]
        nxt = {}
        for left, acc in partial.items():
            for j, v in enumerate(vals):
                if left[j]:
                    rest = left[:j] + (left[j] - 1,) + left[j + 1:]
                    term = v * acc
                    nxt[rest] = nxt[rest] + term if rest in nxt else term
        partial = nxt
    if last is not None:
        return {keys[left.index(1)]: acc for left, acc in partial.items()}
    (out,) = partial.values()
    return out


def contract(items, cols, slot=None):
    """sum(c * arrangement_sum(M, value)) over the (M, c) items, value(b, i)
    = cols[i][b]: int numerators give an int over the product of the
    columns' denominators and the items'.  With an open ``slot``, its column
    unread, it is the linear form {key: weight} in that slot's values."""

    def value(b, i):
        return cols[i][b]

    if slot is None:
        return sum(c * arrangement_sum(M, value) for M, c in items)
    form = {}
    for M, c in items:
        for b, w in arrangement_sum(M, value, slot).items():
            form[b] = form.get(b, 0) + w * c
    return form


def over_lcm(pairs):
    """(den, {key: int}): the values num / d of {key: (num, d)} as int
    numerators over den, the lcm of the ds."""
    den = lcm(*[d for _, d in pairs.values()])
    return den, {k: v * (den // d) for k, (v, d) in pairs.items()}


def _residue(factors, scalar, target, sign, p):
    """sign * (coefficient of u^target in scalar * prod(factors)), as
    (den, {keys: numerator}): ints over one denominator, zeros left out.

    The scalar is (val, den, nums), the coefficient of u^(val + k) being
    nums[k] / den: the numerators of a ``TruncSeries`` over QQ with its
    trailing zeros kept, known through u^(val + len(nums) - 1).  Each
    factor is a vector series (vec, den): vec[j] lists the (basis key,
    numerator) pairs of the coefficient of u^j, over den.  The fold starts
    from the scalar coefficient of u^(target - r), which leaves r to the
    vector factors; each factor takes m <= r of it, the last one all, and
    the keys it reads extend a tuple of basis keys, one per factor.  The scalar must be known through u^target
    and each factor through u^(target - val); a shorter input is an error,
    not a truncation, and names the support point p.
    """
    val, den, nums = scalar
    top, known = target - val, val + len(nums) - 1
    if known < target:
        raise AssertionError(f"residue at {p} needs the scalar through u^{target}, not u^{known}")
    for vec, _ in factors:
        if len(vec) <= top:
            raise AssertionError(f"residue at {p} needs {top + 1} terms of each vector factor, one has {len(vec)}")
    acc = {r: {(): sign * nums[top - r]} for r in range(top + 1) if nums[top - r]}
    *inner, last = factors
    for vec, vden in inner:
        den *= vden
        nxt = {}
        for r, part in acc.items():
            for m in range(r + 1):
                if not vec[m]:
                    continue
                dst = nxt.setdefault(r - m, defaultdict(int))
                for keys, c in part.items():
                    for b, vc in vec[m]:
                        dst[keys + (b,)] += c * vc
        acc = nxt
    vec, vden = last
    den *= vden
    out = defaultdict(int)
    for r, part in acc.items():
        for keys, c in part.items():
            for b, vc in vec[r]:
                out[keys + (b,)] += c * vc
    out = {keys: v for keys, v in out.items() if v}
    k = gcd(den, *out.values())
    return den // k, {keys: v // k for keys, v in out.items()}


def _pairs(vec):
    """A vector series of {key: numerator} dicts as lists of (key,
    numerator) pairs, zeros left out."""
    return [[(b, c) for b, c in part.items() if c] for part in vec]


# ---------------------------------------------------------------------------
# the recursion engine


def _memo(build):
    """Compute a method's value once per engine and arguments, under the key
    (method name, *arguments) of the engine's one memo dict.  The memo lives
    on the engine, so a freed engine frees its values."""

    def cached(self, *args):
        key = (build.__name__,) + args
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build(self, *args)
        return hit

    return cached


def _per_point(build):
    """Build a method's local data once per support point and trailing
    arguments (a side or a factor tag), again only when a longer expansion
    is asked for, and then through at least twice the order built before,
    so that a series a level lengthens by a few terms is rebuilt a
    logarithmic number of times: callers read the first order + 1 terms.
    A point is its index i in ``curve.support``, and the memo holds (order,
    data) under the key (method name, i, *arguments)."""

    def cached(self, i, order, *args):
        key = (build.__name__, i) + args
        hit = self._memo.get(key)
        if hit is None or hit[0] < order:
            if hit is not None:
                order = max(order, 2 * hit[0])
            hit = self._memo[key] = (order, build(self, i, order, *args))
        return hit[1]

    return cached


class TopRecEngine:
    def __init__(self, curve):
        self.curve = curve
        self._memo = {}

    # -- public interface ----------------------------------------------------

    def W(self, g, n):
        """The symmetric differential W_{g,n} in the stable range."""
        if 2 * g - 2 + n <= 0:
            raise ValueError("W is tabulated only in the stable range")
        return self._compute_w(g, n)

    F = W  # the free energy F_{g,n}: the table of W_{g,n}, read in primitives

    def compute_level(self, level):
        """All (g, n) with 2g - 2 + n == level."""
        out = []
        for g in range(0, (level + 2) // 2 + 1):
            n = level + 2 - 2 * g
            if n >= 1:
                out.append(((g, n), self.W(g, n)))
        return out

    # -- basis keys as ints ----------------------------------------------------

    @_memo
    def _places(self):
        """The support places, ranked in key_sort order."""
        return tuple(sorted(self.curve.support, key=lambda q: key_sort((q, 0))))

    def _key_id(self, key):
        """The int of the basis key (q, d): d * P + rank(q), P the number of
        support places; a pure function of the key and the support."""
        places = self._places()
        q, d = key
        if q not in places:
            raise AssertionError(f"basis key {key} has its place outside the recursion support")
        return d * len(places) + places.index(q)

    def _key_of(self, i):
        """The basis key (q, d) of an int from ``_key_id``."""
        places = self._places()
        d, r = divmod(i, len(places))
        return places[r], d

    # -- scalar factors: exact valuations and local expansions ---------------

    @_memo
    def _diag(self):
        """1/(t - sigma(t))^2, the scalar factor of the diagonal W_{0,2}."""
        diff = RatFunc.x() - self.curve.sigma
        return RatFunc.const(1) / (diff * diff)

    @_memo
    def _vals(self, tag):
        """Exact valuations of a scalar factor at the support points, by
        index.  The factor "sigw" is sigma'/Omega, "diag" 1/(t - sigma(t))^2,
        ("phi", id) a basis function and ("phis", id) its pullback by sigma."""
        curve = self.curve
        support = curve.support
        if tag == "sigw":
            return tuple(curve.sigma_prime.order_at(p) - curve.omega.order_at(p) for p in support)
        if tag == "diag":
            return tuple(self._diag().order_at(p) for p in support)
        # a Mobius map keeps orders: phi(sigma(t)) has at p the order that
        # phi has at sigma(p)
        key = self._key_of(tag[1])
        return tuple(basis_order(key, p) for p in (support if tag[0] == "phi" else curve.images))

    @_per_point
    def _expansion(self, i, order, tag):
        """Local series of a scalar factor at the support point i, exact
        through ``order``: a ``TruncSeries`` over QQ, int numerators over one
        denominator."""
        curve = self.curve
        p = curve.support[i]
        if tag == "diag":
            return expand_ratfunc(self._diag(), p, order)
        if tag == "sigw":
            # Omega (order w at p) through order - s + 2 w inverts to order - s,
            # and times sigma' (order s) through order + w is exact through order
            s, w = curve.sigma_prime.order_at(p), curve.omega.order_at(p)
            return (expand_ratfunc(curve.omega, p, order - s + 2 * w).inverse()
                    * expand_ratfunc(curve.sigma_prime, p, order + w))
        # a basis function, or its pullback by sigma(t) = (a t + b) / (c t + e),
        # as a product of powers of linear forms: for the key (q, d),
        # 1/(t - q)^d pulls back to (c t + e)^d ((a - q c) t + (b - q e))^-d,
        # and t^k, k = max(0, d - 2) (the key (INF, d)), to (a t + b)^k (c t + e)^-k
        q, d = self._key_of(tag[1])
        k = max(0, d - 2)
        if tag[0] == "phi":
            forms = [(1, 0, k)] if q is INF else [(1, -q, -d)]
        else:
            a, b, c, e = curve.mobius
            if q is INF:
                forms = [(a, b, k), (c, e, -k)]
            else:
                forms = [(c, e, d), (a - q * c, b - q * e, -d)]
        return linear_forms_ints(forms, p, order)

    # -- kernel and coupled factors as vector-valued series -------------------

    def _pole_vectors(self, i, order, side, r):
        """1/(t1 - w)^r at the support point i as a vector series, w = z
        ("z") or sigma(z) ("s"): (vec, den) with vec[j] mapping a basis key
        id in t1 to the numerator of the coefficient of u^j over den.

        With l the local coordinate of w at its image pp (w - pp, or 1/w at
        INF), the key (pp, m + r) carries C(m+r-1, r-1) l^m; at pp = INF the
        key (INF, m - r + 2) carries (-1)^r C(m-1, r-1) l^m, m >= r.  The
        germ l = alpha u / (1 + gamma u) is (1, 0) for w = z and
        ``curve.germs`` for sigma(z): l^0 = 1, and for 1 <= m <= n the
        coefficient of u^n in l^m is alpha^m (-gamma)^(n-m) C(n-1, m-1), or
        an^m ad^(order-m) gn^(n-m) gd^(order-n+m) C(n-1, m-1) over D = (ad
        gd)^order with an/ad = alpha and gn/gd = -gamma."""
        if side == "z":
            pp, (alpha, gamma) = self.curve.support[i], (1, 0)
        else:
            pp, (alpha, gamma) = self.curve.images[i], self.curve.germs[i]
        an, ad, gn, gd = alpha.numerator, alpha.denominator, -gamma.numerator, gamma.denominator
        D = (ad * gd) ** order
        # the id of (pp, d) is d * P + the id of (pp, 0)
        P, rank = len(self._places()), self._key_id((pp, 0))
        vec = [{} for _ in range(order + 1)]
        if pp is not INF:
            vec[0][r * P + rank] = D  # l^0 = 1
        for m in range(r if pp is INF else 1, order + 1):
            if pp is INF:
                key, scale = (m - r + 2) * P + rank, (-1) ** r * comb(m - 1, r - 1)
            else:
                key, scale = (m + r) * P + rank, comb(m + r - 1, r - 1)
            # gamma = 0 (every z side, and sigma(t) = -t) leaves l^m = alpha^m u^m
            for n in range(m, order + 1 if gn else m + 1):
                vec[n][key] = (scale * comb(n - 1, m - 1) * an ** m * ad ** (order - m)
                               * gn ** (n - m) * gd ** (order - n + m))
        # one gcd takes D down to the least common denominator
        g = gcd(D, *[c for part in vec for c in part.values()])
        return [{b: c // g for b, c in part.items()} for part in vec], D // g

    @_per_point
    def _kernel_vectors(self, i, order):
        """1/(t1 - sigma(z)) - 1/(t1 - z) at the support point i as (vec,
        den), vec[j] the (key id, numerator) pairs of u^j."""
        kv, den = self._pole_vectors(i, order, "s", 1)
        zv, _ = self._pole_vectors(i, order, "z", 1)  # over 1
        for part, zpart in zip(kv, zv):
            for key, c in zpart.items():
                part[key] = part.get(key, 0) - den * c
        return _pairs(kv), den

    @_per_point
    def _coupled_vectors(self, i, order, side):
        """1/(w - t_j)^2 at the support point i as (vec, den), w = z or
        sigma(z)."""
        vec, den = self._pole_vectors(i, order, side, 2)
        return _pairs(vec), den

    # -- transforms ------------------------------------------------------------

    @_memo
    def _transform(self, fspec, gspec):
        """Residue transform of one z-factor pair at every support point.

        Returns {i: (den, {entry: numerator})}: the coefficients at the
        support point i as ints over one common denominator, with entry =
        (t1_key,) possibly extended by resolved keys of coupled slots (z side
        first), all key ids.  Each point reads its inputs through the order
        that their valuations fix: with v_s the valuation of the scalar part,
        a scalar factor of valuation v_i is expanded through target - (v_s -
        v_i) and each vector factor through top = target - v_s.  The vector
        factors start at u^0, so for top < 0 the point contributes nothing
        and is left out.
        """
        # scalar part of H: sigma'/Omega times the z-factors that are
        # functions, 1/(z - sigma(z))^2 for the diagonal; vector factors: the
        # kernel, then the coupled slots
        tags, sides = ["sigw"], []
        if fspec[0] == "diag":
            tags.append("diag")
        else:
            if fspec[0] == "phi":
                tags.append(fspec)
            else:
                sides.append("z")
            if gspec[0] == "phi":
                tags.append(("phis", gspec[1]))
            else:
                sides.append("s")
        result = {}
        vals = list(zip(*map(self._vals, tags)))
        for i, p in enumerate(self.curve.support):
            target, sign = (1, -1) if p is INF else (-1, 1)
            top = target - sum(vals[i])
            if top < 0:
                continue
            # the first top + 1 terms of each factor: a cached series may
            # run longer than this transform reads
            nums, den = [1], 1
            for tag, v in zip(tags, vals[i]):
                ser = self._expansion(i, v + top, tag)
                nums, den = _int_convolve(nums, ser.nums, top + 1), den * ser.den
            factors = [self._kernel_vectors(i, top)]
            factors += [self._coupled_vectors(i, top, side) for side in sides]
            result[i] = _residue(factors, (target - top, den, nums), target, sign, p)
        return result

    # -- bracket assembly -------------------------------------------------------

    def _one_slot(self, g, n):
        """(den, items): one slot of W_{g,n} set apart, one item (spec, rest,
        c) per distinct key id of each monomial, c an int numerator over den;
        W_{0,2} is the single ("w2",)."""
        if (g, n) == (0, 2):
            return 1, [(("w2",), (), 1)]
        tab = self.W(g, n)
        return tab.den, [(("phi", b), M[:i] + M[i + 1:], c)
                         for M, c in tab.ids.items() for i, b in self._distinct(M)]

    def _two_slots(self, g, n):
        """(den, items): a second slot set apart from the rest of each
        _one_slot item, items (spec1, spec2, rest, c); W_{0,2} is the single
        pair ("diag",) twice."""
        if (g, n) == (0, 2):
            return 1, [(("diag",), ("diag",), (), 1)]
        den, items = self._one_slot(g, n)
        return den, [(spec1, ("phi", b), rest1[:i] + rest1[i + 1:], c)
                     for spec1, rest1, c in items for i, b in self._distinct(rest1)]

    def _jobs(self, g, n):
        """(jden, {(fspec, gspec, rest_multiset): numerator}): half of each
        job coefficient of the bracket, as ints over the one denominator
        jden (twice the lcm of the denominators of the tables it reads)."""
        # W_{g-1, n+1}(z, sigma z, rest)
        twin = self._two_slots(g - 1, n + 1) if g >= 1 else (1, [])
        # splits W_{g1, n1}(z, .) W_{g2, n2}(sigma z, .), W_{0,2} allowed on either side
        splits = []
        for g1 in range(0, g + 1):
            for n1 in range(1, n + 1):
                g2, n2 = g - g1, n + 1 - n1
                if 2 * g1 - 2 + n1 >= 0 and 2 * g2 - 2 + n2 >= 0:
                    splits.append((self._one_slot(g1, n1), self._one_slot(g2, n2)))
        den = lcm(twin[0], *[d1 * d2 for (d1, _), (d2, _) in splits])
        jobs = defaultdict(int)
        scale = den // twin[0]
        for fspec, gspec, rest, c in twin[1]:
            jobs[(fspec, gspec, rest)] += scale * c
        for (d1, left), (d2, right) in splits:
            scale = den // (d1 * d2)
            for fspec, k1, c1 in left:
                for gspec, k2, c2 in right:
                    rest = tuple(sorted(k1 + k2))
                    jobs[(fspec, gspec, rest)] += scale * c1 * c2 * _merge_binomial(k1, k2)
        return 2 * den, jobs

    @staticmethod
    def _distinct(M):
        seen = set()
        for i, b in enumerate(M):
            if b not in seen:
                seen.add(b)
                yield i, b

    @_memo
    def _compute_w(self, g, n):
        # each term, half a job coefficient times a transform coefficient, is
        # an int over jden * tden: jden is the denominator of the halved job
        # coefficients, tden the lcm of the denominators of the transforms
        jden, jobs = self._jobs(g, n)
        work = [(self._transform(fspec, gspec), rest, hc)
                for (fspec, gspec, rest), hc in jobs.items() if hc]
        tden = lcm(*[den for transform, _, _ in work for den, _ in transform.values()])
        # accumulate per support point to verify vanishing away from
        # ramification; coupled keys merge into the rest once per (rest,
        # extras) pair
        support = self.curve.support
        perp = [defaultdict(int) for _ in support]
        merged = {}
        try:
            for transform, rest, hc in work:
                for i, (den, entries) in transform.items():
                    acc = perp[i]
                    scale = hc * (tden // den)
                    for entry, v in entries.items():
                        if len(entry) == 1:
                            acc[(entry[0], rest)] += scale * v
                        else:
                            extras = entry[1:]
                            hit = merged.get((rest, extras))
                            if hit is None:
                                hit = merged[(rest, extras)] = (tuple(sorted(rest + extras)),
                                                                _placements(rest, extras))
                            acc[(entry[0], hit[0])] += scale * v * hit[1]
            # non-ramification support must contribute nothing
            total = defaultdict(int)
            for p, acc in zip(support, perp):
                nonzero = {k: v for k, v in acc.items() if v}
                if p not in self.curve.ram_points and nonzero:
                    raise AssertionError(f"nonzero residue contribution at non-ramification point {p}")
                for k, v in nonzero.items():
                    total[k] += v
        except AssertionError as exc:  # name the table; _finalize's messages do
            raise AssertionError(f"W_{(g, n)}: {exc}") from exc
        return self._finalize(g, n, total, jden * tden)

    def _finalize(self, g, n, bk, den):
        """Cross-check slot-1 symmetry and compress (b, rest) numerators over
        ``den`` to multisets of key ids, reduced to the table's least common
        denominator."""
        by_multiset = defaultdict(dict)
        for (b, rest), v in bk.items():
            if v:
                by_multiset[tuple(sorted(rest + (b,)))][b] = v
        ids = {}
        for M, parts in by_multiset.items():
            vals = {parts.get(b, 0) for b in set(M)}
            if len(vals) != 1:
                named = ", ".join(f"{k}: {Fraction(parts[self._key_id(k)], den)!r}"
                                  for k in self._keys_of(parts))
                raise AssertionError(f"W_{(g, n)} fails the symmetry re-check at "
                                     f"{self._keys_of(M)}: {{{named}}}")
            v = vals.pop()
            if v:
                ids[M] = v
        for i in dict.fromkeys(i for M in ids for i in M):
            q, d = self._key_of(i)
            if q not in self.curve.ram_points:
                raise AssertionError(f"pole of W_{(g, n)} at non-ramification point {q}")
            if q is not INF and d < 2:
                raise AssertionError(f"residue term dt/(t - {q}) in stable W_{(g, n)}")
        k = gcd(den, *ids.values())
        return SymTable(n, den // k, {M: v // k for M, v in ids.items()}, self._keys_of)

    def _keys_of(self, M):
        """The basis keys of the key ids M, sorted by key_sort: by the rank
        of the place (the id mod P), then by order (the id)."""
        places = self._places()
        P = len(places)
        return tuple((places[i % P], i // P) for i in sorted(M, key=lambda i: (i % P, i)))

    # -- free energies: evaluation, specialization, checks -----------------------

    @_memo
    def f_primitive(self, key):
        return ratfunc_of_fractions(primitive_fractions(key, self.curve.normpt))

    @_memo
    def _odd_primitive(self, key):
        # primitive anti-invariant under the involution; the differential
        # recursion holds in this gauge (for the Airy normalization both
        # gauges coincide), while tables and specializations use the
        # vanishing-at-normalization-point gauge
        return ratfunc_of_fractions(self.fractions("odd", key))

    def _gauge(self, gauge):
        """The memoized RatFunc of a basis key in the named gauge."""
        fns = {"basis": basis_function, "primitive": self.f_primitive, "odd": self._odd_primitive}
        if gauge not in fns:
            raise ValueError(f"{gauge!r} is not a gauge: choose from {list(fns)}")
        return fns[gauge]

    def fractions(self, gauge, key):
        """The gauge named "basis" (``basis_function``), "primitive"
        (``f_primitive``) or "odd" (``_odd_primitive``) at a basis key as
        partial fractions {(place, k): c}, c / (t - place)^k or c t^k at
        INF.  The odd gauge is (phi - phi o
        sigma) / 2, phi the primitive: with sigma(t) = (a t + b) / (c t + e),
        (t - q)^-j pulls back to (c t + e)^j / ((a - q c) t + (b - q e))^j
        and t^j to (a t + b)^j / (c t + e)^j, each (A t + B)^j / (C t +
        E)^j with its pole at p = sigma(q), where A t + B = A (t - p) + (A p
        + B) expands by the binomial theorem (a polynomial for C = 0)."""
        if gauge == "basis":
            return basis_fractions(key)
        self._gauge(gauge)  # a ValueError for an unknown name
        phi = primitive_fractions(key, self.curve.normpt)
        if gauge == "primitive":
            return phi
        a, b, c, e = self.curve.mobius
        out = {pk: v / 2 for pk, v in phi.items()}
        for (q, j), v in phi.items():
            A, B, C, E = (a, b, c, e) if q is INF else (c, e, a - q * c, b - q * e)
            p = -E / C if C else INF
            B, v = B if p is INF else A * p + B, v / (2 * (C or E) ** j)
            for i in range(j + 1):
                pk = (INF, i) if p is INF else (p, j - i) if i < j else (INF, 0)
                out[pk] = out.get(pk, 0) - v * comb(j, i) * A ** i * B ** (j - i)
        return out

    def primitive_series(self, ids, s):
        """{id: f_primitive of its key at the section s}, s over QQ, with the
        val, den, nums and order of ``ratfunc_at_series``: one power table
        per place, P = s at INF and (s - q)^-1 at q, one product per power,
        and each primitive is c P^k plus its constant.  The order is what
        ``ratfunc_at_series`` claims for num(s) / den(s): a Horner sum of
        degree n is claimed through o + v (2 n + 1) for v < 0, else through
        o + v (l - 1), l the least power past the constant with a nonzero
        coefficient (o + v for a constant), and the quotient through
        min(order(num) - val(den), order(den) - 2 val(den) + val(num))."""
        if s.field is not QQ:
            raise ValueError(f"a primitive is evaluated at a series over QQ, not {s.field!r}")
        v, o = s.val, s.order
        keys = {b: self._key_of(b) for b in ids}
        fracs = {b: primitive_fractions(key, self.curve.normpt) for b, key in keys.items()}
        tables = {}
        for q, d in keys.values():
            if q not in tables:
                tables[q] = [None, s if q is INF else (s - q).inverse()]
            powers = tables[q]
            while len(powers) < d:
                powers.append(powers[-1] * powers[1])
        out = {}
        for b, (q, d) in keys.items():
            c, K = fracs[b][(q, d - 1)], fracs[b].get((INF, 0), Fraction(0))
            P = tables[q][d - 1]
            # val(den), and the Horner orders of den and num (n = d - 1)
            if q is INF:
                dv, hd, hn = 0, o + v, o + v * (2 * d - 1 if v < 0 else d - 2)
            else:
                dv, hd = (1 - d) * tables[q][1].val, o + v * (2 * d - 1 if v < 0 else 0 if q else d - 2)
                hn = hd if K else o + v
            if dv > hd:
                raise ZeroDivisionError("inverse of zero series")
            # c P^(d - 1) + K on ints over P.den c.den K.den, K at u^0
            val = min(P.val, 0) if K else P.val
            nums = [0] * (P.val - val) + [x * c.numerator * K.denominator for x in P.nums]
            if K:
                nums += [0] * (1 - val - len(nums))
                nums[-val] += K.numerator * P.den * c.denominator
            lo = next((i for i, x in enumerate(nums[: P.order - val + 1]) if x), P.order + 1 - val)
            order = min(P.order, hn - dv, hd - dv + val + lo)
            out[b] = _series(QQ, val, P.den * c.denominator * K.denominator, nums, order)
        return out

    def principal_specialize(self, m, branch_series):
        """S_m from the table: sum over 2g-2+n = m-1 of F_{g,n}(t,...,t)/n!.

        ``branch_series`` is the local expansion over QQ of the section t(x)
        in the comparison variable tau; the result is a LogSeries in tau,
        whose chart tau^e = w has e the local degree of x at the
        normalization point.  The primitives of the level come from one
        ``primitive_series`` call, and the monomials (key ids, int
        numerators over the table's denominator) are summed by
        ``monomial_sum``.
        """
        if m < 2:
            raise ValueError("the table covers S_m for m >= 2 only")
        terms = []
        for (g, n), fgn in self.compute_level(m - 1):
            terms += [(M, v * _permutation_count(M), fgn.den * factorial(n)) for M, v in fgn.ids.items()]
        prims = self.primitive_series({i for M, _, _ in terms for i in M}, branch_series)
        body = monomial_sum(terms, prims, branch_series.order)
        return LogSeries(QQ.zero(), body, self.curve.local_degree())

    def f_evaluate(self, g, n, values):
        """F_{g,n} at n rational points; one None among them leaves that
        slot symbolic, and the result is then a RatFunc in it."""
        return self._eval_table(self.W(g, n), [("primitive", z) for z in values])

    def _columns(self, columns, ids, slots):
        """(den, cols): cols[i] maps each key id of ``ids`` to its gauge
        function at the point of slot i = (gauge, point), as an int
        numerator over that slot's denominator, and den is the product of
        those denominators; cols[i] is None where the point is None.
        ``columns`` keeps one column per (gauge, point) for the caller, and
        a column is extended by the keys it lacks, so each value is read
        once per caller."""
        den, cols = 1, []
        for gauge, z in slots:
            if z is None:
                cols.append(None)
                continue
            d, col = columns.get((gauge, z), (1, {}))
            missing = [b for b in ids if b not in col]
            if missing:
                fn = self._gauge(gauge)
                pairs = {b: (v, d) for b, v in col.items()}
                for b in missing:
                    v = fn(self._key_of(b))(z)
                    pairs[b] = v.numerator, v.denominator
                d, col = columns[gauge, z] = over_lcm(pairs)
            den *= d
            cols.append(col)
        return den, cols

    def _eval_table(self, tab, slots, columns=None):
        """Sum over labeled monomials, each slot read as (gauge, point): the
        gauge function of its keys at a Fraction point, or, for one slot
        whose point is None, symbolic.  The table's int items meet the slot
        columns (``_columns``) in one ``contract``, so the sum is one int
        over one denominator: one Fraction, or, with a symbolic slot, one
        int linear form over its basis keys, whose gauge functions add up as
        partial fractions (``fractions``) into one RatFunc in that slot,
        in lowest terms with no gcd (``ratfunc_of_fractions``)."""
        if len(slots) != tab.n:
            raise ValueError(f"the table has {tab.n} slots, got {len(slots)}")
        points = [z for _, z in slots]
        if points.count(None) > 1:
            raise ValueError("at most one slot may stay symbolic")
        ids = {b for M in tab.ids for b in M}
        den, cols = self._columns({} if columns is None else columns, ids, slots)
        den *= tab.den
        if None not in points:
            return Fraction(contract(tab.ids.items(), cols), den)
        slot = points.index(None)
        gauge = slots[slot][0]
        terms = {}
        for b, w in contract(tab.ids.items(), cols, slot).items():
            for pk, c in self.fractions(gauge, self._key_of(b)).items():
                terms[pk] = terms.get(pk, 0) + w * c
        return ratfunc_of_fractions(terms, den)

    def diff_recursion_check(self, g, n, points):
        """Compare d1 F_{g,n} with the right side of the differential recursion.

        ``points`` are rational values for z_2 .. z_n, away from the
        recursion support and the fixed points of sigma; z_1 stays symbolic
        and both sides are compared as reduced rational functions.  Applies
        to 2g - 2 + n >= 2.
        """
        if 2 * g - 2 + n < 2:
            raise ValueError("the differential recursion applies for 2g-2+n >= 2")
        if len(points) != n - 1:
            raise ValueError("need n - 1 sample points")
        curve = self.curve
        omega = curve.omega
        images = []
        for z in points:
            if z in curve.support:
                raise ValueError(f"sample point {z} is a zero or pole of Omega (recursion support)")
            sz = curve.sigma_at(z)
            if sz is INF or sz == z:
                raise ValueError(f"sample point {z} hit the branch or polar locus")
            images.append(sz)
        # one column per (gauge, point) for every evaluation of this check:
        # d1 reads the basis function in slot 1 and the odd gauge elsewhere
        columns = {}
        d1_cache = {}

        def d1(gg, idx):
            """d_1 F_{gg, len(idx)+1}(z_1, points[idx]) as a RatFunc in z_1."""
            hit = d1_cache.get((gg, idx))
            if hit is None:
                slots = [("basis", None)] + [("odd", points[i]) for i in idx]
                hit = d1_cache[(gg, idx)] = self._eval_table(self.W(gg, len(idx) + 1), slots, columns)
            return hit

        idx = tuple(range(n - 1))
        lhs = d1(g, idx)
        # Omega times the right side, as (c, num, den) terms of one sum
        terms = []
        # transport terms, with K_j = 1/(z_1 - z_j) - 1/(z_1 - sigma(z_j)):
        # K_j (d1 F_{g,n-1}(z_1, rest) - Omega dj F_{g,n-1}(points) / Omega(z_j))
        for j, (zj, szj) in enumerate(zip(points, images)):
            kern_num = Poly.const(zj - szj)
            kern_den = Poly([-zj, 1]) * Poly([-szj, 1])
            d1f = d1(g, idx[:j] + idx[j + 1:])
            terms.append((Fraction(1), kern_num * d1f.num, kern_den * d1f.den))
            slots = [("basis" if i == j else "odd", z) for i, z in enumerate(points)]
            djf = self._eval_table(self.W(g, n - 1), slots, columns)
            terms.append((-djf / omega(zj), kern_num * omega.num, kern_den * omega.den))
        # quadratic terms: F_{g-1,n+1} with both differentiated slots at z_1
        if g >= 1:
            # each rest, int numerators over the table's denominator, meets
            # the odd columns in contract: an int weight per (b1, b2), divided once
            den, items = self._two_slots(g - 1, n + 1)
            cden, cols = self._columns(columns, {b for *_, rest, _ in items for b in rest},
                                       [("odd", z) for z in points])
            den *= cden
            weights = defaultdict(int)
            for (_, b1), (_, b2), rest, c in items:
                weights[(b1, b2)] += contract([(rest, c)], cols)
            for (b1, b2), w in weights.items():
                f1, f2 = basis_function(self._key_of(b1)), basis_function(self._key_of(b2))
                terms.append((Fraction(w, den), f1.num * f2.num, f1.den * f2.den))
        # and the products over the splittings of the sample points
        for g1 in range(0, g + 1):
            g2 = g - g1
            for size in range(0, n):
                for I in combinations(idx, size):
                    J = tuple(i for i in idx if i not in I)
                    n1, n2 = len(I) + 1, len(J) + 1
                    if 2 * g1 - 2 + n1 <= 0 or 2 * g2 - 2 + n2 <= 0:
                        continue
                    dI, dJ = d1(g1, I), d1(g2, J)
                    terms.append((Fraction(1), dI.num * dJ.num, dI.den * dJ.den))
        rhs = ratfunc_sum(terms) / omega
        return lhs == rhs


def _permutation_count(M):
    out = factorial(len(M))
    for _, m in _multiset_counts(M).items():
        out //= factorial(m)
    return out


# ---------------------------------------------------------------------------
# branch sections for the principal specialization


def branch_maps(curve, place, e, order):
    """Local sections t(tau) over the place, one per square-root sign.

    The section passes through the curve's normalization point; tau is the
    WKB parameter with tau**e equal to the uniformizer of the place.
    """
    t0 = curve.normpt
    if place is INF:
        w = RatFunc.const(1) / curve.x
    else:
        w = curve.x - RatFunc.const(place)
    # the local parameter is t - t0, or 1/t at INF; the valuation of w there
    # is the local degree of x (``ParamCurve.local_degree``) where t0 lies
    # over the place, and 0 or less where it does not
    wser = expand_ratfunc(w, t0, order + 4)
    if wser.val != e:
        raise ValueError(
            f"the normalization point sits over the place with local degree {wser.val}, not {e}"
        )
    if e == 1:
        roots = [wser]
    else:
        base = wser.sqrt()
        roots = [base, -base]
    sections = [r.reversion() for r in roots]
    return [s.inverse() for s in sections] if t0 is INF else [s + t0 for s in sections]


def matching_branch_map(curve, place, e, s0_prime, order):
    """The section whose y-value matches a WKB leading derivative."""
    for cand in branch_maps(curve, place, e, order):
        yser = ratfunc_at_series(curve.y, cand)
        if yser.eq_through(s0_prime, min(yser.order, s0_prime.order, order)):
            return cand
    raise ValueError("no branch section matches the WKB leading term")
