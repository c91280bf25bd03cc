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
variables, so each step stays one-dimensional.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

from .algebra import INF, LogSeries, Poly, QQ, RatFunc, TruncSeries, factor_over, expand_ratfunc


# ---------------------------------------------------------------------------
# points of the line and rational-function expansion helpers


def rational_points_of(poly, what):
    """All roots of a QQ-polynomial, which must all be rational."""
    roots = []
    for fac, mult in factor_over(QQ, poly):
        if fac.degree != 1:
            raise ValueError(
                f"{what} has an irrational point (factor {fac.to_str()}); "
                "the residue engine needs rational support"
            )
        roots.append((-fac.coeffs[0], mult))
    return roots


def eval_extended(f, p):
    """Value of a rational function at a point of the projective line."""
    if p is INF:
        o = f.order_at_infinity()
        if o > 0:
            return Fraction(0)
        if o < 0:
            return INF
        return f.num.leading() / f.den.leading()
    if f.den(p) != 0:
        return f(p)
    if f.num(p) != 0:
        return INF
    raise ValueError("unreduced rational function")


def ratfunc_at_series(f, s):
    """Evaluate a rational function at a Laurent series argument."""
    field = s.field
    num = TruncSeries.zero(field, s.order - max(0, -s.val) * f.num.degree)
    for c in reversed(f.num.coeffs):
        num = num * s + field.of(c)
    den = TruncSeries.zero(field, s.order - max(0, -s.val) * f.den.degree)
    for c in reversed(f.den.coeffs):
        den = den * s + field.of(c)
    return num / den


# ---------------------------------------------------------------------------
# pole basis



def key_sort(k):
    """Deterministic ordering of basis keys mixing finite places and INF."""
    q, d = k
    if q is INF:
        return (1, Fraction(0), d)
    return (0, q, d)


def sorted_keys(keys):
    return tuple(sorted(keys, key=key_sort))


_basis_cache = {}


def basis_function(key):
    """The rational function behind a basis key."""
    cached = _basis_cache.get(key)
    if cached is not None:
        return cached
    q, d = key
    if q is INF:
        out = RatFunc(Poly(QQ, [0] * (d - 2) + [1])) if d > 2 else RatFunc.const(QQ, 1)
    else:
        den = Poly(QQ, [-q, 1])
        pw = Poly.const(QQ, 1)
        for _ in range(d):
            pw = pw * den
        out = RatFunc(Poly.const(QQ, 1), pw, reduce=False)
    _basis_cache[key] = out
    return out


def basis_antiderivative(key, normpt):
    """Primitive of the basis function vanishing at the normalization point."""
    q, d = key
    if q is INF:
        if normpt is INF:
            raise ValueError("cannot normalize a polynomial primitive at infinity")
        prim = RatFunc(Poly(QQ, [0] * (d - 1) + [Fraction(1, d - 1)]))
        return prim - RatFunc.const(QQ, prim(normpt))
    if d == 1:
        raise ValueError("first-order pole integrates to a log in the stable range")
    den = Poly(QQ, [-q, 1])
    pw = Poly.const(QQ, 1)
    for _ in range(d - 1):
        pw = pw * den
    prim = RatFunc(Poly.const(QQ, Fraction(-1, d - 1)), pw)
    if normpt is INF:
        return prim
    return prim - RatFunc.const(QQ, prim(normpt))


# ---------------------------------------------------------------------------
# parametrized curve


class ParamCurve:
    def __init__(self, x, y, sigma, normalization_point, spectral=None):
        self.x = x
        self.y = y
        self.sigma = sigma
        self.normpt = normalization_point
        field = x.field
        t = RatFunc.x(field)
        if sigma.compose(sigma) != t:
            raise ValueError("sigma is not an involution")
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
        self.ram_points = self._ramification_points()
        self.support = self._omega_support()
        for r in self.ram_points:
            if r not in self.support:
                raise AssertionError("ramification point missing from the recursion support")

    def _ramification_points(self):
        pts = []
        for root, _ in rational_points_of(self.xprime.num, "dx"):
            if eval_extended(self.sigma, root) == root:
                pts.append(root)
        if self._dx_order_at_inf() > 0 and self._sigma_fixes_inf():
            pts.append(INF)
        return pts

    def _dx_order_at_inf(self):
        # order of dx = x'(t) dt at infinity: ord(x') - 2
        return self.xprime.order_at_infinity() - 2

    def _sigma_fixes_inf(self):
        return eval_extended(self.sigma, INF) is INF

    def _omega_support(self):
        supp = []
        for root, _ in rational_points_of(self.omega.num, "Omega"):
            supp.append(root)
        for root, _ in rational_points_of(self.omega.den, "Omega"):
            if root not in supp:
                supp.append(root)
        if self.omega.order_at_infinity() - 2 != 0 and INF not in supp:
            supp.append(INF)
        return supp

    def sigma_image(self, p):
        return eval_extended(self.sigma, INF if p is INF else p)

    def w01(self):
        """y dx as a rational function times dt."""
        return self.y * self.xprime


def build_curve(x, y, sigma, normalization_point, spectral=None):
    return ParamCurve(x, y, sigma, normalization_point, spectral)


# ---------------------------------------------------------------------------
# symmetric separable tables


class SymTable:
    """Symmetric table: sorted key tuple -> coefficient of a labeled monomial."""

    def __init__(self, n, table=None):
        self.n = n
        self.table = dict(table or {})

    def items(self):
        return self.table.items()

    def max_order(self):
        out = 2
        for M in self.table:
            for (_, d) in M:
                out = max(out, d)
        return out


def _multiset_counts(M):
    out = {}
    for k in M:
        out[k] = out.get(k, 0) + 1
    return out


def _binomial(a, b):
    from math import comb

    return comb(a, b)


def _merge_binomial(k1, k2):
    """Number of slot splittings realizing the (K1, K2) decomposition."""
    c1 = _multiset_counts(k1)
    cc = _multiset_counts(k1 + k2)
    out = 1
    for v, m in c1.items():
        out *= _binomial(cc[v], m)
    return out


# ---------------------------------------------------------------------------
# the recursion engine


def _per_point(build):
    """Build a method's local data once per (point, working order, side)."""

    def cached(self, p, order, *side):
        key = (build.__name__, p, order) + side
        out = self._local_cache.get(key)
        if out is None:
            out = self._local_cache[key] = build(self, p, order, *side)
        return out

    return cached


class TopRecEngine:
    def __init__(self, curve):
        self.curve = curve
        self._w = {}
        self._f = {}
        self._series_cache = {}
        self._transform_cache = {}
        self._local_cache = {}
        self._phis_fn = {}
        self._prim_cache = {}
        self._odd_prim_cache = {}

    # -- public interface ----------------------------------------------------

    def W(self, g, n):
        """The symmetric differential W_{g,n} in the stable range."""
        if 2 * g - 2 + n <= 0:
            raise ValueError("W is tabulated only in the stable range")
        key = (g, n)
        if key not in self._w:
            self._w[key] = self._compute_w(g, n)
        return self._w[key]

    def F(self, g, n):
        """Free energy table entry; same keys, slotwise primitives at read time."""
        if 2 * g - 2 + n <= 0:
            raise ValueError("free energies are tabulated only in the stable range")
        key = (g, n)
        if key not in self._f:
            w = self.W(g, n)
            for M in w.table:
                for (q, d) in M:
                    if q is not INF and d == 1:
                        raise ValueError("first-order pole in the stable range")
            self._f[key] = SymTable(n, w.table)
        return self._f[key]

    def compute_level(self, level):
        """All (g, n) with 2g - 2 + n == level."""
        out = []
        for g in range(0, (level + 2) // 2 + 1):
            n = level + 2 - 2 * g
            if n >= 1:
                out.append(((g, n), self.W(g, n)))
        return out

    # -- local expansions ----------------------------------------------------

    def _ord(self):
        maxd = 4
        for t in self._w.values():
            maxd = max(maxd, t.max_order())
        zmax = 0
        for p in self.curve.support:
            zmax = max(zmax, abs(self._omega_val(p)))
        return 2 * maxd + zmax + 10

    def _omega_val(self, p):
        if p is INF:
            return self.curve.omega.order_at_infinity()
        return self.curve.omega.order_at(p)

    def _series(self, tag, p, order, builder):
        key = (tag, p)
        cached = self._series_cache.get(key)
        if cached is not None and cached.order >= order:
            return cached
        s = builder(order)
        self._series_cache[key] = s
        return s

    def _inv_omega(self, p, order):
        # Omega through order + 2 val inverts to exactly `order`
        return self._series(
            "invw", p, order, lambda o: expand_ratfunc(self.curve.omega, p, o + 2 * self._omega_val(p)).inverse()
        )

    def _sigma_prime_series(self, p, order):
        return self._series("sigp", p, order, lambda o: expand_ratfunc(self.curve.sigma_prime, p, o))

    def _phi_series(self, b, p, order):
        return self._series(("phi", b), p, order, lambda o: expand_ratfunc(basis_function(b), p, o))

    def _phi_sigma_series(self, b, p, order):
        def build(o):
            fn = self._phis_fn.get(b)
            if fn is None:
                fn = self._phis_fn[b] = basis_function(b).compose(self.curve.sigma)
            return expand_ratfunc(fn, p, o)

        return self._series(("phis", b), p, order, build)

    @_per_point
    def _sigma_powers(self, p, order):
        """(image point p', {m: {exponent: coeff}}) for the powers of the
        local coordinate at p' of sigma(z), expanded at p."""
        pp = self.curve.sigma_image(p)
        sigma = self.curve.sigma
        loc = RatFunc.const(QQ, 1) / sigma if pp is INF else sigma - RatFunc.const(QQ, pp)
        s = expand_ratfunc(loc, p, order)
        out = {0: {0: Fraction(1)}}
        cur = TruncSeries.const(QQ, Fraction(1), s.order)
        m = 1
        while m * max(1, s.val) <= order:
            cur = cur * s
            out[m] = {k: c for k, c in cur.items() if k <= order}
            if not out[m]:
                break
            m += 1
        return pp, out

    # -- kernel and coupled factors as vector-valued series -------------------

    @_per_point
    def _kernel_vectors(self, p, order):
        """List kv[j] = dict(basis key -> Fraction): coefficient of u^j."""
        kv = [defaultdict(Fraction) for _ in range(order + 1)]
        # -1/(t1 - z)
        if p is INF:
            for k in range(order):
                kv[k + 1][(INF, k + 2)] += 1
        else:
            for k in range(order + 1):
                kv[k][(p, k + 1)] -= 1
        # +1/(t1 - sigma(z))
        pp, powers = self._sigma_powers(p, order)
        if pp is INF:
            # 1/(t1 - 1/v) = -sum t1^k v^(k+1)
            for k in range(order):
                v = powers.get(k + 1)
                if v is None:
                    break
                for j, c in v.items():
                    if j <= order:
                        kv[j][(INF, k + 2)] -= c
        else:
            for m in range(order + 1):
                v = powers.get(m)
                if v is None:
                    break
                for j, c in v.items():
                    if j <= order:
                        kv[j][(pp, m + 1)] += c
        return kv

    @_per_point
    def _coupled_vectors(self, p, order, side):
        """1/(arg - t_j)^2 as a vector series; arg = z or sigma(z)."""
        vec = [defaultdict(Fraction) for _ in range(order + 1)]
        if side == "z":
            if p is INF:
                for m in range(2, order + 1):
                    vec[m][(INF, m)] += m - 1
            else:
                for k in range(order + 1):
                    vec[k][(p, k + 2)] += k + 1
            return vec
        pp, powers = self._sigma_powers(p, order)
        if pp is INF:
            for k in range(order):
                v = powers.get(k + 2)
                if v is None:
                    break
                for j, c in v.items():
                    if j <= order:
                        vec[j][(INF, k + 2)] += (k + 1) * c
        else:
            for m in range(order + 1):
                v = powers.get(m)
                if v is None:
                    break
                for j, c in v.items():
                    if j <= order:
                        vec[j][(pp, m + 2)] += (m + 1) * c
        return vec

    # -- transforms ------------------------------------------------------------

    def _transform(self, fspec, gspec, order):
        """Residue transform of one z-factor pair at every support point.

        Returns {p: {entry: Fraction}} with entry = (t1_key,) possibly
        extended by resolved keys of coupled slots (z side first).
        """
        ckey = (fspec, gspec)
        cached = self._transform_cache.get(ckey)
        if cached is not None and cached[0] >= order:
            return cached[1]
        result = {}
        if fspec[0] == "diag":
            diff = RatFunc.x(QQ) - self.curve.sigma
            core = self.curve.sigma_prime / (diff * diff)
        for p in self.curve.support:
            entries = defaultdict(Fraction)
            invw = self._inv_omega(p, order)
            sigp = self._sigma_prime_series(p, order)
            kv = self._kernel_vectors(p, order)

            # scalar part of H and list of coupled vector factors
            scalar = invw
            coupled = []
            if fspec[0] == "diag":
                scalar = scalar * expand_ratfunc(core, p, invw.order)
            else:
                if fspec[0] == "phi":
                    scalar = scalar * self._phi_series(fspec[1], p, order)
                else:
                    coupled.append(("z", None))
                if gspec[0] == "phi":
                    scalar = scalar * self._phi_sigma_series(gspec[1], p, order) * sigp
                else:
                    scalar = scalar * sigp
                    coupled.append(("s", None))

            target = 1 if p is INF else -1
            sign = -1 if p is INF else 1

            if not coupled:
                if target <= scalar.order:
                    self._res_scalar(entries, kv, scalar, target, sign)
            elif len(coupled) == 1:
                side = coupled[0][0]
                vec = self._coupled_vectors(p, order, "z" if side == "z" else "s")
                self._res_vec1(entries, kv, scalar, vec, target, sign)
            else:
                vz = self._coupled_vectors(p, order, "z")
                vs = self._coupled_vectors(p, order, "s")
                self._res_vec2(entries, kv, scalar, vz, vs, target, sign)
            result[p] = {k: v for k, v in entries.items() if v}
        self._transform_cache[ckey] = (order, result)
        return result

    def _res_scalar(self, entries, kv, scalar, target, sign):
        for j in range(len(kv)):
            c = scalar.coefficient(target - j) if scalar.val <= target - j <= scalar.order else Fraction(0)
            if not c:
                continue
            for b, kc in kv[j].items():
                entries[(b,)] += sign * kc * c

    def _res_vec1(self, entries, kv, scalar, vec, target, sign):
        # residue of kv * scalar * vec: convolution over three indices
        for j in range(len(kv)):
            if not kv[j]:
                continue
            for m in range(len(vec)):
                if not vec[m]:
                    continue
                k = target - j - m
                if k < scalar.val or k > scalar.order:
                    continue
                c = scalar.coefficient(k)
                if not c:
                    continue
                for b, kc in kv[j].items():
                    for r, vc in vec[m].items():
                        entries[(b, r)] += sign * kc * vc * c

    def _res_vec2(self, entries, kv, scalar, vz, vs, target, sign):
        for j in range(len(kv)):
            if not kv[j]:
                continue
            for m1 in range(len(vz)):
                if not vz[m1]:
                    continue
                for m2 in range(len(vs)):
                    if not vs[m2]:
                        continue
                    k = target - j - m1 - m2
                    if k < scalar.val or k > scalar.order:
                        continue
                    c = scalar.coefficient(k)
                    if not c:
                        continue
                    for b, kc in kv[j].items():
                        for r1, c1 in vz[m1].items():
                            for r2, c2 in vs[m2].items():
                                entries[(b, r1, r2)] += sign * kc * c1 * c2 * c

    # -- bracket assembly -------------------------------------------------------

    def _jobs(self, g, n):
        """{(fspec, gspec, rest_multiset): coefficient} for the bracket."""
        jobs = defaultdict(Fraction)
        # W_{g-1, n+1}(z, sigma z, rest)
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):
                jobs[(("diag",), ("diag",), ())] += 1
            else:
                for M, c in self.W(g - 1, n + 1).items():
                    for i, b1 in self._distinct(M):
                        rest1 = M[:i] + M[i + 1:]
                        for jj, b2 in self._distinct(rest1):
                            rest = rest1[:jj] + rest1[jj + 1:]
                            jobs[(("phi", b1), ("phi", b2), rest)] += c
        # splits
        for g1 in range(0, g + 1):
            g2 = g - g1
            for a in range(0, n):
                b_ = n - 1 - a
                n1, n2 = a + 1, b_ + 1
                if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                    continue
                s1 = 2 * g1 - 2 + n1
                s2 = 2 * g2 - 2 + n2
                if (s1 <= 0 and (g1, n1) != (0, 2)) or (s2 <= 0 and (g2, n2) != (0, 2)):
                    continue
                left_w2 = (g1, n1) == (0, 2)
                right_w2 = (g2, n2) == (0, 2)
                if left_w2 and right_w2:
                    if n == 3:
                        jobs[(("w2",), ("w2",), ())] += 1
                    continue
                if left_w2:
                    for M2, c2 in self.W(g2, n2).items():
                        for i, b2 in self._distinct(M2):
                            rest = M2[:i] + M2[i + 1:]
                            jobs[(("w2",), ("phi", b2), rest)] += c2
                    continue
                if right_w2:
                    for M1, c1 in self.W(g1, n1).items():
                        for i, b1 in self._distinct(M1):
                            rest = M1[:i] + M1[i + 1:]
                            jobs[(("phi", b1), ("w2",), rest)] += c1
                    continue
                for M1, c1 in self.W(g1, n1).items():
                    for i, b1 in self._distinct(M1):
                        k1 = M1[:i] + M1[i + 1:]
                        for M2, c2 in self.W(g2, n2).items():
                            for jj, b2 in self._distinct(M2):
                                k2 = M2[:jj] + M2[jj + 1:]
                                mult = _merge_binomial(k1, k2)
                                rest = sorted_keys(k1 + k2)
                                jobs[(("phi", b1), ("phi", b2), rest)] += c1 * c2 * mult
        return jobs

    @staticmethod
    def _distinct(M):
        seen = set()
        for i, b in enumerate(M):
            if b not in seen:
                seen.add(b)
                yield i, b

    def _compute_w(self, g, n):
        jobs = self._jobs(g, n)
        order = self._ord()
        half = Fraction(1, 2)
        # accumulate per support point to verify vanishing away from ramification
        perp = {p: defaultdict(Fraction) for p in self.curve.support}
        for (fspec, gspec, rest), coeff in jobs.items():
            if not coeff:
                continue
            transform = self._transform(fspec, gspec, order)
            restc = _multiset_counts(rest)
            for p, entries in transform.items():
                acc = perp[p]
                for entry, v in entries.items():
                    b = entry[0]
                    extras = entry[1:]
                    if not extras:
                        key = (b, rest)
                        acc[key] += half * coeff * v
                    elif len(extras) == 1:
                        r = extras[0]
                        mult = restc.get(r, 0) + 1
                        key = (b, sorted_keys(rest + (r,)))
                        acc[key] += half * coeff * v * mult
                    else:
                        r1, r2 = extras
                        full = sorted_keys(rest + (r1, r2))
                        fc = _multiset_counts(full)
                        mult = fc[r1] * (fc[r2] - (1 if r1 == r2 else 0))
                        acc[(b, full)] += half * coeff * v * mult
        # non-ramification support must contribute nothing
        total = defaultdict(Fraction)
        for p, acc in perp.items():
            nonzero = {k: v for k, v in acc.items() if v}
            if p not in self.curve.ram_points and nonzero:
                raise AssertionError(
                    f"nonzero residue contribution at non-ramification point {p}"
                )
            for k, v in nonzero.items():
                total[k] += v
        return self._finalize(g, n, total)

    def _finalize(self, g, n, bk):
        """Cross-check slot-1 symmetry and compress (b, rest) data to multisets."""
        table = {}
        by_multiset = defaultdict(dict)
        for (b, rest), v in bk.items():
            if not v:
                continue
            M = sorted_keys(rest + (b,))
            by_multiset[M][b] = v
        for M, parts in by_multiset.items():
            vals = set()
            for b in set(M):
                got = parts.get(b, Fraction(0))
                vals.add(got)
            if len(vals) != 1:
                raise AssertionError(f"W_{(g, n)} fails the symmetry re-check at {M}: {parts}")
            v = vals.pop()
            if v:
                table[M] = v
        for M in table:
            for (q, d) in M:
                if q not in self.curve.ram_points:
                    raise AssertionError(f"pole of W_{(g, n)} at non-ramification point {q}")
                if q is not INF and d < 2:
                    raise AssertionError(f"residue term dt/(t - {q}) in stable W_{(g, n)}")
        return SymTable(n, table)

    # -- free energies: evaluation, specialization, checks -----------------------

    def f_primitive(self, key):
        out = self._prim_cache.get(key)
        if out is None:
            out = basis_antiderivative(key, self.curve.normpt)
            self._prim_cache[key] = out
        return out

    def _odd_primitive(self, key):
        # primitive anti-invariant under the involution; the differential
        # recursion holds in this gauge (for the Airy normalization both
        # gauges coincide), while tables and specializations use the
        # vanishing-at-normalization-point gauge
        out = self._odd_prim_cache.get(key)
        if out is None:
            phi = basis_antiderivative(key, self.curve.normpt)
            out = (phi - phi.compose(self.curve.sigma)) * RatFunc.const(QQ, Fraction(1, 2))
            self._odd_prim_cache[key] = out
        return out

    def principal_specialize(self, m, branch_series):
        """S_m from the table: sum over 2g-2+n = m-1 of F_{g,n}(t,...,t)/n!.

        ``branch_series`` is the local expansion of the section t(x) in the
        comparison variable; the result is a LogSeries in that variable.
        """
        if m < 2:
            raise ValueError("the table covers S_m for m >= 2 only")
        level = m - 1
        field = branch_series.field
        out = TruncSeries.zero(field, branch_series.order)
        for g in range(0, level // 2 + 2):
            n = level + 2 - 2 * g
            if n < 1:
                continue
            fgn = self.F(g, n)
            if not fgn.table:
                continue
            nfact = 1
            for i in range(2, n + 1):
                nfact *= i
            prim_cache = {}
            for M, c in fgn.items():
                perm = _permutation_count(M)
                term = TruncSeries.const(field, field.of(c * Fraction(perm, nfact)), branch_series.order)
                for key in M:
                    if key not in prim_cache:
                        prim_cache[key] = ratfunc_at_series(self.f_primitive(key), branch_series)
                    term = term * prim_cache[key]
                out = out + term
        return LogSeries(field.zero(), out)

    def f_evaluate(self, g, n, values):
        """F_{g,n} at rational points (None marks the symbolic first slot)."""
        fgn = self.F(g, n)
        return self._eval_table(fgn, values, deriv=None)

    def _eval_table(self, tab, values, deriv=None, primitive=None):
        """Sum over labeled monomials; values[i] may be a Fraction or None
        for one symbolic slot (result is then a RatFunc in that slot)."""
        sym_slot = None
        for i, v in enumerate(values):
            if v is None:
                sym_slot = i
        total = RatFunc.const(QQ, 0) if sym_slot is not None else Fraction(0)
        for M, c in tab.items():
            contrib = self._eval_monomial(M, values, deriv, sym_slot, primitive)
            if sym_slot is not None:
                total = total + contrib * RatFunc.const(QQ, c)
            else:
                total += c * contrib
        return total

    def _eval_monomial(self, M, values, deriv, sym_slot, primitive=None):
        n = len(values)
        counts = list(_multiset_counts(M).items())
        primitive = primitive or self.f_primitive
        vcache = {}

        def slot_value(key, i):
            got = vcache.get((key, i))
            if got is not None:
                return got
            if deriv == i:
                fn = basis_function(key)
            else:
                fn = primitive(key)
            out = fn if i == sym_slot else RatFunc.const(QQ, fn(values[i]))
            vcache[(key, i)] = out
            return out

        def rec(i, counts):
            if i == n:
                return RatFunc.const(QQ, 1)
            acc = RatFunc.const(QQ, 0)
            for ci, (key, m) in enumerate(counts):
                if m == 0:
                    continue
                nxt = [(k, mm - (1 if k == key else 0)) for k, mm in counts]
                acc = acc + slot_value(key, i) * rec(i + 1, nxt)
            return acc

        out = rec(0, counts)
        if sym_slot is None:
            assert out.is_poly() and out.num.degree <= 0
            return out.num.coeffs[0] if out.num.coeffs else Fraction(0)
        return out

    def diff_recursion_check(self, g, n, points, rng=None):
        """Compare d1 F_{g,n} with the right side of the differential recursion.

        ``points`` are rational values for z_2 .. z_n; z_1 stays symbolic and
        both sides are compared as rational functions.  Applies to
        2g - 2 + n >= 2.
        """
        if 2 * g - 2 + n < 2:
            raise ValueError("the differential recursion applies for 2g-2+n >= 2")
        if len(points) != n - 1:
            raise ValueError("need n - 1 sample points")
        curve = self.curve
        t1 = RatFunc.x(QQ)
        prim = self._odd_primitive
        lhs = self._eval_table(self.F(g, n), [None] + list(points), deriv=0, primitive=prim)

        omega1 = (curve.y_sigma - curve.y) * curve.xprime  # as function of z1
        rhs = RatFunc.const(QQ, 0)
        # transport terms
        for j, zj in enumerate(points, start=1):
            szj = eval_extended(curve.sigma, zj)
            if szj is INF or szj == zj:
                raise ValueError("sample point hit the branch or polar locus")
            omega_kern = (RatFunc.const(QQ, 1) / (t1 - RatFunc.const(QQ, zj))
                          - RatFunc.const(QQ, 1) / (t1 - RatFunc.const(QQ, szj)))
            rest = [points[i] for i in range(len(points)) if i != j - 1]
            d1f = self._eval_table(self.F(g, n - 1), [None] + rest, deriv=0, primitive=prim)
            rhs = rhs + omega_kern / omega1 * d1f
            djf = self._eval_table(self.F(g, n - 1), list(points), deriv=j - 1, primitive=prim)
            omega_at_zj = omega1(zj)
            rhs = rhs - omega_kern * RatFunc.const(QQ, djf / omega_at_zj)
        # quadratic terms
        quad = RatFunc.const(QQ, 0)
        if g >= 1:
            tab = self.F(g - 1, n + 1)
            for M, c in tab.items():
                for i, b1 in self._distinct(M):
                    rest1 = M[:i] + M[i + 1:]
                    for jj, b2 in self._distinct(rest1):
                        rest = rest1[:jj] + rest1[jj + 1:]
                        val = _symmon_value(rest, points, self, prim)
                        quad = quad + RatFunc.const(QQ, c * val) * basis_function(b1) * basis_function(b2)
        idx = list(range(n - 1))
        for g1 in range(0, g + 1):
            g2 = g - g1
            for size in range(0, n):
                for I in combinations(idx, size):
                    J = tuple(i for i in idx if i not in I)
                    n1, n2 = len(I) + 1, len(J) + 1
                    if 2 * g1 - 2 + n1 <= 0 or 2 * g2 - 2 + n2 <= 0:
                        continue
                    dI = self._eval_table(self.F(g1, n1), [None] + [points[i] for i in I], deriv=0, primitive=prim)
                    dJ = self._eval_table(self.F(g2, n2), [None] + [points[i] for i in J], deriv=0, primitive=prim)
                    quad = quad + dI * dJ
        rhs = rhs + quad / omega1
        return lhs == rhs


def _permutation_count(M):
    from math import factorial

    out = factorial(len(M))
    for _, m in _multiset_counts(M).items():
        out //= factorial(m)
    return out


def _symmon_value(M, points, engine, primitive=None):
    """Sum over distinct labeled arrangements of primitives at the points."""
    counts = list(_multiset_counts(M).items())
    n = len(M)
    primitive = primitive or engine.f_primitive
    if len(points) != n:
        raise ValueError("arity mismatch")

    def rec(i, counts):
        if i == n:
            return Fraction(1)
        acc = Fraction(0)
        for key, m in counts:
            if m == 0:
                continue
            nxt = [(k, mm - (1 if k == key else 0)) for k, mm in counts]
            acc += primitive(key)(points[i]) * rec(i + 1, nxt)
        return acc

    return rec(0, counts)


# ---------------------------------------------------------------------------
# branch sections for the principal specialization


def branch_maps(curve, place, e, order):
    """Local sections t(tau) over the place, one per square-root sign.

    The section passes through the curve's normalization point; tau is the
    WKB parameter with tau**e equal to the uniformizer of the place.
    """
    t0 = curve.normpt
    if t0 is INF:
        arg = RatFunc.from_coeffs(QQ, [1], [0, 1])
    else:
        arg = RatFunc.from_coeffs(QQ, [t0, 1])
    X = curve.x.compose(arg)
    if place is INF:
        w = RatFunc.const(QQ, 1) / X
    else:
        w = X - RatFunc.const(QQ, place)
    wser = expand_ratfunc(w, Fraction(0), order + 4)
    if wser.val != e:
        raise ValueError(
            f"the normalization point sits over the place with local degree {wser.val}, not {e}"
        )
    outs = []
    if e == 1:
        roots = [wser]
    else:
        base = wser.sqrt()
        roots = [base, -base]
    for r in roots:
        s_of_tau = r.reversion()
        if t0 is INF:
            t_series = s_of_tau.inverse()
        else:
            t_series = s_of_tau + TruncSeries.const(QQ, Fraction(t0), s_of_tau.order)
        outs.append(t_series.copy(e=e))
    return outs


def matching_branch_map(curve, place, e, s0_prime, order):
    """The section whose y-value matches a WKB leading derivative."""
    for cand in branch_maps(curve, place, e, order):
        yser = ratfunc_at_series(curve.y, cand)
        if yser.eq_through(s0_prime, min(yser.order, s0_prime.order, order)):
            return cand
    raise ValueError("no branch section matches the WKB leading term")
