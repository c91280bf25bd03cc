r"""All-order WKB hierarchy for (h d/dx)^2 + a1 (h d/dx) + a2, solved as
exact truncated series at one place of the line.

Writing the solution as exp(sum_m h^(m-1) S_m(x)), the orders in h give

    order 0:    S0'^2 + a1 S0' + a2 = 0
    order k:    rhs(k) + (2 S0' + a1) S_k' = 0           (k >= 1)

with rhs(k) = S_{k-1}'' + sum_{a+b=k, a,b>=1} S_a' S_b', which reads only
S_0' .. S_{k-1}'.  The solver sets S_k' = -rhs(k) / (2 S0' + a1); the
operator check substitutes back with the same rhs(k), one series product
per h-level: S0' (S0' + a1) + a2 at level 0, rhs(k) + (2 S0' + a1) S_k'
at level k.

All x-derivatives run through the chain rule in a local parameter tau with
tau**e equal to the uniformizer, so the same code handles finite points,
the point at infinity, and square-root branch charts (e = 2).  Integration
constants are fixed by: no constant term in any S_m, log terms recorded on
the side.

The series products run in a rescaled parameter sigma = tau / scale, one
positive int scale per state (``_chart_scale``).  Where 1 / sqrt(disc) has
tau^j coefficients with denominators of about P^j, every low coefficient
carries the top one's growth over one common denominator; the sigma^j
coefficient is the tau^j one times scale^j, which cancels it, so the
products multiply integers of about half the height.  In sigma the
uniformizer is w sigma^e with w = scale^e: d/dx and the antiderivative take
that factor, and the log coefficient is the same, since log(w sigma^e) and
e log(sigma) differ by a constant, which is dropped.  The state's S, S',
a1s and a2s are tau-series, each converted once (``TruncSeries.dilate``),
and ``verify_operator`` moves the tau-series it checks back to sigma.  The
scale changes time only, never a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    HBAR_FIELD, INF, LogSeries, Poly, QuadExtField, QQ, RatFunc, TruncSeries, expand_ratfunc,
)
from .algebra.series import product_order


def wkb_chart(a1, a2, place):
    """(e, v) at a place: v is the order of the discriminant a1^2 - 4 a2
    there, and the chart is tau^e = w with e = 2 where v is odd (a branch
    point of the spectral curve), else e = 1."""
    d = a1 * a1 - 4 * a2
    if d.is_zero():
        raise ValueError("degenerate operator: zero discriminant")
    v = d.order_at(place)
    return 2 if v % 2 else 1, v


@dataclass
class WkbConfig:
    """The operator and the expansion asked for.  The chart index ``e`` and
    the discriminant's order ``disc_order`` at the place follow from the
    operator (``wkb_chart``) and are set on construction."""

    a1: RatFunc
    a2: RatFunc
    place: object           # field element or INF
    branch: str = "plus"     # sign in front of the square root of a1^2 - 4 a2
    order: int = 12          # guaranteed tau-order for every S_m body
    depth: int = 2           # compute S_0 .. S_depth

    def __post_init__(self):
        if self.branch not in ("plus", "minus"):
            raise ValueError("branch must be 'plus' or 'minus'")
        self.e, self.disc_order = wkb_chart(self.a1, self.a2, self.place)


class WkbState:
    """S_0 .. S_M as LogSeries plus their x-derivatives as plain series,
    with the local expansions a1s, a2s of the operator's coefficients, all
    in the chart's tau.

    The solver builds every S_m' in sigma = tau / scale and converts it
    once; its sigma copies of a1 and the S_m' and the ``rhs`` memo are its
    own.  S and S_prime are append-only: the solver extends them and
    nothing replaces an entry, so the ``rhs`` memo of a level stays
    valid."""

    def __init__(self, config, field, a1s, a2s, scale):
        self.config = config
        self.field = field
        self.S = []
        self.S_prime = []
        self.a1s = a1s
        self.a2s = a2s
        self.scale = scale
        self._a1 = a1s.dilate(scale)
        self._sp = []
        self._rhs = {}

    @property
    def depth(self):
        return len(self.S) - 1

    def push(self, sp):
        """Append S_m' given in sigma, its tau-series and S_m."""
        cfg, back = self.config, Fraction(1, self.scale)
        lam, body = _antiderivative_x(sp, cfg.place, cfg.e, self.scale ** cfg.e)
        self.S.append(LogSeries(lam, body.dilate(back), cfg.e))
        self.S_prime.append(sp.dilate(back))
        self._sp.append(sp)

    @cached_property
    def denom(self):
        """2 S0' + a1, the factor of S_k' in the h^k equation, k >= 1."""
        return 2 * self.S_prime[0] + self.a1s

    @cached_property
    def inv_denom(self):
        """1 / (2 S0' + a1) in sigma, the divisor of every S_m' with m >= 1."""
        denom = 2 * self._sp[0] + self._a1
        if denom.is_zero():
            raise ValueError("2 S0' + a1 vanishes: reducible curve")
        return denom.inverse()

    def rhs(self, k):
        """S_{k-1}'' + sum of S_a' S_b' over a + b = k with a, b >= 1, in
        sigma, for k >= 1; reads S_0' .. S_{k-1}' only and forms each
        unordered product once."""
        if k not in self._rhs:
            sp, cfg = self._sp, self.config
            acc = _ddx(sp[k - 1], cfg.place, cfg.e, self.scale ** cfg.e)
            for a in range(1, k // 2 + 1):
                p = sp[a] * sp[k - a]
                acc = acc + (p if 2 * a == k else 2 * p)
            self._rhs[k] = acc
        return self._rhs[k]


def _ddx(series, place, e, w=1):
    """d/dx through the chain rule in a local parameter s with w s^e the
    uniformizer (s = tau for w = 1); exact monomial for ds/dx."""
    d = series.derivative()
    if place is INF:
        return d.shift(1 + e) * Fraction(-w, e)
    if e == 1 and w == 1:
        return d
    return d.shift(1 - e) * Fraction(1, e * w)


def _antiderivative_x(series, place, e, w):
    """Antiderivative in x, in a local parameter s with w s^e the
    uniformizer; returns (lambda, body) with lambda on log(w s^e), the
    constant log(w) dropped."""
    if place is INF:
        integrand = series.shift(-1 - e) * Fraction(-e, w)
    else:
        integrand = series.shift(e - 1) * (e * w)
    logc, body = integrand.integrate()
    return logc / e, body


# the terms of _chart_scale's probe, the bound on the primes it takes into
# the scale, and the bits that their powers must take out of a series'
# denominator
_PROBE_TERMS = 12
_PRIME_BOUND = 2000
_MIN_GAIN_BITS = 120


def _chart_scale(disc):
    """The scale of the solver's chart sigma = tau / scale, for the
    tau-series of the discriminant a1^2 - 4 a2.

    The S_m' inherit the growth of 1 / sqrt(disc), whose coefficient of
    tau^j has a denominator of about P^j, P from the places where disc
    vanishes or has a pole.  Over one common denominator every low
    coefficient then carries the top one's growth; in sigma the
    coefficient j is times scale^j, which cancels it.  The square root of
    the unit part through _PROBE_TERMS terms shows the slope: a prime
    p < _PRIME_BOUND whose power in the denominator grows by p^v from its first
    h = _PROBE_TERMS / 2 terms to all of them enters the scale to the
    power v / h, rounded half down (a constant factor, such as the leading
    coefficient's, does not count).  A scale whose powers take out fewer
    than _MIN_GAIN_BITS over the whole series does not pay for the
    conversions, and gives 1.  The scale changes time only, never a
    value."""
    unit = disc.truncate(disc.val + _PROBE_TERMS).shift(-disc.val) * (1 / disc.coefficient(disc.val))
    h = unit.order // 2
    if h < 2:
        return 1
    root = unit.sqrt()
    den, low = root.den, root.truncate(h).den
    scale = 1
    # trial division: a composite p divides no more, and once p^2 > den
    # what is left is one prime to the power 1, which rounds to 0
    for p in range(2, _PRIME_BOUND):
        if p * p > den:
            break
        v = 0
        while den % p == 0:
            den //= p
            v += 1
        while v and low % p == 0:
            low //= p
            v -= 1
        scale *= p ** ((2 * v + h - 1) // (2 * h))
    return scale if (scale ** (disc.order - disc.val)).bit_length() > _MIN_GAIN_BITS else 1


def semiclassical_root(cfg):
    """Solve the leading equation; extends the field by a square root if needed.

    The local expansions and the discriminant are computed once over QQ,
    in tau.  The square root of the discriminant is sqrt(lead) times the
    square root of disc / lead, taken over QQ in sigma; when sqrt(lead) is
    not in QQ it is adjoined, and the series move over it on their int
    numerators (``TruncSeries.over``).  Returns a WkbState holding S0 only.

    Each depth of the hierarchy loses v/2 + e tau-orders where the
    discriminant vanishes to tau-order v (a division by 2 S0' + a1 and a
    derivative), so the working order budgets the larger of that and 4 per
    depth.  Where a1 has a pole of order m whose square cancels against
    4 a2, a1 a1 loses m orders of the discriminant, and S0' keeps the pole
    while 2 S0' + a1 does not, so each depth loses e (m + 1) more.
    """
    field = QQ
    e, v = cfg.e, cfg.disc_order
    m = 0 if cfg.a1.is_zero() else -cfg.a1.order_at(cfg.place)
    m = m if m > 0 and v > -2 * m else 0  # the order of a cancelling pole
    loss = e * v // 2 + e + (e * (m + 1) if m else 0)
    worder = (cfg.order + max(4, loss) * (cfg.depth + 2)) // e + 2 + m
    a1s = expand_ratfunc(cfg.a1, cfg.place, worder, e=cfg.e)
    a2s = expand_ratfunc(cfg.a2, cfg.place, worder, e=cfg.e)
    disc = a1s * a1s - 4 * a2s
    if disc.is_zero():
        raise ValueError("degenerate operator: zero discriminant")
    lead = disc.coefficient(disc.val)
    scale = _chart_scale(disc)
    sq = (disc * (1 / lead)).dilate(scale).sqrt()
    root = field.sqrt(lead)
    if root is None:
        field = QuadExtField(lead)
        a1s, a2s, sq = (s.over(field) for s in (a1s, a2s, sq))
        root = field.gen
    sq = sq * root
    state = WkbState(cfg, field, a1s, a2s, scale)
    state.push(((sq if cfg.branch == "plus" else -sq) - state._a1) * Fraction(1, 2))
    return state


def wkb_extend(state):
    """Extend the hierarchy up to S_depth: S_k' = -rhs(k) / (2 S0' + a1),
    in sigma.  At k = 1 the pair sum is empty: S1' = -S0'' / (2 S0' + a1)."""
    cfg = state.config
    while state.depth < cfg.depth:
        k = state.depth + 1
        sp = -state.rhs(k) * state.inv_denom
        if sp.order < cfg.order:
            raise ValueError(
                f"truncation exhausted at depth {k}: guaranteed order "
                f"{sp.order} below requested {cfg.order}"
            )
        state.push(sp)
    return state


def solve_wkb(cfg):
    """Full pipeline: semiclassical root, then S_1 .. S_depth."""
    return wkb_extend(semiclassical_root(cfg))


def verify_operator(state):
    """Substitute the expansion back into the operator.

    The residual h^2 F'' + h^2 (F')^2 + a1 h F' + a2 with
    F' = sum h^(m-1) S_m' collapses order by order in h: S0' (S0' + a1) + a2
    at h^0 and rhs(k) + (2 S0' + a1) S_k' at h^k.  The report lists, for each
    h-level up to the state's depth, whether that series vanishes
    identically through its guaranteed order.  That order is the one of
    the sum term by term, S0'^2 + a1 S0' + a2 or rhs(k) + 2 S0' S_k' +
    a1 S_k': 2 S0' + a1 may cancel to a higher valuation than either term,
    which would raise the order of the product.

    The products run in sigma on the state's tau-series S_m', a1s, a2s and
    2 S0' + a1, each moved to sigma here, with the solver's ``rhs`` memo.
    """
    scale = state.scale
    s0p, a1s, a2s, denom = (s.dilate(scale) for s in (state.S_prime[0], state.a1s, state.a2s,
                                                      state.denom))
    report = []
    ok = True
    for k in range(state.depth + 1):
        sk = s0p if k == 0 else state.S_prime[k].dilate(scale)
        rest, factor = (a2s, s0p + a1s) if k == 0 else (state.rhs(k), denom)
        order = min(s0p.order, rest.order, product_order(s0p, sk), product_order(a1s, sk))
        resid = (rest + factor * sk).truncate(order)
        zero = resid.is_zero()
        report.append({"h_power": k, "zero": zero, "through_order": resid.order})
        ok = ok and zero
    return {"ok": ok, "levels": report}


class WaveExpansion:
    """exp(sum h^(m-1) S_m) with log parts factored into a prefactor.

    ``prefactor_exponent`` multiplies log of the uniformizer (so at infinity
    the prefactor is (1/x) to that exponent); ``body`` is a series in tau
    with exact coefficients in the h-field.
    """

    def __init__(self, prefactor_exponent, body):
        self.prefactor_exponent = prefactor_exponent
        self.body = body

    def coefficient(self, k):
        return self.body.coefficient(k)


def assemble_wavefunction(state, order_x=None):
    """Exponentiate the computed S_m into a bivariate expansion.

    The exponent sum h^(m-1) S_m has Laurent-polynomial h-dependence in
    every local coefficient, so the exponential is taken with sparse
    h-power dictionaries and the standard derivative recurrence
    E_n = (1/n) sum k B_k E_{n-k}; results are packed into the h-field
    only at the end.
    """
    if state.field is not QQ:
        raise ValueError(f"wave assembly is supported over QQ only, not {state.field}")
    body_order = min(s.body.order for s in state.S)
    if order_x is not None:
        if order_x > body_order:
            raise ValueError(
                f"requested x-order {order_x} exceeds guaranteed order {body_order}"
            )
        body_order = order_x
    # exponent tau-coefficients as {h power: Fraction}
    B = [dict() for _ in range(body_order + 1)]
    pref = {}
    for m, s in enumerate(state.S):
        if not state.field.is_zero(s.lam):
            pref[m - 1] = pref.get(m - 1, Fraction(0)) + s.lam
        body = s.body
        if body.nums and body.val < 0:
            raise ValueError(
                "exponent body has nonpositive valuation: essential prefactor not supported"
            )
        # only the coefficients through body_order, each read once
        for k, c in enumerate(body.nums[: max(0, body_order - body.val + 1)], body.val):
            if c:
                B[k][m - 1] = B[k].get(m - 1, Fraction(0)) + Fraction(c, body.den)
    if B[0]:
        raise ValueError("exponent body must vanish at the expansion center")
    E = [dict() for _ in range(body_order + 1)]
    E[0] = {0: Fraction(1)}
    for n in range(1, body_order + 1):
        acc = {}
        for k in range(1, n + 1):
            if not B[k]:
                continue
            for p1, c1 in B[k].items():
                scaled = k * c1
                for p2, c2 in E[n - k].items():
                    key = p1 + p2
                    acc[key] = acc.get(key, Fraction(0)) + scaled * c2
        E[n] = {p: c / n for p, c in acc.items() if c}
    coeffs = [_pack_hpoly(E[n]) for n in range(body_order + 1)]
    body = TruncSeries(HBAR_FIELD, 0, coeffs, body_order)
    return WaveExpansion(_pack_hpoly(pref), body)


def _pack_hpoly(d):
    """{h power: Fraction} -> element of QQ(h): the Laurent polynomial as a
    reduced RatFunc over a power of h, one int gcd when that power is not 1."""
    if not d:
        return HBAR_FIELD.zero()
    shift = max(0, -min(d))
    deg = max(d) + shift
    coeffs = [Fraction(0)] * (deg + 1)
    for p, c in d.items():
        coeffs[p + shift] = c
    return HBAR_FIELD.of(RatFunc(Poly(coeffs), Poly([0] * shift + [1])))
