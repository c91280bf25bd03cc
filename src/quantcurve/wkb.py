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
    with the local expansions a1s, a2s of the operator's coefficients.

    S and S_prime are append-only: the solver extends them and nothing
    replaces an entry, so the ``rhs`` memo of a level stays valid."""

    def __init__(self, config, field, S, S_prime, a1s, a2s):
        self.config = config
        self.field = field
        self.S = S
        self.S_prime = S_prime
        self.a1s = a1s
        self.a2s = a2s
        self._rhs = {}

    @property
    def depth(self):
        return len(self.S) - 1

    @cached_property
    def denom(self):
        """2 S0' + a1, the factor of S_k' in the h^k equation, k >= 1."""
        return 2 * self.S_prime[0] + self.a1s

    @cached_property
    def inv_denom(self):
        """1 / (2 S0' + a1), the divisor of every S_m' with m >= 1."""
        if self.denom.is_zero():
            raise ValueError("2 S0' + a1 vanishes: reducible curve")
        return self.denom.inverse()

    def rhs(self, k):
        """S_{k-1}'' + sum of S_a' S_b' over a + b = k with a, b >= 1, for
        k >= 1; reads S_0' .. S_{k-1}' only and forms each unordered
        product once."""
        if k not in self._rhs:
            sp, cfg = self.S_prime, self.config
            acc = _ddx(sp[k - 1], cfg.place, cfg.e)
            for a in range(1, k // 2 + 1):
                p = sp[a] * sp[k - a]
                acc = acc + (p if 2 * a == k else 2 * p)
            self._rhs[k] = acc
        return self._rhs[k]


def _ddx(series, place, e):
    """d/dx through the chain rule; exact monomial for dtau/dx."""
    d = series.derivative()
    if place is INF:
        return d.shift(1 + e) * Fraction(-1, e)
    if e == 1:
        return d
    return d.shift(1 - e) * Fraction(1, e)


def _antiderivative_x(series, place, e):
    """Antiderivative in x; returns (lambda, body) with lambda on log(tau^e)."""
    if place is INF:
        integrand = series.shift(-1 - e) * -e
    else:
        integrand = series.shift(e - 1) * e
    logc, body = integrand.integrate()
    return logc / e, body


def semiclassical_root(cfg):
    """Solve the leading equation; extends the field by a square root if needed.

    The local expansions and the discriminant are computed once over the
    field of the operator; when the square root of the discriminant's
    leading coefficient is not in that field, it is adjoined and the three
    series move over it on their int numerators (``TruncSeries.over``).
    Returns a WkbState holding S0 only.

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
    root = field.sqrt(lead)
    if root is None:
        field = QuadExtField(lead)
        a1s, a2s, disc = (s.over(field) for s in (a1s, a2s, disc))
        root = field.gen
    sq = disc.sqrt(root)
    if cfg.branch == "plus":
        s0p = (sq - a1s) * Fraction(1, 2)
    else:
        s0p = (-sq - a1s) * Fraction(1, 2)
    lam, body = _antiderivative_x(s0p, cfg.place, cfg.e)
    return WkbState(cfg, field, [LogSeries(lam, body, cfg.e)], [s0p], a1s, a2s)


def wkb_extend(state):
    """Extend the hierarchy up to S_depth: S_k' = -rhs(k) / (2 S0' + a1).
    At k = 1 the pair sum is empty: S1' = -S0'' / (2 S0' + a1)."""
    cfg = state.config
    while state.depth < cfg.depth:
        k = state.depth + 1
        sp = -state.rhs(k) * state.inv_denom
        if sp.order < cfg.order:
            raise ValueError(
                f"truncation exhausted at depth {k}: guaranteed order "
                f"{sp.order} below requested {cfg.order}"
            )
        lam, body = _antiderivative_x(sp, cfg.place, cfg.e)
        state.S.append(LogSeries(lam, body, cfg.e))
        state.S_prime.append(sp)
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
    """
    s0p, a1s = state.S_prime[0], state.a1s
    report = []
    ok = True
    for k in range(state.depth + 1):
        sk = state.S_prime[k]
        rest, factor = (state.a2s, s0p + a1s) if k == 0 else (state.rhs(k), state.denom)
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
        for k, c in s.body.items():
            if k < 0:
                raise ValueError(
                    "exponent body has nonpositive valuation: essential prefactor not supported"
                )
            if k <= body_order:
                B[k][m - 1] = B[k].get(m - 1, Fraction(0)) + c
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
