r"""Geometry of rank-2 spectral curves over the projective line.

Inputs are a pair of meromorphic sections a1 of K and a2 of K^2, given as
rational functions in the affine coordinate x (a section f(x)(dx)^m twists
by (-1/u^2)^m under x = 1/u, so the order at infinity picks up 2m).  From
the pair we compute the discriminant divisor, the cusp count delta,
arithmetic and geometric genus, per-pole Newton polygon data with blow-up
counts, and the regular/irregular classification of the associated
differential operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm

from .algebra import INF, Poly, RatFunc, factor_over
from .algebra.poly import _int_lcm


def _place_degree(place):
    if place is INF:
        return 1
    return place.degree


@dataclass(frozen=True)
class KSection:
    """A meromorphic section f(x)(dx)^m of the m-th power of the canonical sheaf."""

    f: RatFunc
    weight: int

    def is_zero(self):
        return self.f.is_zero()

    def order_at(self, place):
        """Order of the section at a place; infinity includes the dx twist."""
        ordf = self.f.order_at(place)
        if place is INF:
            return ordf - 2 * self.weight
        return ordf

    def pole_order_at(self, place):
        return -self.order_at(place)


class Divisor:
    """Formal sum of places (irreducible polynomials or INF) with multiplicities."""

    def __init__(self, items=None):
        self.items = {}
        for place, mult in (items or {}).items():
            if mult:
                self.items[place] = mult

    def degree(self):
        return sum(m * _place_degree(p) for p, m in self.items.items())

    def multiplicity(self, place):
        return self.items.get(place, 0)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.items == other.items

    def __repr__(self):
        def key(pm):
            p, _ = pm
            return (1, "", 0) if p is INF else (0, p.to_str(), p.degree)

        parts = []
        for p, m in sorted(self.items.items(), key=key):
            name = "inf" if p is INF else p.to_str()
            parts.append(f"({name}): {m}")
        return "Divisor{" + ", ".join(parts) + "}"


def divisor_of(section):
    """Zero/pole divisor of a nonzero section, places kept irreducible."""
    if section.is_zero():
        raise ValueError("zero section has no divisor")
    f = section.f
    items = {}
    for fac, mult in factor_over(f.num):
        items[fac] = items.get(fac, 0) + mult
    for fac, mult in factor_over(f.den):
        items[fac] = items.get(fac, 0) - mult
    oinf = section.order_at(INF)
    if oinf:
        items[INF] = oinf
    return Divisor(items)


class SpectralData:
    """The pair (a1, a2) cutting out y^2 + a1(x) y + a2(x) = 0."""

    def __init__(self, a1, a2):
        if isinstance(a1, RatFunc):
            a1 = KSection(a1, 1)
        if isinstance(a2, RatFunc):
            a2 = KSection(a2, 2)
        if a1.weight != 1 or a2.weight != 2:
            raise ValueError("a1 must have weight 1 and a2 weight 2")
        self.a1 = a1
        self.a2 = a2
        d = self._disc_func()
        if d.is_zero():
            raise ValueError("zero discriminant: the spectral curve is reducible")
        if d.sqrt() is not None:
            raise ValueError("square discriminant: the spectral curve is reducible")

    @staticmethod
    def from_higgs(entries):
        """Build from a 2x2 matrix of rational functions: a1 = -tr, a2 = det."""
        (m00, m01), (m10, m11) = entries
        a1 = -(m00 + m11)
        a2 = m00 * m11 - m01 * m10
        return SpectralData(a1, a2)

    def _disc_func(self):
        quarter = RatFunc.const(Fraction(1, 4))
        return self.a1.f * self.a1.f * quarter - self.a2.f

    def discriminant(self):
        """a1^2/4 - a2 as a weight-2 section."""
        return KSection(self._disc_func(), 2)

    def pole_places(self):
        """Places where a1 or a2 has a pole (including infinity)."""
        places = {}
        for sec in (self.a1, self.a2):
            if sec.is_zero():
                continue
            for fac, _ in factor_over(sec.f.den):
                places[fac] = True
            if sec.pole_order_at(INF) > 0:
                places[INF] = True
        return list(places)


def delta_invariant(div):
    """Degree-weighted count of odd-multiplicity places of the discriminant."""
    return sum(_place_degree(p) for p, m in div.items.items() if m % 2 != 0)


@dataclass(frozen=True)
class PoleProfile:
    place: object
    k: int | None           # pole order of a1, None when a1 is regular or zero
    l: int | None            # pole order of a2
    disc_pole: int           # pole order of the discriminant
    r: Fraction
    blowups_min: int
    blowups_full: int
    regular: bool

    @property
    def irregular_class(self):
        return None if self.regular else self.r - 1

    def classification(self):
        if self.regular:
            return "regular"
        c = self.irregular_class
        return f"irregular {c}"


def pole_profile(sd, place):
    """Newton polygon data and blow-up counts at one pole place."""
    k = None
    if not sd.a1.is_zero():
        kk = sd.a1.pole_order_at(place)
        if kk > 0:
            k = kk
    l = None
    if not sd.a2.is_zero():
        ll = sd.a2.pole_order_at(place)
        if ll > 0:
            l = ll
    if k is None and l is None:
        raise ValueError("not a pole place of either coefficient")
    n = max(0, sd.discriminant().pole_order_at(place))
    k_eff = k if k is not None else 0
    l_eff = l if l is not None else 0
    if k is None or 2 * k_eff <= l_eff:
        r = Fraction(l_eff, 2)
    else:
        r = Fraction(k_eff)
    if k is None or k_eff == 0 or l_eff >= 2 * k_eff:
        bl_min = n // 2
    elif k_eff < l_eff < 2 * k_eff:
        bl_min = l_eff - k_eff
    else:
        # a1 dominates: the curve is smooth over this point, only tangent
        # to the section at infinity, so the minimal resolution needs nothing
        bl_min = 0
    return PoleProfile(
        place=place,
        k=k,
        l=l,
        disc_pole=n,
        r=r,
        blowups_min=bl_min,
        blowups_full=ceil(r),
        regular=(r <= 1),
    )


@dataclass
class CurveReport:
    base_genus: int
    a: int
    delta: int
    p_a: int
    p_g: int
    disc_divisor: Divisor
    profiles: list
    uw_poly: list            # coefficients of w^0, w^1, w^2 as integer Polys
    uw_singular_at_origin: bool

    @property
    def ns_class(self):
        return (2, self.a)

    def ns_class_str(self):
        return f"2C0+{self.a}F"

    @property
    def is_singular(self):
        return self.p_g < self.p_a


def _uw_model(sd):
    """Defining polynomial of the curve in the chart at infinity.

    Coordinates (u, w) with x = 1/u and w = -u^2/y; coefficients of
    w^0, w^1, w^2 are returned as coprime polynomials in u with a canonical
    sign, matching the usual normal forms like w^2 - u^5.
    """
    u = RatFunc.x()
    inv_u = RatFunc.from_coeffs([1], [0, 1])
    A1 = sd.a1.f.compose(inv_u)
    A2 = sd.a2.f.compose(inv_u)
    t0 = u * u * u * u
    t1 = -A1 * u * u
    t2 = A2
    den = Poly(_int_lcm([t.den.nums for t in (t0, t1, t2)]))
    polys = []
    for t in (t0, t1, t2):
        cleared = t * RatFunc(den)
        assert cleared.is_poly()
        polys.append(cleared.num)
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p) if not p.is_zero() else g
    if g.degree > 0:
        polys = [p // g for p in polys]
    # primitive integer normalization with a canonical sign
    denlcm = lcm(*[p.den for p in polys])
    content = gcd(*[c * (denlcm // p.den) for p in polys for c in p.nums])
    if content:
        scale = Fraction(denlcm, content)
        polys = [p * scale for p in polys]
    pivot = polys[2] if not polys[2].is_zero() else polys[0]
    if pivot.leading() < 0:
        polys = [-p for p in polys]
    p0, p1, _ = polys
    singular = p0(0) == 0 and p0.derivative()(0) == 0 and p1(0) == 0
    return polys, singular


def genus_report(sd, g=0):
    """Full invariant report: divisor, delta, genera, pole profiles, local model."""
    disc = sd.discriminant()
    div = divisor_of(disc)
    if g == 0 and div.degree() != -4:
        raise AssertionError(f"discriminant divisor degree {div.degree()} != -4")
    delta = delta_invariant(div)
    profiles = [pole_profile(sd, p) for p in sd.pole_places()]
    a = 0
    for prof in profiles:
        k_eff = prof.k if prof.k is not None else 0
        l_eff = prof.l if prof.l is not None else 0
        # where l >= 2k the local model is the completed square y'^2 = disc/4,
        # so the place adds the discriminant's pole order n, as the chain
        # length n // 2 of pole_profile does; it is below l when the leading
        # terms of a1^2/4 and a2 cancel
        twist = prof.disc_pole if l_eff >= 2 * k_eff else max(k_eff, l_eff)
        a += twist * _place_degree(prof.place)
    uw, singular0 = _uw_model(sd)
    return CurveReport(
        base_genus=g,
        a=a,
        delta=delta,
        p_a=4 * g - 3 + a,
        p_g=2 * g - 1 + delta // 2,
        disc_divisor=div,
        profiles=profiles,
        uw_poly=uw,
        uw_singular_at_origin=singular0,
    )


def singularity_chains(sd, report=None):
    """Blow-up chain data for the lattice cross-check.

    Returns ``(on_zero_section, off_chains)`` where ``on_zero_section`` is a
    list of chain lengths at discriminant zeros lying on the zero section
    (a1 vanishes there), and ``off_chains`` is a list of
    ``(length, on_section_at_infinity)`` pairs.  Places of degree d yield d
    identical chains, one per geometric point.
    """
    report = report or genus_report(sd)
    on_c0 = []
    off = []
    for place, mult in report.disc_divisor.items.items():
        if mult < 2:
            continue
        length = mult // 2
        deg = _place_degree(place)
        a1_vanishes = sd.a1.is_zero() or sd.a1.order_at(place) >= 1
        for _ in range(deg):
            if a1_vanishes:
                on_c0.append(length)
            else:
                off.append((length, False))
    for prof in report.profiles:
        if prof.blowups_min >= 1:
            for _ in range(_place_degree(prof.place)):
                off.append((prof.blowups_min, True))
    return on_c0, off
