r"""Independent ground-truth generators used to triangulate the recursion.

Three unrelated computations live here on purpose: a Virasoro-style
recursion for psi-class intersection numbers, exhaustive enumeration of
arrowed cellular graphs, and direct hypergeometric series.  None of them
share code with the topological recursion engine, so agreement between the
two pipelines is meaningful evidence.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from .algebra import HBAR_FIELD, Poly, RatFunc


def double_factorial(n):
    """(n)!! with the convention (-1)!! = 1."""
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


_psi_cache = {}


def dvv_intersection(g, ds):
    """Exact psi-class correlator <tau_{d1} ... tau_{dn}>_g.

    Computed by the Dijkgraaf-Verlinde-Verlinde recursion seeded with the
    string and dilaton equations and the two initial values
    <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  Inputs violating the dimension
    constraint sum(d) = 3g - 3 + n return 0 with a warning.
    """
    ds = tuple(sorted(ds, reverse=True))
    n = len(ds)
    if g < 0 or n < 1 or any(d < 0 for d in ds):
        return Fraction(0)
    if sum(ds) != 3 * g - 3 + n:
        warnings.warn(
            f"dimension mismatch: sum(d)={sum(ds)} != 3g-3+n={3 * g - 3 + n}",
            stacklevel=2,
        )
        return Fraction(0)
    return _psi(g, ds)


def _psi(g, ds):
    # assumes dimension constraint holds and ds sorted descending
    n = len(ds)
    if g < 0:
        return Fraction(0)
    if 2 * g - 2 + n <= 0:
        return Fraction(0)
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(1, 24)
    key = (g, ds)
    if key in _psi_cache:
        return _psi_cache[key]
    if ds[-1] == 0:
        # string equation
        rest = ds[:-1]
        total = Fraction(0)
        for j, d in enumerate(rest):
            if d >= 1:
                total += _psi(g, tuple(sorted(rest[:j] + (d - 1,) + rest[j + 1:], reverse=True)))
        _psi_cache[key] = total
        return total
    if ds[0] == 1:
        # dilaton equation
        total = (2 * g - 2 + n - 1) * _psi(g, ds[1:])
        _psi_cache[key] = total
        return total
    d1 = ds[0]
    rest = ds[1:]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        others = rest[:j] + rest[j + 1:]
        total += Fraction(
            double_factorial(2 * (d1 + dj) - 1), double_factorial(2 * dj - 1)
        ) * _psi(g, tuple(sorted(others + (d1 + dj - 1,), reverse=True)))
    quad = Fraction(0)
    for a in range(d1 - 1):
        b = d1 - 2 - a
        w = Fraction(double_factorial(2 * a + 1) * double_factorial(2 * b + 1))
        if g >= 1:
            quad += w * _psi(g - 1, tuple(sorted(rest + (a, b), reverse=True)))
        for g1 in range(g + 1):
            g2 = g - g1
            for mask in range(1 << len(rest)):
                I = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
                J = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
                if 2 * g1 - 2 + len(I) + 1 <= 0 or 2 * g2 - 2 + len(J) + 1 <= 0:
                    continue
                if sum(I) + a != 3 * g1 - 3 + len(I) + 1:
                    continue
                if sum(J) + b != 3 * g2 - 3 + len(J) + 1:
                    continue
                quad += (
                    w
                    * _psi(g1, tuple(sorted(I + (a,), reverse=True)))
                    * _psi(g2, tuple(sorted(J + (b,), reverse=True)))
                )
    total += quad / 2
    total /= double_factorial(2 * d1 + 1)
    _psi_cache[key] = total
    return total


def enumerate_cellular(g, n, mu, size_guard=12):
    """Count connected arrowed cellular graphs by exhaustive gluing.

    Vertices are labeled 1..n with prescribed degrees mu; the arrow at each
    vertex pins the rotation, so configurations are counted with no
    automorphism factor.  Half-edges are glued by a perfect matching, faces
    are traced through the rotation system, and the genus comes from the
    Euler characteristic.  Odd total degree gives 0.
    """
    mu = tuple(mu)
    if len(mu) != n or any(m < 1 for m in mu):
        raise ValueError("mu must list a positive degree per labeled vertex")
    total = sum(mu)
    if total % 2 != 0:
        return 0
    if total > size_guard:
        raise ValueError(f"total degree {total} exceeds the size guard {size_guard}")
    halves = [(v, i) for v, m in enumerate(mu) for i in range(m)]
    index = {h: i for i, h in enumerate(halves)}
    count = 0
    for matching in _matchings(tuple(range(len(halves)))):
        pair = {}
        for a, b in matching:
            pair[a] = b
            pair[b] = a
        # connectivity over vertices
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in matching:
            ra, rb = find(halves[a][0]), find(halves[b][0])
            if ra != rb:
                parent[ra] = rb
        if len({find(v) for v in range(n)}) != 1:
            continue
        # faces: cycles of (rotate after crossing each edge)
        seen = [False] * len(halves)
        faces = 0
        for start in range(len(halves)):
            if seen[start]:
                continue
            faces += 1
            h = start
            while not seen[h]:
                seen[h] = True
                v, i = halves[pair[h]]
                h = index[(v, (i + 1) % mu[v])]
        edges = total // 2
        chi = n - edges + faces
        if chi == 2 - 2 * g:
            count += 1
    return count


def _matchings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for sub in _matchings(rest):
            yield ((first, items[k]),) + sub


def catalan_closed_form(order_n):
    """Coefficient of x^(-2n) in the closed Catalan wavefunction over QQ(h).

    The value is h^n * (1/h)_{2n} / (2n)!! with the rising Pochhammer
    product; n = 0 gives 1.  As h^n (1/h)_{2n} = h^-n prod_{j < 2n} (1 + j
    h), it is one int polynomial over (2n)!! h^n, in lowest terms since its
    constant term is 1.
    """
    nums = [1]
    for j in range(2 * order_n):
        # times 1 + j h
        nums = [a + j * b for a, b in zip(nums + [0], [0] + nums)]
    return HBAR_FIELD.of(RatFunc(Poly([Fraction(c, double_factorial(2 * order_n)) for c in nums]),
                                 Poly([0] * order_n + [1])))


def gauss_2f1_series(order, a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(1)):
    """Coefficients of the deformed hypergeometric solution, exact in QQ(h).

    The upper parameters A, B = base -+ sqrt(p) / (2h), with
    base = (a+b+1)/(2h) - 1/2 and p = (a+b+1-h)^2 - 4ab, are conjugate over
    QQ(h).  They enter only through (A+j)(B+j) = (base+j)^2 - p/(4h^2), so
    every Pochhammer factor lies in QQ(h) and the coefficients descend by
    construction.  Returns [c_0, ..., c_order] with Psi = sum c_n x^n.
    """
    F = HBAR_FIELD
    h = F.gen
    two_h = h + h
    base = F.of(a + b + 1) / two_h - F.of(Fraction(1, 2))
    t = F.of(a + b + 1) - h
    p_term = (t * t - F.of(4 * a * b)) / (two_h * two_h)
    C = F.of(c) / h
    out = [F.one()]
    num = den = F.one()
    for n in range(1, order + 1):
        j = F.of(n - 1)
        num = num * ((base + j) * (base + j) - p_term)
        den = den * (C + j) * F.of(n)
        out.append(num / den)
    return out


def gauss_pi_product_series(order):
    """Same expansion from the per-factor product form, for cross-checking.

    Coefficient of x^n is
    prod_{m=1}^{n} (1 + 8(m-1)h + 4(m-1)(m-2)h^2) / (1 + (m-1)h)
    divided by 4^n n! h^n.
    """
    F = HBAR_FIELD
    h = F.gen
    out = [F.one()]
    num = F.one()
    den = F.one()
    for n in range(1, order + 1):
        m = n
        num = num * (F.one() + F.of(8 * (m - 1)) * h + F.of(4 * (m - 1) * (m - 2)) * h * h)
        den = den * (F.one() + F.of(m - 1) * h)
        fact = Fraction(4) ** n * math.factorial(n)
        coeff = num / (den * F.of(fact))
        for _ in range(n):
            coeff = coeff / h
        out.append(coeff)
    return out


def hbar_evaluate(v, value):
    """Evaluate an element of QQ(h) at a rational value of h."""
    return v.rf(Fraction(value))


def airy_closed_free_energy(g, n):
    """Closed-form Airy free energy as a symmetric monomial table in t.

    With sqrt(x) = 2/t, the free energy becomes a polynomial; the returned
    dict maps each sorted exponent tuple (e_1 <= ... <= e_n, all odd) to the
    coefficient of the labeled monomial t_1^{e_1} ... t_n^{e_n}.
    """
    if 2 * g - 2 + n <= 0:
        raise ValueError("stable (g, n) required")
    table = {}
    target = 3 * g - 3 + n
    pref = Fraction((-1) ** n, 2 ** (2 * g - 2 + n))
    for ds in _sorted_compositions(target, n):
        corr = dvv_intersection(g, tuple(ds))
        if corr == 0:
            continue
        # one entry per exponent multiset: the table stores the coefficient
        # of each distinct labeled monomial, which is the same for all
        # rearrangements by symmetry
        coeff = pref * corr
        exps = []
        for d in ds:
            coeff *= Fraction(double_factorial(2 * d - 1), 2 ** (2 * d + 1))
            exps.append(2 * d + 1)
        table[tuple(sorted(exps))] = coeff
    return {k: v for k, v in table.items() if v != 0}


def _sorted_compositions(total, parts, minimum=0):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total + 1):
        for rest in _sorted_compositions(total - first, parts - 1, first):
            yield (first,) + rest
