r"""Integer intersection lattice of the iteratively blown-up ruled surface.

The Neron-Severi data tracked is: the proper transform C0 of the zero
section, the fiber class F (by degree), one chain of exceptional classes per
resolved singular point, and derived classes like the proper transform of
the section at infinity.  Chains at points on C0 use classes G_j, all other
chains use classes E_j; a chain of length n has self-intersections
-2, ..., -2, -1 with adjacent products 1.

Everything here is exact integer arithmetic, giving an independent check of
the genus formulas computed from discriminant divisors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectral import genus_report, singularity_chains


@dataclass(frozen=True)
class Chain:
    length: int
    on_c0: bool = False
    on_cinf: bool = False


class PicLattice:
    """Basis: C0 (proper transform), F, then chain classes in declaration order."""

    def __init__(self, g, on_c0_chains, off_chains):
        self.g = g
        self.chains = []
        for m in on_c0_chains:
            if m < 1:
                raise ValueError("chain lengths must be >= 1")
            self.chains.append(Chain(m, on_c0=True))
        for n, on_cinf in off_chains:
            if n < 1:
                raise ValueError("chain lengths must be >= 1")
            self.chains.append(Chain(n, on_cinf=bool(on_cinf)))
        self._index = {}
        idx = 2
        for ci, ch in enumerate(self.chains):
            for j in range(1, ch.length + 1):
                self._index[(ci, j)] = idx
                idx += 1
        self.dim = idx

    # basis positions
    C0 = 0
    F = 1

    def exc(self, chain_index, j):
        """Index of the j-th exceptional class of a chain (1-based)."""
        return self._index[(chain_index, j)]

    def zero(self):
        return DivisorClass(self, [0] * self.dim)

    def cls(self, c0=0, f=0, exc=None):
        v = [0] * self.dim
        v[self.C0] = c0
        v[self.F] = f
        for (ci, j), c in (exc or {}).items():
            v[self.exc(ci, j)] = c
        return DivisorClass(self, v)

    def pair_basis(self, i, j):
        if i > j:
            i, j = j, i
        if i == self.C0 and j == self.C0:
            return 2 * self.g - 2 - sum(ch.length for ch in self.chains if ch.on_c0)
        if i == self.C0 and j == self.F:
            return 1
        if i == self.F:
            return 0
        if i == self.C0:
            ci, jj = self._locate(j)
            ch = self.chains[ci]
            return 1 if (ch.on_c0 and jj == ch.length) else 0
        ci, ji = self._locate(i)
        cj, jj = self._locate(j)
        if ci != cj:
            return 0
        ch = self.chains[ci]
        if ji == jj:
            return -1 if ji == ch.length else -2
        return 1 if abs(ji - jj) == 1 else 0

    def _locate(self, idx):
        for (ci, j), pos in self._index.items():
            if pos == idx:
                return ci, j
        raise IndexError(idx)

    def canonical_class(self):
        """-2 C0 + beta F + sum_j j E_j - sum_j j G_j with deg beta = 4g - 4."""
        v = [0] * self.dim
        v[self.C0] = -2
        v[self.F] = 4 * self.g - 4
        for ci, ch in enumerate(self.chains):
            sign = -1 if ch.on_c0 else 1
            for j in range(1, ch.length + 1):
                v[self.exc(ci, j)] = sign * j
        return DivisorClass(self, v)

    def sigma_min_class(self, a):
        """2 C0 + a F - 2 sum_j j E_j over all chains not on the zero section."""
        if a < 0:
            raise ValueError("a must be nonnegative")
        v = [0] * self.dim
        v[self.C0] = 2
        v[self.F] = a
        for ci, ch in enumerate(self.chains):
            if ch.on_c0:
                continue
            for j in range(1, ch.length + 1):
                v[self.exc(ci, j)] = -2 * j
        return DivisorClass(self, v)

    def c_infinity_class(self):
        """Proper transform of the section at infinity.

        Derived from the pullback C0 + sum j G_j - (2g-2) F by subtracting
        sum j E_j over the chains lying on the section at infinity.
        """
        v = [0] * self.dim
        v[self.C0] = 1
        v[self.F] = -(2 * self.g - 2)
        for ci, ch in enumerate(self.chains):
            if ch.on_c0:
                for j in range(1, ch.length + 1):
                    v[self.exc(ci, j)] = j
            elif ch.on_cinf:
                for j in range(1, ch.length + 1):
                    v[self.exc(ci, j)] = -j
        return DivisorClass(self, v)


class DivisorClass:
    __slots__ = ("lattice", "v")

    def __init__(self, lattice, v):
        self.lattice = lattice
        self.v = list(v)

    def __add__(self, other):
        return DivisorClass(self.lattice, [a + b for a, b in zip(self.v, other.v)])

    def __sub__(self, other):
        return DivisorClass(self.lattice, [a - b for a, b in zip(self.v, other.v)])

    def __mul__(self, other):
        if isinstance(other, DivisorClass):
            return self.dot(other)
        return self.scale(other)

    def scale(self, c):
        return DivisorClass(self.lattice, [a * c for a in self.v])

    def dot(self, other):
        L = self.lattice
        total = 0
        nz_s = [(i, a) for i, a in enumerate(self.v) if a]
        nz_o = [(j, b) for j, b in enumerate(other.v) if b]
        for i, a in nz_s:
            for j, b in nz_o:
                p = L.pair_basis(i, j)
                if p:
                    total += a * b * p
        return total

    def __eq__(self, other):
        return isinstance(other, DivisorClass) and self.v == other.v

    def __repr__(self):
        return f"DivisorClass({self.v})"


def build_lattice(g, on_c0_chains, off_chains):
    return PicLattice(g, on_c0_chains, off_chains)


def adjunction_genus(lattice, d):
    """Arithmetic genus D.(D+K)/2 + 1 from the pairing."""
    k = lattice.canonical_class()
    val = d.dot(d + k)
    if val % 2 != 0:
        raise AssertionError("adjunction pairing is odd")
    return val // 2 + 1


def count_check(lattice, sigma_min):
    """Intersection counts with both sections and the two genus formulas.

    Returns a dict with N0, N_inf, the degree a recovered from
    a = N_inf + 2 * sum of chain lengths on the section at infinity, the
    genus 2g - 1 + (N0 + N_inf)/2 - sum of chain lengths away from both
    sections, and the adjunction genus of sigma_min.  A mismatch between the
    two genus computations raises.
    """
    L = lattice
    c0 = L.cls(c0=1)
    n0 = sigma_min.dot(c0)
    ninf = sigma_min.dot(L.c_infinity_class())
    on_inf = sum(ch.length for ch in L.chains if ch.on_cinf)
    off_both = sum(ch.length for ch in L.chains if not ch.on_c0 and not ch.on_cinf)
    a = ninf + 2 * on_inf
    if sigma_min.v[L.F] != a:
        raise AssertionError(
            f"intersection count a = {a} does not match the fiber degree {sigma_min.v[L.F]}"
        )
    if (n0 + ninf) % 2 != 0:
        raise AssertionError("N0 + N_inf is odd")
    genus = 2 * L.g - 1 + (n0 + ninf) // 2 - off_both
    adj = adjunction_genus(L, sigma_min)
    if adj != genus:
        raise AssertionError(f"adjunction genus {adj} != counted genus {genus}")
    return {"N0": n0, "N_inf": ninf, "a": a, "genus": genus}


def lattice_from_spectral(sd, report=None, g=0):
    """Bridge: blow-up chains of a spectral curve realized as a lattice."""
    report = report or genus_report(sd, g)
    on_c0, off = singularity_chains(sd, report)
    lat = build_lattice(g, on_c0, off)
    return lat, lat.sigma_min_class(report.a), report
