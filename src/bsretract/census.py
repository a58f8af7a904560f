"""Exact integer combinatorics of root-of-unity eigenvalue orbits.

For parameters (p, q) with gcd(|p|, |q|) = 1 and |p| != |q|, the
eigenvalues of b at minimal-vector representations are roots of unity
whose orders divide |p^k - q^k| for some k up to the dimension.  This
module enumerates the corresponding exponent orbits of x -> u*x on Z/N
(u = q * p^{-1} mod N) in exact arbitrary-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "OrbitDatum",
    "validate_parameters",
    "order_moduli",
    "order_bound",
    "enumerate_orbits",
    "verify_orbit",
]


def validate_parameters(p: int, q: int) -> None:
    """Reject (p, q) outside the supported family: both nonzero, coprime
    in absolute value, with distinct absolute values."""
    p, q = int(p), int(q)
    if p == 0 or q == 0:
        raise ValueError("p and q must be nonzero")
    if math.gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"|p| and |q| must be coprime, got ({p}, {q})")
    if abs(p) == abs(q):
        raise ValueError(f"|p| and |q| must differ, got ({p}, {q})")


def order_moduli(p: int, q: int, n: int) -> tuple[int, ...]:
    """The moduli |p^k - q^k| for k = 1..n; every eigenvalue order of b at
    a minimal vector of dimension n divides one of them."""
    validate_parameters(p, q)
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(abs(p**k - q**k) for k in range(1, n + 1))


def order_bound(p: int, q: int, n: int) -> int:
    """prod_{k=1..n} |p^k - q^k| as an exact big integer."""
    return math.prod(order_moduli(p, q, n))


@dataclass(frozen=True)
class OrbitDatum:
    """One cycle of exponents mod N under multiplication by u = q/p.

    The orbit is stored in cycle order starting from its smallest
    element; k is the cycle length.  The trivial datum is N = 1,
    orbit = (0,).
    """

    p: int
    q: int
    N: int
    u: int
    orbit: tuple[int, ...]
    k: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "N": self.N,
            "u": self.u,
            "orbit": list(self.orbit),
            "k": self.k,
        }


@lru_cache(maxsize=256)
def _orbits_of_length(p: int, q: int, k: int) -> tuple[OrbitDatum, ...]:
    """Every orbit of length exactly k, sorted by (N, orbit), from one scan
    of Z/m with m = |p^k - q^k|."""
    m = abs(p**k - q**k)
    u = q * pow(p, -1, m) % m
    out = []
    # Each x in Z/m is x' * m/N for exactly one divisor N of m and unit
    # x' mod N, and its orbit has length ord_N(u).  The scan goes up from
    # x = 1, so each orbit is first met at its smallest element.
    seen = bytearray(m)
    seen[0] = 1
    x = seen.find(0)
    while x != -1:
        orb = [x]
        seen[x] = 1
        y = u * x % m
        while y != x:
            orb.append(y)
            seen[y] = 1
            y = u * y % m
        if len(orb) == k:
            g = math.gcd(x, m)
            if g > 1:
                orb = [v // g for v in orb]
            modulus = m // g
            out.append(OrbitDatum(p, q, modulus, u % modulus, tuple(orb), k))
        x = seen.find(0, x + 1)
    out.sort(key=lambda d: (d.N, d.orbit))
    return tuple(out)


def enumerate_orbits(p: int, q: int, n_max: int) -> list[OrbitDatum]:
    """All exponent orbits usable in representations of dimension <= n_max.

    For each k <= n_max and each divisor N > 1 of |p^k - q^k|, lists every
    orbit of x -> u*x on the units of Z/N of length exactly k (starting at
    its smallest element), after the trivial orbit (N = 1).  All orbits
    of one k come from one scan of Z/|p^k - q^k|, each reduced by the gcd
    of its elements with the modulus.  Deterministically sorted by
    (k, N, orbit).
    """
    validate_parameters(p, q)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p, q = int(p), int(q)
    out = [OrbitDatum(p, q, 1, 0, (0,), 1)]
    for k in range(1, int(n_max) + 1):
        out.extend(_orbits_of_length(p, q, k))
    return out


def verify_orbit(d: OrbitDatum) -> bool:
    """Exact re-check of every OrbitDatum invariant; never raises."""
    try:
        p, q, modulus, u, orbit = d.p, d.q, d.N, d.u, d.orbit
        if modulus < 1 or d.k != len(orbit) or len(orbit) == 0:
            return False
        if len(set(orbit)) != len(orbit):
            return False
        if any(not 0 <= x < modulus for x in orbit):
            return False
        if math.gcd(modulus, abs(p * q)) != 1:
            return False
        if (u * p - q) % modulus != 0:
            return False
        for j, x in enumerate(orbit):
            if u * x % modulus != orbit[(j + 1) % len(orbit)]:
                return False
        if any(math.gcd(x, modulus) == 1 for x in orbit):
            if abs(p ** d.k - q ** d.k) % modulus != 0:
                return False
        return True
    except (TypeError, AttributeError):
        return False
