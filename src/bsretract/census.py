"""Exact integer combinatorics of root-of-unity eigenvalue orbits.

For parameters (p, q) with gcd(|p|, |q|) = 1 and |p| != |q|, the
eigenvalues of b at minimal-vector representations are roots of unity
whose orders divide |p^k - q^k| for some k up to the dimension.  This
module enumerates the corresponding exponent orbits of x -> u*x on Z/N
(u = q * p^{-1} mod N) in exact arbitrary-precision arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotAUnit

__all__ = [
    "OrbitDatum",
    "UnfactoredModulusWarning",
    "validate_parameters",
    "order_moduli",
    "order_bound",
    "mult_order",
    "divisors",
    "enumerate_orbits",
    "verify_orbit",
]

DEFAULT_FACTOR_CAP = 10**6


class UnfactoredModulusWarning(UserWarning):
    """A modulus had a cofactor beyond the trial-division cap; divisors
    involving that cofactor were not enumerated."""


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


def mult_order(u: int, n: int) -> int:
    """Least k >= 1 with u^k = 1 (mod n).  Requires gcd(u, n) = 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    u = int(u) % n
    if math.gcd(u, n) != 1:
        raise NotAUnit(f"{u} is not a unit mod {n}")
    if n == 1:
        return 1
    acc, k = u, 1
    while acc != 1:
        acc = acc * u % n
        k += 1
    return k


def _factorize(m: int, cap: int) -> tuple[dict[int, int], int]:
    """Trial-divide m up to cap.  Returns ({prime: exponent}, leftover);
    leftover is 1 when fully factored, else a cofactor with no prime
    factor <= cap (prime itself whenever leftover <= cap^2)."""
    factors: dict[int, int] = {}
    d = 2
    while d <= cap and d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        if m <= cap * cap or m <= cap:
            factors[m] = factors.get(m, 0) + 1
            m = 1
    return factors, m


def divisors(m: int, cap: int = DEFAULT_FACTOR_CAP) -> list[int]:
    """Sorted divisors of m from its trial-division factorization.

    When a cofactor beyond the cap remains, divisors involving it are
    omitted and an UnfactoredModulusWarning reports the cofactor.
    """
    if m < 1:
        raise ValueError("m must be positive")
    factors, leftover = _factorize(m, cap)
    if leftover > 1:
        warnings.warn(
            f"modulus {m} has unfactored cofactor {leftover}; divisors "
            f"involving it are not enumerated",
            UnfactoredModulusWarning,
            stacklevel=2,
        )
    divs = [1]
    for prime, exp in factors.items():
        divs = [d * prime**e for d in divs for e in range(exp + 1)]
    return sorted(divs)


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


def _trivial_datum(p: int, q: int) -> OrbitDatum:
    return OrbitDatum(p, q, 1, 0, (0,), 1)


@lru_cache(maxsize=256)
def _enumerate_cached(p: int, q: int, n_max: int) -> tuple[OrbitDatum, ...]:
    out = [_trivial_datum(p, q)]
    pq = abs(p * q)
    for k in range(1, n_max + 1):
        m = abs(p**k - q**k)
        for modulus in divisors(m):
            if modulus == 1 or math.gcd(modulus, pq) != 1:
                continue
            u = q * pow(p, -1, modulus) % modulus
            if mult_order(u, modulus) != k:
                continue
            # Orbits of units mod N all have length ord(u) = k exactly.
            # Non-unit exponents are the same spectral data at the smaller
            # modulus N/gcd and are emitted there instead.
            seen = bytearray(modulus)
            for x in range(1, modulus):
                if seen[x] or math.gcd(x, modulus) != 1:
                    continue
                orb = [x]
                seen[x] = 1
                y = u * x % modulus
                while y != x:
                    orb.append(y)
                    seen[y] = 1
                    y = u * y % modulus
                i = orb.index(min(orb))
                orb = orb[i:] + orb[:i]
                out.append(OrbitDatum(p, q, modulus, u, tuple(orb), k))
    out.sort(key=lambda d: (d.k, d.N, d.orbit))
    return tuple(out)


def enumerate_orbits(p: int, q: int, n_max: int) -> list[OrbitDatum]:
    """All exponent orbits usable in representations of dimension <= n_max.

    For each k <= n_max and each divisor N > 1 of |p^k - q^k| with
    gcd(N, p*q) = 1, emits every orbit of x -> u*x on the units of Z/N of
    length exactly k (canonically rotated to start at its smallest
    element), plus the trivial orbit (N = 1).  Deterministically sorted
    by (k, N, orbit).
    """
    validate_parameters(p, q)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return list(_enumerate_cached(int(p), int(q), int(n_max)))


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
