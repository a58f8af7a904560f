"""Exact integer combinatorics of root-of-unity eigenvalue orbits.

For parameters (p, q) with gcd(|p|, |q|) = 1 and |p| != |q|, the
eigenvalues of b at minimal-vector representations are roots of unity
whose orders divide |p^k - q^k| for some k up to the dimension.  This
module enumerates the corresponding exponent orbits of x -> u*x on Z/N
(u = q * p^{-1} mod N) in exact integer arithmetic: one int64 array scan
of Z/m, m = |p^k - q^k|, per k, which keeps only each orbit's smallest
element and its modulus; an orbit's exponents are rebuilt from those two
numbers when it is asked for.  The scans of one pool walk at most
MAX_SCAN_ELEMENTS elements.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

__all__ = [
    "OrbitDatum",
    "validate_parameters",
    "order_moduli",
    "order_bound",
    "MAX_SCAN_ELEMENTS",
    "check_moduli",
    "enumerate_orbits",
    "OrbitPool",
    "orbit_pool",
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


#: Largest sum of the moduli m = |p^k - q^k|, k <= n, that the scans of
#: one pool may walk.  The scan of k visits each element of Z/m once, so
#: the budget bounds the scans' work, which grows like max(|p|, |q|)^n;
#: and every modulus is then below 2^27, so the int64 products of
#: residues stay exact ((m - 1)^2 < 2^54).
MAX_SCAN_ELEMENTS = 2**27

#: Elements of Z/m that one step of the scan holds at a time; 2^14
#: scanned the wide-flow benchmark's moduli faster than 2^16.
_BLOCK = 1 << 14


def check_moduli(p: int, q: int, n: int) -> None:
    """Raise ValueError naming k and m = |p^k - q^k| at the first k <= n
    where the sum of the moduli up to k, the elements the scans of the
    pool walk, passes MAX_SCAN_ELEMENTS; allocates nothing, and since the
    moduli grow like 2^k, stops by k = 27 whatever n is."""
    validate_parameters(p, q)
    p, q = int(p), int(q)
    walked = 0
    for k in range(1, int(n) + 1):
        m = abs(p**k - q**k)
        walked += m
        if walked > MAX_SCAN_ELEMENTS:
            raise ValueError(
                f"the census scans up to k = {k} (m = |p^k - q^k| = {m}) "
                f"would walk {walked} elements, past the budget 2^27; "
                f"use a smaller n"
            )


class _Scan(NamedTuple):
    """Every orbit of length exactly k on Z/m, m = |p^k - q^k|, sorted by
    (N, orbit): m, u = q/p mod m, and read-only arrays, shape (r,), of
    each orbit's smallest element x in Z/m and its own modulus N.  With
    g = m / N = gcd(x, m), the orbit's exponents in cycle order are
    (u^j x mod m) / g for j < k."""

    m: int
    u: int
    starts: np.ndarray
    moduli: np.ndarray


def _mulmod(y: np.ndarray, u: int, m: int) -> np.ndarray:
    """u y mod m for 0 <= y, u < m < 2^27, in a new array; numpy's
    int64 division by a scalar is faster than its remainder."""
    t = y * u
    t -= t // m * m
    return t


@lru_cache(maxsize=256)
def _scan(p: int, q: int, k: int) -> _Scan:
    m = abs(p**k - q**k)
    u = q * pow(p, -1, m) % m
    # Each x in Z/m is x' * m/N for exactly one divisor N of m and unit
    # x' mod N, and its orbit has length ord_N(u).  x starts a row when it
    # is below each of u x, ..., u^(k-1) x, so it is its orbit's smallest
    # element and the orbit has not closed early; u^k x = x holds for
    # every x, as p^k = q^k mod m.
    starts = [np.empty(0, dtype=np.int64)]
    for lo in range(1, m, _BLOCK):
        x = np.arange(lo, min(lo + _BLOCK, m), dtype=np.int64)
        y = x
        for _ in range(k - 1):
            y = _mulmod(y, u, m)
            keep = x < y
            x, y = x[keep], y[keep]
        starts.append(x)
    x = np.concatenate(starts)
    moduli = m // np.gcd(x, m)
    # Distinct orbits of one N share no element, so their smallest
    # elements x / g alone order them.
    order = np.lexsort((x, moduli))
    x, moduli = x[order], moduli[order]
    x.flags.writeable = False
    moduli.flags.writeable = False
    return _Scan(m, u, x, moduli)


def _sl_rows(scan: _Scan, k: int) -> np.ndarray:
    """The scan's rows whose exponents sum to 0 mod N.  g times that sum
    is x S mod m, S = u^0 + ... + u^(k-1), so the sum is 0 mod N exactly
    when x S is 0 mod m; with x, S < m < 2^27, x S is exact in int64."""
    s = sum(pow(scan.u, j, scan.m) for j in range(k)) % scan.m
    return np.flatnonzero(_mulmod(scan.starts, s, scan.m) == 0)


class OrbitPool:
    """The exponent orbits of length <= n sorted by (k, N, orbit), the
    trivial one first, each built only when asked for; with sl=True only
    those whose exponent sum is 0 mod N, the blocks that have a
    determinant-one form."""

    def __init__(self, p: int, q: int, n: int, sl: bool):
        check_moduli(p, q, n)
        self.p, self.q = int(p), int(q)
        self._scans = [_scan(self.p, self.q, k) for k in range(1, int(n) + 1)]
        # Per k, the scan rows in the pool, in scan order.
        self._rows = [
            _sl_rows(s, k) if sl else range(len(s.moduli))
            for k, s in enumerate(self._scans, 1)
        ]
        # _cum[k]: how many orbits have length <= k; index 0 is the trivial one.
        self._cum = list(accumulate([1] + [len(r) for r in self._rows]))

    def count(self, k_max: int) -> int:
        """The number of orbits of length <= k_max, the trivial one included."""
        return self._cum[k_max]

    def datum(self, i: int) -> OrbitDatum:
        """The i-th orbit of the pool, its exponents built from its start."""
        k = bisect_right(self._cum, i)
        if k == 0:
            return OrbitDatum(self.p, self.q, 1, 0, (0,), 1)
        scan = self._scans[k - 1]
        row = self._rows[k - 1][i - self._cum[k - 1]]
        x, modulus = int(scan.starts[row]), int(scan.moduli[row])
        g = scan.m // modulus
        orbit = []
        for _ in range(k):
            orbit.append(x // g)
            x = x * scan.u % scan.m
        return OrbitDatum(self.p, self.q, modulus, scan.u % modulus, tuple(orbit), k)


@lru_cache(maxsize=64)
def orbit_pool(p: int, q: int, n: int, sl: bool = False) -> OrbitPool:
    """The cached OrbitPool of (p, q, n, sl); raises ValueError as
    check_moduli does."""
    return OrbitPool(p, q, n, sl)


def enumerate_orbits(p: int, q: int, n_max: int) -> list[OrbitDatum]:
    """All exponent orbits usable in representations of dimension <= n_max.

    For each k <= n_max and each divisor N > 1 of |p^k - q^k|, lists every
    orbit of x -> u*x on the units of Z/N of length exactly k (starting at
    its smallest element), after the trivial orbit (N = 1).  All orbits
    of one k come from one vectorized scan of Z/|p^k - q^k|, each built
    from its start and reduced by the gcd of its elements with the
    modulus.  Deterministically sorted by (k, N, orbit).  Raises
    ValueError as check_moduli does.
    """
    validate_parameters(p, q)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pool = orbit_pool(p, q, n_max)
    return [pool.datum(i) for i in range(pool.count(n_max))]


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
