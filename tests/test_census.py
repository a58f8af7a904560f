import math
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsretract import (
    InvalidOrbit,
    OrbitDatum,
    enumerate_orbits,
    from_orbit_datum,
    order_bound,
    random_rep,
    relation_residual,
    verify_orbit,
)
from bsretract.census import check_moduli, orbit_pool, validate_parameters
from bsretract.suite import sha256_text

from util import divisors, reference_orbits

# Positive coprime pairs with distinct absolute values, |p|,|q| <= 7.
SMALL_PAIRS = [
    (p, q)
    for p in range(1, 8)
    for q in range(1, 8)
    if p != q and math.gcd(p, q) == 1
]


def test_validate_parameters_gate():
    validate_parameters(2, 3)
    validate_parameters(-1, 2)
    for bad in [(2, 2), (2, 4), (0, 3), (3, 0), (-2, 2), (6, 4)]:
        with pytest.raises(ValueError):
            validate_parameters(*bad)


def test_order_bound_values():
    assert order_bound(2, 3, 1) == 1
    assert order_bound(2, 3, 2) == 5
    assert order_bound(1, 2, 3) == 1 * 3 * 7 == 21
    assert order_bound(2, 3, 4) == 1 * 5 * 19 * 65 == 6175
    assert order_bound(1, 2, 2) == 3
    # arbitrary precision: no overflow at large n
    assert order_bound(2, 3, 40) % 5 == 0


def test_enumerate_23_dim1_trivial_only():
    data = enumerate_orbits(2, 3, 1)
    assert len(data) == 1
    assert (data[0].N, data[0].orbit, data[0].k) == (1, (0,), 1)


def test_enumerate_23_dim2_exact():
    data = enumerate_orbits(2, 3, 2)
    assert len(data) == 3
    nontrivial = [(d.N, d.orbit, d.u) for d in data if d.N > 1]
    assert nontrivial == [(5, (1, 4), 4), (5, (2, 3), 4)]


def test_enumerate_12_dim2_contains_mod3():
    data = enumerate_orbits(1, 2, 2)
    assert any(d.N == 3 and d.orbit == (1, 2) and d.u == 2 for d in data)


def test_enumerate_deterministic_order():
    a = enumerate_orbits(3, 5, 4)
    b = enumerate_orbits(3, 5, 4)
    assert a == b
    keys = [(d.k, d.N, d.orbit) for d in a]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p, q, n_max, digest", [
    (1, 3, 12, "bfcf6b4e039af202115d79964eab809839a8b570bc2316cf9d2e1688a490977b"),
    (2, 3, 12, "7f639bf3dc03d2bea7ba5d001e8164d9721c936119a85be589ac84c50e3e6f7f"),
    (2, -3, 12, "0f43fbda358b3ad05ea026c42edbcef0f883a16197a9e8169ddca7bfe74e3775"),
    (3, 5, 8, "20477310b7e327f258a177bc33eaf186637c86cfcdf835da7dbb2314b20821c0"),
])
def test_enumerate_large_pools_pinned(p, q, n_max, digest):
    # Digests of the census as it was listed divisor by divisor from the
    # factorization of each |p^k - q^k|, and at (2, 3, 12), the wide-flow
    # benchmark's pool, as the scan listed it when it stored every
    # exponent row; the moduli reach 531440.  The
    # (N, u, orbit, k) tuples are hashed, as JSON encoding costs more than
    # the census itself here.
    data = [(d.N, d.u, d.orbit, d.k) for d in enumerate_orbits(p, q, n_max)]
    assert sha256_text(repr(data)) == digest


# Coprime pairs with distinct absolute values, |p|,|q| <= 9, signs included.
SIGNED_PAIRS = [
    (p, q)
    for p in range(-9, 10)
    for q in range(-9, 10)
    if p and q and abs(p) != abs(q) and math.gcd(p, q) == 1
]


# The reference walks Z/m in Python, up to m = 9^5 - 8^5; 80 examples keep
# this to about a second.
@settings(max_examples=80)
@given(st.sampled_from(SIGNED_PAIRS), st.integers(1, 5))
def test_enumerate_matches_reference_walk(pair, n_max):
    p, q = pair
    expected = [OrbitDatum(p, q, 1, 0, (0,), 1)]
    for k in range(1, n_max + 1):
        expected.extend(reference_orbits(p, q, k))
    got = enumerate_orbits(p, q, n_max)
    assert got == expected
    # repr also tells numpy integers from the Python ints of the reference.
    assert repr(got) == repr(expected)


def test_pool_counts_and_sl_rows():
    # The determinant-one pool selects its rows by x S = 0 (mod m) from each
    # orbit's start alone; it holds exactly the orbits whose exponents sum
    # to 0 mod N, up to the (2, 3, 12) pool of the wide-flow benchmark.
    for p, q, n in [(2, 3, 5), (-1, 3, 6), (3, -5, 4), (2, 3, 12)]:
        data = enumerate_orbits(p, q, n)
        pool = orbit_pool(p, q, n)
        for k in range(1, n + 1):
            assert pool.count(k) == sum(1 for d in data if d.k <= k)
        sl_data = [d for d in data if sum(d.orbit) % d.N == 0]
        sl_pool = orbit_pool(p, q, n, True)
        assert [sl_pool.datum(i) for i in range(sl_pool.count(n))] == sl_data


def _moebius(k):
    """The Moebius function, by trial division."""
    sign, f = 1, 2
    while f * f <= k:
        if k % f == 0:
            k //= f
            if k % f == 0:
                return 0
            sign = -sign
        f += 1
    return -sign if k > 1 else sign


# Signed pairs with |p|, |q| <= 3 (the pool's scans stay below 10^5
# elements at n = 10), and two with larger moduli at n = 7.
COUNT_CELLS = [(p, q, 10) for p, q in SIGNED_PAIRS if max(abs(p), abs(q)) <= 3]
COUNT_CELLS += [(3, -5, 7), (-2, 5, 7)]


@pytest.mark.parametrize("sl", [False, True])
def test_pool_counts_match_the_moebius_count_of_orbit_elements(sl):
    # An oracle that walks no element: the x in Z/m, m = |p^k - q^k|, with
    # u^d x = x number gcd(u^d - 1, m), and also x S = 0 (mod m) with
    # S = u^0 + ... + u^(k-1) (the determinant-one rows) gcd(u^d - 1, S, m).
    # Moebius inversion over d | k leaves E_k elements on orbits of length
    # exactly k, x = 0 aside at k = 1, so the pool holds E_k / k of them.
    assert len(COUNT_CELLS) >= 12
    for p, q, n in COUNT_CELLS:
        pool = orbit_pool(p, q, n, sl)
        for k in range(1, n + 1):
            m = abs(p**k - q**k)
            u = q * pow(p, -1, m) % m
            s = sum(pow(u, j, m) for j in range(k)) if sl else 0
            elements = sum(
                _moebius(k // d) * math.gcd(pow(u, d, m) - 1, s, m)
                for d in divisors(k)
            ) - (k == 1)
            assert elements % k == 0, (p, q, k)
            assert pool.count(k) - pool.count(k - 1) == elements // k, (p, q, k, sl)


def test_census_refuses_moduli_past_the_limit():
    # At (2, 3) the moduli up to k = 16 sum to 64,439,010, below 2^27; with
    # |2^17 - 3^17| = 129,009,091, itself below 2^27, the sum passes it.
    # The check runs before anything is allocated, whatever n is.
    check_moduli(2, 3, 16)
    start = time.perf_counter()
    for call in (lambda: check_moduli(2, 3, 17),
                 lambda: enumerate_orbits(2, 3, 30),
                 lambda: orbit_pool(2, 3, 10**9)):
        with pytest.raises(ValueError, match=r"k = 17 \(m = .* = 129009091\) "
                                             r"would walk 193448101 .* 2\^27"):
            call()
    # |(-3)^17 - 2^17| = 129,271,235; (3, 5) already stops at n = 12
    with pytest.raises(ValueError, match=r"k = 17 \(m = .* = 129271235\)"):
        check_moduli(-3, 2, 25)
    check_moduli(3, 5, 11)
    with pytest.raises(ValueError, match=r"k = 12 \(m = .* = 243609184\)"):
        random_rep(3, 5, 12, 0)
    assert time.perf_counter() - start < 1.0


def test_verify_orbit_examples():
    good = OrbitDatum(2, 3, 5, 4, (1, 4), 2)
    assert verify_orbit(good)
    tampered = OrbitDatum(2, 3, 5, 4, (1, 3), 2)
    assert not verify_orbit(tampered)
    trivial = OrbitDatum(2, 3, 1, 0, (0,), 1)
    assert verify_orbit(trivial)


#: One datum per invariant that verify_orbit checks, in the order it checks
#: them, each failing it; most are tampered copies of the (2, 3) block
#: OrbitDatum(2, 3, 5, 4, (1, 4), 2).
TAMPERED_DATA = {
    "N below 1": OrbitDatum(2, 3, 0, 0, (0,), 1),
    "k not the orbit's length": OrbitDatum(2, 3, 5, 4, (1, 4), 3),
    "empty orbit": OrbitDatum(2, 3, 5, 4, (), 0),
    "repeated exponent": OrbitDatum(2, 3, 5, 4, (1, 4, 1), 3),
    "exponent outside [0, N)": OrbitDatum(2, 3, 5, 4, (6, 9), 2),
    "N sharing a factor with pq": OrbitDatum(2, 3, 3, 0, (1,), 1),
    "u p not q mod N": OrbitDatum(2, 3, 5, 3, (1, 3), 2),
    "broken cycle": OrbitDatum(2, 3, 5, 4, (1, 3), 2),
    # 7 does not divide |2^1 - 3^1|.  No datum fails this invariant alone:
    # u^k x = x for a unit x gives u^k = 1, so p^k = q^k mod N; this one is
    # refused at its cycle, as 5 * 1 != 1 mod 7.
    "N not dividing |p^k - q^k|": OrbitDatum(2, 3, 7, 5, (1,), 1),
    "a field of the wrong type": OrbitDatum(2, 3, "5", 4, (1, 4), 2),
}


@pytest.mark.parametrize("datum", TAMPERED_DATA.values(), ids=TAMPERED_DATA.keys())
def test_verify_orbit_and_from_orbit_datum_refuse_each_tampered_datum(datum):
    assert not verify_orbit(datum)
    with pytest.raises(InvalidOrbit, match="fails census.verify_orbit"):
        from_orbit_datum(datum, 1.0)


def test_every_emitted_orbit_verifies_and_divides():
    for p, q in [(2, 3), (1, 2), (3, 5), (-2, 3), (2, -5)]:
        for d in enumerate_orbits(p, q, 4):
            assert verify_orbit(d)
            assert abs(p**d.k - q**d.k) % d.N == 0


def test_census_against_brute_force_orbit_partition():
    """Every orbit of x -> u*x on Z/N of length exactly k, reduced to
    lowest terms, must appear in the census at the reduced modulus (and
    nothing else may appear)."""
    for p, q in [(2, 3), (1, 2), (3, 5), (2, 7)]:
        for k in range(1, 5):
            m = abs(p**k - q**k)
            census_at = {}
            for d in enumerate_orbits(p, q, 4):
                census_at.setdefault((d.k, d.N), set()).add(d.orbit)
            for modulus in divisors(m):
                if modulus == 1 or math.gcd(modulus, abs(p * q)) != 1:
                    continue
                u = q * pow(p, -1, modulus) % modulus
                seen = set()
                for x in range(1, modulus):
                    if x in seen:
                        continue
                    orb = [x]
                    y = u * x % modulus
                    while y != x:
                        orb.append(y)
                        y = u * y % modulus
                    seen.update(orb)
                    if len(orb) != k:
                        continue
                    g = math.gcd(math.gcd(*orb), modulus) if len(orb) > 1 else math.gcd(orb[0], modulus)
                    reduced = tuple(v // g for v in orb)
                    i = reduced.index(min(reduced))
                    reduced = reduced[i:] + reduced[:i]
                    assert reduced in census_at.get((k, modulus // g), set()), (
                        p, q, k, modulus, orb)


def test_census_complete_no_extra_orbits():
    # Census orbits at (k, N) are exactly the unit orbits of length k.
    for p, q in [(2, 3), (3, 5)]:
        data = enumerate_orbits(p, q, 4)
        for d in data:
            if d.N == 1:
                continue
            count = sum(1 for e in data if (e.k, e.N) == (d.k, d.N))
            # Euler phi of N divided by the orbit length.
            phi = sum(1 for x in range(1, d.N) if math.gcd(x, d.N) == 1)
            assert count == phi // d.k


def test_block_round_trip_residual():
    for p, q in [(2, 3), (1, 2), (3, 5), (2, 7), (-2, 3)]:
        for d in enumerate_orbits(p, q, 6):
            if d.N > 10**4:
                continue
            rep = from_orbit_datum(d, 0.8 + 0.4j)
            assert relation_residual(rep) <= 1e-12, (p, q, d)


def test_lcm_of_block_moduli_divides_order_bound():
    """Exhaustive over n <= 4 and |p|,|q| <= 7: any multiset of orbit
    blocks with total dimension n has lcm of moduli dividing the bound."""
    for p, q in SMALL_PAIRS:
        pool = sorted({(d.k, d.N) for d in enumerate_orbits(p, q, 4)})
        for n in range(1, 5):
            bound = order_bound(p, q, n)
            for size in range(1, n + 1):
                for combo in combinations_with_replacement(pool, size):
                    if sum(k for k, _ in combo) != n:
                        continue
                    ell = math.lcm(*(N for _, N in combo))
                    assert bound % ell == 0, (p, q, n, combo)
