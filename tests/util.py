"""Shared helpers for the test suite."""

import cmath
import math
from fractions import Fraction

import numpy as np

from bsretract import BSGroup, OrbitDatum, Rep, from_orbit_datum
from bsretract.errors import NotARootOfUnity
from bsretract.numerics import RootOfUnity

#: The acceptance grid: five (p, q) pairs with all sign variants, n <= 4,
#: five seeds each.
PAIRS = [
    (sp * p, sq * q)
    for (p, q) in [(1, 2), (2, 3), (1, 3), (2, 5), (3, 5)]
    for sp in (1, -1)
    for sq in (1, -1)
]
N_MAX = 4
SEEDS = 5


def zeta(N, m=1):
    return np.exp(2j * np.pi * m / N)


def swap2():
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def n5_block(chi=1.0, orbit=(1, 4)):
    """The (2,3) block mod 5: B = diag(zeta5^m), A the 2-cycle."""
    datum = OrbitDatum(2, 3, 5, 4, tuple(orbit), len(orbit))
    return from_orbit_datum(datum, chi)


def rep_of(p, q, a, b):
    a = np.asarray(a, dtype=complex)
    return Rep(BSGroup(p, q), a.shape[0], a, np.asarray(b, dtype=complex))


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qm, rm = np.linalg.qr(z)
    d = rm.diagonal().copy()
    d[d == 0] = 1.0
    return qm * (d / np.abs(d))


def conditioned(rng, n, cond):
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    half = 0.5 * np.log(cond)
    s = np.exp(rng.uniform(-half, half, n))
    return (u * s) @ v.conj().T


def powers(gen, order):
    """The materialized group: gen^0 .. gen^(order-1), stacked."""
    out = [np.eye(gen.shape[0], dtype=complex)]
    for _ in range(order - 1):
        out.append(out[-1] @ gen)
    return np.stack(out)


def group_mean_form(gen, order):
    """Reference invariant form: the mean of h* h over the materialized
    group, determinant-normalized."""
    h = powers(gen, order)
    q = np.einsum("kji,kjl->il", h.conj(), h) / order
    q = 0.5 * (q + q.conj().T)
    return q / np.linalg.det(q).real ** (1.0 / q.shape[0])


def reference_snap(value, max_order, tol):
    """snap_root_of_unity's reference rule: binary search over order caps
    for the smallest cap whose best approximation of the angle
    (Fraction.limit_denominator) lies within the angular budget."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = complex(value)
    r = abs(lam)
    if abs(r - 1.0) > tol or r == 0.0:
        raise NotARootOfUnity(f"|{lam!r}| = {r:.6g} is off the unit circle")
    slack = max(0.0, tol * tol - (r - 1.0) ** 2)
    ang_tol = 2.0 * math.asin(min(1.0, math.sqrt(slack / (4.0 * r)))) / (2.0 * math.pi)
    theta = Fraction(math.atan2(lam.imag, lam.real) / (2.0 * math.pi) % 1.0)

    def best_err(denom_cap):
        f = theta.limit_denominator(denom_cap)
        return abs(float(theta - f)), f

    if best_err(max_order)[0] > ang_tol:
        raise NotARootOfUnity(f"no root of unity of order <= {max_order} within {tol:.3g}")
    lo, hi = 1, int(max_order)
    while lo < hi:
        mid = (lo + hi) // 2
        if best_err(mid)[0] <= ang_tol:
            hi = mid
        else:
            lo = mid + 1
    frac = best_err(lo)[1]
    n_ = frac.denominator
    m_ = frac.numerator % n_
    snapped = cmath.exp(2j * math.pi * m_ / n_)
    if abs(lam - snapped) > tol:
        raise NotARootOfUnity(f"root e^(2 pi i {m_}/{n_}) misses by {abs(lam - snapped):.3g}")
    return RootOfUnity(n_, m_)
