"""Shared helpers for the test suite."""

import numpy as np

from bsretract import BSGroup, OrbitDatum, Rep, from_orbit_datum


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
