"""Shared helpers for the test suite."""

import cmath
import math
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
import pytest

from bsretract import BSGroup, HermitianForm, OrbitDatum, Rep, from_orbit_datum, random_rep
from bsretract.bsrep import conjugate, direct_sum, random_conditioned, residual
from bsretract.census import enumerate_orbits
from bsretract.errors import NoConvergence, NotARootOfUnity
from bsretract.kempfness import (
    CONVERGED,
    ITER_BUDGET,
    FlowConfig,
    FlowRecord,
    FlowTrace,
    _energy,
    _moment,
)
from bsretract.numerics import RootOfUnity, hs_norm

@contextmanager
def flow_constants(**values):
    """FlowConfig's line-search constants (eta0, armijo, shrink) set to
    other values inside the block, to reach the flow's safeguards: the
    stall, the budget crawl, the overflow pre-shrink and backtracking."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(FlowConfig, name, value)
        yield


#: The five (p, q) pairs the acceptance grid's signed pairs come from.
BASE_PAIRS = [(1, 2), (2, 3), (1, 3), (2, 5), (3, 5)]

#: The acceptance grid: the five base pairs with all sign variants, n <= 4,
#: five seeds each.
PAIRS = [
    (sp * p, sq * q)
    for (p, q) in BASE_PAIRS
    for sp in (1, -1)
    for sq in (1, -1)
]
N_MAX = 4
SEEDS = 5

#: Draws whose A times 1e160 passes the relation gate but starts the flow
#: at a NaN energy and ||mu||; the first two used to end in a traceback
#: from the Newton step's eigh, the last already stalled.
OVERFLOWED_CELLS = [(-2, 3, 3, 8369), (2, 3, 4, 1), (-2, 3, 2, 53)]


def overflowed_rep(p, q, n, seed):
    """random_rep(p, q, n, seed) with A times 1e160."""
    rep = random_rep(p, q, n, seed)
    return rep_of(p, q, 1e160 * rep.A, rep.B)


def divisors(m):
    """Every divisor of m, by trial division; for the brute-force census
    oracles."""
    return [d for d in range(1, m + 1) if m % d == 0]


def reference_orbits(p, q, k):
    """The census' reference walk: every orbit of length exactly k, sorted
    by (N, orbit), from one element-by-element scan of Z/m with
    m = |p^k - q^k|."""
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


@lru_cache(maxsize=16)
def _census(p, q, n):
    return tuple(enumerate_orbits(p, q, n))


def reference_random_rep(p, q, n, seed, *, sl=False, cond_max=100.0):
    """random_rep's reference draw: each block is drawn from a list of the
    whole census filtered to the orbits that still fit."""
    group = BSGroup(p, q)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    pool = _census(p, q, n)
    if sl:
        pool = [d for d in pool if sum(d.orbit) % d.N == 0]
    blocks = []
    remaining = n
    while remaining > 0:
        options = [d for d in pool if d.k <= remaining]
        if not options:
            blocks = None
            break
        datum = options[int(rng.integers(len(options)))]
        modulus = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        phase = math.tau * rng.random()
        chi = modulus * complex(math.cos(phase), math.sin(phase))
        blocks.append(from_orbit_datum(datum, chi, sl=sl))
        remaining -= datum.k
    if blocks is None:
        # No orbit fits (unreachable while the trivial orbit exists):
        # fall back to B = I, which satisfies the relation with any
        # invertible A.
        a = random_conditioned(rng, n, cond_max)
        rep0 = Rep(group, n, a, np.eye(n, dtype=np.complex128))
    else:
        rep0 = reduce(direct_sum, blocks)
    g = random_conditioned(rng, n, cond_max)
    return conjugate(rep0, g)


def jordan_rep(p, q, n, seed, cond=10.0):
    """A point of Hom(BS(p, q), GL_n) whose conjugation orbit is not
    closed: B = lam (I + N), with N the nilpotent shift and lam a random
    |p - q|-th root of unity, so that lam^p = lam^q, and A a random
    element of the null space of X -> X B^p - B^q X; both are conjugated
    by random_conditioned(rng, n, cond).

    The null space is spanned exactly.  For e != 0, M = (I + N)^e - I is
    regular nilpotent, so C_e = [M^(n-1) e_n, ..., M e_n, e_n] is a
    Jordan basis, C_e^-1 M C_e = N.  C_q C_p^-1 then carries (I + N)^p to
    (I + N)^q, and every solution is C_q C_p^-1 Z with Z a polynomial in
    N; Z is drawn with complex normal coefficients."""
    rng = np.random.default_rng(seed)
    lam = cmath.exp(2j * math.pi * int(rng.integers(abs(p - q))) / abs(p - q))
    shift = np.eye(n, k=1)

    def chain(e):
        m = np.linalg.matrix_power(np.eye(n) + shift, e) - np.eye(n)
        cols = [np.eye(n)[:, -1]]
        for _ in range(n - 1):
            cols.append(m @ cols[-1])
        return np.column_stack(cols[::-1])

    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = sum(ck * np.linalg.matrix_power(shift, k) for k, ck in enumerate(c))
    a = chain(q) @ np.linalg.solve(chain(p), z)
    rep = Rep(BSGroup(p, q), n, a, lam * (np.eye(n) + shift).astype(complex))
    return conjugate(rep, random_conditioned(rng, n, cond))


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


def path_sample(path, t):
    """The sample (A_t, B) of a RetractionPath at the scalar time t, built
    alone from its SVD: A_t = W diag(s^t) Vh, with s ** t taken as numpy
    takes a scalar power (sqrt at t = 1/2)."""
    f = path.factors
    return Rep(path.group, path.B.shape[0], (f.w * f.s**t) @ f.vh, path.B)


def sampled_differences(path, t):
    """The differences whose norms are ||A_t B^p A_t^-1 - B^q|| of a
    RetractionPath, at every time in t at once, as a reference for its
    rows: with B~ = Vh B Vh*, O = Vh W and S_ij = s_i / s_j, each is
    S^t o B~^p - O* B~^q O (o the entrywise product), a flat row of n^2
    entries, whose hs_norm rounds as that of the n x n matrix.  s^t is the
    elementwise power, so at t = 1/2 it rounds as pow does, not as sqrt."""
    f, group = path.factors, path.group
    bt = f.vh @ path.B @ f.vh.conj().T
    bp, bq = np.linalg.matrix_power(bt, group.p), np.linalg.matrix_power(bt, group.q)
    o = f.vh @ f.w
    c = o.conj().T @ bq @ o
    st = f.s ** np.asarray(t, dtype=float)[:, None]
    k, n = st.shape
    diff = (st[:, :, None] / st[:, None, :]).reshape(k, n * n) * bp.ravel()
    diff -= c.ravel()
    return diff


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qm, rm = np.linalg.qr(z)
    d = rm.diagonal().copy()
    d[d == 0] = 1.0
    return qm * (d / np.abs(d))


def random_hermitian(rng, n):
    """Random Hermitian direction of unit Hilbert-Schmidt norm."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (z + z.conj().T)
    return h / hs_norm(h)


def off_diagonal(b):
    """||B - diag(B)||: certify decomposes B by eig when this exceeds
    n * tol * max(1, ||B||), and otherwise first tries B's standard basis."""
    b = np.asarray(b)
    return float(np.linalg.norm(b - np.diag(np.diagonal(b))))


def count_linalg_calls(monkeypatch, names):
    """A list that records the name of each call of the np.linalg
    functions `names`, which still run."""
    calls = []
    for name in names:
        def counting(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


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


def reference_invariant_form(b, order):
    """invariant_form's reference route: Q = V^-* ((V* V) o M) V^-1 from
    eig and an explicit inverse of V, with M_ij = 1 exactly when lambda_i
    and lambda_j round to the same order-th root, checked, decomposed and
    scaled to determinant one by HermitianForm(Q)."""
    w, v = np.linalg.eig(b)
    vinv = np.linalg.inv(v)
    k = np.rint(np.angle(w) / (2.0 * math.pi) * order) % order
    q0 = vinv.conj().T @ ((v.conj().T @ v) * (k[:, None] == k[None, :])) @ vinv
    return HermitianForm(0.5 * (q0 + q0.conj().T))


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
        raise NotARootOfUnity(
            f"{lam!r} is off the unit circle: ||lam| - 1| = {abs(r - 1.0):.3g}, "
            f"tolerance {tol:.3g}"
        )
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


#: The gradient loop's step settings: first trial step, sufficient-decrease
#: constant and backtracking factor.
GRADIENT_ETA0 = 0.1
GRADIENT_ARMIJO = 0.5
GRADIENT_SHRINK = 0.5


def reference_flow(rep, cfg=None):
    """The Armijo gradient descent along exp(-eta mu): an oracle for the
    energies and K-invariants of flow's endpoints.  It takes tol and
    max_iter from cfg and its own step settings above.  Every accepted
    iterate's relation residual is measured by its own call as the iterate
    is recorded, and its energy and moment are recomputed from the iterate."""
    cfg = cfg or FlowConfig()
    p, q = rep.group.p, rep.group.q
    a = rep.A.copy()
    b = rep.B.copy()
    records = []
    resolution_unit = 128.0 * rep.n * np.finfo(float).eps
    outcome = ITER_BUDGET
    step_taken = 0.0
    it = 0
    while True:
        mu = _moment(np.stack((a, b)))
        mu_norm = hs_norm(mu)
        energy = _energy(a, b)
        records.append(
            FlowRecord(it, energy, mu_norm, step_taken, residual(a, b, p, q))
        )
        if mu_norm <= cfg.tol * (1.0 + energy):
            outcome = CONVERGED
            break
        if it >= cfg.max_iter:
            break
        try:
            w, v = np.linalg.eigh(mu)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("eigendecomposition of moment map failed") from exc
        vh = v.conj().T
        eta = GRADIENT_ETA0
        drop_rate = 2.0 * mu_norm * mu_norm
        resolution = resolution_unit * (1.0 + energy)
        w_max = float(np.max(np.abs(w)))
        accepted = False
        for _ in range(80):
            if eta * w_max > 60.0:
                eta *= GRADIENT_SHRINK
                continue
            e = np.exp(-eta * w)
            g = (v * e) @ vh
            gi = (v * (1.0 / e)) @ vh
            a2 = g @ a @ gi
            b2 = g @ b @ gi
            required = GRADIENT_ARMIJO * eta * drop_rate
            e2 = _energy(a2, b2)
            if required > resolution:
                if e2 <= energy - required:
                    accepted = True
                    break
            else:
                if e2 <= energy + resolution:
                    if hs_norm(_moment(np.stack((a2, b2)))) < mu_norm:
                        accepted = True
                        break
            eta *= GRADIENT_SHRINK
        if not accepted:
            break
        a, b = a2, b2
        step_taken = eta
        it += 1
    return Rep(rep.group, rep.n, a, b), FlowTrace(tuple(records), outcome, resolution_unit)
