"""Points of the representation variety Hom(BS(p,q), GL_n(C)).

A representation is stored as the pair of matrices (A, B) for the two
generators; membership in the variety is always a measured residual of
the defining relation A B^p A^{-1} = B^q, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import census
from .errors import GroupMismatch, InvalidOrbit, SingularMatrix
from .numerics import as_matrix, hs_norm, json_int, matrix_from_json, matrix_to_json

__all__ = [
    "BSGroup",
    "Rep",
    "relation_residual",
    "residual",
    "check_residual",
    "from_orbit_datum",
    "direct_sum",
    "conjugate",
    "random_rep",
    "rep_to_json",
    "rep_from_json",
]

#: Residual tolerance for an object presented as a variety member.
REP_TOL = 1e-8
#: Largest condition number of random_rep's conjugating matrix.
RANDOM_COND_MAX = 100.0


@dataclass(frozen=True)
class BSGroup:
    """The group <a, b | a b^p a^-1 = b^q>, gcd(|p|,|q|) = 1, |p| != |q|, p and q ints."""

    p: int
    q: int

    def __post_init__(self):
        p, q = census.validate_parameters(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, eq=False)
class Rep:
    """A point of the variety: matrices A = rho(a), B = rho(b)."""

    group: BSGroup
    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A)
        b = as_matrix(self.B)
        if a.shape != (self.n, self.n) or b.shape != (self.n, self.n):
            raise ValueError(
                f"matrix shapes {a.shape}, {b.shape} do not match n={self.n}"
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)


def _inv(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("matrix is singular to working precision") from exc


def residual(a: np.ndarray, b: np.ndarray, p: int, q: int) -> float:
    """||A B^p A^-1 - B^q|| of raw arrays, without validating them."""
    try:
        lhs = a @ np.linalg.matrix_power(b, p) @ np.linalg.inv(a)
        return hs_norm(lhs - np.linalg.matrix_power(b, q))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("singular matrix in the relation residual") from exc


def relation_residual(rep: Rep) -> float:
    """||A B^p A^-1 - B^q|| in the Hilbert-Schmidt norm."""
    return residual(rep.A, rep.B, rep.group.p, rep.group.q)


def check_residual(res: float) -> None:
    """Raise ValueError unless the relation residual res is at most
    REP_TOL (NaN is not)."""
    if not res <= REP_TOL:
        raise ValueError(
            f"relation residual {res:.3e} exceeds tolerance {REP_TOL:.1e}; "
            "input is not a point of the variety"
        )


def from_orbit_datum(datum: census.OrbitDatum, chi: complex, *, sl: bool = False) -> Rep:
    """Irreducible block realizing one exponent orbit.

    B is diagonal with eigenvalues e^(2 pi i m_j / N) along the orbit and
    A is the k-cycle sending the eigenspace of m_j to that of m_{j-1},
    with the closing entry scaled by chi.  The relation then holds
    exactly: p*m_{j+1} = q*m_j (mod N) is checked entry by entry and
    InvalidOrbit raised on failure.

    With sl=True the block is normalized to determinant one.  Scaling A
    never disturbs the relation; B can only be scaled by roots of unity
    killed by q - p, so orbits whose exponent sum is nonzero mod N have
    no such normalization and are rejected.
    """
    chi = complex(chi)
    if chi == 0:
        raise ValueError("chi must be nonzero")
    p, q, modulus, orbit = datum.p, datum.q, datum.N, datum.orbit
    census.validate_parameters(p, q)
    k = len(orbit)
    if k == 0:
        raise InvalidOrbit("empty orbit")
    for j in range(k):
        if (p * orbit[(j + 1) % k] - q * orbit[j]) % modulus != 0:
            raise InvalidOrbit(
                f"p*m_{(j + 1) % k} != q*m_{j} (mod {modulus}) along {orbit}"
            )
    b = np.diag(np.exp(2j * np.pi * np.asarray(orbit, dtype=float) / modulus))
    a = np.zeros((k, k), dtype=np.complex128)
    for j in range(1, k):
        a[j - 1, j] = 1.0
    a[k - 1, 0] = chi
    if sl:
        if sum(orbit) % modulus != 0:
            raise InvalidOrbit(
                f"orbit exponent sum {sum(orbit)} mod {modulus} != 0: "
                "block has no determinant-one form"
            )
        a = a * np.linalg.det(a) ** (-1.0 / k)
    return Rep(BSGroup(p, q), k, a, b)


def direct_sum(r1: Rep, r2: Rep) -> Rep:
    """Block-diagonal sum; both summands must represent the same group."""
    if r1.group != r2.group:
        raise GroupMismatch(f"{r1.group} != {r2.group}")
    n1, n2 = r1.n, r2.n
    a = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
    b = np.zeros_like(a)
    a[:n1, :n1], a[n1:, n1:] = r1.A, r2.A
    b[:n1, :n1], b[n1:, n1:] = r1.B, r2.B
    return Rep(r1.group, n1 + n2, a, b)


def conjugate(rep: Rep, g) -> Rep:
    """(g A g^-1, g B g^-1); stays on the conjugation orbit."""
    g = as_matrix(g)
    gi = _inv(g)
    return Rep(rep.group, rep.n, g @ rep.A @ gi, g @ rep.B @ gi)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    qm, rm = np.linalg.qr(z)
    d = rm.diagonal().copy()
    d[d == 0] = 1.0
    return qm * (d / np.abs(d))


def random_conditioned(rng: np.random.Generator, n: int, cond_max: float) -> np.ndarray:
    """Random invertible matrix with condition number <= cond_max."""
    u = _haar_unitary(rng, n)
    v = _haar_unitary(rng, n)
    half = 0.5 * math.log(cond_max)
    s = np.exp(rng.uniform(-half, half, n))
    return (u * s) @ v.conj().T


def random_rep(p: int, q: int, n: int, seed: int, *, sl: bool = False) -> Rep:
    """Off-minimal starting point, deterministic in seed.

    Draws a direct sum of orbit blocks of total dimension n (padding with
    trivial blocks; with sl=True only determinant-one blocks are drawn),
    then conjugates by a random invertible matrix of condition number at
    most RANDOM_COND_MAX.  All randomness flows through a counter-based Philox
    generator keyed by the seed.  Raises ValueError before any draw unless
    n is an integer >= 1 and seed one >= 0, and as census.check_moduli
    does (an invalid pair, or census scans past MAX_SCAN_ELEMENTS).
    """
    n, seed = json_int(n, "n", 1), json_int(seed, "seed", 0)
    rng = np.random.Generator(np.random.Philox(seed))
    # Each block is drawn uniformly from the orbits of length <= remaining:
    # the pool's prefix, as the pool is sorted by length and starts with
    # the trivial orbit, so some block always fits.
    pool = census.orbit_pool(p, q, n, sl)
    blocks: list[Rep] = []
    remaining = n
    while remaining > 0:
        datum = pool.datum(int(rng.integers(pool.count(remaining))))
        modulus = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        phase = math.tau * rng.random()
        chi = modulus * complex(math.cos(phase), math.sin(phase))
        blocks.append(from_orbit_datum(datum, chi, sl=sl))
        remaining -= datum.k
    rep0 = reduce(direct_sum, blocks)
    g = random_conditioned(rng, n, RANDOM_COND_MAX)
    return conjugate(rep0, g)


def rep_to_json(rep: Rep) -> dict:
    return {
        "p": rep.group.p,
        "q": rep.group.q,
        "n": rep.n,
        "A": matrix_to_json(rep.A),
        "B": matrix_to_json(rep.B),
    }


def rep_from_json(d: dict, *, validate: bool = True) -> Rep:
    """Parse a Rep payload; by default enforce check_residual.
    A payload that is not an object, or whose p, q or n is not an
    integer, raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"representation must be an object, got {type(d).__name__}")
    rep = Rep(
        BSGroup(json_int(d["p"], "p"), json_int(d["q"], "q")),
        json_int(d["n"], "n"),
        matrix_from_json(d["A"]),
        matrix_from_json(d["B"]),
    )
    if validate:
        check_residual(relation_residual(rep))
    return rep
