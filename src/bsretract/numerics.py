"""Dense complex linear-algebra kernel.

Everything here operates on square complex matrices represented as
numpy arrays of dtype complex128.  Tolerances are explicit parameters
with conservative defaults; nothing is silently clipped or regularized.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotARootOfUnity,
    NotPositiveDefinite,
    SingularMatrix,
)

__all__ = [
    "RootOfUnity",
    "as_matrix",
    "hs_norm",
    "unitarity_defect",
    "polar",
    "herm_power",
    "exp_herm",
    "eigvals",
    "snap_root_of_unity",
    "matrix_to_json",
    "matrix_from_json",
]

_TWO_PI = 2.0 * math.pi


def as_matrix(x) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    return a


def hs_norm(x):
    """Hilbert-Schmidt (Frobenius) norm sqrt(sum |x_ij|^2).

    A C-ordered stack (..., n, n) gives the array of the norms of its
    matrices, each rounded as for that matrix alone: the squared norm is
    the same two BLAS dot products that np.linalg.norm takes.
    """
    x = np.asarray(x)
    if x.ndim < 3:
        return float(np.linalg.norm(x))
    flat = x.reshape(x.shape[:-2] + (1, -1))
    re, im = flat.real, flat.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def unitarity_defect(x: np.ndarray):
    """||X* X - I|| in the Hilbert-Schmidt norm; of each matrix for a stack."""
    return hs_norm(np.swapaxes(x.conj(), -1, -2) @ x - np.eye(x.shape[-1]))


def _herm(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def polar(a, *, sv_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Right polar decomposition A = U P with U unitary, P Hermitian PD.

    Raises SingularMatrix when the smallest singular value is at or below
    sv_tol times the Hilbert-Schmidt norm of A.
    """
    a = as_matrix(a)
    try:
        u0, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed: {exc}") from exc
    if s[-1] <= sv_tol * hs_norm(a):
        raise SingularMatrix(
            f"smallest singular value {s[-1]:.3e} below tolerance"
        )
    u = u0 @ vh
    p = _herm(vh.conj().T @ (s[:, None] * vh))
    return u, p


def herm_power(p, t: float) -> np.ndarray:
    """Fractional power P^t of a Hermitian positive-definite matrix.

    P is symmetrized first; any eigenvalue <= 0 raises NotPositiveDefinite.
    """
    h = _herm(as_matrix(p))
    w, v = _eigh(h)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"eigenvalue {w[0]:.3e} is not positive")
    return (v * w**t) @ v.conj().T


def exp_herm(h) -> np.ndarray:
    """Matrix exponential of (the Hermitian part of) h, via eigendecomposition."""
    hh = _herm(as_matrix(h))
    w, v = _eigh(hh)
    return (v * np.exp(w)) @ v.conj().T


def _eigh(h: np.ndarray):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc


def eigvals(a, *, normal_tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues with multiplicity.

    Matrices that are normal within tolerance (||[A, A*]|| <= normal_tol
    * ||A||^2) are handled by jointly diagonalizing the commuting
    Hermitian pair (A + A*)/2 and (A - A*)/(2i), which is stable and
    keeps Hermitian spectra exactly real and unitary spectra on the
    circle.  Everything else goes to the general dense eigensolver.
    """
    a = as_matrix(a)
    if a.shape[0] == 1:
        return np.array([a[0, 0]])
    ah = a.conj().T
    comm = a @ ah - ah @ a
    scale = float(np.vdot(a, a).real)
    try:
        if hs_norm(comm) <= normal_tol * max(scale, 1e-300):
            return _eigvals_normal(a)
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


def _eigvals_normal(a: np.ndarray) -> np.ndarray:
    h1 = _herm(a)
    h2 = (a - a.conj().T) / 2j
    w1, v = np.linalg.eigh(h1)
    # Rotate within near-degenerate clusters of h1 so that h2 is diagonal
    # there too; a cluster is a maximal run with consecutive gaps below tol.
    gap_tol = 1e-7 * max(1.0, float(abs(w1[-1])), float(abs(w1[0])))
    n = a.shape[0]
    start = 0
    for i in range(1, n + 1):
        if i == n or w1[i] - w1[i - 1] > gap_tol:
            if i - start > 1:
                vc = v[:, start:i]
                blk = _herm(vc.conj().T @ h2 @ vc)
                _, u = np.linalg.eigh(blk)
                v[:, start:i] = vc @ u
            start = i
    # Rayleigh quotients on the original matrix remove clustering bias.
    av = a @ v
    return np.einsum("ij,ij->j", v.conj(), av)


@dataclass(frozen=True)
class RootOfUnity:
    """e^(2*pi*i*m/N) in lowest terms; N is the exact multiplicative order."""

    N: int
    m: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("order must be positive")
        if not 0 <= self.m < self.N:
            raise ValueError("exponent must lie in [0, N)")
        if math.gcd(self.m, self.N) != 1 and self.N > 1:
            raise ValueError("exponent/order pair must be in lowest terms")

    @property
    def value(self) -> complex:
        return cmath.exp(2j * math.pi * self.m / self.N)


def snap_root_of_unity(value: complex, max_order: int, tol: float) -> RootOfUnity:
    """Certify a complex number as a root of unity of order <= max_order.

    Returns the root of unity of *smallest* order within distance tol of
    value (the global distance minimizer over all orders up to a large
    max_order is numerically meaningless for inexact inputs: it chases the
    noise with huge denominators).  Raises NotARootOfUnity when no
    admissible candidate is within tol.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = complex(value)
    r = abs(lam)
    if abs(r - 1.0) > tol or r == 0.0:
        raise NotARootOfUnity(f"|{lam!r}| = {r:.6g} is off the unit circle")
    # Convert the chordal budget into an angular one: with lam = r e^(i*phi),
    # |lam - e^(i*psi)|^2 = (r-1)^2 + 4 r sin^2((phi - psi)/2); the asin
    # form avoids the catastrophic 1 - cos cancellation at tiny tol.
    slack = max(0.0, tol * tol - (r - 1.0) ** 2)
    ang_tol = 2.0 * math.asin(min(1.0, math.sqrt(slack / (4.0 * r)))) / _TWO_PI
    num, den = (math.atan2(lam.imag, lam.real) / _TWO_PI % 1.0).as_integer_ratio()

    def within(x: int, y: int) -> bool:
        # |theta - x/y| rounded once to a float, as float(Fraction) rounds it.
        return abs(num * y - x * den) / (den * y) <= ang_tol

    frac = _smallest_denominator(num, den, within, int(max_order))
    if frac is None:
        raise NotARootOfUnity(
            f"no root of unity of order <= {max_order} within {tol:.3g}"
        )
    m_, n_ = frac[0] % frac[1], frac[1]
    snapped = cmath.exp(2j * math.pi * m_ / n_)
    if abs(lam - snapped) > tol:
        raise NotARootOfUnity(
            f"nearest admissible root e^(2 pi i {m_}/{n_}) misses by "
            f"{abs(lam - snapped):.3g}"
        )
    return RootOfUnity(n_, m_)


def _smallest_denominator(num: int, den: int, within, max_den: int):
    """(x, y) with x/y of smallest denominator y <= max_den such that
    within(x, y), for a within() that holds exactly on an interval around
    num/den in [0, 1]; None if there is none.

    Walks the Stern-Brocot tree toward num/den.  Denominators grow along
    the walk, and the first node inside the interval has the smallest
    denominator in it.  A run of steps in one direction passes the
    mediants (x0 + j x1)/(y0 + j y1), which close in on num/den from one
    side until j crosses it; the first of them inside the interval is
    found by bisection on j, so a run costs O(log j) tests.
    """
    for x in (0, 1):
        if within(x, 1):
            return x, 1
    a, b, c, d = 0, 1, 1, 1  # num/den lies strictly between a/b and c/d
    while b + d <= max_den:
        up = (a + c) * den < num * (b + d)
        x0, y0, x1, y1 = (a, b, c, d) if up else (c, d, a, b)
        cross = -((x0 * den - num * y0) // (x1 * den - num * y1))
        lo, hi = 1, cross
        while lo < hi:
            mid = (lo + hi) // 2
            if within(x0 + mid * x1, y0 + mid * y1):
                hi = mid
            else:
                lo = mid + 1
        x, y = x0 + lo * x1, y0 + lo * y1
        if within(x, y):
            return (x, y) if y <= max_den else None
        if up:
            a, b, c, d = x - x1, y - y1, x, y
        else:
            a, b, c, d = x, y, x - x1, y - y1
    return None


def matrix_to_json(a) -> dict:
    """Serialize to {"n": int, "re": [[...]], "im": [[...]]}, row-major."""
    a = as_matrix(a)
    return {
        "n": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(d: dict) -> np.ndarray:
    n = int(d["n"])
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix payload shape mismatch for n={n}")
    return as_matrix(re + 1j * im)
