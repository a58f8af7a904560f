"""Dense complex linear-algebra kernel.

Everything here operates on square complex matrices represented as
numpy arrays of dtype complex128.  Tolerances are explicit parameters
with conservative defaults; nothing is silently clipped or regularized.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

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


def hs_norm(x) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(sum |x_ij|^2)."""
    return float(np.linalg.norm(np.asarray(x)))


def unitarity_defect(x: np.ndarray) -> float:
    """||X* X - I|| in the Hilbert-Schmidt norm."""
    return hs_norm(x.conj().T @ x - np.eye(x.shape[0]))


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
    theta = Fraction(math.atan2(lam.imag, lam.real) / _TWO_PI % 1.0)

    def best_err(denom_cap: int) -> tuple[float, Fraction]:
        f = theta.limit_denominator(denom_cap)
        return abs(float(theta - f)), f

    err_max, _ = best_err(max_order)
    if err_max > ang_tol:
        raise NotARootOfUnity(
            f"no root of unity of order <= {max_order} within {tol:.3g}"
        )
    lo, hi = 1, int(max_order)
    while lo < hi:
        mid = (lo + hi) // 2
        if best_err(mid)[0] <= ang_tol:
            hi = mid
        else:
            lo = mid + 1
    _, frac = best_err(lo)
    n_ = frac.denominator
    m_ = frac.numerator % n_
    snapped = cmath.exp(2j * math.pi * m_ / n_)
    if abs(lam - snapped) > tol:
        raise NotARootOfUnity(
            f"nearest admissible root e^(2 pi i {m_}/{n_}) misses by "
            f"{abs(lam - snapped):.3g}"
        )
    return RootOfUnity(n_, m_)


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
