"""Dense complex linear-algebra kernel.

Everything here operates on square complex matrices represented as
numpy arrays of dtype complex128.  Tolerances are explicit parameters
with conservative defaults, or named module constants; nothing is
silently clipped or regularized.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotARootOfUnity,
    SingularMatrix,
)

__all__ = [
    "PolarFactors",
    "RootOfUnity",
    "as_matrix",
    "hs_norm",
    "unitarity_defect",
    "polar",
    "eigvals",
    "snap_root_of_unity",
    "matrix_to_json",
    "matrix_from_json",
]

_TWO_PI = 2.0 * math.pi

#: polar rejects A whose smallest singular value is at or below this
#: multiple of ||A||.
SV_TOL = 1e-12


def as_matrix(x) -> np.ndarray:
    """Coerce to a square, C-ordered complex128 array, rejecting NaN/Inf
    entries; an input that already is one is returned as it is."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # The float64 view of the real and imaginary parts needs C order.
    a = np.ascontiguousarray(a)
    if not np.isfinite(a.view(np.float64)).all():
        raise ValueError("matrix has non-finite entries")
    return a


def hs_norm(x) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(sum |x_ij|^2).

    The squared norm is the two real BLAS dot products np.linalg.norm
    takes, so the value equals its.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    f = x.ravel(order="K")
    re, im = f.real, f.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def unitarity_defect(x: np.ndarray) -> float:
    """||X* X - I|| in the Hilbert-Schmidt norm."""
    g = x.conj().T @ x
    # The diagonal of the (C-ordered) product, as a writable view.
    g.reshape(-1)[:: len(g) + 1] -= 1.0
    return hs_norm(g)


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """The SVD A = W diag(s) Vh that the polar factors of A = U P come
    from: U = W Vh and P = Vh* diag(s) Vh."""

    w: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.w @ self.vh

    @property
    def p(self) -> np.ndarray:
        p = self.vh.conj().T @ (self.s[:, None] * self.vh)
        return 0.5 * (p + p.conj().T)


def polar(a) -> PolarFactors:
    """Right polar decomposition A = U P with U unitary, P Hermitian PD,
    returned as the SVD factors both are read from.

    Raises SingularMatrix when the smallest singular value is at or below
    SV_TOL times the Hilbert-Schmidt norm of A.
    """
    a = as_matrix(a)
    try:
        w, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed: {exc}") from exc
    if s[-1] <= SV_TOL * hs_norm(a):
        raise SingularMatrix(
            f"smallest singular value {s[-1]:.3e} below tolerance"
        )
    return PolarFactors(w, s, vh)


def eigvals(a) -> np.ndarray:
    """Eigenvalues with multiplicity, from the general dense eigensolver.

    The library does not call it; the benchmark's endpoint check does.
    """
    a = as_matrix(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc


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

    The tolerance becomes an angular budget around theta = arg(value) /
    2 pi, and _smallest_denominator finds the fraction of smallest
    denominator in it: a float continued fraction proposes it and an
    exact two-parent test proves it, and the Stern-Brocot walk answers
    only when that proof fails.  Either way the answer is the walk's.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    lam = complex(value)
    r = abs(lam)
    if not abs(r - 1.0) <= tol or r == 0.0:
        raise NotARootOfUnity(
            f"{lam!r} is off the unit circle: ||lam| - 1| = {abs(r - 1.0):.3g}, "
            f"tolerance {tol:.3g}"
        )
    # Convert the chordal budget into an angular one: with lam = r e^(i*phi),
    # |lam - e^(i*psi)|^2 = (r-1)^2 + 4 r sin^2((phi - psi)/2); the asin
    # form avoids the catastrophic 1 - cos cancellation at tiny tol.
    slack = max(0.0, tol * tol - (r - 1.0) ** 2)
    ang_tol = 2.0 * math.asin(min(1.0, math.sqrt(slack / (4.0 * r)))) / _TWO_PI
    num, den = (math.atan2(lam.imag, lam.real) / _TWO_PI % 1.0).as_integer_ratio()
    frac = _smallest_denominator(num, den, ang_tol, int(max_order))
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


def _smallest_denominator(num: int, den: int, ang_tol: float, max_den: int):
    """(x, y) with x/y of smallest denominator y <= max_den within ang_tol
    of theta = num/den in [0, 1); None if there is none.

    within(x, y) tests |theta - x/y| <= ang_tol with the distance rounded
    once to a float, as float(Fraction) rounds it.  Rounding is monotone,
    so within holds exactly on an interval I around theta, and the
    smallest denominator in I is taken by a unique fraction once 0/1 and
    1/1 are outside I.

    A float continued fraction of [theta - ang_tol, theta + ang_tol]
    proposes that fraction x/y (_simplest_fraction), and three exact tests
    prove it: x/y is within, and both of its Stern-Brocot parents a/b and
    (x - a)/(y - b), with b = x^-1 mod y and a = (x b - 1)/y, are not.
    The parents are neighbours with b + (y - b) = y, so every other
    fraction between them has a denominator above y, and I, an interval
    that holds x/y and neither parent, lies between them.  When the proof
    fails, _stern_brocot walks to the answer.
    """

    def within(x: int, y: int) -> bool:
        return abs(num * y - x * den) / (den * y) <= ang_tol

    for x in (0, 1):
        if within(x, 1):
            return x, 1
    theta = num / den
    frac = _simplest_fraction(theta - ang_tol, theta + ang_tol, den)
    if frac is not None:
        x, y = frac
        b = pow(x, -1, y)
        a = (x * b - 1) // y
        if within(x, y) and not within(a, b) and not within(x - a, y - b):
            return frac if y <= max_den else None
    return _stern_brocot(num, den, within, max_den)


def _simplest_fraction(lo: float, hi: float, den: int):
    """The fraction x/y of smallest denominator in [lo, hi], in float
    arithmetic, for 0 < lo < hi < 1 and a fraction of denominator den in
    [lo, hi]; None outside that range or once the expansion's
    denominators pass den.

    Expands lo and hi as one continued fraction while they share a term t,
    mapping [lo, hi] to [1/(hi - t), 1/(lo - t)]; the first interval that
    holds an integer ends it with the smallest such integer.  Rounding can
    make the answer wrong, so the caller proves it.
    """
    if not 0.0 < lo < hi < 1.0:
        return None
    # Convergents x1/y1 and the one before it, x0/y0.
    x0, x1, y0, y1 = 1, 0, 0, 1
    lo, hi = 1.0 / hi, 1.0 / lo
    while y1 <= den:
        t = math.floor(lo)
        if t == lo or t + 1 <= hi:
            t = math.ceil(lo)
            return t * x1 + x0, t * y1 + y0
        x0, x1, y0, y1 = x1, t * x1 + x0, y1, t * y1 + y0
        lo, hi = 1.0 / (hi - t), 1.0 / (lo - t)
    return None


def _stern_brocot(num: int, den: int, within, max_den: int):
    """_smallest_denominator's answer by a walk, for the within() it
    defines, once 0/1 and 1/1 are known to be outside the interval.

    Walks the Stern-Brocot tree toward num/den.  Denominators grow along
    the walk, and the first node inside the interval has the smallest
    denominator in it.  A run of steps in one direction passes the
    mediants (x0 + j x1)/(y0 + j y1), which close in on num/den from one
    side until j crosses it; the first of them inside the interval is
    found by bisection on j, so a run costs O(log j) tests.
    """
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


def json_int(x, name: str) -> int:
    """An integer field of a JSON payload; anything else, such as 2.5
    (never read as 2), "2", true or null, raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def matrix_from_json(d: dict) -> np.ndarray:
    if not isinstance(d, dict):
        raise ValueError(f"matrix payload must be an object, got {type(d).__name__}")
    n = json_int(d["n"], "n")
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix payload shape mismatch for n={n}")
    return as_matrix(re + 1j * im)
