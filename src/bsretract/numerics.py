"""Dense complex linear-algebra kernel.

Everything here operates on square complex matrices represented as
numpy arrays of dtype complex128.  Tolerances are explicit parameters
with conservative defaults, or named module constants; nothing is
silently clipped or regularized.  json_int and finite_positive check
every count, seed and tolerance the library reads.
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
    admissible candidate is within tol, and ValueError unless max_order is
    an integer >= 1 and tol is finite and positive.

    The tolerance becomes an angular budget around theta = arg(value) /
    2 pi, and _smallest_denominator finds the fraction of smallest
    denominator in it by one continued-fraction expansion of the budget
    interval, exact in integers.
    """
    max_order = json_int(max_order, "max_order", 1)
    tol = finite_positive(tol, "tol")
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
    frac = _smallest_denominator(num, den, ang_tol, max_order)
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
    of theta = num/den in [0, 1), the smaller x on a tie of 0/1 and 1/1;
    None if there is none.

    Within means |theta - x/y| <= ang_tol with the distance rounded once to
    a float.  That holds exactly on |theta - x/y| <= h, with h = hn/hd =
    ang_tol + ulp(ang_tol)/2 the midpoint of ang_tol and the next float
    up, and the bound is strict unless h itself rounds down to ang_tol.

    The interval I = [theta - h, theta + h] is expanded as one continued
    fraction in integers: while I = [a/b, c/d] holds no integer, it becomes
    [1/(hi - t), 1/(lo - t)] with t = floor(lo), and x1/y1 and x0/y0 are
    the last two convergents.  The first I that holds an integer ends it
    with the smallest, k, and the answer k x1 + x0 over k y1 + y0.  An
    open I whose lo is an integer maps to one whose hi is c/0, infinity; a
    closed I whose hi is the integer t + 1 maps to one whose lo is 1,
    which ends it with the same fraction.
    The image of theta lies in every I, so the expansion ends within the
    continued fraction of theta, and its integers shrink as in Euclid's.
    """
    ulp = math.ulp(ang_tol)
    hn, hd = 2 * int(ang_tol / ulp) + 1, 2 * ulp.as_integer_ratio()[1]
    closed = hn / hd <= ang_tol
    b = d = den * hd
    a, c = num * hd - hn * den, num * hd + hn * den
    x0, x1, y0, y1 = 0, 1, 1, 0
    while y1 <= max_den:
        t, r = divmod(a, b)  # lo = t + r/b
        e = c - t * d  # hi - t = e/d
        if closed and r == 0:
            k = t
        elif d < e:
            k = t + 1
        else:
            x0, x1, y0, y1 = x1, t * x1 + x0, y1, t * y1 + y0
            a, b, c, d = d, e, b, r
            continue
        y = k * y1 + y0
        return (k * x1 + x0, y) if y <= max_den else None
    return None


def matrix_to_json(a) -> dict:
    """Serialize to {"n": int, "re": [[...]], "im": [[...]]}, row-major."""
    a = as_matrix(a)
    return {
        "n": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def json_int(x, name: str, least: int | None = None) -> int:
    """The integer argument or JSON field x as an int; ValueError, naming
    name, refuses anything else, such as 2.5 (never read as 2), inf, "2",
    true or null, and an integer below least.  Every count and seed."""
    # The exact type first: the ABC checks take about 0.4 us a call (CPython
    # 3.11, x86-64), and snap_root_of_unity checks once per eigenvalue.
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if least is not None and x < least:
        raise ValueError(f"{name} must be >= {least}")
    return x


def finite_positive(x, name: str) -> float:
    """x as a float; ValueError, naming name, refuses all but a finite
    positive real (true and "1e-6" too).  Every tolerance."""
    if (type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real))
            or not 0 < x < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {x!r}")
    return float(x)


def matrix_from_json(d: dict) -> np.ndarray:
    if not isinstance(d, dict):
        raise ValueError(f"matrix payload must be an object, got {type(d).__name__}")
    n = json_int(d["n"], "n")
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix payload shape mismatch for n={n}")
    return as_matrix(re + 1j * im)
