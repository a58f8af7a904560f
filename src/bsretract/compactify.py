"""Finite-order certification, invariant Hermitian forms, and unitarization.

A matrix B of exact finite order is diagonalizable, B = V diag(lambda) V^-1,
with roots of unity on the diagonal.  Averaging h* h over the cyclic
group H = <B> kills every cross term between distinct eigenvalues, which
leaves a positive-definite Hermitian form Q, read off the
eigendecomposition, with h* Q h = Q for every h; the two facts every
downstream step needs are that H is contained in U(Q) and that Q is the
identity whenever H is already unitary.  Conjugating by Q^(1/2) then
moves H into the standard unitary group.  Every step works on the
eigendecomposition of B or on a single power of it, so its cost depends
on the dimension, never on the order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import census
from .bsrep import Rep, residual
from .errors import (
    BsretractError,
    NoConvergence,
    NotARootOfUnity,
    NotFiniteOrder,
    NotNormalizing,
    NotPositiveDefinite,
    SingularMatrix,
)
from .numerics import as_matrix, hs_norm, snap_root_of_unity, unitarity_defect

__all__ = [
    "Certificate",
    "HermitianForm",
    "certify",
    "detect_finite_order",
    "invariant_form",
    "conjugate_into_unitary",
    "normality_exponent",
    "SNAP_TOL",
    "UNITARY_TOL",
]

#: Default tolerance of the certificates: the largest distance of an
#: eigenvalue of B to its root of unity, and of A B A^-1 to B^j.
SNAP_TOL = 1e-6

#: Largest unitarity defect ||B* B - I|| of the unitarized B that certify
#: accepts, and that retract_a requires.
UNITARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Positive-definite Hermitian form, scaled to determinant one.

    The input must be Hermitian within 1e-10 * ||Q||, a bound relative
    to its norm at every scale.  One eigh of the symmetrized input,
    Q = V diag(w) V*; any w that is not positive, NaN included, raises
    NotPositiveDefinite.  Q and w are divided by exp(mean log w), so
    det Q = prod w = 1 by construction."""

    Q: np.ndarray
    w: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = as_matrix(self.Q)
        tol = 1e-10 * hs_norm(q)
        if not hs_norm(q - q.conj().T) <= tol < math.inf:
            raise ValueError("form is not Hermitian within tolerance")
        q = 0.5 * (q + q.conj().T)
        try:
            w, v = np.linalg.eigh(q)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
        if not np.all(w > 0.0):
            raise NotPositiveDefinite(f"form eigenvalue {np.min(w):.3e} is not positive")
        c = math.exp(np.log(w).mean())
        object.__setattr__(self, "Q", q / c)
        object.__setattr__(self, "w", w / c)
        object.__setattr__(self, "v", v)


def _eig(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, eigenvectors V and V^-1 of b."""
    try:
        w, v = np.linalg.eig(b)
        return w, v, np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NotFiniteOrder(f"B has no invertible eigenvector basis: {exc}") from exc


def detect_finite_order(b, moduli, tol: float = SNAP_TOL, *, eig=None) -> int:
    """Exact order of the cyclic group generated by b, via its spectrum.

    `moduli` are the admissible moduli |p^k - q^k| (see
    census.order_moduli); a single int is one modulus.  Every eigenvalue
    is snapped to a root of unity of order <= prod(moduli), and each
    snapped order must divide one of the moduli; the eigenvalues are taken
    in order, and the first that does not snap or whose order divides no
    modulus ends the detection.  The snapped spectrum must rebuild b:
    ||B - V diag(roots) V^-1|| <= n * tol * max(1, ||B||), which rejects
    non-diagonalizable b.  The order is the lcm of the
    snapped orders.  Raises NotFiniteOrder when any of this fails (input
    away from a minimal vector).  eig, if given, is b's decomposition
    (w, V, V^-1) from a caller that needs it again, and b is not
    decomposed a second time.
    """
    b = as_matrix(b)
    moduli = (moduli,) if isinstance(moduli, numbers.Integral) else tuple(moduli)
    w, v, vinv = _eig(b) if eig is None else eig
    bound, roots = math.prod(moduli), []
    for lam in w:
        try:
            r = snap_root_of_unity(lam, bound, tol)
        except NotARootOfUnity as exc:
            raise NotFiniteOrder(f"eigenvalue does not snap: {exc}") from exc
        if not any(m % r.N == 0 for m in moduli):
            raise NotFiniteOrder(f"snapped order {r.N} divides none of {moduli}")
        roots.append(r)
    defect = hs_norm(b - (v * np.array([r.value for r in roots])) @ vinv)
    if not defect <= b.shape[0] * tol * max(1.0, hs_norm(b)):
        raise NotFiniteOrder(
            f"snapped spectrum misses B: ||B - V diag(roots) V^-1|| = {defect:.3e}"
        )
    return math.lcm(*(r.N for r in roots))


def invariant_form(b, order: int, *, eig=None) -> HermitianForm:
    """Group mean of h* h over <b>, from the eigendecomposition of b.

    With B = V diag(lambda) V^-1 and every lambda an order-th root of
    unity, the mean of conj(lambda_i)^k lambda_j^k over k < order is 1
    when lambda_i = lambda_j and 0 otherwise, so the mean of (B^k)* B^k
    is Q = V^-* ((V* V) o M) V^-1 with M_ij = 1 exactly when lambda_i and
    lambda_j round to the same order-th root.  h* Q h = Q for every h in
    the group, and Q = I when the group is unitary.  Returned scaled to
    determinant one.  eig as in detect_finite_order; b is read, and
    validated, only when eig is not given.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w, v, vinv = _eig(as_matrix(b)) if eig is None else eig
    k = np.rint(np.angle(w) / (2.0 * math.pi) * order) % order
    q0 = vinv.conj().T @ ((v.conj().T @ v) * (k[:, None] == k[None, :])) @ vinv
    return HermitianForm(0.5 * (q0 + q0.conj().T))


def conjugate_into_unitary(rep: Rep, form: HermitianForm) -> Rep:
    """Conjugate by Q^(1/2); the invariance h* Q h = Q makes B unitary.

    (Q^(1/2) h Q^(-1/2))* (Q^(1/2) h Q^(-1/2)) = Q^(-1/2) (h* Q h) Q^(-1/2) = I.
    Q^(1/2) = V diag(w^(1/2)) V* and its inverse Q^(-1/2) are built from
    the decomposition the form keeps.
    """
    r, vh = np.sqrt(form.w), form.v.conj().T
    g, g_inv = (form.v * r) @ vh, (form.v / r) @ vh
    a, b = g @ np.stack((rep.A, rep.B)) @ g_inv
    return Rep(rep.group, rep.n, a, b)


def normality_exponent(rep: Rep, order: int, tol: float = SNAP_TOL) -> int:
    """Exponent j with A B A^-1 = B^j, certifying A normalizes <B>.

    order is the order of B, as detect_finite_order certifies it.  If
    A B A^-1 = B^j then A B^p A^-1 = B^(jp) = B^q, so j = q p^-1 mod
    order: p is a unit modulo every admissible order, because
    gcd(p, p^k - q^k) = 1.  That single power is checked, and
    NotNormalizing is raised, for a singular A too, unless the relation
    residual ||A B A^-1 - B^j|| (bsrep.residual) is at most tol.
    """
    p, q = rep.group.p, rep.group.q
    try:
        j = q * pow(p, -1, order) % order
    except ValueError as exc:
        raise NotNormalizing(f"p = {p} is not a unit mod {order}") from exc
    try:
        d = residual(rep.A, rep.B, 1, j)
    except SingularMatrix as exc:
        raise NotNormalizing("A is singular") from exc
    if not d <= tol:
        raise NotNormalizing(
            f"||A B A^-1 - B^{j}|| = {d:.3e} for j = q/p mod {order}"
        )
    return j


@dataclass
class Certificate:
    """What certify established, step by step.

    Fields of steps after a failing one stay None; failed_stage names that
    step and error holds its exception.  eig_condition is the 2-norm
    condition number of the eigenvector basis of B that Q is built from;
    large values flag a nearly defective B.  invariance_defect is
    ||B* Q B - Q|| for the generator B, which implies invariance under
    every power of B in exact arithmetic.  unitarity_defect is
    ||B'* B' - I|| of the unitarized B', the value the UNITARY_TOL gate
    read.
    """

    order_bound: int
    order: int | None = None
    form: HermitianForm | None = None
    eig_condition: float | None = None
    invariance_defect: float | None = None
    unitary: Rep | None = None
    unitarity_defect: float | None = None
    exponent: int | None = None
    failed_stage: str | None = None
    error: BsretractError | None = None


def certify(rep: Rep, tol: float = SNAP_TOL) -> Certificate:
    """Order of B, invariant form, unitarized representation and
    normality exponent, each at tolerance tol; the unitarized B must be
    unitary within UNITARY_TOL, which a non-diagonalizable B close enough
    to snap (a Jordan block) is not.  Any BsretractError that a step
    raises ends certification and is recorded in the certificate, under
    that step's name, not raised."""
    moduli = census.order_moduli(rep.group.p, rep.group.q, rep.n)
    cert = Certificate(math.prod(moduli))
    stage = "detect_finite_order"
    try:
        # One decomposition of B serves the order and the form.
        eig = _eig(rep.B)
        cert.order = detect_finite_order(rep.B, moduli, tol, eig=eig)
        stage = "invariant_form"
        cert.form = invariant_form(rep.B, cert.order, eig=eig)
        # The 2-norm condition number, as np.linalg.cond takes it.
        s = np.linalg.svd(eig[1], compute_uv=False)
        cert.eig_condition = float(s[0] / s[-1])
        b, q = rep.B, cert.form.Q
        cert.invariance_defect = hs_norm(b.conj().T @ q @ b - q)
        stage = "conjugate_into_unitary"
        cert.unitary = conjugate_into_unitary(rep, cert.form)
        cert.unitarity_defect = defect = unitarity_defect(cert.unitary.B)
        if not defect <= UNITARY_TOL:
            raise NotFiniteOrder(
                f"unitarized B is not unitary within {UNITARY_TOL:.1e} "
                f"(defect {defect:.3e})"
            )
        stage = "normality_exponent"
        cert.exponent = normality_exponent(cert.unitary, cert.order, tol)
    except BsretractError as exc:
        cert.failed_stage, cert.error = stage, exc
    return cert
