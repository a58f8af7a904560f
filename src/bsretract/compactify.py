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

`certify` chooses B's basis once, before any step runs, and retries
nothing.  At a minimal vector the flow reaches, B is unitary and
diagonal in the standard basis; there it reads the order off diag(B),
checks the snapped roots against B itself, ||B - diag(roots)||, takes
Q = I as it is, and keeps the point as its own unitarized
representation, with no decomposition, no conjugation and no product
with an identity matrix.  The moduli and their product come from
census's cache, once per (p, q, n).
Any other B is decomposed by one eig and one SVD of its eigenvector
matrix V, which `certify` shares between the order and the form.  That
SVD gives V^-1 for the order's rebuild check, the condition number of
V, and, when B's roots are distinct, the eigendecomposition of Q itself:
Q = (V V*)^-1, so Q's square root is read off V's singular vectors and
values, and Q is never formed through V^-1, which would square the
conditioning of V.  A repeated root first has its eigenvectors replaced
by an orthonormal basis of their span, and costs one more SVD; when that
span is numerically rank-deficient (a nearly defective B) the form
raises NotPositiveDefinite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

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
from .numerics import (as_matrix, finite_positive, hs_norm, json_int, snap_root_of_unity,
                       unitarity_defect)

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

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Positive-definite Hermitian form Q = v diag(w) v*, scaled to
    determinant one.

    HermitianForm(w, v) takes the eigendecomposition of Q, a unitary v and
    ascending w, as invariant_form has it, and builds Q from it with no
    eigh.  Any w that is not positive, NaN included, raises
    NotPositiveDefinite, and Q and w are divided by exp(mean log w), so
    det Q = prod w = 1 by construction.  HermitianForm.identity(n) is
    Q = I, which needs no product and no scaling."""

    w: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    Q: np.ndarray = field(init=False)

    def __post_init__(self):
        w, v = self.w, self.v
        if not (w > 0.0).all():
            raise NotPositiveDefinite(f"form eigenvalue {np.min(w):.3e} is not positive")
        # log(w).sum() / n is log(w).mean(), without its dispatch.
        c = math.exp(np.log(w).sum() / len(w))
        object.__setattr__(self, "Q", (v * w) @ v.conj().T / c)
        object.__setattr__(self, "w", w / c)

    @classmethod
    def identity(cls, n: int) -> "HermitianForm":
        """The form Q = I of dimension n, already of determinant one, with
        no product, log or exp."""
        form = object.__new__(cls)
        object.__setattr__(form, "Q", np.eye(n, dtype=np.complex128))
        object.__setattr__(form, "w", np.ones(n))
        object.__setattr__(form, "v", np.eye(n, dtype=np.complex128))
        return form

    @property
    def condition(self) -> float:
        """The 2-norm condition number of Q, w_max / w_min."""
        return float(self.w[-1] / self.w[0])


class _Eigenbasis(NamedTuple):
    """B = V diag(lam) V^-1 from eig, and the SVD V = U diag(s) Vh that
    V^-1, the condition number and the invariant form are read from."""

    lam: np.ndarray
    v: np.ndarray
    svd: tuple[np.ndarray, np.ndarray, np.ndarray]

    def inverse(self) -> np.ndarray:
        """V^-1 = Vh* diag(1/s) U*."""
        u, s, vh = self.svd
        return (vh.conj().T / s) @ u.conj().T

    def rebuild(self, roots: np.ndarray) -> np.ndarray:
        """V diag(roots) V^-1."""
        return (self.v * roots) @ self.inverse()

    @property
    def condition(self) -> float:
        """The 2-norm condition number of V, s_max / s_min."""
        s = self.svd[1]
        return float(s[0] / s[-1])


class _Diagonal(NamedTuple):
    """B's standard basis, for a B that is diagonal within the rebuild
    bound: its spectrum is diag(B) and V = I, so nothing is multiplied
    by V or inverted."""

    lam: np.ndarray

    def rebuild(self, roots: np.ndarray) -> np.ndarray:
        """diag(roots)."""
        return np.diag(roots)

    @property
    def condition(self) -> float:
        """The condition number of V = I."""
        return 1.0


def _eig(b: np.ndarray) -> _Eigenbasis:
    """Eigenvalues and eigenvectors of b, and the eigenvectors' SVD; raises
    NotFiniteOrder unless the eigenvectors form an invertible basis."""
    try:
        lam, v = np.linalg.eig(b)
        u, s, vh = np.linalg.svd(v)
    except np.linalg.LinAlgError as exc:
        raise NotFiniteOrder(f"B has no eigenvector basis: {exc}") from exc
    if not s[-1] > 0.0:
        raise NotFiniteOrder("B has no invertible eigenvector basis")
    return _Eigenbasis(lam, v, (u, s, vh))


def detect_finite_order(b, moduli, tol: float = SNAP_TOL, *, eig=None) -> int:
    """Exact order of the cyclic group generated by b, via its spectrum.

    `moduli` are the admissible moduli |p^k - q^k| (see
    census.order_moduli); a single int is one modulus.  Every eigenvalue
    is snapped to a root of unity of order <= prod(moduli), and each
    snapped order must divide one of the moduli; the eigenvalues are taken
    in order, and the first that does not snap or whose order divides no
    modulus ends the detection.  The snapped spectrum must rebuild b:
    ||B - V diag(roots) V^-1|| <= n * tol * max(1, ||B||), which rejects
    non-diagonalizable b; V^-1 is read off the SVD of V.  The order is the
    lcm of the snapped orders.  Raises NotFiniteOrder when any of this
    fails (input away from a minimal vector).  eig, if given, is the basis
    certify chose for b, and b is not decomposed a second time: its
    eigendecomposition, or, on the standard route, diag(b) as the
    spectrum, with the rebuild check ||B - diag(roots)|| made on b itself.
    """
    b = as_matrix(b)
    moduli = (moduli,) if isinstance(moduli, numbers.Integral) else tuple(moduli)
    eig = _eig(b) if eig is None else eig
    bound, roots = math.prod(moduli), []
    for lam in eig.lam.tolist():
        try:
            r = snap_root_of_unity(lam, bound, tol)
        except NotARootOfUnity as exc:
            raise NotFiniteOrder(f"eigenvalue does not snap: {exc}") from exc
        if not any(m % r.N == 0 for m in moduli):
            raise NotFiniteOrder(f"snapped order {r.N} divides none of {moduli}")
        roots.append(r)
    defect = hs_norm(b - eig.rebuild(np.array([r.value for r in roots])))
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
    the group, and Q = I when the group is unitary.

    Q is not formed through V^-1.  Group V's columns by their root, and
    let Y be V with each group's columns V_c replaced by an orthonormal
    basis of their span (the left singular vectors of V_c); a group of
    one column stays as it is, since eig returns unit eigenvectors.  Then
    (V* V) o M is block diagonal with blocks G_c = V_c* V_c, and
    Q^-1 = V diag(G_c^-1) V* = sum_c V_c G_c^-1 V_c* = Y Y*, so the SVD
    Y = W diag(s) Z* gives Q = W diag(s^-2) W*.  When every root is
    distinct, Y = V and that SVD is the one eig carries.  A
    group whose Gram matrix is numerically singular, lambda_min(G_c) <=
    n eps lambda_max(G_c) (a nearly defective b), raises
    NotPositiveDefinite: its eigenvectors span less than its
    multiplicity, and no positive-definite Q comes from them.  Returned
    scaled to determinant one.  eig as in detect_finite_order; b is read,
    and validated, only when eig is not given.  An order that is not an
    integer >= 1 raises ValueError."""
    order = json_int(order, "order", 1)
    eig = _eig(as_matrix(b)) if eig is None else eig
    k = (np.rint(np.angle(eig.lam) / (2.0 * math.pi) * order) % order).tolist()
    groups: dict[float, list[int]] = {}
    for i, root in enumerate(k):
        groups.setdefault(root, []).append(i)
    if len(groups) == len(k):
        u, s, _ = eig.svd
    else:
        y = eig.v.copy()
        try:
            for cols in groups.values():
                if len(cols) > 1:
                    uc, sc, _ = np.linalg.svd(y[:, cols], full_matrices=False)
                    ratio = (sc[-1] / sc[0]) ** 2
                    if not ratio > len(k) * _EPS:
                        raise NotPositiveDefinite(
                            "form eigenvalue is not positive: the eigenvectors of "
                            "one root have a Gram matrix with lambda_min / "
                            f"lambda_max = {ratio:.3e}, within n eps of singular"
                        )
                    y[:, cols] = uc
            u, s, _ = np.linalg.svd(y)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"SVD failed: {exc}") from exc
    return HermitianForm(s**-2.0, u)


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
    residual ||A B A^-1 - B^j|| (bsrep.residual) is at most tol.  An
    order that is not an integer >= 1, or a tol that is not finite and
    positive, raises ValueError."""
    order, tol = json_int(order, "order", 1), finite_positive(tol, "tol")
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
    condition number of the eigenvector basis V of B that Q is built from,
    s_max / s_min of its SVD; large values flag a nearly defective B; it is
    set once B's basis is chosen, so a failure at detect_finite_order
    reports it too.  form_condition is the 2-norm condition number of Q,
    w_max / w_min of its eigenvalues, (s_max / s_min)^2 of the SVD Q is
    read from (the SVD of V when B's roots are distinct); it bounds how far
    conjugation by Q^(1/2) can amplify rounding.  invariance_defect is
    ||B* Q B - Q|| for the generator B, which implies invariance under
    every power of B in exact arithmetic.  unitarity_defect is
    ||B'* B' - I|| of the unitarized B', the value the UNITARY_TOL gate
    read.  When certify chooses B's standard basis, V = Q = I, both
    condition numbers are 1, B' is B, and B's unitarity defect, measured
    once before the first step, is the invariance_defect and, once the
    gate's step is reached, the unitarity_defect.  A failure is final:
    no step is retried in another basis.
    """

    order_bound: int
    order: int | None = None
    form: HermitianForm | None = None
    eig_condition: float | None = None
    form_condition: float | None = None
    invariance_defect: float | None = None
    unitary: Rep | None = None
    unitarity_defect: float | None = None
    exponent: int | None = None
    failed_stage: str | None = None
    error: BsretractError | None = None

    def report(self) -> dict:
        """The fields under their names in the diagnostics and in verify."""
        return {"order_bound": self.order_bound, "detected_order": self.order,
                "normality_exponent": self.exponent,
                "kappa_invariance_defect": self.invariance_defect,
                "eig_condition": self.eig_condition, "form_condition": self.form_condition}


def certify(rep: Rep, tol: float = SNAP_TOL) -> Certificate:
    """Order of B, invariant form, unitarized representation and
    normality exponent, each at tolerance tol; the unitarized B must be
    unitary within UNITARY_TOL, which a non-diagonalizable B close enough
    to snap (a Jordan block) is not.  Any BsretractError that a step
    raises ends certification and is recorded in the certificate, under
    that step's name, not raised; nothing is retried.

    B's basis is chosen once, before any step runs.  A B whose
    off-diagonal part is within detect_finite_order's rebuild bound
    n * tol * max(1, ||B||) and which is unitary within UNITARY_TOL, as at
    a minimal vector the flow reaches, is read in the standard basis: its
    spectrum is diag(B), the rebuild check is ||B - diag(roots)||, Q = I
    is built as it is (HermitianForm.identity), so eig_condition =
    form_condition = 1 exactly, rep itself is the unitarized
    representation, and B's unitarity defect, measured once, is both the
    gate's value and the invariance defect.  Any other B is decomposed by
    one eig and one SVD of its eigenvectors, which serve the order, the
    form and both condition numbers.  The moduli and order_bound are read
    from census's per-(p, q, n) cache.  A tol that is not finite and
    positive raises ValueError, naming snap_tol, before the first step."""
    tol = finite_positive(tol, "snap_tol")
    p, q, n = rep.group.p, rep.group.q, rep.n
    moduli, b = census.order_moduli(p, q, n), rep.B
    off = b.copy()
    off.reshape(-1)[:: n + 1] = 0.0
    standard = (
        hs_norm(off) <= n * tol * max(1.0, hs_norm(b))
        and (defect := unitarity_defect(b)) <= UNITARY_TOL
    )
    cert = Certificate(census.order_bound(p, q, n))
    stage = "detect_finite_order"
    try:
        eig = _Diagonal(np.diagonal(b)) if standard else _eig(b)
        cert.eig_condition = eig.condition
        cert.order = detect_finite_order(b, moduli, tol, eig=eig)
        stage = "invariant_form"
        if standard:
            cert.form = HermitianForm.identity(n)
            cert.invariance_defect = defect
        else:
            cert.form = invariant_form(b, cert.order, eig=eig)
            q = cert.form.Q
            cert.invariance_defect = hs_norm(b.conj().T @ q @ b - q)
        cert.form_condition = cert.form.condition
        stage = "conjugate_into_unitary"
        if standard:
            cert.unitary = rep
        else:
            cert.unitary = conjugate_into_unitary(rep, cert.form)
            defect = unitarity_defect(cert.unitary.B)
        cert.unitarity_defect = defect
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
