"""Newton-CG flow onto the set of minimal vectors.

The conjugation orbit of (A, B) carries the energy F = ||A||^2 + ||B||^2.
Differentiating along exp(tH) for Hermitian H, in the inner product
Re tr(HK), gives dF/dt|_0 = 2 Re tr(H mu) with the moment map
mu = [A, A*] + [B, B*], so the gradient at the identity is 2 mu, and
d^2F/dt^2|_0 = 4 (||[H, A]||^2 + ||[H, B]||^2), so the Hessian is positive
semi-definite (F is convex along these curves).  Points with mu = 0 are
exactly the minimal vectors on their orbit.  Unitary directions preserve
F, so only Hermitian steps are taken: each iteration solves the Newton
system by truncated conjugate gradients, moves to the minimum of the
energy along the geodesic exp(t d) when it lies past the Newton step, and
checks the step by Armijo backtracking.  CG's forcing term is
proportional to ||mu|| near the minimum, where the full Newton step is
taken and the convergence is quadratic, and it is floored at half the
stop level, so that the last solve stops at what the stop test needs.
Each accepted iterate is recorded with its measured energy, which a
resolution-limited tail step may raise by rounding;
FlowTrace.energy_monotone bounds that rise by the resolution the step
was accepted with.  minimality_certificate reads the spectrum of the
same Hessian at a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .bsrep import Rep, residual
from .errors import NoConvergence
from .numerics import hs_norm

__all__ = [
    "CONVERGED",
    "ITER_BUDGET",
    "LINE_SEARCH_STALLED",
    "FlowConfig",
    "FlowRecord",
    "FlowTrace",
    "kn_energy",
    "moment_map",
    "flow",
    "MinimalityCertificate",
    "minimality_certificate",
]

CONVERGED = "converged"
ITER_BUDGET = "iter_budget"
#: Every trial of one line search was rejected, or none could be measured
#: along a non-finite Newton direction, before the budget ran out.
LINE_SEARCH_STALLED = "line_search_stalled"

_MAX_BACKTRACKS = 80
#: Accepted iterates per stacked relation-residual measurement.
_RESIDUAL_BLOCK = 256
#: Largest |t w| of a trial exp(t d), w an eigenvalue of d: beyond it the
#: conjugation could overflow.
_EXP_CAP = 60.0
#: CG stops once its residual is min(_FORCING_CAP, ||mu|| / (1 + E)) ||mu||
#: (E the energy) or _FORCING_FLOOR times the stop level tol (1 + E),
#: whichever is larger.
_FORCING_CAP = 0.1
_FORCING_FLOOR = 0.5
#: Scalar Newton steps of the search for the energy's minimum on a geodesic.
_LINE_STEPS = 8
#: Exponents of the rows 1, x and x^2 of _line_minimum.
_POWERS = np.arange(3.0)[:, None]
_EPS = float(np.finfo(float).eps)
#: Share of the Hessian's largest eigenvalue at or below which an eigenvalue
#: counts as its kernel.
_KERNEL_CUT = 1e-8


@dataclass(frozen=True)
class FlowConfig:
    """Settings of the descent; defaults suit desk-scale problems.

    tol: stop once ||mu|| <= tol * (1 + energy); CG asks no Newton system
        for a residual below half of that level.
    max_iter: iteration budget.

    The line search's constants are class attributes, not settings:
    eta0: first trial step along each search direction s d, where d is the
        Newton direction and s >= 1 puts s d at the energy's minimum on
        the geodesic exp(t d) when that lies past d (s = 1 otherwise);
        1 is the full step.
    armijo: sufficient-decrease constant: a step eta is accepted when the
        energy drops by at least armijo * min(eta s, 1) * (-<2 mu, d>),
        the first-order decrease along d capped at one Newton step.  Near
        the minimum the quadratic model predicts a drop of half that
        first-order term for the full step, so below 1/2 the full step is
        accepted there.
    shrink: backtracking factor applied to eta after a rejected trial.
    SL and GL inputs take the same flow: mu and d are traceless, and
    conjugation keeps det A and det B whatever the trace of its generator.
    """

    tol: float = 1e-10
    max_iter: int = 10**5
    eta0: ClassVar[float] = 1.0
    armijo: ClassVar[float] = 0.25
    shrink: ClassVar[float] = 0.5

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if not self.max_iter > 0:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class FlowRecord:
    iteration: int
    energy: float
    moment_norm: float
    step: float
    residual: float


@dataclass(frozen=True)
class FlowTrace:
    """Per-iteration records of accepted iterates, each with its measured
    energy, plus the outcome flag and the Hessian products the Newton
    solves took."""

    records: tuple[FlowRecord, ...]
    outcome: str
    #: The flow's energy resolution per unit of 1 + energy, 128 n eps: the
    #: smallest energy change it tells apart from the rounding noise of
    #: the conjugation product chain (a few n ulps of the energy).
    resolution_unit: float
    #: Hessian-vector products of every Newton solve's CG.
    hessian_products: int = 0

    @property
    def converged(self) -> bool:
        return self.outcome == CONVERGED

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    def max_residual(self) -> float:
        """Largest recorded residual; NaN if any residual is NaN."""
        return float(np.max([r.residual for r in self.records]))

    def energy_monotone(self) -> bool:
        """True iff no step raised the energy E by more than the resolution
        resolution_unit * (1 + E): the float test by which flow accepts a
        step in its resolution-limited tail, where a measured energy can
        rise by rounding.  A strict Armijo step lowers E."""
        e = [r.energy for r in self.records]
        unit = self.resolution_unit
        return all(e2 <= e1 + unit * (1.0 + e1) for e1, e2 in zip(e, e[1:]))

    def first_below(self, level: float) -> int | None:
        """First iteration with ||mu|| <= level * (1 + energy), if any."""
        for r in self.records:
            if r.moment_norm <= level * (1.0 + r.energy):
                return r.iteration
        return None


def _energy(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, a).real + np.vdot(b, b).real)


class _Products(NamedTuple):
    """The moment map of the stack ab = (A, B) and what the Hessian needs
    besides it, all from the four products A A*, B B*, A* A and B* B."""

    mu: np.ndarray
    #: A A* + A* A + B B* + B* B.
    pm: np.ndarray
    #: The stack (A*, B*).
    abh: np.ndarray


def _moment(ab: np.ndarray) -> _Products:
    abh = ab.conj().transpose(0, 2, 1)
    left = ab @ abh
    right = abh @ ab
    m = left[0] - right[0] + left[1] - right[1]
    m = 0.5 * (m + m.conj().T)
    pm = left + right
    return _Products(m, pm[0] + pm[1], abh)


def kn_energy(rep: Rep) -> float:
    """||A||^2 + ||B||^2 in the Hilbert-Schmidt norm."""
    return _energy(rep.A, rep.B)


def moment_map(rep: Rep) -> np.ndarray:
    """mu = [A, A*] + [B, B*], Hermitian; zero exactly at minimal vectors.

    mu is a sum of commutators, so it is traceless: the moment map of
    SL_n and of GL_n acting by conjugation are the same.
    """
    return _moment(np.stack((rep.A, rep.B))).mu


def _hessian(ab: np.ndarray, products: _Products):
    """Half the energy's Hessian at the identity (the Hessian of F/2,
    whose gradient is mu), as a map on Hermitian h; ab is the stack
    (A, B) and products its _moment.

    Along exp(th), d^2F/dt^2 = 4 sum_X ||[h, X]||^2 over X in {A, B}; its
    polarization is 4 Herm(sum_X [[h, X], X*]).  Expanded and halved, that
    is hP + Ph - 2 sum_Y Y h Y* with P = sum_X (X X* + X* X) and Y over
    {A, B, A*, B*}.  One stacked product gives h P and every h Y*, and the
    sum is one product of the side-by-side Ys with the stacked h Y*s.
    """
    n = ab.shape[1]
    y_row = np.concatenate((*ab, *products.abh), axis=1)
    right = np.concatenate((products.pm[None], products.abh, ab))

    def apply(h: np.ndarray) -> np.ndarray:
        hr = h @ right
        m = hr[0] - y_row @ hr[1:].reshape(4 * n, n)
        m += m.conj().T
        return m

    return apply


def _inner(h: np.ndarray, k: np.ndarray) -> float:
    """Re tr(h k) for Hermitian h, the metric of the Hermitian directions."""
    return float(np.vdot(h, k).real)


def _newton_direction(
    mu: np.ndarray, mu_norm: float, hess, energy: float, tol: float
) -> tuple[np.ndarray, int]:
    """Truncated CG on hess(d) = -mu, started at d = 0, hess half the
    energy's Hessian (its gradient is 2 mu); returns d and the number of
    Hessian products taken.

    Stops once the residual falls to
    max(min(_FORCING_CAP, ||mu|| / (1 + E)) ||mu||, _FORCING_FLOOR tol (1 + E))
    at energy E, after n^2 steps (the dimension of the Hermitian
    directions), or on non-positive curvature or an overflowed ||mu||,
    where the first step falls back to -mu.  The first term is the cap
    far from the minimum and forcing proportional to ||mu|| near it,
    which makes the outer iteration quadratic (Dembo, Eisenstat and
    Steihaug 1982); ||mu|| is normalized by 1 + E as in the stop test
    ||mu|| <= tol (1 + E), so the rule does not depend on the input's
    scale.  The second keeps the last solve from going far past that stop
    level (Eisenstat and Walker 1996).
    From zero, CG stays in the Hessian's range, so the stabilizer kernel
    (scalars, and block scalars of direct sums) never enters the solve,
    and d is traceless up to rounding as mu is.

    CG solves for d c with c = 2^-e and 1 + E = m 2^e (frexp): the
    curvature <p, H p> is of order E^3 and overflows from E ~ 1e100 on,
    while c, a power of two, scales every product exactly.
    """
    scale = 1.0 + energy
    c = math.ldexp(1.0, -math.frexp(scale)[1])
    forcing = c * max(
        min(_FORCING_CAP, mu_norm / scale) * mu_norm, _FORCING_FLOOR * tol * scale
    )
    d = np.zeros_like(mu)
    r = mu * -c
    p = r.copy()
    rr = (c * mu_norm) * (c * mu_norm)
    for k in range(mu.shape[0] ** 2):
        hp = hess(p)
        curvature = _inner(p, hp)
        if not (curvature > 0.0 and rr < math.inf):
            if k == 0:
                d = r
            break
        alpha = rr / curvature
        d += alpha * p
        hp *= alpha
        r -= hp
        rr_next = _inner(r, r)
        if math.sqrt(rr_next) <= forcing:
            break
        p *= rr_next / rr
        p += r
        rr = rr_next
    return d / c, k + 1


def _line_minimum(tilde: np.ndarray, x: np.ndarray, cap: float) -> float:
    """The step s in [1, cap] to the energy's minimum along exp(t d), or 1
    when the energy no longer falls at t = 1.

    d = V diag(w) V*, tilde is the stack (V* A V, V* B V) and
    x_ij = 2 (w_i - w_j), so that along exp(t d) the energy is
    F(t) = sum_ij c_ij e^(x_ij t) with c = |V* A V|^2 + |V* B V|^2
    entrywise.  log F is convex (its second derivative is the variance of
    x under the weights c e^(x t)), so Newton steps on it, kept inside the
    bracket of the minimum by bisection, find the minimum; the best point
    seen is returned, so F(s) <= F(1).
    """
    if not cap > 1.0:
        return 1.0
    c = (tilde * tilde.conj()).real.sum(axis=0).ravel()
    # Rows 1, x and x^2: one product gives F and its first two derivatives.
    powers = x.ravel() ** _POWERS
    x = powers[1]
    lo, hi, t = 1.0, cap, 1.0
    best_t, best_f = 1.0, math.inf
    for i in range(_LINE_STEPS):
        f, f1, f2 = (powers @ (c * np.exp(x * t))).tolist()
        if f < best_f:
            best_t, best_f = t, f
        if f1 < 0.0:
            lo = t
        elif i == 0:
            return 1.0
        else:
            hi = t
        g1 = f1 / f
        g2 = f2 / f - g1 * g1
        nxt = t - g1 / g2 if g2 > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-3 * t:
            break
        t = nxt
    return best_t


class _Line(NamedTuple):
    """The search geodesic t -> exp(t s d) of one iteration, d = V diag(w) V*
    the Newton direction."""

    #: Eigenvalues of s d, ascending.
    w: np.ndarray
    #: w_i - w_j.
    dw: np.ndarray
    v: np.ndarray
    vh: np.ndarray
    #: The stack (V* A V, V* B V).
    tilde: np.ndarray
    s: float
    #: -<2 mu, d>: the first-order energy decrease of one Newton step.
    drop_rate: float


def _search_line(ab, mu, d, resolution, cfg) -> _Line:
    """The geodesic along the finite Newton direction d at the iterate ab
    of moment map mu, with the factor s >= 1 that takes s d to the
    energy's minimum along exp(t d) when the full Newton step's Armijo
    drop is above the resolution (s = 1 otherwise, as in the
    resolution-limited tail), capped so that no trial overflows."""
    try:
        w, v = np.linalg.eigh(d)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigendecomposition of the Newton step failed") from exc
    vh = v.conj().T
    tilde = vh @ ab @ v
    dw = np.subtract.outer(w, w)
    drop_rate = -2.0 * _inner(mu, d)
    s = 1.0
    if cfg.armijo * drop_rate > resolution:
        s = _line_minimum(tilde, 2.0 * dw, _EXP_CAP / _max_modulus(w))
        w, dw = s * w, s * dw
    return _Line(w, dw, v, vh, tilde, s, drop_rate)


def _max_modulus(w: np.ndarray) -> float:
    # eigh sorts w ascending, so its largest modulus is at an end.
    return max(abs(w[0]), abs(w[-1]))


def flow(
    rep: Rep, cfg: FlowConfig | None = None, *, initial_residual: float | None = None
) -> tuple[Rep, FlowTrace]:
    """Drive a representation to the minimal-vector set by Newton-CG.

    Each iteration takes the truncated-CG Newton direction d of the energy
    at the current iterate (gradient 2 mu), scales it by the s >= 1 of
    _search_line and tries g = exp(eta s d), from eta = FlowConfig.eta0,
    accepting a trial when the energy drops by at least
    FlowConfig.armijo * min(eta s, 1) * (-<2 mu, d>); otherwise eta shrinks
    by the factor FlowConfig.shrink, so every recorded step is
    eta0 * shrink^k.  Only tol and max_iter are settings.  Stops when
    ||mu|| <= tol * (1 + energy) (outcome CONVERGED), when the iteration
    budget runs out (ITER_BUDGET) or when every trial of one line search
    is rejected or the Newton direction overflows (LINE_SEARCH_STALLED).
    Conjugation preserves the defining relation, so the residual is
    tracked, not corrected: every accepted iterate's residual is measured,
    in stacked blocks of _RESIDUAL_BLOCK iterates.  initial_residual, from
    a caller that has already measured relation_residual(rep), is recorded
    as iteration 0's residual in place of a second measurement.  The trace
    also counts the Hessian products of all the Newton solves.
    """
    cfg = cfg or FlowConfig()
    p, q = rep.group.p, rep.group.q
    records: list[FlowRecord] = []
    # Accepted iterates whose residuals are not measured yet:
    # (the stack (A, B), (iteration, energy, moment_norm, step)).
    pending: list[tuple[np.ndarray, tuple]] = []

    def measure():
        block = pending.copy()
        pending.clear()
        stacks, rows = zip(*block)
        a_s = np.stack([ab[0] for ab in stacks])
        b_s = np.stack([ab[1] for ab in stacks])
        res = residual(a_s, b_s, p, q).tolist()
        records.extend(FlowRecord(*row, r) for row, r in zip(rows, res))

    ab = np.stack((rep.A, rep.B))
    energy = _energy(*ab)
    products = _moment(ab)
    mu_norm = hs_norm(products.mu)
    # Near the minimum the true energy decrease per step falls below the
    # rounding noise of the energy itself (FlowTrace.resolution_unit), and
    # the measured energy of an accepted tail step may rise within it.
    resolution_unit = 128.0 * rep.n * _EPS
    outcome = ITER_BUDGET
    step_taken = 0.0
    hessian_products = 0
    it = 0
    try:
        while True:
            row = (it, energy, mu_norm, step_taken)
            if it == 0 and initial_residual is not None:
                records.append(FlowRecord(*row, initial_residual))
            else:
                pending.append((ab, row))
                if len(pending) == _RESIDUAL_BLOCK:
                    measure()
            if mu_norm <= cfg.tol * (1.0 + energy):
                outcome = CONVERGED
                break
            if it >= cfg.max_iter:
                break
            d, count = _newton_direction(
                products.mu, mu_norm, _hessian(ab, products), energy, cfg.tol
            )
            hessian_products += count
            if not np.isfinite(d).all():
                # An overflowed iterate: no trial along d has a finite
                # energy, so none can be accepted.
                outcome = LINE_SEARCH_STALLED
                break
            resolution = resolution_unit * (1.0 + energy)
            line = _search_line(ab, products.mu, d, resolution, cfg)
            eta = cfg.eta0
            # Longer steps would overflow the conjugation: shrink past
            # them before the trials, so that they use none of the
            # backtracks.  eta falls geometrically, so this ends.
            while eta * _max_modulus(line.w) > _EXP_CAP:
                eta *= cfg.shrink
            for _ in range(_MAX_BACKTRACKS):
                # exp(eta s d) X exp(-eta s d) = V ((V* X V) o E) V* with
                # E_ij = e^(eta s (w_i - w_j)), for X = A and B at once.
                ab2 = line.v @ (line.tilde * np.exp(eta * line.dw)) @ line.vh
                required = cfg.armijo * min(eta * line.s, 1.0) * line.drop_rate
                e2 = _energy(*ab2)
                if required > resolution:
                    if e2 <= energy - required:
                        break
                elif e2 <= energy + resolution:
                    # Resolution-limited tail: the energy is numerically
                    # stationary, so progress is certified on the moment
                    # norm instead while the energy is held to measurement
                    # noise.
                    products2 = _moment(ab2)
                    mu2_norm = hs_norm(products2.mu)
                    if mu2_norm < mu_norm:
                        break
                eta *= cfg.shrink
            else:
                outcome = LINE_SEARCH_STALLED
                break
            # The accepted trial's energy (and, in the tail, its moment)
            # is the next iterate's: the same arrays give the same floats.
            ab, energy = ab2, e2
            if required > resolution:
                products = _moment(ab)
                mu_norm = hs_norm(products.mu)
            else:
                products, mu_norm = products2, mu2_norm
            step_taken = eta
            it += 1
    finally:
        # Also on the way out of an exception, so that a singular earlier
        # iterate raises SingularMatrix as it would have when measured.
        if pending:
            measure()
    trace = FlowTrace(tuple(records), outcome, resolution_unit, hessian_products)
    return Rep(rep.group, rep.n, ab[0], ab[1]), trace


class MinimalityCertificate(NamedTuple):
    """The spectrum of the energy's Hessian at a point, as verify reports it.

    hessian_kernel_dim: eigenvalues at or below 1e-8 (_KERNEL_CUT) times
        the largest (or within rounding noise of zero), the dimension of the
        Hermitian stabilizer: at a minimal point, the number of pairwise
        non-isomorphic blocks.
    hessian_gap: the smallest eigenvalue above the kernel over the largest.
    moment_over_gap: ||mu|| over that smallest eigenvalue.
    The last two are None when every eigenvalue lies in the kernel (n = 1,
    or scalar A and B), and all three when the Hessian overflows.
    """

    hessian_kernel_dim: int | None
    hessian_gap: float | None
    moment_over_gap: float | None


def _hessian_gram(ab: np.ndarray, products: _Products) -> np.ndarray:
    """The matrix Re tr(E_a H(E_b)) of H = _hessian(ab, products) on the
    orthonormal basis E of the Hermitian directions: the E_ii, then
    (E_ij + E_ji)/sqrt 2 and i (E_ij - E_ji)/sqrt 2 for i < j."""
    n = ab.shape[1]
    i, j = np.triu_indices(n, 1)
    k = n + np.arange(len(i))
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[range(n), range(n), range(n)] = 1.0
    basis[k, i, j] = basis[k, j, i] = math.sqrt(0.5)
    basis[k + len(i), i, j] = 1j * math.sqrt(0.5)
    basis[k + len(i), j, i] = -1j * math.sqrt(0.5)
    hess = _hessian(ab, products)
    images = np.stack([hess(e) for e in basis])
    return np.tensordot(basis.conj(), images, axes=((1, 2), (1, 2))).real


def minimality_certificate(rep: Rep) -> MinimalityCertificate:
    """Kernel dimension, gap and ||mu|| / gap of the half-Hessian that the
    flow's Newton steps apply, from the eigenvalues of its Gram matrix.  A
    kernel cut below the rounding noise of the products, 128 n eps times
    the energy, is raised to it.
    """
    ab = np.stack((rep.A, rep.B))
    products = _moment(ab)
    gram = _hessian_gram(ab, products)
    if not np.isfinite(gram).all():
        return MinimalityCertificate(None, None, None)
    lam = np.linalg.eigvalsh(gram).tolist()
    cut = max(_KERNEL_CUT * lam[-1], 128.0 * rep.n * _EPS * _energy(*ab))
    above = [x for x in lam if x > cut]
    if not above:
        return MinimalityCertificate(len(lam), None, None)
    return MinimalityCertificate(
        len(lam) - len(above), above[0] / lam[-1], hs_norm(products.mu) / above[0]
    )
