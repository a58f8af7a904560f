"""Newton-CG flow onto the set of minimal vectors.

The conjugation orbit of (A, B) carries the energy F = ||A||^2 + ||B||^2.
Differentiating along exp(tH) for Hermitian H, in the inner product
Re tr(HK), gives dF/dt|_0 = 2 Re tr(H mu) with the moment map
mu = [A, A*] + [B, B*], so the gradient at the identity is 2 mu, and
d^2F/dt^2|_0 = 4 (||[H, A]||^2 + ||[H, B]||^2), so the Hessian is positive
semi-definite (F is convex along these curves).  Points with mu = 0 are
exactly the minimal vectors on their orbit.  Unitary directions preserve
F, so only Hermitian steps are taken: each iteration solves the Newton
system by truncated conjugate gradients and steps along exp(eta d) with
Armijo backtracking, which converges superlinearly near the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsrep import Rep, random_hermitian, residual
from .errors import NoConvergence
from .numerics import hs_norm

__all__ = [
    "CONVERGED",
    "ITER_BUDGET",
    "FlowConfig",
    "FlowRecord",
    "FlowTrace",
    "kn_energy",
    "moment_map",
    "flow",
    "verify_minimal",
    "MinimalityReport",
]

CONVERGED = "converged"
ITER_BUDGET = "iter_budget"

_MAX_BACKTRACKS = 80
#: Accepted iterates per stacked relation-residual measurement.
_RESIDUAL_BLOCK = 256
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FlowConfig:
    """Tunables of the descent; defaults suit desk-scale problems.

    tol: stop once ||mu|| <= tol * (1 + energy).
    max_iter: iteration budget.
    eta0: first trial step along each Newton direction d; 1 is the full
        Newton step.
    armijo: sufficient-decrease constant: a step eta is accepted when the
        energy drops by at least armijo * eta * (-<2 mu, d>).  Near the
        minimum the quadratic model predicts a drop of half that
        first-order term for the full step, so below 1/2 the full step is
        accepted there.
    shrink: backtracking factor applied to eta after a rejected trial.
    sl_mode: project the trace out of mu and d (special-linear runs).
    """

    tol: float = 1e-10
    max_iter: int = 10**5
    eta0: float = 1.0
    armijo: float = 0.25
    shrink: float = 0.5
    sl_mode: bool = False

    def __post_init__(self):
        if not (0 < self.tol < math.inf and 0 < self.eta0 < math.inf):
            raise ValueError("tol and eta0 must be finite and positive")
        if not self.max_iter > 0:
            raise ValueError("max_iter must be positive")
        if not 0 < self.armijo < 1 or not 0 < self.shrink < 1:
            raise ValueError("armijo and shrink must lie in (0, 1)")


@dataclass(frozen=True)
class FlowRecord:
    iteration: int
    energy: float
    moment_norm: float
    step: float
    residual: float


@dataclass(frozen=True)
class FlowTrace:
    """Per-iteration records of accepted iterates, plus the outcome flag."""

    records: tuple[FlowRecord, ...]
    outcome: str

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
        e = [r.energy for r in self.records]
        return all(e[i + 1] <= e[i] for i in range(len(e) - 1))

    def first_below(self, level: float) -> int | None:
        """First iteration with ||mu|| <= level * (1 + energy), if any."""
        for r in self.records:
            if r.moment_norm <= level * (1.0 + r.energy):
                return r.iteration
        return None


def _energy(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, a).real + np.vdot(b, b).real)


def _moment(a: np.ndarray, b: np.ndarray, sl_mode: bool) -> np.ndarray:
    ah = a.conj().T
    bh = b.conj().T
    m = a @ ah - ah @ a + b @ bh - bh @ b
    m = 0.5 * (m + m.conj().T)
    # tr(mu) vanishes identically (it is a sum of commutator traces);
    # subtracting it anyway pins determinant drift to rounding noise.
    return _traceless(m) if sl_mode else m


def _traceless(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    return m - (np.trace(m).real / n) * np.eye(n)


def kn_energy(rep: Rep) -> float:
    """||A||^2 + ||B||^2 in the Hilbert-Schmidt norm."""
    return _energy(rep.A, rep.B)


def moment_map(rep: Rep, sl_mode: bool = False) -> np.ndarray:
    """mu = [A, A*] + [B, B*], Hermitian; zero exactly at minimal vectors.

    With sl_mode the trace component is projected out (a no-op up to
    rounding, kept to keep determinants pinned for special-linear runs).
    """
    return _moment(rep.A, rep.B, sl_mode)


def _hessian(a: np.ndarray, b: np.ndarray):
    """The energy's Hessian at the identity, as a map on Hermitian h.

    Along exp(th), d^2F/dt^2 = 4 sum_X ||[h, X]||^2 over X in {A, B}; its
    polarization is 4 Herm(sum_X [[h, X], X*]).  Expanded, that is
    2 (hP + Ph) - 4 sum_Y Y h Y* with P = sum_X (X X* + X* X) and Y over
    {A, A*, B, B*}; the sum is one product of the side-by-side Ys with the
    stacked h Y*s, so a product costs three matrix multiplications.
    """
    n = a.shape[0]
    ys = (a, a.conj().T, b, b.conj().T)
    y_row = np.concatenate(ys, axis=1)
    yh_row = np.concatenate([y.conj().T for y in ys], axis=1)
    pm = sum(x @ x.conj().T + x.conj().T @ x for x in (a, b))

    def apply(h: np.ndarray) -> np.ndarray:
        hy = (h @ yh_row).reshape(n, 4, n).transpose(1, 0, 2).reshape(4 * n, n)
        m = h @ pm - y_row @ hy
        return 2.0 * (m + m.conj().T)

    return apply


def _inner(h: np.ndarray, k: np.ndarray) -> float:
    """Re tr(h k) for Hermitian h, the metric of the Hermitian directions."""
    return float(np.vdot(h, k).real)


def _newton_direction(
    grad: np.ndarray, grad_norm: float, a: np.ndarray, b: np.ndarray, sl_mode: bool
) -> np.ndarray:
    """Truncated CG on Hess d = -grad, started at d = 0.

    Stops once the residual falls to min(1/2, sqrt|grad|) |grad| (the
    forcing term that makes the outer iteration superlinear), after n^2
    steps (the dimension of the Hermitian directions), or on non-positive
    curvature, where the first step falls back to -grad.  From zero, CG
    stays in the Hessian's range, so the stabilizer kernel (scalars, and
    block scalars of direct sums) never enters the solve.
    """
    hess = _hessian(a, b)
    forcing = min(0.5, math.sqrt(grad_norm)) * grad_norm
    d = np.zeros_like(grad)
    r = -grad
    p = r
    rr = grad_norm * grad_norm
    for k in range(a.shape[0] ** 2):
        hp = hess(p)
        curvature = _inner(p, hp)
        if not curvature > 0.0:
            if k == 0:
                d = r
            break
        alpha = rr / curvature
        d = d + alpha * p
        r = r - alpha * hp
        rr_next = _inner(r, r)
        if math.sqrt(rr_next) <= forcing:
            break
        p = r + (rr_next / rr) * p
        rr = rr_next
    # tr(d) vanishes up to rounding (mu and every Hessian product are
    # traceless); as in _moment, sl_mode pins it there.
    return _traceless(d) if sl_mode else d


def flow(rep: Rep, cfg: FlowConfig | None = None) -> tuple[Rep, FlowTrace]:
    """Drive a representation to the minimal-vector set by Newton-CG.

    Each iteration takes the truncated-CG Newton direction d of the energy
    at the current iterate (gradient 2 mu) and tries g = exp(eta d), from
    eta = eta0, accepting a trial when the energy drops by at least
    armijo * eta * (-<2 mu, d>) (the first-order decrease along d);
    otherwise eta shrinks by the factor shrink.  Stops when
    ||mu|| <= tol * (1 + energy) or the iteration budget runs out.
    Conjugation preserves the defining relation, so the residual is
    tracked, not corrected: every accepted iterate's residual is measured,
    in stacked blocks of _RESIDUAL_BLOCK iterates.
    """
    cfg = cfg or FlowConfig()
    p, q = rep.group.p, rep.group.q
    records: list[FlowRecord] = []
    # Accepted iterates whose residuals are not measured yet:
    # (A, B, (iteration, energy, moment_norm, step)).
    pending: list[tuple[np.ndarray, np.ndarray, tuple]] = []

    def measure():
        block = pending.copy()
        pending.clear()
        a_s, b_s, rows = zip(*block)
        res = residual(np.stack(a_s), np.stack(b_s), p, q).tolist()
        records.extend(FlowRecord(*row, r) for row, r in zip(rows, res))

    a = rep.A.copy()
    b = rep.B.copy()
    energy = _energy(a, b)
    mu = _moment(a, b, cfg.sl_mode)
    mu_norm = hs_norm(mu)
    # Near the minimum the true energy decrease per step falls below one
    # ulp of the energy itself; the recorded value is clamped to the
    # monotone envelope of the measurements (exact in the strict Armijo
    # regime, within one ulp in the tail regime below).
    recorded = energy
    # Smallest energy decrease distinguishable from the rounding noise of
    # the conjugation product chain (a few n ulps of the energy), per unit
    # of 1 + energy.
    resolution_unit = 128.0 * rep.n * _EPS
    outcome = ITER_BUDGET
    step_taken = 0.0
    it = 0
    try:
        while True:
            pending.append((a, b, (it, recorded, mu_norm, step_taken)))
            if len(pending) == _RESIDUAL_BLOCK:
                measure()
            if mu_norm <= cfg.tol * (1.0 + energy):
                outcome = CONVERGED
                break
            if it >= cfg.max_iter:
                break
            d = _newton_direction(2.0 * mu, 2.0 * mu_norm, a, b, cfg.sl_mode)
            try:
                w, v = np.linalg.eigh(d)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence("eigendecomposition of the Newton step failed") from exc
            vh = v.conj().T
            eta = cfg.eta0
            drop_rate = -2.0 * _inner(mu, d)
            resolution = resolution_unit * (1.0 + energy)
            # eigh sorts w ascending, so its largest modulus is at an end.
            w_max = max(abs(w[0]), abs(w[-1]))
            # Longer steps would overflow g and g^-1 in the product chain:
            # shrink past them before the trials, so that they use none of
            # the backtracks.  eta falls geometrically, so this ends.
            while eta * w_max > 60.0:
                eta *= cfg.shrink
            for _ in range(_MAX_BACKTRACKS):
                e = np.exp(eta * w)
                g = (v * e) @ vh
                gi = (v * (1.0 / e)) @ vh
                a2 = g @ a @ gi
                b2 = g @ b @ gi
                required = cfg.armijo * eta * drop_rate
                e2 = _energy(a2, b2)
                if required > resolution:
                    if e2 <= energy - required:
                        break
                elif e2 <= energy + resolution:
                    # Resolution-limited tail: the energy is numerically
                    # stationary, so progress is certified on the moment
                    # norm instead while the energy is held to measurement
                    # noise.
                    mu2 = _moment(a2, b2, cfg.sl_mode)
                    mu2_norm = hs_norm(mu2)
                    if mu2_norm < mu_norm:
                        break
                eta *= cfg.shrink
            else:
                break
            # The accepted trial's energy (and, in the tail, its moment)
            # is the next iterate's: the same arrays give the same floats.
            a, b, energy = a2, b2, e2
            if required > resolution:
                mu = _moment(a, b, cfg.sl_mode)
                mu_norm = hs_norm(mu)
            else:
                mu, mu_norm = mu2, mu2_norm
            recorded = min(energy, recorded)
            step_taken = eta
            it += 1
    finally:
        # Also on the way out of an exception, so that a singular earlier
        # iterate raises SingularMatrix as it would have when measured.
        if pending:
            measure()
    return Rep(rep.group, rep.n, a, b), FlowTrace(tuple(records), outcome)


@dataclass(frozen=True)
class MinimalityReport:
    passed: bool
    margin: float
    samples: int
    spread: float
    tol: float


def verify_minimal(
    rep: Rep,
    samples: int = 1000,
    spread: float = 2.0,
    tol: float = 1e-6,
    seed: int = 0,
) -> MinimalityReport:
    """Sampling refutation test of orbit-minimality.

    Draws group elements g = exp(s * H) with H random Hermitian of unit
    norm and s uniform in (0, spread], and reports the worst observed
    energy change kn_energy(g . rep) - kn_energy(rep).  PASS means no
    sampled direction decreased the energy by more than tol; this can
    refute minimality but never prove it.
    """
    if samples < 1 or spread <= 0:
        raise ValueError("samples must be >= 1 and spread positive")
    rng = np.random.Generator(np.random.Philox(seed))
    a, b = rep.A, rep.B
    e0 = _energy(a, b)
    worst = np.inf
    for _ in range(samples):
        h = random_hermitian(rng, rep.n)
        s = spread * (1.0 - rng.random())
        w, v = np.linalg.eigh(s * h)
        e = np.exp(w)
        g = (v * e) @ v.conj().T
        gi = (v * (1.0 / e)) @ v.conj().T
        worst = min(worst, _energy(g @ a @ gi, g @ b @ gi) - e0)
    return MinimalityReport(bool(worst >= -tol), float(worst), samples, spread, tol)
