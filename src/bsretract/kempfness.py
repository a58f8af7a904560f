"""Moment-map gradient flow onto the set of minimal vectors.

The conjugation orbit of (A, B) carries the energy F = ||A||^2 + ||B||^2.
Differentiating along exp(tH) for Hermitian H gives
dF/dt|_0 = 2 Re tr(H ([A, A*] + [B, B*])), so the gradient at the
identity is mu = [A, A*] + [B, B*] and the steepest-descent direction is
-mu.  Points with mu = 0 are exactly the minimal vectors on their orbit.
Unitary directions preserve F, so only Hermitian steps are taken.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class FlowConfig:
    """Tunables of the descent; defaults suit desk-scale problems."""

    tol: float = 1e-10
    max_iter: int = 10**5
    eta0: float = 0.1
    armijo: float = 0.5
    shrink: float = 0.5
    sl_mode: bool = False

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter <= 0 or self.eta0 <= 0:
            raise ValueError("tol, max_iter and eta0 must be positive")
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
    if sl_mode:
        # tr(mu) vanishes identically (it is a sum of commutator traces);
        # subtracting it anyway pins determinant drift to rounding noise.
        n = a.shape[0]
        m = m - (np.trace(m).real / n) * np.eye(n)
    return m


def kn_energy(rep: Rep) -> float:
    """||A||^2 + ||B||^2 in the Hilbert-Schmidt norm."""
    return _energy(rep.A, rep.B)


def moment_map(rep: Rep, sl_mode: bool = False) -> np.ndarray:
    """mu = [A, A*] + [B, B*], Hermitian; zero exactly at minimal vectors.

    With sl_mode the trace component is projected out (a no-op up to
    rounding, kept to keep determinants pinned for special-linear runs).
    """
    return _moment(rep.A, rep.B, sl_mode)


def flow(rep: Rep, cfg: FlowConfig | None = None) -> tuple[Rep, FlowTrace]:
    """Drive a representation to the minimal-vector set.

    Armijo backtracking on the step size: a step of size eta is accepted
    when the energy drops by at least armijo * eta * 2||mu||^2 (the
    first-order decrease of the descent direction); otherwise eta shrinks,
    and it resets to eta0 at every iteration.  Stops when
    ||mu|| <= tol * (1 + energy) or the iteration budget runs out.
    Conjugation preserves the defining relation, so the residual is
    tracked, not corrected.
    """
    cfg = cfg or FlowConfig()
    p, q = rep.group.p, rep.group.q
    a = rep.A.copy()
    b = rep.B.copy()
    records: list[FlowRecord] = []
    outcome = ITER_BUDGET
    step_taken = 0.0
    it = 0
    while True:
        mu = _moment(a, b, cfg.sl_mode)
        mu_norm = hs_norm(mu)
        energy = _energy(a, b)
        # Near the minimum the true energy decrease per step falls below
        # one ulp of the energy itself; the recorded value is clamped to
        # the monotone envelope of the measurements (exact in the strict
        # Armijo regime, within one ulp in the tail regime below).
        recorded = min(energy, records[-1].energy) if records else energy
        records.append(
            FlowRecord(it, recorded, mu_norm, step_taken, residual(a, b, p, q))
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
        eta = cfg.eta0
        drop_rate = 2.0 * mu_norm * mu_norm
        # Smallest energy decrease distinguishable from the rounding noise
        # of the conjugation product chain (a few n ulps of the energy).
        resolution = 128.0 * rep.n * np.finfo(float).eps * (1.0 + energy)
        w_max = float(np.max(np.abs(w)))
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            if eta * w_max > 60.0:
                # g and g^-1 would overflow the product chain; equivalent
                # to a rejected trial.
                eta *= cfg.shrink
                continue
            e = np.exp(-eta * w)
            g = (v * e) @ vh
            gi = (v * (1.0 / e)) @ vh
            a2 = g @ a @ gi
            b2 = g @ b @ gi
            required = cfg.armijo * eta * drop_rate
            e2 = _energy(a2, b2)
            if required > resolution:
                if e2 <= energy - required:
                    accepted = True
                    break
            else:
                # Resolution-limited tail: the energy is numerically
                # stationary, so progress is certified on the moment norm
                # instead while the energy is held to measurement noise.
                if e2 <= energy + resolution:
                    if hs_norm(_moment(a2, b2, cfg.sl_mode)) < mu_norm:
                        accepted = True
                        break
            eta *= cfg.shrink
        if not accepted:
            break
        a, b = a2, b2
        step_taken = eta
        it += 1
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
