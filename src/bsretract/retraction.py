"""In-variety retraction of A onto its unitary polar factor.

`retract_a(rep, num_samples=100)` samples the scaling path A_t = U P^t of
A = U P from t = 1 down to t = 0 with B fixed; at t = 0 the
representation is unitary.  It needs B unitary and [P, B] = 0, checks
both, and its docstring gives why the path then stays in the variety.
Both hold at a point that `certify` has unitarized: A B A^-1 = B^j there,
and uniqueness of the polar factors in A B = B^j A gives [P, B] = 0.  The
order and the normality exponent come from `certify` alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bsrep import REP_TOL, BSGroup, Rep, relation_residual, residual
from .compactify import certify
from .errors import STRUCTURAL_ERRORS, PipelineStageError, PolarObstruction
from .kempfness import FlowConfig, FlowTrace, flow
from .numerics import hs_norm, polar, unitarity_defect

__all__ = [
    "RetractionPath",
    "PathSample",
    "retract_a",
    "certify_and_retract",
    "full_pipeline",
    "PipelineDiagnostics",
    "verify_unitary_rep",
]

#: Largest unitarity defect ||B* B - I|| that retract_a accepts.
UNITARY_TOL = 1e-8
#: Largest ||[P, B]|| / ||P|| that retract_a accepts.
COMMUTE_TOL = 1e-6


@dataclass(frozen=True)
class PathSample:
    t: float
    rep: Rep


@dataclass(frozen=True, eq=False)
class RetractionPath:
    """The path t -> (U P^t, B) sampled from t = 1 down to t = 0, stored as
    the stack A[i] = A_{t[i]} of shape (k, n, n) with B fixed."""

    t: np.ndarray
    A: np.ndarray
    B: np.ndarray
    group: BSGroup

    def __post_init__(self):
        k, n = len(self.t), self.B.shape[0]
        if self.A.shape != (k, n, n):
            raise ValueError(f"path stack shape {self.A.shape} does not match {(k, n, n)}")
        if not np.all(np.isfinite(self.A.view(np.float64))):
            raise ValueError("matrix has non-finite entries")

    @property
    def samples(self) -> Sequence[PathSample]:
        return _PathSamples(self)

    @property
    def endpoint(self) -> Rep:
        return Rep(self.group, self.B.shape[0], self.A[-1], self.B)

    @cached_property
    def residuals(self) -> np.ndarray:
        """Relation residual of every sample, measured once in one batched
        pass on first access; read-only, as every reader shares it."""
        res = residual(self.A, self.B, self.group.p, self.group.q)
        res.flags.writeable = False
        return res

    def max_residual(self) -> float:
        """Largest sample residual; NaN if any residual is NaN."""
        return float(np.max(self.residuals))

    def rows(self) -> list[tuple[float, float, float]]:
        """(t, residual, unitarity defect of A) per sample, for CSV export."""
        return list(zip(self.t.tolist(), self.residuals.tolist(),
                        unitarity_defect(self.A).tolist()))


class _PathSamples(Sequence):
    """The samples of a path, each built from its slice of the stack on
    access."""

    def __init__(self, path: RetractionPath):
        self._path = path

    def __len__(self) -> int:
        return len(self._path.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        path = self._path
        rep = Rep(path.group, path.B.shape[0], path.A[i], path.B)
        return PathSample(float(path.t[i]), rep)


def retract_a(rep: Rep, num_samples: int = 100) -> RetractionPath:
    """Polar-scaling path from A to its unitary factor, with B fixed.

    Precondition, both parts checked: B is unitary within UNITARY_TOL,
    and the positive factor of A = U P commutes with B within
    COMMUTE_TOL * ||P||.  Then A_t = U P^t gives A_t B^p A_t^-1 =
    U B^p U* = A B^p A^-1 = B^q for every t, so each sample satisfies the
    relation whenever rep does.  A non-unitary B raises ValueError; a
    non-commuting P raises PolarObstruction, which signals that the input
    is not a certified minimal vector (e.g. a non-converged flow).
    """
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    b = rep.B
    defect = unitarity_defect(b)
    if not defect <= UNITARY_TOL:
        raise ValueError(
            f"B is not unitary within {UNITARY_TOL:.1e} (defect {defect:.3e}); "
            "conjugate into the unitary group first"
        )
    u, p = polar(rep.A)
    comm = hs_norm(p @ b - b @ p)
    if not comm <= COMMUTE_TOL * hs_norm(p):
        raise PolarObstruction(
            f"||[P, B]|| = {comm:.3e} exceeds {COMMUTE_TOL:.1e} * ||P||"
        )
    w, v = np.linalg.eigh(0.5 * (p + p.conj().T))
    t = np.linspace(1.0, 0.0, num_samples)
    # numpy raises an array to the scalar power 0.5 by sqrt, which can round
    # differently from pow: take sqrt at t = 1/2 too, so that every slice
    # is u v diag(w ** t) v* for its own scalar t.
    wt = np.where(t[:, None] == 0.5, np.sqrt(w), w ** t[:, None])
    a = u @ ((v * wt[:, None, :]) @ v.conj().T)
    return RetractionPath(t, a, b, rep.group)


@dataclass
class PipelineDiagnostics:
    """Everything a run certifies, JSON-ready via to_dict()."""

    outcome: str = "ok"
    failed_stage: str | None = None
    error: str | None = None
    flow_outcome: str | None = None
    flow_iterations: int | None = None
    initial_energy: float | None = None
    final_energy: float | None = None
    final_moment_norm: float | None = None
    initial_residual: float | None = None
    final_residual: float | None = None
    max_flow_residual: float | None = None
    energy_monotone: bool | None = None
    detected_order: int | None = None
    order_bound: int | None = None
    normality_exponent: int | None = None
    kappa_invariance_defect: float | None = None
    eig_condition: float | None = None
    max_path_residual: float | None = None
    endpoint_residual: float | None = None
    endpoint_defect_a: float | None = None
    endpoint_defect_b: float | None = None
    flow_trace: FlowTrace | None = field(default=None, repr=False)
    retraction_path: "RetractionPath | None" = field(default=None, repr=False)

    def to_dict(self) -> dict:
        skip = ("flow_trace", "retraction_path")
        return {k: v for k, v in self.__dict__.items() if k not in skip}


def certify_and_retract(
    rep: Rep,
    *,
    snap_tol: float = 1e-6,
    num_samples: int = 100,
    diag: PipelineDiagnostics | None = None,
) -> tuple[Rep, RetractionPath, PipelineDiagnostics]:
    """Post-flow stages: certification (order, invariant form,
    unitarization, normality exponent) and polar retraction.  Stage
    errors are raised as PipelineStageError carrying the partial
    diagnostics."""
    diag = diag or PipelineDiagnostics()
    cert = certify(rep, snap_tol)
    diag.order_bound = cert.order_bound
    diag.detected_order = cert.order
    diag.kappa_invariance_defect = cert.invariance_defect
    diag.eig_condition = cert.eig_condition
    diag.normality_exponent = cert.exponent
    stage, error = cert.failed_stage, cert.error
    if error is None:
        stage = "retract_a"
        try:
            path = retract_a(cert.unitary, num_samples)
        except STRUCTURAL_ERRORS as exc:
            error = exc
    if error is not None:
        diag.outcome = "structural_failure"
        diag.failed_stage = stage
        diag.error = f"{type(error).__name__}: {error}"
        raise PipelineStageError(stage, diag, str(error)) from error
    endpoint = path.endpoint
    diag.retraction_path = path
    diag.max_path_residual = path.max_residual()
    diag.endpoint_residual = float(path.residuals[-1])
    diag.endpoint_defect_a = unitarity_defect(endpoint.A)
    diag.endpoint_defect_b = unitarity_defect(endpoint.B)
    return endpoint, path, diag


def full_pipeline(
    rep: Rep,
    cfg: FlowConfig | None = None,
    *,
    num_samples: int = 100,
    snap_tol: float = 1e-6,
) -> tuple[Rep | None, PipelineDiagnostics]:
    """Flow to a minimal vector, then certify and retract to a unitary point.

    The input's relation residual must be at most bsrep.REP_TOL, else
    ValueError.  Returns (endpoint, diagnostics).  A flow that does not
    converge is a soft failure: the partial result is returned, with the
    flow's outcome ("iter_budget" or "line_search_stalled") as the
    outcome, and no exception.  Structural failures in later stages
    raise PipelineStageError with partial diagnostics attached.
    """
    res0 = relation_residual(rep)
    if not res0 <= REP_TOL:
        raise ValueError(
            f"input relation residual {res0:.3e} exceeds {REP_TOL:.1e}"
        )
    diag = PipelineDiagnostics(initial_residual=res0)
    flowed, trace = flow(rep, cfg)
    diag.flow_trace = trace
    diag.initial_energy = trace.records[0].energy
    diag.flow_outcome = trace.outcome
    diag.flow_iterations = trace.iterations
    diag.final_energy = trace.records[-1].energy
    diag.final_moment_norm = trace.records[-1].moment_norm
    diag.final_residual = trace.records[-1].residual
    diag.max_flow_residual = trace.max_residual()
    diag.energy_monotone = trace.energy_monotone()
    if not trace.converged:
        diag.outcome = trace.outcome
        return flowed, diag
    endpoint, _, diag = certify_and_retract(
        flowed, snap_tol=snap_tol, num_samples=num_samples, diag=diag
    )
    return endpoint, diag


def verify_unitary_rep(rep: Rep, tol: float = 1e-8) -> bool:
    """True iff both generators are unitary and the relation holds, all
    within tol."""
    if not unitarity_defect(rep.A) <= tol:
        return False
    if not unitarity_defect(rep.B) <= tol:
        return False
    return relation_residual(rep) <= tol
