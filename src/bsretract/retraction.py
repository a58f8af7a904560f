"""In-variety retraction of A onto its unitary polar factor.

Once B is unitary of finite order and A B A^-1 = B^j, the polar
decomposition A = U P forces [P, B] = 0 and U B U* = B^j (apply
uniqueness of the polar factors to A B = B^j A).  The scaling path
A_t = U P^t therefore satisfies A_t B^p A_t^-1 = U B^p U* = B^q for
every t: the whole path stays inside the representation variety, and at
t = 0 the representation is unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import census
from .bsrep import Rep, relation_residual
from .compactify import certify, detect_finite_order, normality_exponent
from .errors import STRUCTURAL_ERRORS, PipelineStageError, PolarObstruction
from .kempfness import FlowConfig, FlowTrace, flow, kn_energy
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


@dataclass(frozen=True)
class PathSample:
    t: float
    rep: Rep


@dataclass(frozen=True)
class RetractionPath:
    """Samples of the path t -> (U P^t, B), from t = 1 down to t = 0."""

    samples: tuple[PathSample, ...]
    order: int
    exponent: int

    @property
    def endpoint(self) -> Rep:
        return self.samples[-1].rep

    def max_residual(self) -> float:
        return max(relation_residual(s.rep) for s in self.samples)

    def rows(self) -> list[tuple[float, float, float]]:
        """(t, residual, unitarity defect of A) per sample, for CSV export."""
        return [
            (s.t, relation_residual(s.rep), unitarity_defect(s.rep.A))
            for s in self.samples
        ]


def retract_a(
    rep: Rep,
    num_samples: int = 100,
    *,
    unitary_tol: float = 1e-8,
    commute_tol: float = 1e-6,
    order: int | None = None,
    exponent: int | None = None,
) -> RetractionPath:
    """Polar-scaling path from A to its unitary factor, with B fixed.

    Requires B unitary within unitary_tol and of finite order, and A
    normalizing <B> (both are detected here when not supplied).  The
    positive factor must commute with B within commute_tol * ||P||;
    failure raises PolarObstruction and signals that the input is not
    actually a minimal vector with unitary B (e.g. a non-converged flow).
    """
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    b = rep.B
    defect = unitarity_defect(b)
    if not defect <= unitary_tol:
        raise ValueError(
            f"B is not unitary within {unitary_tol:.1e} (defect {defect:.3e}); "
            "conjugate into the unitary group first"
        )
    if order is None:
        moduli = census.order_moduli(rep.group.p, rep.group.q, rep.n)
        order = detect_finite_order(b, moduli, commute_tol)
    if exponent is None:
        exponent = normality_exponent(rep, commute_tol, order=order)
    u, p = polar(rep.A)
    comm = hs_norm(p @ b - b @ p)
    if not comm <= commute_tol * hs_norm(p):
        raise PolarObstruction(
            f"||[P, B]|| = {comm:.3e} exceeds {commute_tol:.1e} * ||P||"
        )
    w, v = np.linalg.eigh(0.5 * (p + p.conj().T))
    vh = v.conj().T
    samples = []
    for t in np.linspace(1.0, 0.0, num_samples):
        a_t = u @ ((v * w**t) @ vh)
        samples.append(PathSample(float(t), Rep(rep.group, rep.n, a_t, b)))
    return RetractionPath(tuple(samples), order, exponent)


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
    max_path_residual: float | None = None
    endpoint_residual: float | None = None
    endpoint_defect_a: float | None = None
    endpoint_defect_b: float | None = None
    eig_condition_a: float | None = None
    eig_condition_b: float | None = None
    flow_trace: FlowTrace | None = field(default=None, repr=False)
    retraction_path: "RetractionPath | None" = field(default=None, repr=False)

    def to_dict(self) -> dict:
        skip = ("flow_trace", "retraction_path")
        return {k: v for k, v in self.__dict__.items() if k not in skip}


def _eig_condition(a: np.ndarray) -> float:
    """Condition number of an eigenvector basis; large values flag
    nearly-defective (non-semisimple) matrices."""
    try:
        _, v = np.linalg.eig(a)
        return float(np.linalg.cond(v))
    except np.linalg.LinAlgError:
        return float("inf")


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
    diag.normality_exponent = cert.exponent
    stage, error = cert.failed_stage, cert.error
    if error is None:
        stage = "retract_a"
        try:
            path = retract_a(
                cert.unitary, num_samples, order=cert.order, exponent=cert.exponent
            )
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
    diag.endpoint_residual = relation_residual(endpoint)
    diag.endpoint_defect_a = unitarity_defect(endpoint.A)
    diag.endpoint_defect_b = unitarity_defect(endpoint.B)
    diag.eig_condition_a = _eig_condition(endpoint.A)
    diag.eig_condition_b = _eig_condition(endpoint.B)
    return endpoint, path, diag


def full_pipeline(
    rep: Rep,
    cfg: FlowConfig | None = None,
    *,
    num_samples: int = 100,
    snap_tol: float = 1e-6,
    input_tol: float = 1e-8,
) -> tuple[Rep | None, PipelineDiagnostics]:
    """Flow to a minimal vector, then certify and retract to a unitary point.

    Returns (endpoint, diagnostics).  A flow that exhausts its budget is
    a soft failure: the partial result is returned with outcome
    "iter_budget" and no exception.  Structural failures in later stages
    raise PipelineStageError with partial diagnostics attached.
    """
    res0 = relation_residual(rep)
    if not res0 <= input_tol:
        raise ValueError(
            f"input relation residual {res0:.3e} exceeds {input_tol:.1e}"
        )
    diag = PipelineDiagnostics(initial_residual=res0, initial_energy=kn_energy(rep))
    flowed, trace = flow(rep, cfg)
    diag.flow_trace = trace
    diag.flow_outcome = trace.outcome
    diag.flow_iterations = trace.iterations
    diag.final_energy = trace.records[-1].energy
    diag.final_moment_norm = trace.records[-1].moment_norm
    diag.final_residual = trace.records[-1].residual
    diag.max_flow_residual = trace.max_residual()
    diag.energy_monotone = trace.energy_monotone()
    if not trace.converged:
        diag.outcome = "iter_budget"
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
