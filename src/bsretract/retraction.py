"""In-variety retraction of A onto its unitary polar factor.

`retract_a(rep, num_samples)` gives the scaling path A_t = U P^t of
A = U P from t = 1 down to t = 0 with B fixed; at t = 0 the
representation is unitary.  It needs B unitary, checks it, and accepts
the path only when one closed-form upper bound on its relation residual
over every t in [0, 1] (`residual_bound`) is within the run's
`residual_budget`; its docstring gives why the path stays in the variety
when [P, B] = 0.  That holds at a point that `certify` has unitarized:
A B A^-1 = B^j there, and uniqueness of the polar factors in
A B = B^j A gives [P, B] = 0.  The order and the normality exponent come
from `certify` alone.  `rows()` measures num_samples samples of the path
for the path CSV alone.

`full_pipeline` is the one body of the stages: flow, then certify and
retract the flowed point.  A point that is already minimal takes the same
body; its flow stops at iteration 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsrep import BSGroup, Rep, check_residual, relation_residual
from .compactify import SNAP_TOL, UNITARY_TOL, certify
from .errors import BsretractError, PipelineStageError, PolarObstruction, SingularMatrix
from .kempfness import FlowConfig, FlowTrace, flow
from .numerics import (PolarFactors, finite_positive, hs_norm, json_int, polar,
                       unitarity_defect)

__all__ = [
    "RetractionPath",
    "retract_a",
    "full_pipeline",
    "PipelineDiagnostics",
    "verify_unitary_rep",
    "residual_budget",
    "NUM_SAMPLES",
]

#: Default number of samples of a retraction path, t = 1 down to t = 0.
NUM_SAMPLES = 100

_EPS = float(np.finfo(float).eps)


def residual_budget(initial_residual: float) -> float:
    """1e-8 + 10 * initial_residual: the largest relation residual that a
    run from an input of that residual may reach, at any iterate of its
    flow and at any t of its retraction path.  retract_a accepts a path
    only within it, and suite.check_flow and suite.check_pipeline check
    against it."""
    return 1e-8 + 10.0 * initial_residual


@dataclass(frozen=True, eq=False)
class RetractionPath:
    """The path t -> (U P^t, B) of A = U P from t = 1 down to t = 0, with B
    fixed, kept as the SVD A = W diag(s) Vh of `polar`.  The constructor
    measures, once, the two sides of the relation in the SVD basis,
    `endpoint_residual` and `residual_bound`, which bounds the residual
    over every t in [0, 1]; the pipeline reads those and `endpoint`.
    `rows()` measures num_samples samples of the path, evenly spaced in
    t, for the path CSV.

    With B~ = Vh B Vh*, O = Vh W and D_t = diag(s^t),
    A_t B^p A_t^-1 - B^q = W (D_t B~^p D_t^-1 - O* B~^q O) W*, and the
    Hilbert-Schmidt norm is unitarily invariant, so the residual at time
    t is ||(s_i / s_j)^t (B~^p)_ij - (O* B~^q O)_ij||.  endpoint_residual
    is ||R_0|| with R_0 = B~^p - O* B~^q O, the residual of `endpoint`
    (t = 0, where s^t is 1); it has the bits of the last row's.

    residual_bound is NaN if a factor is NaN.  With S_ij = s_i / s_j, the
    residual at t is ||R_0 + (S^t - 1) o B~^p|| (o the entrywise product),
    and |r^t - 1| <= |r - 1| for r > 0 and t in [0, 1], so it is at most
    ||R_0|| + ||(S - 1) o B~^p||.  Where P commutes with B, B~^p vanishes
    wherever s_i != s_j, and the bound is the endpoint's residual.  To that
    it adds the rounding of a computed sample and of the bound's own
    terms: a few roundings of relative size eps per entry, and the sum of
    n^2 squares in each norm, at most (n^2 + 10) eps times the size of
    the terms."""

    num_samples: int
    B: np.ndarray
    group: BSGroup
    factors: PolarFactors
    _sides: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    endpoint_residual: float = field(init=False)
    residual_bound: float = field(init=False)

    def __post_init__(self):
        num_samples = json_int(self.num_samples, "num_samples", 2)
        w, s, vh = self.factors.w, self.factors.s, self.factors.vh
        n = len(s)
        if self.B.shape != (n, n) or w.shape != (n, n) or vh.shape != (n, n):
            raise ValueError(f"factor shapes {w.shape}, {s.shape}, {vh.shape} "
                             f"do not match B of shape {self.B.shape}")
        bt = vh @ self.B @ vh.conj().T
        try:
            bp = np.linalg.matrix_power(bt, self.group.p)
            bq = np.linalg.matrix_power(bt, self.group.q)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("singular B in the path residual") from exc
        o = vh @ w
        c = o.conj().T @ bq @ o
        residual = hs_norm(bp - c)
        bound = residual + hs_norm((s[:, None] / s[None, :] - 1.0) * bp)
        bound += (n**2 + 10) * _EPS * (bound + hs_norm(bp) + hs_norm(c))
        object.__setattr__(self, "num_samples", num_samples)
        object.__setattr__(self, "_sides", (bp, c))
        object.__setattr__(self, "endpoint_residual", residual)
        object.__setattr__(self, "residual_bound", bound)

    @property
    def endpoint(self) -> Rep:
        """The unitary end (U, B) with U = W Vh, the sample at t = 0."""
        return Rep(self.group, self.B.shape[0], self.factors.u, self.B)

    def rows(self) -> list[tuple[float, float, float]]:
        """(t, residual, unitarity defect of A_t) for t evenly spaced from
        1 down to 0, for CSV export.  Each sample is built and measured on
        its own, A_t = W diag(s ** t) Vh with numpy's scalar power (sqrt
        at t = 1/2)."""
        (bp, c), f = self._sides, self.factors
        rows = []
        for t in np.linspace(1.0, 0.0, self.num_samples).tolist():
            st = f.s**t
            res = hs_norm((st[:, None] / st[None, :]) * bp - c)
            rows.append((t, res, unitarity_defect((f.w * st) @ f.vh)))
        return rows


def retract_a(rep: Rep, num_samples: int = NUM_SAMPLES, *,
              budget: float = residual_budget(0.0)) -> RetractionPath:
    """Polar-scaling path from A to its unitary factor, with B fixed.

    Precondition, both parts checked: B is unitary within UNITARY_TOL,
    and the path's residual_bound, which bounds the relation residual at
    every t in [0, 1], is within budget.  The default is
    residual_budget(0.0), the budget of an input on the variety;
    full_pipeline passes its input's, residual_budget(initial_residual).
    Where the positive factor of A = U P commutes with B, A_t = U P^t
    gives A_t B^p A_t^-1 = U B^p U* = A B^p A^-1 = B^q for every t, so
    each sample satisfies the relation whenever rep does and the bound is
    the endpoint's residual; a P that does not commute adds
    ||(S - 1) o B~^p|| to it.  A non-unitary B raises ValueError; a bound
    past the budget, NaN included, raises PolarObstruction, which signals
    that the input is not a certified minimal vector (e.g. a non-converged
    flow, or a B that is near a Jordan block).  num_samples is kept as a
    number: only `rows()` reads it, and the path refuses, with
    ValueError, one that is not an integer of at least 2.
    """
    b = rep.B
    defect = unitarity_defect(b)
    if not defect <= UNITARY_TOL:
        raise ValueError(
            f"B is not unitary within {UNITARY_TOL:.1e} (defect {defect:.3e}); "
            "conjugate into the unitary group first"
        )
    path = RetractionPath(num_samples, b, rep.group, polar(rep.A))
    if not path.residual_bound <= budget:
        raise PolarObstruction(
            f"path residual bound {path.residual_bound:.3e} exceeds the budget {budget:.3e}"
        )
    return path


@dataclass
class PipelineDiagnostics:
    """Everything a run certifies, JSON-ready via to_dict().

    The flow is recorded once, as flow_trace: to_dict() reads its keys
    (flow_outcome, flow_iterations, ..., energy_monotone) from the trace.
    max_path_residual is RetractionPath.residual_bound, an upper bound on
    the relation residual at every point of the retraction path, not a
    maximum over its samples; endpoint_residual is the residual at t = 0.
    eig_condition and form_condition are the certificate's condition
    numbers of B's eigenvector basis and of the invariant form Q.
    """

    flow_trace: FlowTrace = field(repr=False)
    outcome: str = "ok"
    failed_stage: str | None = None
    error: str | None = None
    initial_residual: float | None = None
    detected_order: int | None = None
    order_bound: int | None = None
    normality_exponent: int | None = None
    kappa_invariance_defect: float | None = None
    eig_condition: float | None = None
    form_condition: float | None = None
    max_path_residual: float | None = None
    endpoint_residual: float | None = None
    endpoint_defect_a: float | None = None
    endpoint_defect_b: float | None = None
    retraction_path: "RetractionPath | None" = field(default=None, repr=False)

    def to_dict(self) -> dict:
        t, skip = self.flow_trace, ("flow_trace", "retraction_path")
        first, last = t.records[0], t.records[-1]
        return {
            "flow_outcome": t.outcome, "flow_iterations": t.iterations,
            "flow_hessian_products": t.hessian_products, "flow_warm_start": t.warm_start,
            "initial_energy": first.energy, "final_energy": last.energy,
            "final_moment_norm": last.moment_norm, "final_residual": last.residual,
            "max_flow_residual": t.max_residual(), "energy_monotone": t.energy_monotone(),
            **{k: v for k, v in self.__dict__.items() if k not in skip},
        }


def full_pipeline(
    rep: Rep,
    cfg: FlowConfig | None = None,
    *,
    num_samples: int = NUM_SAMPLES,
    snap_tol: float = SNAP_TOL,
) -> tuple[Rep | None, PipelineDiagnostics]:
    """Flow to a minimal vector, then certify (order, invariant form,
    unitarization, normality exponent) and retract to a unitary point.

    A num_samples that is not an integer of at least 2, or a snap_tol
    that is not finite and positive, raises ValueError before the flow
    runs.  The input's relation residual, measured once and kept as
    diagnostics.initial_residual, must pass bsrep.check_residual, else
    ValueError.  Returns (endpoint, diagnostics).  A flow that does not
    converge is a soft failure: the partial result is returned, with the
    flow's outcome ("iter_budget" or "line_search_stalled") as the
    outcome, and no exception.  A BsretractError that a later stage
    (certify's or retract_a) raises ends the run in PipelineStageError,
    naming that stage, with partial diagnostics attached; retract_a
    raises unless the path's residual_bound is within
    residual_budget(initial_residual), the bound check_pipeline applies.
    The path is diagnostics.retraction_path; num_samples sets only the
    number of its rows(), which the pipeline does not read:
    diagnostics.max_path_residual is the path's residual_bound over every
    t in [0, 1].  The certificate's fields reach the diagnostics through
    Certificate.report(), as they reach the verify report.
    """
    json_int(num_samples, "num_samples", 2)
    finite_positive(snap_tol, "snap_tol")
    res0 = relation_residual(rep)
    check_residual(res0)
    flowed, trace = flow(rep, cfg, initial_residual=res0)
    if not trace.converged:
        return flowed, PipelineDiagnostics(trace, trace.outcome, initial_residual=res0)
    cert = certify(flowed, snap_tol)
    diag = PipelineDiagnostics(trace, initial_residual=res0, **cert.report())
    stage, error = cert.failed_stage, cert.error
    if error is None:
        stage = "retract_a"
        try:
            path = retract_a(cert.unitary, num_samples, budget=residual_budget(res0))
        except BsretractError as exc:
            error = exc
    if error is not None:
        diag.outcome = "structural_failure"
        diag.failed_stage = stage
        diag.error = f"{type(error).__name__}: {error}"
        raise PipelineStageError(stage, diag, str(error)) from error
    endpoint = path.endpoint
    diag.retraction_path = path
    diag.max_path_residual = path.residual_bound
    diag.endpoint_residual = path.endpoint_residual
    diag.endpoint_defect_a = unitarity_defect(endpoint.A)
    # The endpoint's B is the unitarized B that certify measured.
    diag.endpoint_defect_b = cert.unitarity_defect
    return endpoint, diag


def verify_unitary_rep(rep: Rep, tol: float = UNITARY_TOL) -> bool:
    """True iff both generators are unitary and the relation holds, all
    within tol; a tol that is not finite and positive raises ValueError."""
    tol = finite_positive(tol, "tol")
    if not unitarity_defect(rep.A) <= tol:
        return False
    if not unitarity_defect(rep.B) <= tol:
        return False
    return relation_residual(rep) <= tol
