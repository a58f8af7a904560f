"""In-variety retraction of A onto its unitary polar factor.

`retract_a(rep, num_samples)` samples the scaling path A_t = U P^t of
A = U P from t = 1 down to t = 0 with B fixed; at t = 0 the
representation is unitary.  It needs B unitary and [P, B] = 0, checks
both, and its docstring gives why the path then stays in the variety.
Both hold at a point that `certify` has unitarized: A B A^-1 = B^j there,
and uniqueness of the polar factors in A B = B^j A gives [P, B] = 0.  The
order and the normality exponent come from `certify` alone.

`full_pipeline` is the one body of the stages: flow, then certify and
retract the flowed point.  A point that is already minimal takes the same
body; its flow stops at iteration 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bsrep import BSGroup, Rep, check_residual, relation_residual
from .compactify import SNAP_TOL, UNITARY_TOL, certify
from .errors import STRUCTURAL_ERRORS, PipelineStageError, PolarObstruction, SingularMatrix
from .kempfness import FlowConfig, FlowTrace, flow
from .numerics import PolarFactors, hs_norm, polar, unitarity_defect

__all__ = [
    "RetractionPath",
    "retract_a",
    "full_pipeline",
    "PipelineDiagnostics",
    "verify_unitary_rep",
    "NUM_SAMPLES",
]

#: Default number of samples of a retraction path, t = 1 down to t = 0.
NUM_SAMPLES = 100

#: Largest ||[P, B]|| / ||P|| that retract_a accepts.
COMMUTE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class RetractionPath(Sequence):
    """The path t -> (U P^t, B) of A = U P sampled from t = 1 down to t = 0,
    with B fixed, kept as the SVD A = W diag(s) Vh of `polar` and the table
    `st` of s^t at every sample time.  The path is the sequence of its
    samples: path[i] is the Rep (W diag(st[i]) Vh, B), built as it is
    read.  The residuals are measured in that SVD's basis; the (k, n, n)
    stack of every sample is built only by rows()."""

    t: np.ndarray
    B: np.ndarray
    group: BSGroup
    factors: PolarFactors
    #: B in the basis of A's right singular vectors, Vh B Vh*.
    _bt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w, s, vh = self.factors.w, self.factors.s, self.factors.vh
        n = len(s)
        if self.B.shape != (n, n) or w.shape != (n, n) or vh.shape != (n, n):
            raise ValueError(f"factor shapes {w.shape}, {s.shape}, {vh.shape} "
                             f"do not match B of shape {self.B.shape}")
        object.__setattr__(self, "_bt", vh @ self.B @ vh.conj().T)

    @cached_property
    def st(self) -> np.ndarray:
        """s^t for every sample time, shape (k, n); read-only, as every
        reader shares it.  numpy raises an array to the scalar power 0.5 by
        sqrt, which can round differently from pow: a row at t = 1/2 takes
        sqrt too, so that every row is s ** t for its own scalar t."""
        t, s = self.t[:, None], self.factors.s
        st = np.where(t == 0.5, np.sqrt(s), s**t)
        st.flags.writeable = False
        return st

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        a = (self.factors.w * self.st[i]) @ self.factors.vh
        return Rep(self.group, self.B.shape[0], a, self.B)

    @property
    def samples(self) -> RetractionPath:
        """The path itself, the sequence of its samples."""
        return self

    @property
    def endpoint(self) -> Rep:
        """The unitary end (U, B) with U = W Vh, which is the last sample
        when the path ends at t = 0, as every path of retract_a does."""
        return Rep(self.group, self.B.shape[0], self.factors.u, self.B)

    @cached_property
    def residuals(self) -> np.ndarray:
        """||A_t B^p A_t^-1 - B^q|| of every sample, measured once on first
        access; read-only, as every reader shares it.

        With B~ = Vh B Vh*, O = Vh W and D_t = diag(s^t),
        A_t B^p A_t^-1 - B^q = W (D_t B~^p D_t^-1 - O* B~^q O) W*, and the
        Hilbert-Schmidt norm is unitarily invariant: each residual is
        ||(s_i / s_j)^t (B~^p)_ij - (O* B~^q O)_ij||.  That is O(n^3) work
        once and O(k n^2) elementwise, and the stack is never formed.
        """
        vh, bt = self.factors.vh, self._bt
        try:
            bp = np.linalg.matrix_power(bt, self.group.p)
            bq = np.linalg.matrix_power(bt, self.group.q)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("singular B in the path residual") from exc
        o = vh @ self.factors.w
        st = self.st
        k, n = st.shape
        # Each sample's n^2 entries as one flat row, so that every
        # elementwise loop runs over n^2 entries, not n.
        diff = (st[:, :, None] / st[:, None, :]).reshape(k, n * n) * bp.ravel()
        diff -= (o.conj().T @ bq @ o).ravel()
        res = hs_norm(diff.reshape(k, n, n))
        res.flags.writeable = False
        return res

    def max_residual(self) -> float:
        """Largest sample residual; NaN if any residual is NaN."""
        return float(np.max(self.residuals))

    def rows(self) -> list[tuple[float, float, float]]:
        """(t, residual, unitarity defect of A_t) per sample, for CSV
        export; the defects read the stack of every sample, built here and
        not kept."""
        stack = (self.factors.w * self.st[:, None, :]) @ self.factors.vh
        return list(zip(self.t.tolist(), self.residuals.tolist(),
                        unitarity_defect(stack).tolist()))


@lru_cache(maxsize=8, typed=True)
def _sample_times(num_samples: int) -> np.ndarray:
    """num_samples times evenly spaced from 1 down to 0; read-only, as
    every path with that many samples shares the array."""
    t = np.linspace(1.0, 0.0, num_samples)
    t.flags.writeable = False
    return t


def retract_a(rep: Rep, num_samples: int = NUM_SAMPLES) -> RetractionPath:
    """Polar-scaling path from A to its unitary factor, with B fixed.

    Precondition, both parts checked: B is unitary within UNITARY_TOL,
    and the positive factor of A = U P commutes with B within
    COMMUTE_TOL * ||P||.  Then A_t = U P^t gives A_t B^p A_t^-1 =
    U B^p U* = A B^p A^-1 = B^q for every t, so each sample satisfies the
    relation whenever rep does.  A non-unitary B raises ValueError; a
    non-commuting P raises PolarObstruction, which signals that the input
    is not a certified minimal vector (e.g. a non-converged flow).

    The commutator is measured in the basis of A's SVD A = W diag(s) Vh,
    as the path measures its residuals: with B~ = Vh B Vh*,
    ||[P, B]|| = ||(s_i - s_j) B~_ij|| and ||P|| = ||s||.
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
    path = RetractionPath(_sample_times(num_samples), b, rep.group, polar(rep.A))
    s = path.factors.s
    comm = hs_norm((s[:, None] - s[None, :]) * path._bt)
    if not comm <= COMMUTE_TOL * hs_norm(s):
        raise PolarObstruction(
            f"||[P, B]|| = {comm:.3e} exceeds {COMMUTE_TOL:.1e} * ||P||"
        )
    return path


@dataclass
class PipelineDiagnostics:
    """Everything a run certifies, JSON-ready via to_dict()."""

    outcome: str = "ok"
    failed_stage: str | None = None
    error: str | None = None
    flow_outcome: str | None = None
    flow_iterations: int | None = None
    flow_hessian_products: int | None = None
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


def full_pipeline(
    rep: Rep,
    cfg: FlowConfig | None = None,
    *,
    num_samples: int = NUM_SAMPLES,
    snap_tol: float = SNAP_TOL,
) -> tuple[Rep | None, PipelineDiagnostics]:
    """Flow to a minimal vector, then certify (order, invariant form,
    unitarization, normality exponent) and retract to a unitary point.

    The input's relation residual, measured once and kept as
    diagnostics.initial_residual, must pass bsrep.check_residual, else
    ValueError.  Returns (endpoint, diagnostics).  A flow that does not
    converge is a soft failure: the partial result is returned, with the
    flow's outcome ("iter_budget" or "line_search_stalled") as the
    outcome, and no exception.  Structural failures in later stages
    raise PipelineStageError with partial diagnostics attached.  The path
    is diagnostics.retraction_path.
    """
    res0 = relation_residual(rep)
    check_residual(res0)
    diag = PipelineDiagnostics(initial_residual=res0)
    flowed, trace = flow(rep, cfg, initial_residual=res0)
    diag.flow_trace = trace
    diag.initial_energy = trace.records[0].energy
    diag.flow_outcome = trace.outcome
    diag.flow_iterations = trace.iterations
    diag.flow_hessian_products = trace.hessian_products
    diag.final_energy = trace.records[-1].energy
    diag.final_moment_norm = trace.records[-1].moment_norm
    diag.final_residual = trace.records[-1].residual
    diag.max_flow_residual = trace.max_residual()
    diag.energy_monotone = trace.energy_monotone()
    if not trace.converged:
        diag.outcome = trace.outcome
        return flowed, diag
    cert = certify(flowed, snap_tol)
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
    # The endpoint's B is the unitarized B that certify measured.
    diag.endpoint_defect_b = cert.unitarity_defect
    return endpoint, diag


def verify_unitary_rep(rep: Rep, tol: float = UNITARY_TOL) -> bool:
    """True iff both generators are unitary and the relation holds, all
    within tol."""
    if not unitarity_defect(rep.A) <= tol:
        return False
    if not unitarity_defect(rep.B) <= tol:
        return False
    return relation_residual(rep) <= tol
