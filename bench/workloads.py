"""Workloads of the benchmark: their cells, set-up, the timed library calls
of one cell, and the per-cell correctness checks.

A cell is one (p, q, n, seed) input.  Set-up builds every cell's input
with `random_rep` (and, for `certify_wide`, flows it to its minimal
vector); the timed part of a cell calls only `flow` or `full_pipeline`.
The checks are the invariants of the suite's `run_one` and run outside
the timed span.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import bsretract as bs
from bsretract.errors import PipelineStageError

#: The suite's flow settings (the CLI defaults).
FLOW_CFG = bs.FlowConfig(tol=1e-10, max_iter=10**5)
NUM_SAMPLES = 100
SNAP_TOL = 1e-6
UNITARY_TOL = 1e-8
IDEMPOTENCE_TOL = 1e-9

GRID = "grid"
FLOW_WIDE = "flow_wide"
CERTIFY_WIDE = "certify_wide"

_BASE_PAIRS = ((1, 2), (2, 3), (1, 3), (2, 5), (3, 5))


@dataclass(frozen=True)
class Workload:
    pairs: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    seeds: int


WORKLOADS = {
    # The acceptance grid: full pipeline plus the idempotence rerun on
    # tiny matrices, where per-call overhead dominates.
    GRID: Workload(
        tuple((sp * p, sq * q) for p, q in _BASE_PAIRS for sp in (1, -1) for sq in (1, -1)),
        (1, 2, 3, 4),
        10,
    ),
    # The flow alone at larger n: the Kempf-Ness descent is all the work.
    FLOW_WIDE: Workload(
        ((1, 2), (-1, 2), (2, 3), (2, -3), (1, 3), (-1, 3)), (8, 10, 12), 18
    ),
    # Certification of already-minimal inputs whose orders reach the
    # thousands, so the O(order) parts of compactify dominate.
    CERTIFY_WIDE: Workload(_BASE_PAIRS, (5, 6, 7, 8), 24),
}


def derive_seed(base_seed: int, p: int, q: int, n: int, index: int) -> int:
    """The suite's per-cell seed formula; base seed 0 gives the acceptance grid."""
    key = f"{base_seed}:{p}:{q}:{n}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


@dataclass(frozen=True)
class Cell:
    cell_id: str
    p: int
    q: int
    n: int
    seed: int
    rep: bs.Rep
    res0: float


def cells_of(workload: str, base_seed: int):
    """(id, p, q, n, seed) of every cell, in the suite's order."""
    w = WORKLOADS[workload]
    return [
        (f"{p}:{q}:{n}:{i}", p, q, n, derive_seed(base_seed, p, q, n, i))
        for p, q in w.pairs
        for n in w.dims
        for i in range(w.seeds)
    ]


def set_up(workload: str, base_seed: int, after_cell=None) -> list[Cell]:
    """Build every cell's input: census (inside random_rep), draw, and for
    certify_wide the flow to a minimal vector.  `after_cell` is called
    after each cell."""
    cells = []
    for cell_id, p, q, n, seed in cells_of(workload, base_seed):
        rep = bs.random_rep(p, q, n, seed)
        if workload == CERTIFY_WIDE:
            rep, _ = bs.flow(rep, FLOW_CFG)
        cells.append(Cell(cell_id, p, q, n, seed, rep, bs.relation_residual(rep)))
        if after_cell is not None:
            after_cell()
    return cells


def execute(workload: str, cell: Cell, out: dict) -> None:
    """The timed library calls of one cell.  Results land in `out` as they
    arrive, so the checks still see the first pipeline when a rerun raises."""
    if workload == FLOW_WIDE:
        out["flow"] = bs.flow(cell.rep, FLOW_CFG)
        return
    out["first"] = bs.full_pipeline(
        cell.rep, FLOW_CFG, num_samples=NUM_SAMPLES, snap_tol=SNAP_TOL
    )
    endpoint, diag = out["first"]
    if workload == GRID and diag.outcome == "ok":
        out["rerun"] = bs.full_pipeline(
            endpoint, FLOW_CFG, num_samples=NUM_SAMPLES, snap_tol=SNAP_TOL
        )


def backtracks(trace, cfg=FLOW_CFG) -> int:
    """Rejected Armijo trials, from the accepted step sizes: a step of
    eta0 * shrink**k took k backtracks."""
    per = math.log(1.0 / cfg.shrink)
    return sum(round(math.log(cfg.eta0 / r.step) / per) for r in trace.records[1:])


def _flow_traces(out: dict, error: Exception | None) -> list:
    if "flow" in out:
        return [out["flow"][1]]
    diags = [r[1] for r in (out.get("first"), out.get("rerun")) if r]
    if isinstance(error, PipelineStageError):
        diags.append(error.diagnostics)
    return [d.flow_trace for d in diags if d.flow_trace]


def _within(value, bound: float) -> bool:
    # Written so that NaN fails.
    return value is not None and value <= bound


def _check_flow(cell: Cell, trace) -> list[str]:
    problems = []
    if not trace.energy_monotone():
        problems.append("energy increased along an accepted step")
    if not _within(trace.max_residual(), 1e-8 + 10.0 * cell.res0):
        problems.append(f"flow residual {trace.max_residual():.3e} exceeded bound")
    return problems


def _check_pipeline(cell: Cell, endpoint, diag) -> list[str]:
    problems = _check_flow(cell, diag.flow_trace)
    if not _within(diag.max_path_residual, 1e-8 + 10.0 * cell.res0):
        problems.append(f"path residual {diag.max_path_residual} exceeded bound")
    if diag.order_bound % diag.detected_order != 0:
        problems.append(f"order {diag.detected_order} does not divide the bound")
    moduli = [abs(cell.p**k - cell.q**k) for k in range(1, cell.n + 1)]
    for lam in bs.eigvals(endpoint.B):
        root = bs.snap_root_of_unity(lam, diag.order_bound, SNAP_TOL)
        if not any(m % root.N == 0 for m in moduli):
            problems.append(f"eigenvalue order {root.N} divides no |p^k - q^k|")
    if not bs.verify_unitary_rep(endpoint, UNITARY_TOL):
        problems.append("endpoint failed the unitary-representation check")
    return problems


def _check_rerun(first, rerun) -> list[str]:
    (e1, _), (e2, d2) = first, rerun
    delta = max(bs.hs_norm(e2.A - e1.A), bs.hs_norm(e2.B - e1.B))
    if d2.outcome != "ok" or not _within(delta, IDEMPOTENCE_TOL):
        return [f"pipeline not idempotent: outcome {d2.outcome}, delta {delta:.3e}"]
    return []


def classify(workload: str, cell: Cell, out: dict, error: Exception | None) -> dict:
    """Outcome and counts of one cell: `ok`, `iter_budget`, `structural`,
    `crash:<ExceptionType>` or `check_failed`.  Never raises."""
    problems: list[str] = []
    if isinstance(error, PipelineStageError):
        outcome = "structural"
    elif error is not None:
        outcome = f"crash:{type(error).__name__}"
    else:
        try:
            if workload == FLOW_WIDE:
                trace = out["flow"][1]
                budget = not trace.converged
                if not budget:
                    problems = _check_flow(cell, trace)
            else:
                endpoint, diag = out["first"]
                budget = diag.outcome == "iter_budget"
                if not budget:
                    problems = _check_pipeline(cell, endpoint, diag)
                    if workload == GRID:
                        problems += _check_rerun(out["first"], out["rerun"])
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
            budget = False
        if budget:
            outcome = "iter_budget"
        else:
            outcome = "check_failed" if problems else "ok"
    traces = _flow_traces(out, error)
    if "first" in out:
        order = out["first"][1].detected_order
    elif isinstance(error, PipelineStageError):
        order = error.diagnostics.detected_order
    else:
        order = None
    return {
        "outcome": outcome,
        "iterations": sum(t.iterations for t in traces),
        "backtracks": sum(backtracks(t) for t in traces),
        "order": order or 0,
        "problems": problems,
        "error": None if error is None else f"{type(error).__name__}: {error}",
    }
