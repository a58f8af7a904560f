"""Batch verification harness: sweep random representations over a
(p, q, n, seed) grid, run the full pipeline on every cell, check every
invariant and aggregate.  A cell is a `pipeline` run: its record holds
that run's diagnostics, and its manifest is the one `pipeline` writes
for the drawn input (pipeline_manifest), so a cell replays by hash.
check_flow, check_pipeline and check_rerun are the one definition of a
certified run; `pipeline` uses the first two too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from . import census
from .bsrep import Rep, random_rep, rep_to_json
from .compactify import SNAP_TOL, UNITARY_TOL, detect_finite_order
from .errors import BsretractError, PipelineStageError
from .kempfness import FlowConfig
from .numerics import finite_positive, hs_norm, json_int
from .retraction import NUM_SAMPLES, full_pipeline, residual_budget, verify_unitary_rep

__all__ = ["canonical_json", "sha256_text", "build_manifest", "pipeline_manifest",
           "derive_seed", "check_flow", "check_pipeline", "check_rerun", "run_one",
           "run_suite"]


def canonical_json(doc) -> str:
    """Deterministic, strict JSON encoding: sorted keys, fixed separators,
    and each non-finite float written as the string "NaN", "Infinity" or
    "-Infinity", since RFC 8259 has no token for it."""
    return json.dumps(_finite(doc), sort_keys=True, indent=2, separators=(",", ": "),
                      allow_nan=False)


def _finite(x):
    """x with each non-finite float replaced by its name as a string."""
    if isinstance(x, float):
        # json's own names for them: "NaN", "Infinity", "-Infinity".
        return x if math.isfinite(x) else json.dumps(x)
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_manifest(command: str, parameters: dict, inputs: dict, outputs: list) -> dict:
    """Manifest whose hash covers the command, parameters and input hashes;
    output paths and the outcome summary are attached but not hashed, so
    identical computations hash identically wherever they are written."""
    body = {"command": command, "parameters": parameters, "inputs": inputs}
    return {
        **body,
        "outputs": sorted(str(x) for x in outputs if x),
        "hash": sha256_text(canonical_json(body)),
    }


def pipeline_manifest(rep: Rep, cfg: FlowConfig, samples: int, snap_tol: float,
                      outputs=()) -> dict:
    """The manifest of `bsretract pipeline` on rep with these settings."""
    return build_manifest(
        "pipeline",
        {"tol": cfg.tol, "max_iter": cfg.max_iter, "samples": samples, "snap_tol": snap_tol},
        {"rep": sha256_text(canonical_json(rep_to_json(rep)))},
        outputs,
    )


def derive_seed(base_seed: int, p: int, q: int, n: int, index: int) -> int:
    """Stable per-task seed for the counter-based generator."""
    key = f"{base_seed}:{p}:{q}:{n}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _at_most(value, bound) -> bool:
    """value <= bound, false when either is None or NaN."""
    return value is not None and bound is not None and value <= bound


def _e(x) -> str:
    """x in a violation message: 3-digit scientific, or None."""
    return "None" if x is None else f"{x:.3e}"


def check_flow(trace, initial_residual: float) -> list[str]:
    """Violations of the flow's invariants, read from its FlowTrace: no
    accepted step raises the recorded energy past the flow's resolution
    (FlowTrace.energy_monotone), and no iterate's relation residual
    (FlowTrace.max_residual) exceeds residual_budget of the input's
    initial_residual: 1e-8 + 10 * initial residual.  The message names
    the budget it applied."""
    violations = []
    if not trace.energy_monotone():
        violations.append("energy increased along an accepted step")
    worst, budget = trace.max_residual(), residual_budget(initial_residual)
    if not _at_most(worst, budget):
        violations.append(f"flow residual {_e(worst)} exceeded bound {_e(budget)}")
    return violations


def check_pipeline(endpoint, diag, snap_tol: float) -> list[str]:
    """Violations of a certified endpoint's invariants: the order is within
    its bound, detect_finite_order finds the same order on the endpoint's
    B, the path residual bound (diag.max_path_residual, over every t of
    the path) stays within residual_budget(diag.initial_residual), and the
    endpoint is a unitary representation within UNITARY_TOL."""
    violations = []
    if not _at_most(diag.detected_order, diag.order_bound):
        violations.append(
            f"order {diag.detected_order} exceeds bound {diag.order_bound}"
        )
    moduli = census.order_moduli(endpoint.group.p, endpoint.group.q, endpoint.n)
    try:
        order = detect_finite_order(endpoint.B, moduli, snap_tol)
    except BsretractError as exc:
        violations.append(f"endpoint order not certified: {exc}")
    else:
        if order != diag.detected_order:
            violations.append(
                f"endpoint order {order} differs from certified order "
                f"{diag.detected_order}"
            )
    budget = residual_budget(diag.initial_residual)
    if not _at_most(diag.max_path_residual, budget):
        violations.append(
            f"path residual bound {_e(diag.max_path_residual)} exceeded "
            f"the budget {_e(budget)}"
        )
    if not verify_unitary_rep(endpoint, UNITARY_TOL):
        violations.append("endpoint failed the unitary-representation check")
    return violations


def check_rerun(endpoint, endpoint2, diag2) -> tuple[list[str], float]:
    """Violations of idempotence, and its measure delta: the pipeline
    rerun on its own endpoint must end "ok" and move neither generator by
    more than 1e-9."""
    delta = max(hs_norm(endpoint2.A - endpoint.A), hs_norm(endpoint2.B - endpoint.B))
    if diag2.outcome != "ok" or not delta <= 1e-9:
        return [f"pipeline not idempotent: delta {delta:.3e}"], delta
    return [], delta


def run_one(task: tuple) -> tuple[dict, dict]:
    """One grid cell: draw, flow, certify, retract, and collect the
    violations of check_flow, check_pipeline and check_rerun.

    task is (p, q, n, seed, sl, cfg, snap_tol, check_idempotence), drawing
    random_rep(p, q, n, seed, sl=sl).  The pipeline checks the path by its
    residual bound, which its sample count does not change, so a cell runs
    with NUM_SAMPLES.  Returns (record, manifest): the manifest is
    pipeline_manifest's for the drawn input, and the record is the cell,
    the manifest's hash, the run's diag.to_dict() (what `pipeline --diag`
    writes), "reached_1e-8", the hard invariant violations under
    "violations" and, when the rerun ends, "idempotence_delta".
    Module-level for process pools.
    """
    p, q, n, seed, sl, cfg, snap_tol, check_idempotence = task
    rep = random_rep(p, q, n, seed, sl=sl)
    manifest = pipeline_manifest(rep, cfg, NUM_SAMPLES, snap_tol)
    try:
        endpoint, diag = full_pipeline(rep, cfg, snap_tol=snap_tol)
    except PipelineStageError as exc:
        diag = exc.diagnostics
    violations = check_flow(diag.flow_trace, diag.initial_residual)
    record = {
        "p": p, "q": q, "n": n, "seed": seed, "manifest_hash": manifest["hash"],
        **diag.to_dict(),
        "reached_1e-8": diag.flow_trace.first_below(1e-8),
        "violations": violations,
    }
    if diag.failed_stage is not None:
        violations.append(f"structural failure at {diag.failed_stage}")
    elif diag.flow_trace.converged:
        violations += check_pipeline(endpoint, diag, snap_tol)
        if check_idempotence:
            try:
                endpoint2, diag2 = full_pipeline(endpoint, cfg, snap_tol=snap_tol)
            except (BsretractError, ValueError) as exc:
                violations.append(f"pipeline rerun failed: {exc}")
            else:
                rerun, record["idempotence_delta"] = check_rerun(endpoint, endpoint2, diag2)
                violations += rerun
    return record, manifest


def run_suite(
    pairs: list[tuple[int, int]],
    n_max: int,
    seeds: int,
    cfg: FlowConfig,
    *,
    sl: bool = False,
    base_seed: int = 0,
    snap_tol: float = SNAP_TOL,
    check_idempotence: bool = False,
    workers: int | None = None,
) -> dict:
    """Sweep random representations over the grid and aggregate invariants.
    Before any cell runs, ValueError refuses a count or seed that is not an
    integer, a grid with no cell (a sweep that runs nothing certifies
    nothing), a repeated pair, a pair that census.check_moduli refuses, a
    snap_tol not finite and positive, and a negative worker count."""
    n_max, seeds = json_int(n_max, "n_max"), json_int(seeds, "seeds")
    base_seed = json_int(base_seed, "base_seed")
    if not (pairs and n_max >= 1 and seeds >= 1):
        raise ValueError(f"the grid has no cell to run: {len(pairs)} pairs, "
                         f"n_max {n_max}, seeds {seeds}")
    if repeated := [f"{p}:{q}" for (p, q), c in Counter(pairs).items() if c > 1]:
        raise ValueError(f"pairs repeat {', '.join(repeated)}")
    pairs = [census.check_moduli(p, q, n_max)[:2] for p, q in pairs]
    finite_positive(snap_tol, "snap_tol")
    workers = json_int(workers or min(4, os.cpu_count() or 1), "workers", 1)
    tasks = [
        (p, q, n, derive_seed(base_seed, p, q, n, i), sl, cfg, snap_tol,
         check_idempotence)
        for (p, q) in pairs
        for n in range(1, n_max + 1)
        for i in range(seeds)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, tasks, chunksize=4))
    else:
        results = [run_one(t) for t in tasks]
    records = [r for r, _ in results]
    manifests = {m["hash"]: m for _, m in results}
    total = len(records)
    converged = [r for r in records if r["outcome"] == "ok"]
    crossed = [r for r in records if r["reached_1e-8"] is not None]
    violations = [
        {"p": r["p"], "q": r["q"], "n": r["n"], "seed": r["seed"], "what": v}
        for r in records
        for v in r["violations"]
    ]
    iterations = [r["flow_iterations"] for r in records]
    summary = {
        "total_runs": total,
        "converged": len(converged),
        "converged_rate": len(converged) / total,
        "reached_1e-8": len(crossed),
        "reached_1e-8_rate": len(crossed) / total,
        "hard_violations": len(violations),
        "violations": violations,
        "order_histogram": dict(Counter(str(r["detected_order"]) for r in converged)),
        "exponent_histogram": dict(
            Counter(str(r["normality_exponent"]) for r in converged)
        ),
        "max_iterations": max(iterations),
        "mean_iterations": sum(iterations) / total,
    }
    return {"summary": summary, "runs": records, "manifests": manifests}
