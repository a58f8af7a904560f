"""Batch verification harness: sweep random representations over a
(p, q, n, seed) grid, run the full pipeline on every cell, check every
invariant and aggregate.  Each cell gets the same kind of manifest the
CLI writes for a single run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from . import census
from .bsrep import random_rep, relation_residual
from .compactify import detect_finite_order
from .errors import BsretractError, PipelineStageError
from .kempfness import FlowConfig
from .numerics import hs_norm
from .retraction import full_pipeline, verify_unitary_rep

__all__ = ["canonical_json", "sha256_text", "build_manifest", "derive_seed",
           "run_one", "run_suite"]


def canonical_json(doc) -> str:
    """Deterministic JSON encoding: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "))


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


def derive_seed(base_seed: int, p: int, q: int, n: int, index: int) -> int:
    """Stable per-task seed for the counter-based generator."""
    key = f"{base_seed}:{p}:{q}:{n}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def run_one(task: tuple) -> tuple[dict, dict]:
    """One grid cell: draw, flow, certify, retract, check every invariant.

    task is (p, q, n, seed, cfg, num_samples, snap_tol, check_idempotence)
    with cfg a FlowConfig.  Returns (record, manifest): the record is a
    plain dict whose hard invariant violations are collected under
    "violations".  Module-level so process pools can pickle it.
    """
    p, q, n, seed, cfg, num_samples, snap_tol, check_idempotence = task
    rep = random_rep(p, q, n, seed, sl=cfg.sl_mode)
    res0 = relation_residual(rep)
    manifest = build_manifest(
        "pipeline",
        {"p": p, "q": q, "n": n, "seed": seed, **dataclasses.asdict(cfg),
         "num_samples": num_samples, "snap_tol": snap_tol},
        {},
        [],
    )
    record: dict = {
        "p": p, "q": q, "n": n, "seed": seed,
        "manifest_hash": manifest["hash"],
        "initial_residual": res0,
        "violations": [],
    }
    violations = record["violations"]
    residual_bound = 1e-8 + 10.0 * res0

    def note_flow(diag):
        record["flow_outcome"] = diag.flow_outcome
        record["iterations"] = diag.flow_iterations
        record["reached_1e-8"] = diag.flow_trace.first_below(1e-8)
        record["max_flow_residual"] = diag.max_flow_residual
        record["final_moment_norm"] = diag.final_moment_norm
        if not diag.energy_monotone:
            violations.append("energy increased along an accepted step")
        if not diag.max_flow_residual <= residual_bound:
            violations.append(
                f"flow residual {diag.max_flow_residual:.3e} exceeded bound"
            )

    try:
        endpoint, diag = full_pipeline(
            rep, cfg, num_samples=num_samples, snap_tol=snap_tol
        )
    except PipelineStageError as exc:
        note_flow(exc.diagnostics)
        record["outcome"] = "structural_failure"
        record["failed_stage"] = exc.stage
        record["error"] = str(exc)
        violations.append(f"structural failure at {exc.stage}")
        return record, manifest
    note_flow(diag)
    record["outcome"] = diag.outcome
    if diag.outcome == "iter_budget":
        return record, manifest

    record["detected_order"] = diag.detected_order
    record["order_bound"] = diag.order_bound
    record["normality_exponent"] = diag.normality_exponent
    record["max_path_residual"] = diag.max_path_residual
    record["endpoint_defect_a"] = diag.endpoint_defect_a
    record["endpoint_defect_b"] = diag.endpoint_defect_b
    if diag.detected_order > diag.order_bound:
        violations.append(
            f"order {diag.detected_order} exceeds bound {diag.order_bound}"
        )
    try:
        order = detect_finite_order(endpoint.B, census.order_moduli(p, q, n), snap_tol)
    except BsretractError as exc:
        violations.append(f"endpoint order not certified: {exc}")
    else:
        if order != diag.detected_order:
            violations.append(
                f"endpoint order {order} differs from certified order "
                f"{diag.detected_order}"
            )
    if not diag.max_path_residual <= residual_bound:
        violations.append(
            f"path residual {diag.max_path_residual:.3e} exceeded bound"
        )
    if not verify_unitary_rep(endpoint, 1e-8):
        violations.append("endpoint failed the unitary-representation check")
    if check_idempotence:
        try:
            endpoint2, diag2 = full_pipeline(
                endpoint, cfg, num_samples=num_samples, snap_tol=snap_tol
            )
            delta = max(
                hs_norm(endpoint2.A - endpoint.A), hs_norm(endpoint2.B - endpoint.B)
            )
            record["idempotence_delta"] = delta
            if diag2.outcome != "ok" or delta > 1e-9:
                violations.append(f"pipeline not idempotent: delta {delta:.3e}")
        except (BsretractError, ValueError) as exc:
            violations.append(f"pipeline rerun failed: {exc}")
    return record, manifest


def _worker_count(requested: int | None) -> int:
    workers = requested or min(4, os.cpu_count() or 1)
    cap = os.environ.get("BSRETRACT_THREADS")
    return max(1, min(workers, int(cap))) if cap else workers


def run_suite(
    pairs: list[tuple[int, int]],
    n_max: int,
    seeds: int,
    cfg: FlowConfig,
    *,
    base_seed: int = 0,
    num_samples: int = 100,
    snap_tol: float = 1e-6,
    check_idempotence: bool = False,
    workers: int | None = None,
) -> dict:
    """Sweep random representations over the grid and aggregate invariants."""
    tasks = [
        (p, q, n, derive_seed(base_seed, p, q, n, i), cfg,
         num_samples, snap_tol, check_idempotence)
        for (p, q) in pairs
        for n in range(1, n_max + 1)
        for i in range(seeds)
    ]
    workers = _worker_count(workers)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, tasks, chunksize=4))
    else:
        results = [run_one(t) for t in tasks]
    records = [r for r, _ in results]
    manifests = {m["hash"]: m for _, m in results}
    total = len(records)
    converged = [r for r in records if r.get("outcome") == "ok"]
    crossed = [r for r in records if r.get("reached_1e-8") is not None]
    violations = [
        {"p": r["p"], "q": r["q"], "n": r["n"], "seed": r["seed"], "what": v}
        for r in records
        for v in r["violations"]
    ]
    iterations = [r.get("iterations", 0) for r in records]
    summary = {
        "total_runs": total,
        "converged": len(converged),
        "converged_rate": len(converged) / total if total else 1.0,
        "reached_1e-8": len(crossed),
        "reached_1e-8_rate": len(crossed) / total if total else 1.0,
        "hard_violations": len(violations),
        "violations": violations,
        "order_histogram": dict(Counter(str(r["detected_order"]) for r in converged)),
        "exponent_histogram": dict(
            Counter(str(r["normality_exponent"]) for r in converged)
        ),
        "max_iterations": max(iterations, default=0),
        "mean_iterations": sum(iterations) / total if total else 0.0,
    }
    return {"summary": summary, "runs": records, "manifests": manifests}
