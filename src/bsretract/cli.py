"""Command-line surface: option parsing, JSON/CSV I/O and manifests.

Commands: census, construct, flow, retract, pipeline, verify, suite.
Exit codes: 0 success, 1 hard invariant violated (suite), 2 bad input,
3 flow failed (budget exhausted or line search stalled), 4 predicted
structure absent.
Every run emits a manifest that fully determines it; outputs are
byte-deterministic for identical manifests.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .bsrep import (
    Rep,
    direct_sum,
    from_orbit_datum,
    random_rep,
    relation_residual,
    rep_from_json,
    rep_to_json,
)
from .census import (
    OrbitDatum,
    check_moduli,
    enumerate_orbits,
    order_bound,
    validate_parameters,
)
from .compactify import certify
from .errors import BsretractError, PipelineStageError
from .kempfness import (
    ITER_BUDGET,
    LINE_SEARCH_STALLED,
    FlowConfig,
    flow,
    kn_energy,
    minimality_certificate,
    moment_map,
)
from .numerics import hs_norm, unitarity_defect
from .retraction import certify_and_retract, full_pipeline, verify_unitary_rep
from .suite import build_manifest, canonical_json, run_suite, sha256_text

EXIT_OK = 0
EXIT_HARD_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_FLOW_FAILED = 3
EXIT_STRUCTURAL = 4


# ---------------------------------------------------------------- I/O helpers

def _fmt(x: float) -> str:
    """Fixed 17-significant-digit float formatting for CSV outputs."""
    return format(float(x), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _fail(code: int, msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _load_rep(path: str, *, validate: bool = True) -> tuple[Rep, float]:
    """A Rep read from JSON, and its relation residual.  Unreadable,
    malformed or singular input, and with validate input off the
    variety, exits with EXIT_BAD_INPUT."""
    try:
        rep = rep_from_json(json.loads(_read_text(path)), validate=validate)
        return rep, relation_residual(rep)
    except (ValueError, KeyError, json.JSONDecodeError, BsretractError) as exc:
        _fail(EXIT_BAD_INPUT, f"bad input: {exc}")


# ------------------------------------------------------------------ manifests

def _emit_manifest(manifest: dict, outcome: dict, out_path: str | None) -> None:
    doc = {**manifest, "outcome": outcome}
    if out_path and out_path != "-":
        Path(str(out_path) + ".manifest.json").write_text(canonical_json(doc) + "\n")


# ----------------------------------------------------------------- CLI group

@click.group()
def main():
    """Construct Baumslag-Solitar representations, flow them to minimal
    vectors, verify the predicted finite-order structure, and retract
    them onto unitary representations."""


# -------------------------------------------------------------------- census

@main.command("census")
@click.argument("p", type=int)
@click.argument("q", type=int)
@click.option("--n-max", default=4, show_default=True, help="Largest cycle length.")
@click.option("--out", default="-", help="JSON-lines output path.")
@click.option("--csv", "csv_path", default=None, help="Summary CSV path (k, N, orbits).")
def cmd_census(p, q, n_max, out, csv_path):
    """Enumerate exponent orbits for the group parameters P Q."""
    try:
        data = enumerate_orbits(p, q, n_max)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))
    lines = "".join(json.dumps(d.to_json(), sort_keys=True) + "\n" for d in data)
    _write_text(out, lines)
    counts: dict[tuple[int, int], int] = {}
    for d in data:
        counts[(d.k, d.N)] = counts.get((d.k, d.N), 0) + 1
    if csv_path:
        rows = ["k,N,orbits"] + [f"{k},{n},{c}" for (k, n), c in sorted(counts.items())]
        _write_text(csv_path, "\n".join(rows) + "\n")
    manifest = build_manifest(
        "census", {"p": p, "q": q, "n_max": n_max}, {}, [out, csv_path or ""]
    )
    _emit_manifest(manifest, {"records": len(data)}, out)
    click.echo(f"census: {len(data)} orbit records", err=True)


# ----------------------------------------------------------------- construct

def _parse_orbit_spec(spec: str, p: int, q: int) -> OrbitDatum:
    mod_part, _, orbit_part = spec.partition(":")
    modulus = int(mod_part)
    if modulus < 1:
        raise ValueError(f"block modulus must be positive, got {modulus}")
    orbit = tuple(int(x) for x in orbit_part.split(",")) if orbit_part else (0,)
    u = q * pow(p, -1, modulus) % modulus if modulus > 1 else 0
    return OrbitDatum(p, q, modulus, u, orbit, len(orbit))


@main.command("construct")
@click.option("--p", "p", type=int, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--orbit", "orbits", multiple=True,
              help="Block spec 'N:m1,m2,...'; repeat for direct sums.")
@click.option("--chi", "chis", multiple=True,
              help="Closing scale per block, complex literal like '0.5+1.2j'.")
@click.option("--random", "random_n", type=int, default=None,
              help="Draw a random representation of this dimension instead.")
@click.option("--seed", default=0, show_default=True)
@click.option("--sl", is_flag=True, help="Normalize to determinant one.")
@click.option("--out", default="-")
def cmd_construct(p, q, orbits, chis, random_n, seed, sl, out):
    """Build a representation from orbit blocks or at random."""
    try:
        validate_parameters(p, q)
        if random_n is not None:
            rep = random_rep(p, q, random_n, seed, sl=sl)
        elif orbits:
            blocks = []
            for i, spec in enumerate(orbits):
                chi = complex(chis[i]) if i < len(chis) else 1.0 + 0.0j
                blocks.append(from_orbit_datum(_parse_orbit_spec(spec, p, q), chi, sl=sl))
            rep = blocks[0]
            for blk in blocks[1:]:
                rep = direct_sum(rep, blk)
        else:
            _fail(EXIT_BAD_INPUT, "provide --random N or at least one --orbit")
    except (ValueError, BsretractError) as exc:
        _fail(EXIT_BAD_INPUT, str(exc))
    _write_text(out, canonical_json(rep_to_json(rep)) + "\n")
    manifest = build_manifest(
        "construct",
        {"p": p, "q": q, "orbits": list(orbits), "chis": list(chis),
         "random_n": random_n, "seed": seed, "sl": sl},
        {},
        [out],
    )
    _emit_manifest(manifest, {"residual": relation_residual(rep)}, out)


# ---------------------------------------------------------------------- flow

def _trace_csv(trace) -> str:
    rows = ["iter,energy,moment_norm,step"]
    for r in trace.records:
        rows.append(
            f"{r.iteration},{_fmt(r.energy)},{_fmt(r.moment_norm)},{_fmt(r.step)}"
        )
    return "\n".join(rows) + "\n"


def _path_csv(path) -> str:
    rows = ["t,residual,unitarity_defect_a"]
    for t, res, defect in path.rows():
        rows.append(f"{_fmt(t)},{_fmt(res)},{_fmt(defect)}")
    return "\n".join(rows) + "\n"


_flow_options = [
    click.option("--tol", default=1e-10, show_default=True),
    click.option("--max-iter", default=10**5, show_default=True),
    click.option("--eta0", default=FlowConfig.eta0, show_default=True,
                 help="First trial step along each search direction; no step "
                      "is longer, so values far below 1 end in iter_budget."),
    click.option("--sl", is_flag=True, help="Traceless moment-map projection."),
]


def _flow_config(tol, max_iter, eta0, sl) -> FlowConfig:
    try:
        return FlowConfig(tol=tol, max_iter=max_iter, eta0=eta0, sl_mode=sl)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))


def _check_snap_tol(snap_tol: float) -> None:
    """Exit 2 unless --snap-tol is finite and positive; called before any
    flow or certificate runs, so a bad value never reaches a report."""
    if not 0 < snap_tol < math.inf:
        _fail(EXIT_BAD_INPUT, "--snap-tol must be finite and positive")


def _check_samples(samples: int) -> None:
    """Exit 2 unless --samples is at least 2, the fewest a path from t = 1
    to t = 0 has; called before any flow or cell runs."""
    if samples < 2:
        _fail(EXIT_BAD_INPUT, "--samples must be >= 2")


def _check_moduli(pairs: list[tuple[int, int]], n_max: int) -> None:
    """Exit 2 if a pair's census would need a modulus |p^k - q^k| past the
    scan's limit; called before any cell runs, since each cell's draw
    would raise inside the sweep."""
    try:
        for p, q in pairs:
            check_moduli(p, q, n_max)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))


def _with(options):
    def deco(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return deco


@main.command("flow")
@click.option("--in", "in_path", default="-", help="Rep JSON input.")
@click.option("--out", default="-", help="Endpoint Rep JSON.")
@click.option("--trace-csv", default=None, help="Per-iteration CSV.")
@_with(_flow_options)
def cmd_flow(in_path, out, trace_csv, tol, max_iter, eta0, sl):
    """Run the moment-map gradient flow on a representation."""
    rep, _ = _load_rep(in_path)
    cfg = _flow_config(tol, max_iter, eta0, sl)
    final, trace = flow(rep, cfg)
    _write_text(out, canonical_json(rep_to_json(final)) + "\n")
    if trace_csv:
        _write_text(trace_csv, _trace_csv(trace))
    last = trace.records[-1]
    manifest = build_manifest(
        "flow",
        {"tol": tol, "max_iter": max_iter, "eta0": eta0, "sl": sl},
        {"rep": sha256_text(canonical_json(rep_to_json(rep)))},
        [out, trace_csv or ""],
    )
    _emit_manifest(
        manifest,
        {"outcome": trace.outcome, "iterations": trace.iterations,
         "moment_norm": last.moment_norm, "energy": last.energy},
        out,
    )
    click.echo(
        f"flow: {trace.outcome} after {trace.iterations} iterations, "
        f"|mu| = {last.moment_norm:.3e}",
        err=True,
    )
    if not trace.converged:
        sys.exit(EXIT_FLOW_FAILED)


# ----------------------------------------------------------- retract/pipeline

_FLOW_FAILURES = {
    ITER_BUDGET: "flow budget exhausted",
    LINE_SEARCH_STALLED: "flow line search stalled",
}


def _run_and_emit(command, parameters, rep, run, out, diag_path, path_csv,
                  trace_csv=None):
    """Body of retract and pipeline: run() returns (endpoint, diagnostics);
    write the endpoint, diagnostics, CSVs and manifest, then exit with the
    classified code."""
    manifest = build_manifest(
        command,
        parameters,
        {"rep": sha256_text(canonical_json(rep_to_json(rep)))},
        [out, diag_path or "", path_csv or "", trace_csv or ""],
    )
    failure = None
    try:
        endpoint, diag = run()
    except PipelineStageError as exc:
        failure, endpoint, diag = exc, None, exc.diagnostics
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))
    if endpoint is not None:
        _write_text(out, canonical_json(rep_to_json(endpoint)) + "\n")
    if diag_path:
        _write_text(diag_path, canonical_json(diag.to_dict()) + "\n")
    if trace_csv and diag.flow_trace is not None:
        _write_text(trace_csv, _trace_csv(diag.flow_trace))
    if path_csv and diag.retraction_path is not None:
        _write_text(path_csv, _path_csv(diag.retraction_path))
    _emit_manifest(manifest, diag.to_dict(), out)
    if failure is not None:
        _fail(EXIT_STRUCTURAL, str(failure))
    if diag.outcome in _FLOW_FAILURES:
        click.echo(f"{command}: {_FLOW_FAILURES[diag.outcome]}", err=True)
        sys.exit(EXIT_FLOW_FAILED)
    sys.exit(EXIT_OK if verify_unitary_rep(endpoint, 1e-8) else EXIT_STRUCTURAL)


@main.command("retract")
@click.option("--in", "in_path", default="-")
@click.option("--out", default="-")
@click.option("--diag", "diag_path", default=None, help="Diagnostics JSON path.")
@click.option("--path-csv", default=None, help="Per-sample CSV of the path.")
@click.option("--samples", default=100, show_default=True)
@click.option("--snap-tol", default=1e-6, show_default=True)
def cmd_retract(in_path, out, diag_path, path_csv, samples, snap_tol):
    """Certify finite-order structure and retract A to its unitary factor
    (no flow; input should already be near a minimal vector)."""
    rep, _ = _load_rep(in_path)
    _check_snap_tol(snap_tol)
    _check_samples(samples)

    def run():
        endpoint, _, diag = certify_and_retract(
            rep, snap_tol=snap_tol, num_samples=samples
        )
        return endpoint, diag

    _run_and_emit("retract", {"samples": samples, "snap_tol": snap_tol}, rep, run,
                  out, diag_path, path_csv)


@main.command("pipeline")
@click.option("--in", "in_path", default="-")
@click.option("--out", default="-")
@click.option("--diag", "diag_path", default=None)
@click.option("--path-csv", default=None)
@click.option("--trace-csv", default=None)
@click.option("--samples", default=100, show_default=True)
@click.option("--snap-tol", default=1e-6, show_default=True)
@_with(_flow_options)
def cmd_pipeline(in_path, out, diag_path, path_csv, trace_csv, samples, snap_tol,
                 tol, max_iter, eta0, sl):
    """Flow, certify, and retract: Rep JSON in, unitary Rep JSON out."""
    rep, _ = _load_rep(in_path)
    cfg = _flow_config(tol, max_iter, eta0, sl)
    _check_snap_tol(snap_tol)
    _check_samples(samples)
    _run_and_emit(
        "pipeline",
        {"tol": tol, "max_iter": max_iter, "eta0": eta0, "sl": sl,
         "samples": samples, "snap_tol": snap_tol},
        rep,
        lambda: full_pipeline(rep, cfg, num_samples=samples, snap_tol=snap_tol),
        out, diag_path, path_csv, trace_csv,
    )


# -------------------------------------------------------------------- verify

@main.command("verify")
@click.option("--in", "in_path", default="-")
@click.option("--out", default="-")
@click.option("--snap-tol", default=1e-6, show_default=True)
def cmd_verify(in_path, out, snap_tol):
    """Report the structural certificates of a representation."""
    rep, res = _load_rep(in_path, validate=False)
    _check_snap_tol(snap_tol)
    report = {
        "p": rep.group.p, "q": rep.group.q, "n": rep.n,
        "relation_residual": res,
        "in_variety": bool(res <= 1e-8),
        "kn_energy": kn_energy(rep),
        "moment_norm": hs_norm(moment_map(rep)),
        "order_bound": order_bound(rep.group.p, rep.group.q, rep.n),
        "unitarity_defect_a": unitarity_defect(rep.A),
        "unitarity_defect_b": unitarity_defect(rep.B),
        "detected_order": None,
        "normality_exponent": None,
        "kappa_invariance_defect": None,
        "kappa_identity_defect": None,
        **minimality_certificate(rep)._asdict(),
    }
    if not report["in_variety"]:
        _write_text(out, canonical_json(report) + "\n")
        _fail(EXIT_BAD_INPUT, f"relation residual {res:.3e} too large to certify")
    exit_code = EXIT_OK
    cert = certify(rep, snap_tol)
    report["detected_order"] = cert.order
    report["normality_exponent"] = cert.exponent
    report["kappa_invariance_defect"] = cert.invariance_defect
    if cert.form is not None:
        report["kappa_identity_defect"] = hs_norm(cert.form.Q - np.eye(rep.n))
    if cert.error is not None:
        report["structural_failure"] = f"{type(cert.error).__name__}: {cert.error}"
        exit_code = EXIT_STRUCTURAL
    _write_text(out, canonical_json(report) + "\n")
    manifest = build_manifest(
        "verify",
        {"snap_tol": snap_tol},
        {"rep": sha256_text(canonical_json(rep_to_json(rep)))},
        [out],
    )
    _emit_manifest(manifest, {"exit": exit_code}, out)
    sys.exit(exit_code)


# --------------------------------------------------------------------- suite

def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


@main.command("suite")
@click.option("--p-list", default="1,2,3", show_default=True)
@click.option("--q-list", default="1,2,3", show_default=True)
@click.option("--pairs", "pairs_spec", default=None,
              help="Explicit 'p:q,p:q' pairs; every pair must be valid.")
@click.option("--n-max", default=3, show_default=True)
@click.option("--seeds", default=5, show_default=True)
@click.option("--base-seed", default=0, show_default=True)
@click.option("--samples", default=100, show_default=True)
@click.option("--snap-tol", default=1e-6, show_default=True)
@click.option("--idempotence", is_flag=True, help="Also re-run each pipeline on its output.")
@click.option("--report", default="-", help="Report JSON path.")
@click.option("--workers", default=None, type=int,
              help="Worker processes (default: up to 4, one per CPU).")
@_with(_flow_options)
def cmd_suite(p_list, q_list, pairs_spec, n_max, seeds, base_seed, samples,
              snap_tol, idempotence, report, workers, tol, max_iter, eta0, sl):
    """Sweep the grid, run the full pipeline on every cell, aggregate."""
    if pairs_spec:
        pairs = []
        for item in pairs_spec.split(","):
            ps, _, qs = item.partition(":")
            try:
                validate_parameters(int(ps), int(qs))
            except ValueError as exc:
                _fail(EXIT_BAD_INPUT, str(exc))
            pairs.append((int(ps), int(qs)))
    else:
        try:
            p_values, q_values = _parse_int_list(p_list), _parse_int_list(q_list)
        except ValueError as exc:
            _fail(EXIT_BAD_INPUT, str(exc))
        pairs = []
        for p in p_values:
            for q in q_values:
                try:
                    validate_parameters(p, q)
                except ValueError:
                    continue
                pairs.append((p, q))
    cfg = _flow_config(tol, max_iter, eta0, sl)
    _check_snap_tol(snap_tol)
    _check_samples(samples)
    _check_moduli(pairs, n_max)
    doc = run_suite(
        pairs, n_max, seeds, cfg,
        base_seed=base_seed, num_samples=samples, snap_tol=snap_tol,
        check_idempotence=idempotence, workers=workers,
    )
    manifest = build_manifest(
        "suite",
        {"pairs": [list(x) for x in pairs], "n_max": n_max, "seeds": seeds,
         "base_seed": base_seed, "samples": samples, "snap_tol": snap_tol,
         "idempotence": idempotence,
         "tol": tol, "max_iter": max_iter, "eta0": eta0, "sl": sl},
        {},
        [report],
    )
    doc["manifest"] = manifest
    _write_text(report, canonical_json(doc) + "\n")
    _emit_manifest(manifest, doc["summary"], report)
    s = doc["summary"]
    click.echo(
        f"suite: {s['converged']}/{s['total_runs']} converged, "
        f"{s['hard_violations']} hard violations",
        err=True,
    )
    if s["hard_violations"]:
        sys.exit(EXIT_HARD_VIOLATION)


if __name__ == "__main__":
    main()
