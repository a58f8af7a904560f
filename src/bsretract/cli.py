"""Command-line surface: option parsing, JSON/CSV I/O and manifests.

Commands: census, construct, flow, pipeline, verify, suite.
Exit codes: 0 success, 1 hard invariant violated (a suite cell or a
pipeline run failing the checks of `suite`, the one definition of a
certified run), 2 bad input, 3 flow failed (budget
exhausted or line search stalled), 4 predicted structure absent.
Every command that has read its input ends in `_end`, which writes its
outputs and the manifest that fully determines the run, then exits with
the classified code; outputs are byte-deterministic for identical
manifests.  Run settings are checked by the library that reads them,
and its ValueError exits EXIT_BAD_INPUT.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .bsrep import (REP_TOL, Rep, check_residual, direct_sum, from_orbit_datum,
                    random_rep, relation_residual, rep_from_json, rep_to_json)
from .census import OrbitDatum, enumerate_orbits, order_bound, validate_parameters
from .compactify import SNAP_TOL, Certificate, certify
from .errors import BsretractError, PipelineStageError, SingularMatrix
from .kempfness import (ITER_BUDGET, LINE_SEARCH_STALLED, FlowConfig, flow, kn_energy,
                        minimality_certificate, moment_map, schur_gap)
from .numerics import hs_norm, json_int, unitarity_defect
from .retraction import NUM_SAMPLES, full_pipeline
from .suite import (build_manifest, canonical_json, check_flow, check_pipeline,
                    pipeline_manifest, run_suite, sha256_text)

EXIT_OK = 0
EXIT_HARD_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_FLOW_FAILED = 3
EXIT_STRUCTURAL = 4


# ---------------------------------------------------------------- I/O helpers

def _fmt(x: float) -> str:
    """Fixed 17-significant-digit float formatting for CSV outputs."""
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    """Write to path, or to stdout for "-"; a path that cannot be written
    exits with EXIT_BAD_INPUT."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail(EXIT_BAD_INPUT, f"cannot write {path}: {exc.strerror or exc}")


def _manifest_path(out: str | None) -> str | None:
    """The manifest's path beside out; none for stdout (None or "-") or for
    an out that exists and is not a regular file, such as a FIFO or a
    device."""
    if not out or out == "-" or (Path(out).exists() and not Path(out).is_file()):
        return None
    return f"{out}.manifest.json"


def _check_outputs(out: str | None, *others: str | None) -> None:
    """Exit with EXIT_BAD_INPUT, before anything is written, unless every
    output path, with the manifest's (_manifest_path), names a file in an
    existing directory; a command that writes several files then writes
    all of them or none."""
    for path in (out, *others, _manifest_path(out)):
        if not path or path == "-":
            continue
        if Path(path).is_dir():
            _fail(EXIT_BAD_INPUT, f"cannot write {path}: is a directory")
        if not Path(path).parent.is_dir():
            _fail(EXIT_BAD_INPUT, f"cannot write {path}: no such directory")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _fail(code: int, msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _end(out: str, text: str | None, manifest: dict, outcome: dict, *,
         files=(), lines=(), code: int = EXIT_OK):
    """The one ending of a command that has read its input: write text to
    out (nothing when text is None) and each (path, text) of files whose
    path and text are set, then the manifest with its outcome beside out
    (_manifest_path), then print lines to stderr and exit with code."""
    for path, body in ((out, text), *files):
        if path and body is not None:
            _write_text(path, body)
    if path := _manifest_path(out):
        _write_text(path, canonical_json({**manifest, "outcome": outcome}) + "\n")
    for line in lines:
        click.echo(line, err=True)
    sys.exit(code)


def _load_rep(path: str, *, validate: bool = True,
              measure: bool = True) -> tuple[Rep, float | None]:
    """A Rep read from JSON, and its relation residual, measured once
    (None without measure, for a caller whose run measures it).
    Unreadable, malformed or singular input, and with validate input off
    the variety, exits with EXIT_BAD_INPUT."""
    try:
        rep = rep_from_json(json.loads(_read_text(path)), validate=False)
        if not measure:
            return rep, None
        res = relation_residual(rep)
        if validate:
            check_residual(res)
        return rep, res
    except (OSError, ValueError, KeyError, TypeError, BsretractError) as exc:
        _fail(EXIT_BAD_INPUT, f"bad input: {exc}")


# ----------------------------------------------------------------- CLI group

@click.group()
@click.pass_context
def main(ctx):
    """Construct Baumslag-Solitar representations, flow them to minimal
    vectors, verify the predicted finite-order structure, and retract
    them onto unitary representations."""
    # Entries whose products overflow end in a classified exit, not in
    # numpy's floating-point warnings on the way there.
    ctx.with_resource(np.errstate(over="ignore", invalid="ignore"))


# -------------------------------------------------------------------- census

@main.command("census")
@click.argument("p", type=int)
@click.argument("q", type=int)
@click.option("--n-max", default=4, show_default=True, help="Largest cycle length.")
@click.option("--out", default="-", help="JSON-lines output path.")
@click.option("--csv", "csv_path", default=None, help="Summary CSV path (k, N, orbits).")
def cmd_census(p, q, n_max, out, csv_path):
    """Enumerate exponent orbits for the group parameters P Q."""
    _check_outputs(out, csv_path)
    try:
        data = enumerate_orbits(p, q, n_max)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))
    text = "".join(json.dumps(d.to_json(), sort_keys=True) + "\n" for d in data)
    counts = Counter((d.k, d.N) for d in data)
    rows = ["k,N,orbits"] + [f"{k},{n},{c}" for (k, n), c in sorted(counts.items())]
    manifest = build_manifest(
        "census", {"p": p, "q": q, "n_max": n_max}, {}, [out, csv_path or ""]
    )
    _end(out, text, manifest, {"records": len(data)},
         files=[(csv_path, "\n".join(rows) + "\n")],
         lines=[f"census: {len(data)} orbit records"])


# ----------------------------------------------------------------- construct

def _parse_orbit_spec(spec: str, p: int, q: int) -> OrbitDatum:
    """The block of spec 'N:m1,m2,...'; N must be positive and, as
    census.verify_orbit requires, prime to p, so that u = q/p mod N
    exists."""
    mod_part, _, orbit_part = spec.partition(":")
    modulus = json_int(int(mod_part), "block modulus", 1)
    if math.gcd(modulus, p) != 1:
        raise ValueError(f"block {spec!r}: modulus {modulus} must be prime to p = {p}")
    orbit = tuple(int(x) for x in orbit_part.split(",")) if orbit_part else (0,)
    u = q * pow(p, -1, modulus) % modulus
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
    """Build a representation from orbit blocks or at random; an option
    that would be ignored exits with EXIT_BAD_INPUT."""
    _check_outputs(out)
    if random_n is not None and (orbits or chis):
        _fail(EXIT_BAD_INPUT, f"--random conflicts with {'--orbit' if orbits else '--chi'}")
    if len(chis) > len(orbits):
        _fail(EXIT_BAD_INPUT, f"{len(chis)} --chi values for {len(orbits)} --orbit blocks")
    # --seed defaults to 0, so only its source tells an explicit 0 apart.
    seed_given = click.get_current_context().get_parameter_source("seed")
    if orbits and seed_given is not ParameterSource.DEFAULT:
        _fail(EXIT_BAD_INPUT, "--orbit conflicts with --seed")
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
    manifest = build_manifest("construct", {"p": p, "q": q, "orbits": list(orbits),
                                            "chis": list(chis), "random_n": random_n,
                                            "seed": seed, "sl": sl}, {}, [out])
    _end(out, canonical_json(rep_to_json(rep)) + "\n", manifest,
         {"residual": relation_residual(rep)})


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
    click.option("--tol", default=FlowConfig.tol, show_default=True),
    click.option("--max-iter", default=FlowConfig.max_iter, show_default=True),
]


def _flow_config(tol, max_iter) -> FlowConfig:
    try:
        return FlowConfig(tol=tol, max_iter=max_iter)
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
def cmd_flow(in_path, out, trace_csv, tol, max_iter):
    """Run the moment-map gradient flow on a representation."""
    _check_outputs(out, trace_csv)
    rep, res0 = _load_rep(in_path)
    cfg = _flow_config(tol, max_iter)
    final, trace = flow(rep, cfg, initial_residual=res0)
    last = trace.records[-1]
    manifest = build_manifest("flow", {"tol": tol, "max_iter": max_iter},
                              {"rep": sha256_text(canonical_json(rep_to_json(rep)))},
                              [out, trace_csv or ""])
    _end(out, canonical_json(rep_to_json(final)) + "\n", manifest,
         {"outcome": trace.outcome, "iterations": trace.iterations,
          "moment_norm": last.moment_norm, "energy": last.energy},
         files=[(trace_csv, _trace_csv(trace))],
         lines=[f"flow: {trace.outcome} after {trace.iterations} iterations, "
                f"|mu| = {last.moment_norm:.3e}"],
         code=EXIT_OK if trace.converged else EXIT_FLOW_FAILED)


# ------------------------------------------------------------------ pipeline

_FLOW_FAILURES = {
    ITER_BUDGET: "flow budget exhausted",
    LINE_SEARCH_STALLED: "flow line search stalled",
}


@main.command("pipeline")
@click.option("--in", "in_path", default="-")
@click.option("--out", default="-")
@click.option("--diag", "diag_path", default=None)
@click.option("--path-csv", default=None)
@click.option("--trace-csv", default=None)
@click.option("--samples", default=NUM_SAMPLES, show_default=True,
              help="Rows of --path-csv, t = 1 down to 0; the path check bounds every t.")
@click.option("--snap-tol", default=SNAP_TOL, show_default=True)
@_with(_flow_options)
def cmd_pipeline(in_path, out, diag_path, path_csv, trace_csv, samples, snap_tol,
                 tol, max_iter):
    """Flow, certify, and retract: Rep JSON in, unitary Rep JSON out.

    Writes the endpoint, diagnostics, CSVs and manifest, then exits with
    the classified code.  Input or settings that full_pipeline refuses
    (ValueError, SingularMatrix) exit EXIT_BAD_INPUT, with nothing
    written; a run that ends "ok" and fails suite.check_flow or
    suite.check_pipeline exits EXIT_HARD_VIOLATION."""
    _check_outputs(out, diag_path, path_csv, trace_csv)
    rep, _ = _load_rep(in_path, measure=False)
    cfg = _flow_config(tol, max_iter)
    manifest = pipeline_manifest(rep, cfg, samples, snap_tol,
                                 [out, diag_path or "", path_csv or "", trace_csv or ""])
    try:
        endpoint, diag = full_pipeline(rep, cfg, num_samples=samples, snap_tol=snap_tol)
    except PipelineStageError as exc:
        endpoint, diag = None, exc.diagnostics
        lines, code = [f"error: {exc}"], EXIT_STRUCTURAL
    except (ValueError, SingularMatrix) as exc:
        _fail(EXIT_BAD_INPUT, str(exc))
    else:
        if diag.outcome in _FLOW_FAILURES:
            lines, code = [f"pipeline: {_FLOW_FAILURES[diag.outcome]}"], EXIT_FLOW_FAILED
        else:
            violations = (check_flow(diag.flow_trace, diag.initial_residual)
                          + check_pipeline(endpoint, diag, snap_tol))
            lines = [f"error: {violation}" for violation in violations]
            code = EXIT_HARD_VIOLATION if violations else EXIT_OK
    path, report = diag.retraction_path, diag.to_dict()
    _end(out, None if endpoint is None else canonical_json(rep_to_json(endpoint)) + "\n",
         manifest, report,
         files=[(diag_path, canonical_json(report) + "\n"),
                (trace_csv, _trace_csv(diag.flow_trace)),
                (path_csv, _path_csv(path) if path_csv and path is not None else None)],
         lines=lines, code=code)


# -------------------------------------------------------------------- verify

#: verify's measures of the input; a NaN or Inf among them exits 2.
_VERIFY_MEASURES = ("relation_residual", "kn_energy", "moment_norm",
                    "unitarity_defect_a", "unitarity_defect_b")


@main.command("verify")
@click.option("--in", "in_path", default="-")
@click.option("--out", default="-")
@click.option("--snap-tol", default=SNAP_TOL, show_default=True)
def cmd_verify(in_path, out, snap_tol):
    """Report the structural certificates of a representation, its
    certificate's fields under Certificate.report()'s names.  An input off
    the variety, or with a non-finite measure, exits EXIT_BAD_INPUT without
    certifying, and a failed certify stage exits EXIT_STRUCTURAL, naming
    the stage on stderr as pipeline does; each writes its report and
    manifest first.  A --snap-tol that certify refuses exits
    EXIT_BAD_INPUT with nothing written."""
    _check_outputs(out)
    rep, res = _load_rep(in_path, validate=False)
    p, q, n = rep.group.p, rep.group.q, rep.n
    report = {
        "p": p, "q": q, "n": n,
        "relation_residual": res,
        "in_variety": bool(res <= REP_TOL),
        "kn_energy": kn_energy(rep),
        "moment_norm": hs_norm(moment_map(rep)),
        "schur_gap": schur_gap(rep),
        "unitarity_defect_a": unitarity_defect(rep.A),
        "unitarity_defect_b": unitarity_defect(rep.B),
        "kappa_identity_defect": None,
        **Certificate(order_bound(p, q, n)).report(),
        **minimality_certificate(rep)._asdict(),
    }
    nonfinite = [key for key in _VERIFY_MEASURES if not math.isfinite(report[key])]
    if nonfinite or not report["in_variety"]:
        code = EXIT_BAD_INPUT
        lines = [f"error: non-finite {', '.join(nonfinite)}: cannot certify" if nonfinite
                 else f"error: relation residual {res:.3e} too large to certify"]
    else:
        code, lines = EXIT_OK, []
        try:
            cert = certify(rep, snap_tol)
        except ValueError as exc:
            _fail(EXIT_BAD_INPUT, str(exc))
        report.update(cert.report())
        if cert.form is not None:
            report["kappa_identity_defect"] = hs_norm(cert.form.Q - np.eye(n))
        if cert.error is not None:
            report["structural_failure"] = f"{type(cert.error).__name__}: {cert.error}"
            report["failed_stage"] = cert.failed_stage
            code = EXIT_STRUCTURAL
            lines = [f"error: stage '{cert.failed_stage}': {cert.error}"]
    manifest = build_manifest("verify", {"snap_tol": snap_tol},
                              {"rep": sha256_text(canonical_json(rep_to_json(rep)))}, [out])
    _end(out, canonical_json(report) + "\n", manifest, {"exit": code},
         lines=lines, code=code)


# --------------------------------------------------------------------- suite

@main.command("suite")
@click.option("--pairs", "pairs_spec", default="1:2,1:3,2:1,2:3,3:1,3:2",
              show_default=True, help="'p:q,p:q' pairs; each must be valid and appear once.")
@click.option("--n-max", default=3, show_default=True)
@click.option("--seeds", default=5, show_default=True)
@click.option("--base-seed", default=0, show_default=True)
@click.option("--snap-tol", default=SNAP_TOL, show_default=True)
@click.option("--idempotence", is_flag=True, help="Also re-run each pipeline on its output.")
@click.option("--report", default="-", help="Report JSON path.")
@click.option("--workers", default=None, type=click.IntRange(min=1),
              help="Worker processes (default: up to 4, one per CPU).")
@click.option("--sl", is_flag=True, help="Draw only determinant-one inputs.")
@_with(_flow_options)
def cmd_suite(pairs_spec, n_max, seeds, base_seed, snap_tol, idempotence,
              report, workers, sl, tol, max_iter):
    """Sweep the grid, run the full pipeline on every cell, aggregate.  A
    grid or setting that run_suite refuses exits EXIT_BAD_INPUT before any
    cell runs."""
    _check_outputs(report)
    cfg = _flow_config(tol, max_iter)
    try:
        pairs = [(int(ps), int(qs)) for ps, _, qs in
                 (item.partition(":") for item in pairs_spec.split(","))]
        doc = run_suite(
            pairs, n_max, seeds, cfg, sl=sl, base_seed=base_seed, snap_tol=snap_tol,
            check_idempotence=idempotence, workers=workers,
        )
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))
    manifest = build_manifest(
        "suite",
        {"pairs": [list(x) for x in pairs], "n_max": n_max, "seeds": seeds,
         "base_seed": base_seed, "snap_tol": snap_tol, "idempotence": idempotence,
         "tol": tol, "max_iter": max_iter, "sl": sl},
        {}, [report])
    doc["manifest"] = manifest
    s = doc["summary"]
    _end(report, canonical_json(doc) + "\n", manifest, s,
         lines=[f"suite: {s['converged']}/{s['total_runs']} converged, "
                f"{s['hard_violations']} hard violations"],
         code=EXIT_HARD_VIOLATION if s["hard_violations"] else EXIT_OK)


if __name__ == "__main__":
    main()
