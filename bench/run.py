"""Benchmark of the construct -> flow -> certify -> retract pipeline.

    python3 bench/run.py --workload grid --seed 0 --seconds 15 --trace 0

Runs in one process with BLAS pinned to one thread.  Set-up (imports,
census, input construction, warm-up) is measured in this process and in
fresh child processes, and its median is reported.  With `--trace 0` it
then runs whole passes over the workload's cells while the next pass is
expected to end within `--seconds` (at least one) and prints the
end-to-end metrics; with `--trace 1` it runs one untraced and one traced
pass and prints the per-layer metrics.  Every cell's output is checked
outside its timed span; every eighth cell is run once more at the end,
and its counts must repeat exactly.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  Details of each run go to `bench/out/`.  See bench/README.md
for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

PROCESS_START = perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# One suite worker, should anything consult the suite's worker cap.
os.environ["BSRETRACT_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: A failed cell is charged this much plus its own elapsed time, which
#: ranks it after every certified cell (no seed cell takes a tenth of it).
CELL_LIMIT_S = 10.0
#: Set-ups per run (this process plus fresh children); the median is reported.
SETUP_SAMPLES = 3
#: Cell time between two runs of the reference kernel (see speed.py).
STRETCH_S = 0.25
#: Throughput is the median over this many interleaved batches of cells,
#: so that one cell whose flow needs tens of thousands of iterations
#: moves one batch, not the figure.
BATCHES = 8
#: After the timed passes every this many cells one is run again, and its
#: counts must match those of its first run.
RECHECK_STRIDE = 8
#: Largest share of traced time that may fall outside every library span.
MAX_UNACCOUNTED_SHARE = 0.05

EXIT_USAGE = 2
EXIT_NONDETERMINISTIC = 3


def fail(code: int, message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="Set up once, print the set-up time and exit.")
    return ap.parse_args(argv)


if not (SRC / "bsretract" / "__init__.py").is_file():
    fail(EXIT_USAGE, f"no library source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bsretract  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

IMPORTED = perf_counter()

if Path(bsretract.__file__).resolve().parent != SRC / "bsretract":
    fail(EXIT_USAGE, f"imported bsretract from {bsretract.__file__}, not {SRC}")


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(wl.WORKLOADS):
        fail(EXIT_USAGE, f"BENCHMARK.json workloads {names} != {sorted(wl.WORKLOADS)}")
    return spec


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload_seed": seed,
    }


def warm_up(workload: str, cells) -> None:
    try:
        wl.execute(workload, cells[0], {})
    except Exception:  # the timed passes classify this cell's failure
        pass


def run_pass(workload: str, cells, tracer=None, phase: str = "") -> list[dict]:
    """One pass over every cell; the timed span covers only the library calls.

    Each record holds the raw time `s` and the time `ref_s` scaled by the
    reference kernel run before and after its stretch of cells."""
    records = []
    scaler = speed.Scaler(STRETCH_S)
    for cell in cells:
        out: dict = {}
        error = None
        if tracer is not None:
            tracer.open(phase, cell.cell_id)
        t0 = perf_counter()
        try:
            wl.execute(workload, cell, out)
        except Exception as exc:  # any exception is a failed cell, never the end of the run
            error = exc
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.close()
        record = wl.classify(workload, cell, out, error)
        record["cell"] = cell.cell_id
        record["s"] = elapsed
        records.append(record)
        scaler.add(elapsed, lambda ref_s, r=record: r.__setitem__("ref_s", ref_s))
    scaler.flush()
    return records


def cell_counts(records: list[dict]) -> dict[str, tuple]:
    return {r["cell"]: (r["outcome"], r["iterations"], r["backtracks"], r["order"])
            for r in records}


def check_determinism(label: str, reference: dict, again: dict) -> None:
    """Counts of every cell run again must equal those of its first run
    exactly; otherwise fail loudly."""
    for cell_id, counts in again.items():
        if reference.get(cell_id) != counts:
            fail(EXIT_NONDETERMINISTIC,
                 f"{label}: counts of cell {cell_id} differ: "
                 f"{reference.get(cell_id)} then {counts}")


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(proc.returncode or 1, f"child set-up failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_setup(workload: str, seed: int):
    """Imports (already done), census, input construction and one warm-up
    cell; returns the cells and the set-up time from interpreter start in
    reference seconds."""
    scaler = speed.Scaler(STRETCH_S)
    total = [0.0]

    def count(ref_s: float) -> None:
        total[0] += ref_s

    scaler.add(IMPORTED - PROCESS_START, count)
    last = perf_counter()

    def lap() -> None:
        nonlocal last
        scaler.add(perf_counter() - last, count)
        last = perf_counter()

    cells = wl.set_up(workload, seed, lap)
    warm_up(workload, cells)
    lap()
    scaler.flush()
    return cells, total[0]


def nearest_rank(sorted_values: list[float], share: float) -> float:
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def end_to_end(passes: list[list[dict]], setup_samples: list[float]) -> dict:
    ok = [r["outcome"] == "ok" for r in passes[0]]
    times = [statistics.median(p[i]["ref_s"] for p in passes) for i in range(len(ok))]
    charged = sorted(s if certified else CELL_LIMIT_S + s for s, certified in zip(times, ok))
    return {
        "setup_s": statistics.median(setup_samples),
        "certified_per_s": statistics.median(
            sum(ok[b::BATCHES]) / sum(times[b::BATCHES]) for b in range(BATCHES)
        ),
        "cell_p50_ms": 1e3 * nearest_rank(charged, 0.5),
        "cell_p90_ms": 1e3 * nearest_rank(charged, 0.9),
        "certified_share": sum(ok) / len(ok),
    }


def untraced_run(workload: str, seed: int, seconds: float, cells, own_setup: float):
    setup_samples = [own_setup] + [
        child_setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    passes: list[list[dict]] = []
    t0 = perf_counter()
    # Whole passes while the next one is expected to end within `seconds`.
    while not passes or (perf_counter() - t0) * (1 + 1 / len(passes)) <= seconds:
        passes.append(run_pass(workload, cells))
    reference = cell_counts(passes[0])
    for i, p in enumerate(passes[1:], 2):
        check_determinism(f"pass {i}", reference, cell_counts(p))
    rerun = run_pass(workload, cells[::RECHECK_STRIDE])
    check_determinism("rerun", reference, cell_counts(rerun))
    details = {"passes": len(passes), "setup_samples_s": setup_samples}
    return passes, end_to_end(passes, setup_samples), details


def traced_run(workload: str, seed: int, names: list[str]):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.open("setup", "setup")
    cells = wl.set_up(workload, seed)
    tracer.close()
    tracer.uninstall()
    warm_up(workload, cells)
    untraced = run_pass(workload, cells)
    tracer.install()
    traced = run_pass(workload, cells, tracer, "pass")
    rerun = run_pass(workload, cells[::RECHECK_STRIDE], tracer, "rerun")
    tracer.uninstall()
    reference = cell_counts(untraced)
    check_determinism("traced pass", reference, cell_counts(traced))
    check_determinism("traced rerun", reference, cell_counts(rerun))
    check_determinism("traced rerun", tracer.cell_counts("pass"), tracer.cell_counts("rerun"))
    untraced_wall = sum(r["ref_s"] for r in untraced)
    traced_wall = sum(r["ref_s"] for r in traced)
    metrics = tracer.metrics(("setup", "pass"), names, untraced_wall, traced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{workload}_seed{seed}.csv.gz"
    tracer.write(spans_path)
    if metrics["trace.unaccounted_share"] > MAX_UNACCOUNTED_SHARE:
        fail(1, f"self times leave {metrics['trace.unaccounted_share']:.1%} of the "
                "traced time unaccounted")
    details = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
               "absent": tracer.absent, "untraced_wall_s": untraced_wall,
               "traced_wall_s": traced_wall}
    return [traced], metrics, details


def main() -> int:
    args = parse_args(sys.argv[1:])
    spec = load_spec()
    if args.workload not in wl.WORKLOADS:
        fail(EXIT_USAGE, f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[1]}))
        return 0
    if args.trace:
        declared = spec["per_layer"]
        passes, metrics, details = traced_run(
            args.workload, args.seed, [m["name"] for m in declared]
        )
    else:
        declared = spec["end_to_end"]
        cells, own_setup = timed_setup(args.workload, args.seed)
        passes, metrics, details = untraced_run(
            args.workload, args.seed, args.seconds, cells, own_setup
        )
    if set(metrics) != {m["name"] for m in declared}:
        fail(1, f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    # Each cell counts once: its outcome repeats in every pass (checked
    # above), so `attempted` and `failed` depend on the seed alone and not
    # on how many passes fit in `--seconds`.
    records = passes[0]
    failed = sum(r["outcome"] != "ok" for r in records)
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    result = {
        "correct": not any(r["outcome"] == "check_failed" for p in passes for r in p),
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "fail_share": failed / len(records), "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, **details,
        "result": result,
        "cells": [{k: r[k] for k in ("cell", "outcome", "s", "ref_s", "iterations", "backtracks",
                                     "order", "problems", "error")} for r in passes[0]],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"environment {json.dumps(report['environment'], sort_keys=True)}")
    print(f"outcomes {json.dumps(outcomes, sort_keys=True)}")
    print(f"fail_share {report['fail_share']:.6g} ratio")
    print(f"peak_rss_mb {report['peak_rss_mb']:.6g} MB")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
