import dataclasses
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import bsretract
from bsretract import (
    FlowConfig,
    NotFiniteOrder,
    Rep,
    certify,
    conjugate,
    flow,
    full_pipeline,
    random_rep,
    relation_residual,
    rep_from_json,
    rep_to_json,
    verify_unitary_rep,
)
from bsretract.bsrep import random_conditioned
from bsretract.cli import main
from bsretract.errors import PipelineStageError, PolarObstruction
from bsretract.retraction import residual_budget
from bsretract.suite import (canonical_json, check_flow, check_pipeline, check_rerun,
                             derive_seed, run_one, run_suite, sha256_text)

from util import (OVERFLOWED_CELLS, conditioned, flow_constants, n5_block, overflowed_rep,
                  rep_of, swap2, zeta)

#: An n = 2 point at (1, 2) whose orbit is not closed, from
#: util.jordan_rep(1, 2, 2, 1).  Flowed at tol 1e-12, its B snaps to
#: order 1 but is not unitary within 1e-8 after the form is applied; at
#: the default tol its snapped spectrum misses B.
JORDAN_REP = Path(__file__).parent / "data" / "jordan_1_2_n2.json"


@pytest.fixture
def runner():
    return CliRunner()


def refuse_constant(token):
    """json.loads's parse_constant for strict JSON, which has no NaN or
    Infinity token."""
    raise ValueError(f"{token} is not strict JSON")


def write_rep(tmp_path, rep, name="rep.json"):
    f = tmp_path / name
    f.write_text(json.dumps(rep_to_json(rep)))
    return str(f)


# -------------------------------------------------------------------- census

def test_census_23_dim2(runner, tmp_path):
    out = tmp_path / "orbits.jsonl"
    csv = tmp_path / "orbits.csv"
    res = runner.invoke(main, ["census", "2", "3", "--n-max", "2",
                               "--out", str(out), "--csv", str(csv)])
    assert res.exit_code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3
    assert records[0]["N"] == 1
    assert {tuple(r["orbit"]) for r in records if r["N"] == 5} == {(1, 4), (2, 3)}
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,N,orbits"
    assert "2,5,2" in lines
    assert (tmp_path / "orbits.jsonl.manifest.json").exists()


def test_census_rejects_equal_absolute_values(runner):
    res = runner.invoke(main, ["census", "2", "2"])
    assert res.exit_code == 2


def test_census_rejects_common_factor(runner):
    res = runner.invoke(main, ["census", "2", "4"])
    assert res.exit_code == 2


def test_census_12_dim1_single_record(runner, tmp_path):
    out = tmp_path / "o.jsonl"
    res = runner.invoke(main, ["census", "1", "2", "--n-max", "1", "--out", str(out)])
    assert res.exit_code == 0
    assert len(out.read_text().splitlines()) == 1


def test_census_byte_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    runner.invoke(main, ["census", "3", "5", "--n-max", "3", "--out", str(a)])
    runner.invoke(main, ["census", "3", "5", "--n-max", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    ma = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
    assert ma["hash"] == mb["hash"]


# ----------------------------------------------------------------- construct

def test_construct_orbit_block(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3",
                               "--orbit", "5:1,4", "--chi", "1", "--out", str(out)])
    assert res.exit_code == 0
    rep = rep_from_json(json.loads(out.read_text()))
    assert np.allclose(rep.A, swap2())


def test_construct_direct_sum_and_random(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3",
                               "--orbit", "5:1,4", "--orbit", "1:0",
                               "--chi", "2j", "--chi", "1", "--out", str(out)])
    assert res.exit_code == 0
    assert rep_from_json(json.loads(out.read_text())).n == 3

    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3",
                               "--random", "3", "--seed", "7", "--out", str(out)])
    assert res.exit_code == 0
    assert rep_from_json(json.loads(out.read_text())).n == 3


def test_construct_rejects_bad_parameters(runner, tmp_path):
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "4", "--random", "2",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3",
                               "--orbit", "5:1,3", "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    # |p| = |q|, and a dimension below 1
    for args, message in ((["--p", "1", "--q", "-1", "--random", "2"], "must differ"),
                          (["--p", "2", "--q", "3", "--random", "0"], "n must be >= 1")):
        res = runner.invoke(main, ["construct", *args, "--out", str(tmp_path / "x.json")])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: ") and message in res.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("args, conflict", [
    (["--orbit", "5:1,4", "--chi", "2", "--chi", "3"], "2 --chi values for 1 --orbit blocks"),
    (["--random", "2", "--chi", "2"], "--random conflicts with --chi"),
    (["--random", "2", "--orbit", "5:1,4"], "--random conflicts with --orbit"),
    (["--orbit", "5:1,4", "--seed", "7"], "--orbit conflicts with --seed"),
    (["--orbit", "5:1,4", "--seed", "0"], "--orbit conflicts with --seed"),
    ([], "provide --random N or at least one --orbit"),
], ids=["surplus-chi", "random-with-chi", "random-with-orbit", "orbit-with-seed",
        "orbit-with-default-seed-value", "neither-random-nor-orbit"])
def test_construct_refuses_options_it_would_ignore(runner, tmp_path, args, conflict):
    # each of these exited 0 with a manifest listing the ignored value
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", *args, "--out", str(out)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {conflict}")
    assert not out.exists()


def test_zero_block_modulus_exits_bad_input(runner):
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--orbit", "0:1"])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("spec", ["4:0", "4:1", "6:1,5"])
def test_block_modulus_sharing_a_factor_with_p_exits_bad_input(runner, tmp_path, spec):
    # q/p mod N needs p invertible mod N; this exited 2 with Python's own
    # "base is not invertible for the given modulus"
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--orbit", spec,
                               "--out", str(out)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    modulus = spec.partition(":")[0]
    assert res.stderr == f"error: block '{spec}': modulus {modulus} must be prime to p = 2\n"
    assert not out.exists()


# ---------------------------------------------------------------------- flow

def test_flow_command(runner, tmp_path):
    rng = np.random.default_rng(0)
    rep = rep_of(2, 3, swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    from bsretract import conjugate

    start = conjugate(rep, conditioned(rng, 2, 5.0))
    in_path = write_rep(tmp_path, start)
    out = tmp_path / "end.json"
    trace = tmp_path / "trace.csv"
    res = runner.invoke(main, ["flow", "--in", in_path, "--out", str(out),
                               "--trace-csv", str(trace)])
    assert res.exit_code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,energy,moment_norm,step"
    assert len(lines) > 2
    end = rep_from_json(json.loads(out.read_text()))
    assert end.n == 2


def test_flow_rejects_corrupted_rep(runner, tmp_path):
    rep = n5_block(1.0)
    doc = rep_to_json(rep)
    doc["A"]["re"][0][0] += 0.5
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    res = runner.invoke(main, ["flow", "--in", str(f), "--out", "-"])
    assert res.exit_code == 2


@pytest.mark.usefixtures("cold_start")
def test_flow_budget_exit_code(runner, tmp_path):
    rng = np.random.default_rng(1)
    from bsretract import conjugate

    start = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    in_path = write_rep(tmp_path, start)
    res = runner.invoke(main, ["flow", "--in", in_path, "--out",
                               str(tmp_path / "e.json"), "--max-iter", "2"])
    assert res.exit_code == 3


def test_flow_overlong_first_step_still_converges(runner, tmp_path):
    # every trial step too long for exp(eta d) to stay finite used to
    # count as a backtrack, so eta0 = 1e30 spent the whole line search on
    # them and reported "iter_budget after 0 iterations" with exit 3
    rep = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--random", "3",
                               "--seed", "1", "--out", str(rep)])
    assert res.exit_code == 0, res.output
    with flow_constants(eta0=1e30):
        res = runner.invoke(main, ["flow", "--in", str(rep), "--out", "-"])
    assert res.exit_code == 0, res.output
    assert "converged" in res.output


@pytest.mark.usefixtures("cold_start")
@pytest.mark.parametrize("command, message", [
    ("flow", "flow: line_search_stalled after"),
    ("pipeline", "pipeline: flow line search stalled"),
])
def test_stalled_line_search_exits_flow_failure(runner, tmp_path, command, message):
    # used to report "iter_budget after 1 iterations" with the budget unspent
    rep = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--random", "3",
                               "--seed", "1", "--out", str(rep)])
    assert res.exit_code == 0, res.output
    with flow_constants(eta0=1e-20):
        res = runner.invoke(main, [command, "--in", str(rep),
                                   "--out", str(tmp_path / "e.json")])
    assert res.exit_code == 3, res.output
    assert message in res.output
    assert "iter_budget" not in res.output


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
@pytest.mark.parametrize("cell", OVERFLOWED_CELLS[:2])
@pytest.mark.parametrize("command, message", [
    ("flow", "flow: line_search_stalled after 0 iterations"),
    ("pipeline", "pipeline: flow line search stalled"),
])
def test_overflowed_input_exits_flow_failure(runner, tmp_path, cell, command, message):
    # A times 1e160 used to end in a NoConvergence traceback with exit 1
    in_path = write_rep(tmp_path, overflowed_rep(*cell))
    res = runner.invoke(main, [command, "--in", in_path, "--out", str(tmp_path / "e.json")])
    assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == 3, res.output
    assert message in res.output and "Traceback" not in res.output


#: The exits at A times 1e80 that differ from the stall at iteration 0:
#: the flow's warm step is finite there, and every cell passes the stop
#: test at its point, the third, whose B has a repeated eigenvalue, after
#: the change of basis inside that eigenspace.
_EXITS_AT_1E80 = {
    **{("flow", cell): (0, "flow: converged after 1 iterations") for cell in OVERFLOWED_CELLS},
    **{("pipeline", cell): (0, "") for cell in OVERFLOWED_CELLS},
}


@pytest.mark.parametrize("scale", [1e80, 1e160])
@pytest.mark.parametrize("cell", OVERFLOWED_CELLS)
@pytest.mark.parametrize("command, code, message", [
    ("flow", 3, "flow: line_search_stalled after 0 iterations"),
    ("pipeline", 3, "pipeline: flow line search stalled"),
    ("verify", 2, "cannot certify"),
])
def test_overflowed_input_exits_without_a_runtime_warning(runner, tmp_path, scale, cell,
                                                          command, code, message):
    # numpy's overflow and invalid-value warnings from the products used
    # to reach stderr before the classified exit
    if scale == 1e80:
        code, message = _EXITS_AT_1E80.get((command, cell), (code, message))
    rep = random_rep(*cell)
    in_path = write_rep(tmp_path, rep_of(*cell[:2], scale * rep.A, rep.B))
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, [command, "--in", in_path, "--out", str(out)])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == code, res.output
    assert message in res.output and "Traceback" not in res.output
    # each file written is strict JSON, NaN energies included; verify's
    # refusal writes its report and its manifest
    for path in (out, tmp_path / "o.json.manifest.json"):
        json.loads(path.read_text(), parse_constant=refuse_constant)
    if command == "pipeline" and code == 0:
        assert verify_unitary_rep(rep_from_json(json.loads(out.read_text())), 1e-8)


@pytest.mark.usefixtures("cold_start")
def test_run_one_reports_a_stalled_line_search():
    with flow_constants(eta0=1e-20):
        record, _ = run_one((2, 3, 3, 1, False, FlowConfig(), 1e-6, False))
    assert record["outcome"] == record["flow_outcome"] == "line_search_stalled"
    assert record["violations"] == []
    assert record["detected_order"] is None


# ------------------------------------------------------------------ pipeline

def test_pipeline_unitary_input_exit_zero(runner, tmp_path):
    in_path = write_rep(tmp_path, n5_block(np.exp(0.3j)))
    out = tmp_path / "end.json"
    diag = tmp_path / "diag.json"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(out),
                               "--diag", str(diag)])
    assert res.exit_code == 0
    end = rep_from_json(json.loads(out.read_text()))
    assert verify_unitary_rep(end, 1e-8)
    d = json.loads(diag.read_text())
    assert d["outcome"] == "ok"
    assert d["detected_order"] == 5
    assert d["normality_exponent"] == 4


def test_pipeline_end_to_end_with_csvs(runner, tmp_path):
    rng = np.random.default_rng(2)
    from bsretract import conjugate

    start = conjugate(n5_block(1.3), conditioned(rng, 2, 10.0))
    in_path = write_rep(tmp_path, start)
    out = tmp_path / "end.json"
    pcsv = tmp_path / "path.csv"
    tcsv = tmp_path / "trace.csv"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(out),
                               "--path-csv", str(pcsv), "--trace-csv", str(tcsv)])
    assert res.exit_code == 0
    assert pcsv.read_text().splitlines()[0] == "t,residual,unitarity_defect_a"
    assert len(pcsv.read_text().splitlines()) == 101
    assert (tmp_path / "end.json.manifest.json").exists()


def test_pipeline_residual_bound_covers_the_path_csv(runner, tmp_path):
    # --samples sets only the rows of --path-csv: the diagnostics bound the
    # residual over every t, so the bound is at least each row's residual,
    # and the endpoint's residual is the last row's
    in_path = write_rep(tmp_path, random_rep(2, 3, 4, 1))
    pcsv, diag = tmp_path / "p.csv", tmp_path / "d.json"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(tmp_path / "e.json"),
                               "--path-csv", str(pcsv), "--samples", "7",
                               "--diag", str(diag)])
    assert res.exit_code == 0, res.output
    residuals = [float(row.split(",")[1]) for row in pcsv.read_text().splitlines()[1:]]
    d = json.loads(diag.read_text())
    assert len(residuals) == 7
    assert max(residuals) <= d["max_path_residual"] <= 1e-8
    assert d["endpoint_residual"] == residuals[-1]


def test_pipeline_rejects_corrupted_rep(runner, tmp_path):
    rep = n5_block(1.0)
    doc = rep_to_json(rep)
    doc["B"]["re"][0][0] += 0.5
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    res = runner.invoke(main, ["pipeline", "--in", str(f), "--out", "-"])
    assert res.exit_code == 2


def test_pipeline_measures_its_input_once(runner, tmp_path, monkeypatch):
    # full_pipeline's gate is the one measurement of the input: the flow
    # records it as iteration 0, so the other calls are the flow's
    # measurement of its warm point, record 1 and its last, and the
    # endpoint check.  The CLI measured the input a second time before
    # full_pipeline's gate.
    from bsretract import bsrep, kempfness

    rep = random_rep(2, 3, 4, 1)
    residual = bsrep.residual
    calls = []

    def counting(a, *args):
        calls.append(a)
        return residual(a, *args)

    monkeypatch.setattr(bsrep, "residual", counting)
    monkeypatch.setattr(kempfness, "residual", counting)
    res = runner.invoke(main, ["pipeline", "--in", write_rep(tmp_path, rep),
                               "--out", str(tmp_path / "u.json")])
    assert res.exit_code == 0, res.output
    on_input = [a for a in calls if a.shape == rep.A.shape and np.array_equal(a, rep.A)]
    assert len(on_input) == 1
    assert len(calls) == 3


@pytest.mark.parametrize("command", ["flow", "pipeline"])
def test_flow_commands_have_no_sl_option(runner, tmp_path, command):
    # one flow serves SL and GL inputs; --sl only selects the draw of
    # construct and suite
    in_path = write_rep(tmp_path, n5_block(1.0))
    res = runner.invoke(main, [command, "--in", in_path, "--out", "-", "--sl"])
    assert res.exit_code == 2
    assert "No such option" in res.output and "--sl" in res.output


@pytest.mark.usefixtures("cold_start")
def test_pipeline_budget_exit(runner, tmp_path):
    rng = np.random.default_rng(3)
    from bsretract import conjugate

    start = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    in_path = write_rep(tmp_path, start)
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out",
                               str(tmp_path / "e.json"), "--max-iter", "2"])
    assert res.exit_code == 3


def test_pipeline_structural_exit(runner, tmp_path):
    # unipotent b: in the variety for (1,2) but never of finite order
    rep = rep_of(1, 2, np.diag([2.0, 1.0]), [[1.0, 1.0], [0.0, 1.0]])
    in_path = write_rep(tmp_path, rep)
    diag = tmp_path / "diag.json"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out",
                               str(tmp_path / "e.json"), "--diag", str(diag),
                               "--tol", "1e-3"])
    assert res.exit_code == 4
    d = json.loads(diag.read_text())
    assert d["outcome"] == "structural_failure"
    assert d["failed_stage"] == "detect_finite_order"


def test_pipeline_byte_deterministic(runner, tmp_path):
    in_path = write_rep(tmp_path, n5_block(1.1))
    outs = []
    for name in ("e1.json", "e2.json"):
        out = tmp_path / name
        res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_exits_structural_on_a_jordan_point(runner, tmp_path):
    # at tol 1e-12 the unitarized B misses unitarity by 1.1e-6; this
    # exited 2, the bad-input code, with retract_a's ValueError.  Which
    # stage fails depends on how far below tol the last step lands: at
    # the default tol it is the order detection.  Both are exit 4.  B's
    # eigenbasis is too ill-conditioned for the flow's warm step.
    out, diag = tmp_path / "end.json", tmp_path / "diag.json"
    args = ["pipeline", "--in", str(JORDAN_REP), "--out", str(out)]
    res = runner.invoke(main, [*args, "--tol", "1e-12", "--diag", str(diag)])
    assert res.exit_code == 4, res.output
    assert "error: stage 'conjugate_into_unitary': unitarized B is not unitary" in res.output
    assert json.loads(diag.read_text())["flow_warm_start"] is False
    res = runner.invoke(main, args)
    assert res.exit_code == 4, res.output
    assert "error: stage 'detect_finite_order'" in res.output
    assert not out.exists()


def _wrong_order(b, moduli, tol):
    return 7


@pytest.mark.parametrize("command", ["pipeline"])
def test_pipeline_and_retract_fail_the_shared_check(runner, tmp_path, monkeypatch, command):
    # the endpoint's re-detected order disagrees with the certificate:
    # suite counts that as a hard violation, and so must the run's exit
    # code (pipeline exited 0 here)
    monkeypatch.setattr("bsretract.suite.detect_finite_order", _wrong_order)
    in_path = write_rep(tmp_path, flow(_conjugated_block())[0])
    res = runner.invoke(main, [command, "--in", in_path, "--out", str(tmp_path / "e.json")])
    assert res.exit_code == 1, res.output
    assert "error: endpoint order 7 differs from certified order 5" in res.output


def test_retract_passing_the_shared_check_exits_zero(runner, tmp_path):
    # unpatched, the same flowed input passes the shared check: pipeline,
    # the one command that retracts, exits 0
    in_path = write_rep(tmp_path, flow(_conjugated_block())[0])
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(tmp_path / "e.json")])
    assert res.exit_code == 0, res.output
    assert "error:" not in res.output


def test_pipeline_diagnostics_carry_the_input_residual(runner, tmp_path):
    # the checks bound the path residual by the input's residual, so the
    # diagnostics and the manifest report it
    in_path = write_rep(tmp_path, flow(_conjugated_block())[0])
    out, diag = tmp_path / "e.json", tmp_path / "d.json"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(out),
                               "--diag", str(diag)])
    assert res.exit_code == 0, res.output
    res0 = relation_residual(rep_from_json(json.loads(Path(in_path).read_text())))
    assert json.loads(diag.read_text())["initial_residual"] == res0
    manifest = json.loads((tmp_path / "e.json.manifest.json").read_text())
    assert manifest["outcome"]["initial_residual"] == res0


def test_pipeline_stops_at_iteration_0_on_a_minimal_point(runner, tmp_path):
    # 2 swap and a diagonal B are normal, so mu = 0: the flow stops at
    # once and the retraction alone takes A to its unitary factor
    rep = rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    in_path = write_rep(tmp_path, rep)
    out, diag = tmp_path / "end.json", tmp_path / "diag.json"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(out),
                               "--diag", str(diag)])
    assert res.exit_code == 0
    assert json.loads(diag.read_text())["flow_iterations"] == 0
    end = rep_from_json(json.loads(out.read_text()))
    assert np.allclose(end.A, swap2(), atol=1e-10)


def test_pipeline_structural_exit_on_forced_tight_snap(runner, tmp_path):
    # perturb one eigenvalue of B by 1e-9: still a variety point to 1e-8,
    # but no root of unity within 1e-12
    b = np.diag([zeta(5, 1), zeta(5, 4) * (1 + 1e-9)])
    rep = rep_of(2, 3, swap2(), b)
    in_path = write_rep(tmp_path, rep)
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", "-",
                               "--snap-tol", "1e-12"])
    assert res.exit_code == 4
    # verify's report names the stage and the distance that failed it
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(report),
                               "--snap-tol", "1e-12"])
    assert res.exit_code == 4, res.output
    doc = json.loads(report.read_text())
    assert doc["failed_stage"] == "detect_finite_order"
    assert doc["structural_failure"].endswith("||lam| - 1| = 1e-09, tolerance 1e-12")


def test_pipeline_exits_structural_when_the_retraction_fails(runner, tmp_path, monkeypatch):
    # certify passes, then retract_a raises: the run fails at stage
    # retract_a, not as bad input
    def obstructed(unitary, num_samples, budget):
        raise PolarObstruction("obstructed for the test")

    monkeypatch.setattr("bsretract.retraction.retract_a", obstructed)
    rep = n5_block(1.0)
    with pytest.raises(PipelineStageError) as err:
        full_pipeline(rep)
    assert err.value.stage == err.value.diagnostics.failed_stage == "retract_a"
    out = tmp_path / "end.json"
    res = runner.invoke(main, ["pipeline", "--in", write_rep(tmp_path, rep), "--out", str(out)])
    assert res.exit_code == 4, res.output
    assert res.stderr.startswith("error: stage 'retract_a': obstructed for the test")
    assert not out.exists()


@pytest.mark.parametrize("eps", [3e-8, 1e-7, 3e-7, 1e-6])
def test_a_form_that_is_not_positive_definite_exits_structural(runner, tmp_path, eps):
    # A = diag(1.5, 1) and the Jordan block B = [[1, eps], [0, 1]] satisfy
    # A B^2 A^-1 = B^3 exactly.  B's eigenvalues snap to 1, and the form
    # built from its nearly parallel eigenvectors is singular, so the
    # invariant form raises NotPositiveDefinite, both on the input (verify)
    # and on its flowed point (pipeline); that used to escape certify and
    # end in a traceback with exit 1
    rep = rep_of(2, 3, np.diag([1.5, 1.0]), [[1.0, eps], [0.0, 1.0]])
    assert relation_residual(rep) == 0.0
    assert certify(rep).failed_stage == "invariant_form"
    in_path = write_rep(tmp_path, rep)
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(report)])
    assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == 4, res.output
    doc = json.loads(report.read_text())
    assert doc["structural_failure"].startswith("NotPositiveDefinite: ")
    assert doc["failed_stage"] == "invariant_form"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(tmp_path / "e.json")])
    assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == 4, res.output
    assert res.stderr.startswith("error: stage 'invariant_form': form eigenvalue ")


def test_near_jordan_sweep_never_ends_in_a_hard_violation(runner, tmp_path):
    # The same family near B = I: a B that passes certify's unitarity gate
    # can still hand retract_a a path whose residual bound exceeds the
    # check's budget (at d = 5e-9, 6e-9 and 7e-9 the bound is 1.0e-8,
    # 1.2e-8 and 1.4e-8 against a budget of 1e-8); retract_a refuses such a
    # path, so every d ends certified with the bound inside the budget
    # (exit 0) or at a named stage (exit 4), never in a hard violation
    # (exit 1).
    for d in [5e-9, 6e-9, 7e-9, *np.logspace(-10, -7, 13).tolist()]:
        rep = rep_of(2, 3, np.diag([1.5, 1.0]), [[1.0, d], [0.0, 1.0]])
        diag_path = tmp_path / "diag.json"
        res = runner.invoke(main, ["pipeline", "--in", write_rep(tmp_path, rep),
                                   "--out", str(tmp_path / "e.json"), "--diag", str(diag_path)])
        assert res.exit_code in (0, 4), (d, res.output)
        if res.exit_code == 0:
            diag = json.loads(diag_path.read_text())
            assert diag["max_path_residual"] <= residual_budget(diag["initial_residual"]), d
        else:
            assert res.stderr.startswith("error: stage '"), (d, res.stderr)
        if d in (5e-9, 6e-9, 7e-9):
            assert res.stderr.startswith("error: stage 'retract_a': path residual bound "), d


def test_verify_names_the_failed_stage_on_stderr(runner, tmp_path):
    # The near-Jordan input of the CI smoke: verify prints pipeline's
    # "error: stage '<stage>': <message>" line for its own certify run,
    # after the report and the manifest.
    rep = rep_of(2, 3, np.diag([1.5, 1.0]), [[1.0, 1e-6], [0.0, 1.0]])
    error = certify(rep).error
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", write_rep(tmp_path, rep),
                               "--out", str(report)])
    assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == 4, res.output
    assert res.stderr == f"error: stage 'invariant_form': {error}\n"
    doc = json.loads(report.read_text())
    assert doc["structural_failure"] == f"NotPositiveDefinite: {error}"
    assert doc["failed_stage"] == "invariant_form"
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["outcome"] == {"exit": 4}


def test_verify_reports_eig_condition_when_the_order_fails(runner, tmp_path):
    # B's basis is chosen before the order detection, so a failure there
    # still reports its condition number; it was null.  The Jordan point's
    # eigenvectors are nearly parallel, which that number shows.
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", str(JORDAN_REP), "--out", str(report)])
    assert res.exit_code == 4, res.output
    doc = json.loads(report.read_text())
    assert doc["failed_stage"] == "detect_finite_order"
    assert doc["detected_order"] is None and doc["form_condition"] is None
    assert np.isfinite(doc["eig_condition"]) and doc["eig_condition"] > 1e6


def test_no_manifest_beside_an_out_that_is_not_a_regular_file(runner, tmp_path):
    # a FIFO, like a device such as /dev/null, takes the output and gets
    # no manifest beside it
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    in_path = write_rep(tmp_path, random_rep(2, 3, 2, 1))
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(fifo)])
    reader.join(timeout=10.0)
    if reader.is_alive():
        # nothing opened the FIFO: open it once, so the reader ends
        with open(fifo, "w"):
            pass
    assert res.exit_code == 0, res.output
    assert rep_from_json(json.loads(received[0])).n == 2
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out", "rep.json"]


def test_retract_command(runner):
    # pipeline is the one command that retracts: on a flowed point its
    # flow stops at iteration 0
    res = runner.invoke(main, ["retract", "--in", "-"])
    assert res.exit_code == 2
    assert "No such command" in res.output
    assert sorted(main.commands) == ["census", "construct", "flow", "pipeline", "suite",
                                     "verify"]


# -------------------------------------------------------------------- verify

def test_verify_reports_certificates(runner, tmp_path):
    in_path = write_rep(tmp_path, n5_block(np.exp(0.2j)))
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(out)])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["detected_order"] == 5
    assert rep["order_bound"] == 5
    assert rep["normality_exponent"] == 4
    assert rep["kappa_invariance_defect"] <= 1e-10
    assert rep["kappa_identity_defect"] <= 1e-10
    # one irreducible block: the stabilizer is the scalars
    assert rep["hessian_kernel_dim"] == 1
    assert 0.0 < rep["hessian_gap"] <= 1.0
    assert rep["moment_over_gap"] <= 1e-12


def test_verify_and_pipeline_report_one_certificate(runner, tmp_path):
    rng = np.random.default_rng(4)
    from bsretract import conjugate
    from bsretract.kempfness import flow

    start = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    flowed, trace = flow(start)
    assert trace.converged
    in_path = write_rep(tmp_path, flowed)
    report, diag = tmp_path / "report.json", tmp_path / "diag.json"
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(report)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out",
                               str(tmp_path / "end.json"), "--diag", str(diag)])
    assert res.exit_code == 0
    rep, d = json.loads(report.read_text()), json.loads(diag.read_text())
    assert rep["kappa_invariance_defect"] <= 1e-8
    keys = certify(flowed).report().keys()
    assert set(keys) == {"order_bound", "detected_order", "normality_exponent",
                         "kappa_invariance_defect", "eig_condition", "form_condition"}
    for key in keys:
        assert rep[key] == d[key], key
    # on a raw draw, which certify decomposes by eig, verify reports the
    # certificate's eigenvector condition number too
    raw = random_rep(2, 3, 4, 1)
    res = runner.invoke(main, ["verify", "--in", write_rep(tmp_path, raw, "raw.json"),
                               "--out", str(report)])
    assert res.exit_code == 0, res.output
    condition = json.loads(report.read_text())["eig_condition"]
    assert condition == certify(raw).eig_condition > 1.0


@pytest.mark.parametrize("cell", [(2, 3, 4, 1), (1, 2, 2, derive_seed(0, 1, 2, 2, 0))],
                         ids=["distinct", "repeated"])
def test_verify_reports_the_schur_gap(runner, tmp_path, cell):
    # E - sum |lambda(A)|^2 - sum |lambda(B)|^2 is positive on a raw input
    # and zero within 1e-12 E at its flowed point, whether B's eigenvalues
    # are distinct or not
    raw = random_rep(*cell)
    flowed, trace = flow(raw)
    assert trace.converged
    gaps = []
    for name, rep in (("raw", raw), ("flowed", flowed)):
        out = tmp_path / f"{name}.json"
        res = runner.invoke(main, ["verify", "--in", write_rep(tmp_path, rep, f"{name}_in.json"),
                                   "--out", str(out)])
        assert res.exit_code in (0, 4), res.output
        report = json.loads(out.read_text())
        gaps.append((report["schur_gap"], report["kn_energy"]))
    (raw_gap, raw_energy), (gap, energy) = gaps
    assert raw_gap > 1e-6 * raw_energy
    assert abs(gap) <= 1e-12 * energy


def test_verify_refuses_off_variety_input(runner, tmp_path):
    rep = rep_of(2, 3, swap2(), np.diag([1.1, 0.9]))
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(rep_to_json(rep)))
    res = runner.invoke(main, ["verify", "--in", str(f), "--out", "-"])
    assert res.exit_code == 2


def test_verify_structural_exit_on_infinite_order(runner, tmp_path):
    rep = rep_of(1, 2, np.diag([2.0, 1.0]), [[1.0, 1.0], [0.0, 1.0]])
    in_path = write_rep(tmp_path, rep)
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", "-"])
    assert res.exit_code == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_input_exits_bad_input(runner, tmp_path):
    # finite entries whose products overflow, so the relation residual is NaN
    big = (1e200 + 1e200j) * np.eye(2)
    in_path = write_rep(tmp_path, rep_of(2, 3, big, big))
    for cmd in ("flow", "pipeline"):
        res = runner.invoke(main, [cmd, "--in", in_path, "--out", "-"])
        assert res.exit_code == 2, (cmd, res.output)


def test_singular_input_exits_bad_input(runner, tmp_path):
    # A = 0 has no inverse, so the relation residual cannot be evaluated
    in_path = write_rep(tmp_path, rep_of(2, 3, np.zeros((2, 2)), np.eye(2)))
    for cmd in ("flow", "pipeline", "verify"):
        res = runner.invoke(main, [cmd, "--in", in_path, "--out", "-"])
        assert isinstance(res.exception, SystemExit), (cmd, res.exception)
        assert res.exit_code == 2, (cmd, res.output)


def _perturbed(rep, kind, size, seed):
    """rep with A scaled by 10^size, conjugated by g of condition at most
    size, or with A moved by a matrix of norm size."""
    rng = np.random.default_rng(seed)
    if kind == "scale":
        return Rep(rep.group, rep.n, 10.0**size * rep.A, rep.B)
    if kind == "conjugate":
        return conjugate(rep, random_conditioned(rng, rep.n, size))
    x = rng.standard_normal((rep.n, rep.n)) + 1j * rng.standard_normal((rep.n, rep.n))
    return Rep(rep.group, rep.n, rep.A + size / np.linalg.norm(x) * x, rep.B)


# Scales stay at or below 1e60: from about 1e90 the flow stalls at
# iteration 0, and from 1e100 numpy's products overflow.
@settings(max_examples=150)
@given(
    pq=st.sampled_from([(2, 3), (1, 2), (-2, 3)]),
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    perturbation=st.one_of(
        st.tuples(st.just("scale"), st.integers(-30, 60)),
        st.tuples(st.just("conjugate"), st.floats(1.0, 1e6)),
        st.tuples(st.just("move"), st.floats(0.0, 1e-3)),
    ),
)
def test_pipeline_and_verify_end_in_a_classified_exit_code(pq, n, seed, perturbation):
    # Valid inputs, scaled, conjugated or moved off the variety: each run
    # ends in an exit code 0-4 with no traceback and no RuntimeWarning.
    rep = _perturbed(random_rep(*pq, n, seed), *perturbation, seed)
    payload = json.dumps(rep_to_json(rep))
    runner = CliRunner()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [runner.invoke(main, [command], input=payload)
                   for command in ("pipeline", "verify")]
    for result in results:
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exc_info)
        assert 0 <= result.exit_code <= 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _payload(edit):
    doc = rep_to_json(n5_block(1.0))
    return json.dumps(edit(doc))


@pytest.mark.parametrize("args, payload", [
    (["verify", "--in", "missing.json"], None),
    (["flow", "--in", "."], None),
    (["construct", "--p", "2", "--q", "3", "--random", "2", "--out", "nodir/x.json"], None),
    (["census", "2", "3", "--out", "nodir/x.jsonl"], None),
    (["census", "2", "3", "--out", "x.jsonl", "--csv", "nodir/c.csv"], None),
    (["verify", "--in", "rep.json"], _payload(lambda d: [d])),
    (["verify", "--in", "rep.json"], _payload(lambda d: {**d, "B": None})),
    (["verify", "--in", "rep.json"], _payload(lambda d: {**d, "p": 2.5})),
    (["verify", "--in", "rep.json"], _payload(lambda d: {**d, "q": True})),
    (["flow", "--in", "rep.json"], _payload(lambda d: {**d, "n": "2"})),
    (["pipeline", "--in", "rep.json"], _payload(lambda d: {**d, "A": {**d["A"], "n": 2.5}})),
], ids=["missing-input", "input-is-a-directory", "construct-out-without-directory",
        "census-out-without-directory", "census-csv-without-directory", "top-level-list",
        "null-matrix", "fractional-p", "boolean-q", "string-n", "fractional-matrix-n"])
def test_unreadable_or_malformed_io_exits_bad_input(runner, tmp_path, monkeypatch, args, payload):
    # every such case is refused with "error:", never a traceback
    monkeypatch.chdir(tmp_path)
    if payload is not None:
        (tmp_path / "rep.json").write_text(payload)
    res = runner.invoke(main, args)
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["census", "2", "3", "--out", "x.jsonl", "--csv", "nodir/c.csv"],
    ["flow", "--in", "rep.json", "--out", "x.json", "--trace-csv", "nodir/t.csv"],
    ["pipeline", "--in", "rep.json", "--out", "x.json", "--diag", "d.json",
     "--path-csv", "nodir/p.csv"],
    ["pipeline", "--in", "rep.json", "--out", "x.json", "--diag", "d.json",
     "--path-csv", "p.csv", "--trace-csv", "nodir/t.csv"],
    ["pipeline", "--in", "rep.json", "--out", "x.json", "--diag", "."],
], ids=["census-csv", "flow-trace-csv", "pipeline-path-csv", "pipeline-trace-csv",
        "pipeline-diag-is-a-directory"])
def test_a_bad_output_path_writes_nothing(runner, tmp_path, monkeypatch, args):
    # every output path is checked before the first is written, so a run
    # that cannot write all of its files writes none of them
    monkeypatch.chdir(tmp_path)
    write_rep(tmp_path, rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)])))
    res = runner.invoke(main, args)
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2
    assert res.stderr.startswith("error: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.json"]


@pytest.mark.parametrize("option, value", [
    ("--tol", "inf"), ("--tol", "nan"),
])
def test_non_finite_flow_setting_exits_bad_input(runner, tmp_path, option, value):
    # --tol inf used to report "converged after 0 iterations" and exit 0
    in_path = write_rep(tmp_path, random_rep(2, 3, 3, 1))
    for cmd in ("flow", "pipeline"):
        res = runner.invoke(main, [cmd, "--in", in_path, "--out", "-", option, value])
        assert isinstance(res.exception, SystemExit), (cmd, res.exception)
        assert res.exit_code == 2, (cmd, res.output)
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                               option, value, "--report", str(tmp_path / "r.json")])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_verify_reports_null_certificate_where_the_hessian_overflows(runner, tmp_path):
    # the relation holds, but the energy overflows and the moment norm and
    # the defect of A are NaN: the report is written and verify exits 2
    # instead of certifying the point
    rep = rep_of(2, 3, 1e160 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    in_path = write_rep(tmp_path, rep)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(out)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert "non-finite kn_energy, moment_norm, unitarity_defect_a" in res.output
    # strict JSON: the non-finite measures are written as strings
    report = json.loads(out.read_text(), parse_constant=refuse_constant)
    assert report["in_variety"] is True
    assert report["kn_energy"] == "Infinity"
    assert report["moment_norm"] == report["unitarity_defect_a"] == "NaN"
    assert report["detected_order"] is None
    for field in ("hessian_kernel_dim", "hessian_gap", "moment_over_gap"):
        assert report[field] is None


def test_verify_rejects_the_retired_sampler_options(runner, tmp_path):
    # verify has no sampled minimality check, so its options are unknown
    in_path = write_rep(tmp_path, random_rep(2, 3, 3, 1))
    out = tmp_path / "out.json"
    for option in (["--seed", "1"], ["--minimality-samples", "5"]):
        res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(out), *option])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "inf", "nan"])
def test_bad_snap_tolerance_exits_bad_input(runner, tmp_path, value):
    # with --snap-tol inf, verify used to report order 1 for this B, whose
    # unitarity defect is far from zero, and exit 0; a flow stopped by its
    # budget never reaches the certificate, so the tolerance is checked
    # before anything runs
    in_path = write_rep(tmp_path, random_rep(2, 3, 3, 1))
    out = tmp_path / "out.json"
    for cmd in (["verify"], ["pipeline", "--max-iter", "1"]):
        res = runner.invoke(main, cmd + ["--in", in_path, "--out", str(out),
                                         "--snap-tol", value])
        assert isinstance(res.exception, SystemExit), (cmd, res.exception)
        assert res.exit_code == 2, (cmd, res.output)
        assert not out.exists(), cmd
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "2", "--seeds", "2",
                               "--max-iter", "1", "--workers", "2",
                               "--snap-tol", value, "--report", str(report)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert not report.exists()


def test_bad_flow_config_exits_bad_input(runner, tmp_path):
    in_path = write_rep(tmp_path, n5_block(1.0))
    for cmd in ("flow", "pipeline"):
        res = runner.invoke(main, [cmd, "--in", in_path, "--out", "-", "--tol", "-1"])
        assert isinstance(res.exception, SystemExit), (cmd, res.exception)
        assert res.exit_code == 2, (cmd, res.output)
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                               "--max-iter", "0", "--report", str(tmp_path / "r.json")])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output


def test_too_few_samples_exits_bad_input(runner, tmp_path):
    # a path needs both ends; one sample used to end the run in a
    # ValueError traceback once it reached the retraction
    in_path = write_rep(tmp_path, random_rep(2, 3, 3, 1))
    out = tmp_path / "out.json"
    res = runner.invoke(main, ["pipeline", "--in", in_path, "--out", str(out),
                               "--samples", "1"])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert not out.exists()


def test_suite_refuses_the_retired_samples_option(runner, tmp_path):
    # a suite writes no path CSV and checks each path by its residual
    # bound, so a sample count would change nothing
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                               "--samples", "3", "--report", str(report)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output
    assert not report.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_suite_refuses_fewer_than_one_worker(runner, tmp_path, workers):
    # 0 used to run the default pool and -1 one process, both exiting 0
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                               "--workers", workers, "--report", str(report)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert "--workers" in res.output
    assert not report.exists()


def test_suite_ignores_the_removed_thread_variable(runner, tmp_path, monkeypatch):
    # --workers is the one way to set the worker count
    monkeypatch.setenv("BSRETRACT_THREADS", "abc")
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                               "--report", str(report)])
    assert res.exit_code == 0, (res.output, res.exception)
    assert json.loads(report.read_text())["summary"]["total_runs"] == 1


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, imports, expected", [
    ({}, "bsretract", ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, "bsretract", ["3", "1", "1"]),
    ({}, "numpy, bsretract", ["None", "None", "None"]),
])
def test_import_pins_blas_threads_unless_set_or_too_late(preset, imports, expected):
    # A fresh process that imports the package before numpy runs BLAS on
    # one thread; a count the user set wins, and a process that imported
    # numpy first keeps its threads.
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(bsretract.__file__).parents[1]))
    code = f"import os, {imports}; print(*(os.environ.get(v) for v in {_THREAD_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == expected


# --------------------------------------------------------------------- suite

def test_run_one_classifies_spurious_orders():
    # (2,3), n = 8: these cells snap an eigenvalue to an order dividing no
    # |2^k - 3^k|, which must end as a classified structural failure
    for i in (1, 3, 4):
        record, _ = run_one((2, 3, 8, derive_seed(0, 2, 3, 8, i), False, FlowConfig(),
                             1e-6, False))
        assert record["outcome"] == "structural_failure"
        assert record["failed_stage"] == "detect_finite_order"


#: (cell, flow constants, idempotence, outcome): a certified cell, a
#: structural one (see test_run_one_classifies_spurious_orders) and a
#: stalled one, whose flows start cold.
_RECORD_CASES = [
    ((2, 3, 3), {}, True, "ok"),
    ((2, 3, 8), {}, False, "structural_failure"),
    ((2, 3, 3), {"eta0": 1e-20}, False, "line_search_stalled"),
]


@pytest.mark.parametrize("cell, constants, idempotence, outcome", _RECORD_CASES,
                         ids=[c[3] for c in _RECORD_CASES])
def test_run_one_record_is_its_pipeline_run(request, runner, tmp_path, cell, constants,
                                            idempotence, outcome):
    # a cell's record carries the diagnostics of its run, and its manifest
    # hash is that of `construct --random | pipeline` at the cell's seed
    if constants:
        request.getfixturevalue("cold_start")
    p, q, n = cell
    seed = derive_seed(0, p, q, n, 1)
    rep = random_rep(p, q, n, seed)
    with flow_constants(**constants):
        record, manifest = run_one((p, q, n, seed, False, FlowConfig(), 1e-6,
                                    idempotence))
        try:
            _, diag = full_pipeline(rep, FlowConfig(), num_samples=100, snap_tol=1e-6)
        except PipelineStageError as exc:
            diag = exc.diagnostics
        built = runner.invoke(main, ["construct", "--p", str(p), "--q", str(q), "--random",
                                     str(n), "--seed", str(seed),
                                     "--out", str(tmp_path / "c.json")])
        assert built.exit_code == 0, built.output
        runner.invoke(main, ["pipeline", "--in", str(tmp_path / "c.json"), "--samples", "100",
                             "--snap-tol", "1e-6", "--out", str(tmp_path / "u.json"),
                             "--diag", str(tmp_path / "d.json")])
    assert record["outcome"] == outcome
    assert ("idempotence_delta" in record) == idempotence
    expected = diag.to_dict()
    assert {k: record[k] for k in expected} == expected
    assert {k: record[k] for k in expected} == json.loads((tmp_path / "d.json").read_text())
    written = json.loads((tmp_path / "u.json.manifest.json").read_text())
    assert record["manifest_hash"] == manifest["hash"] == written["hash"]


def _reject_order(b, moduli, tol):
    raise NotFiniteOrder("rejected for the test")


@pytest.mark.parametrize("detect", [_reject_order, _wrong_order])
def test_run_one_recertifies_the_endpoint(monkeypatch, detect):
    # the suite's own endpoint check must be able to fail, and acceptance
    # criterion 2 must see the failure
    monkeypatch.setattr("bsretract.suite.detect_finite_order", detect)
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), False, FlowConfig(), 1e-6, False)
    record, _ = run_one(task)
    assert record["outcome"] == "ok"
    assert record["detected_order"] != 7
    hits = [v for v in record["violations"]
            if "order" in v or "snap" in v or "structural" in v]
    assert len(hits) == 1, record["violations"]


def test_run_one_flags_nan_residuals(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr("bsretract.kempfness.FlowTrace.max_residual", lambda self: nan)

    def nan_bound(*args, **kwargs):
        endpoint, diag = full_pipeline(*args, **kwargs)
        diag.max_path_residual = nan
        return endpoint, diag

    monkeypatch.setattr("bsretract.suite.full_pipeline", nan_bound)
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), False, FlowConfig(), 1e-6, False)
    record, _ = run_one(task)
    assert record["outcome"] == "ok"
    assert any(v.startswith("flow residual nan") for v in record["violations"])
    assert any(v.startswith("path residual bound nan") for v in record["violations"])


def test_run_one_flags_a_nan_idempotence_delta(monkeypatch):
    monkeypatch.setattr("bsretract.suite.hs_norm", lambda x: float("nan"))
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), False, FlowConfig(), 1e-6, True)
    record, _ = run_one(task)
    assert record["outcome"] == "ok"
    assert "pipeline not idempotent: delta nan" in record["violations"]


def test_run_one_records_a_failed_rerun(monkeypatch):
    # the idempotence rerun raising is a violation of the cell, not a crash
    first = full_pipeline
    calls = []

    def rerun_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise NotFiniteOrder("rejected for the test")
        return first(*args, **kwargs)

    monkeypatch.setattr("bsretract.suite.full_pipeline", rerun_fails)
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), False, FlowConfig(), 1e-6, True)
    record, _ = run_one(task)
    assert len(calls) == 2
    assert record["outcome"] == "ok"
    assert record["violations"] == ["pipeline rerun failed: rejected for the test"]
    assert "idempotence_delta" not in record


def _conjugated_block():
    # the (2, 3) mod-5 block conjugated off the unitary group: order 5
    return conjugate(n5_block(1.3), conditioned(np.random.default_rng(2), 2, 10.0))


@pytest.fixture(scope="module")
def certified_run():
    rep = _conjugated_block()
    endpoint, diag = full_pipeline(rep)
    assert diag.outcome == "ok" and diag.detected_order == diag.order_bound == 5
    assert diag.initial_residual == relation_residual(rep)
    return endpoint, diag


def _scaled_a(e):
    return Rep(e.group, e.n, 2.0 * e.A, e.B)


def _irrational_b(e):
    return Rep(e.group, e.n, e.A, np.diag(np.exp(1j * np.array([1.0, 2.0]))))


def _moved_a(e):
    return Rep(e.group, e.n, e.A + 1e-6 * np.eye(e.n), e.B)


_NAN = float("nan")


def _with_last_record(trace, **changes):
    last = dataclasses.replace(trace.records[-1], **changes)
    return dataclasses.replace(trace, records=(*trace.records[:-1], last))


def _energy_rise(trace):
    # one more accepted step, raising the energy by twice the resolution
    last = trace.records[-1]
    rise = 2.0 * trace.resolution_unit * (1.0 + last.energy)
    step = dataclasses.replace(last, iteration=last.iteration + 1, energy=last.energy + rise)
    return dataclasses.replace(trace, records=(*trace.records, step))


def _residual_one(trace):
    return _with_last_record(trace, residual=1.0)


def _nan_residual(trace):
    return _with_last_record(trace, residual=_NAN)

#: (check, changes to the diagnostics, change to the endpoint or, for
#: check_flow, to the flow trace, violation).
_CHECK_CASES = [
    ("flow", {}, _energy_rise, "energy increased along an accepted step"),
    ("flow", {}, _residual_one, "flow residual 1.000e+00 exceeded bound"),
    ("flow", {}, _nan_residual, "flow residual nan exceeded bound"),
    ("pipeline", {"detected_order": 25}, None, "order 25 exceeds bound 5"),
    ("pipeline", {"detected_order": None}, None, "order None exceeds bound 5"),
    ("pipeline", {"order_bound": None}, None, "order 5 exceeds bound None"),
    ("pipeline", {"detected_order": 1}, None,
     "endpoint order 5 differs from certified order 1"),
    ("pipeline", {}, _irrational_b, "endpoint order not certified: "),
    ("pipeline", {"max_path_residual": 1.0}, None, "path residual bound 1.000e+00 exceeded"),
    ("pipeline", {"max_path_residual": _NAN}, None, "path residual bound nan exceeded"),
    ("pipeline", {"max_path_residual": None}, None, "path residual bound None exceeded"),
    ("pipeline", {}, _scaled_a, "endpoint failed the unitary-representation check"),
    ("rerun", {"outcome": "iter_budget"}, None, "pipeline not idempotent: delta 0.000e+00"),
    ("rerun", {}, _moved_a, "pipeline not idempotent: delta 1.414e-06"),
]


def _run_check(check, endpoint, diag):
    if check == "flow":
        return check_flow(diag.flow_trace, diag.initial_residual)
    if check == "pipeline":
        return check_pipeline(endpoint, diag, 1e-6)
    return check_rerun(endpoint, endpoint, diag)[0]


@pytest.mark.parametrize("check", ["flow", "pipeline", "rerun"])
def test_checks_pass_a_certified_run(certified_run, check):
    endpoint, diag = certified_run
    assert _run_check(check, endpoint, diag) == []


def _case_id(case):
    check, changes, mutate, _ = case
    what = ",".join(f"{k}={v}" for k, v in changes.items()) or mutate.__name__.lstrip("_")
    return f"{check}-{what}"


@pytest.mark.parametrize("check,changes,mutate,violation", _CHECK_CASES,
                         ids=[_case_id(c) for c in _CHECK_CASES])
def test_each_check_can_fail(certified_run, check, changes, mutate, violation):
    # one mutated field or endpoint per case; a None or NaN measure is a
    # violation, never a TypeError
    endpoint, diag = certified_run
    diag = dataclasses.replace(diag, **changes)
    if check == "flow":
        diag, mutate = dataclasses.replace(diag, flow_trace=mutate(diag.flow_trace)), None
    if check == "rerun":
        violations, delta = check_rerun(endpoint, mutate(endpoint) if mutate else endpoint, diag)
        assert violations == [violation] and delta >= 0.0
        return
    violations = _run_check(check, mutate(endpoint) if mutate else endpoint, diag)
    assert any(v.startswith(violation) for v in violations), violations


def test_suite_past_the_acceptance_grid_exits_classified(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "8",
                               "--seeds", "5", "--report", str(report)])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    doc = json.loads(report.read_text())
    s = doc["summary"]
    assert s["total_runs"] == 40
    assert s["hard_violations"] >= 3
    assert all(v["what"].startswith("structural failure at ")
               for v in s["violations"])


def test_suite_small_grid(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--pairs", "1:2,2:3", "--n-max", "2",
                               "--seeds", "2", "--report", str(report),
                               "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["total_runs"] == 8
    assert doc["summary"]["converged"] == 8
    assert doc["summary"]["hard_violations"] == 0
    for run in doc["runs"]:
        assert run["manifest_hash"] in doc["manifests"]


def test_suite_base_seed_sets_every_cell_seed(runner, tmp_path):
    # each cell's seed is derive_seed(base, p, q, n, i), so another base
    # draws other cells, and a cell still replays by its manifest hash
    docs = {}
    for base in (0, 1):
        report = tmp_path / f"r{base}.json"
        res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "2", "--seeds", "2",
                                   "--base-seed", str(base), "--workers", "1",
                                   "--report", str(report)])
        assert res.exit_code == 0, res.output
        docs[base] = json.loads(report.read_text())
    runs = docs[1]["runs"]
    assert docs[1]["manifest"]["parameters"]["base_seed"] == 1
    assert [(r["n"], r["seed"]) for r in runs] == [
        (n, derive_seed(1, 2, 3, n, i)) for n in (1, 2) for i in (0, 1)]
    assert not {r["seed"] for r in runs} & {r["seed"] for r in docs[0]["runs"]}
    assert not docs[1]["manifests"].keys() & docs[0]["manifests"].keys()
    cell = runs[-1]
    drawn = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--random",
                                 str(cell["n"]), "--seed", str(cell["seed"])])
    assert drawn.exit_code == 0, drawn.output
    out = tmp_path / "end.json"
    res = runner.invoke(main, ["pipeline", "--out", str(out)], input=drawn.stdout)
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "end.json.manifest.json").read_text())
    assert manifest["hash"] == cell["manifest_hash"]


def test_suite_default_grid(runner, tmp_path):
    # default pairs, the valid (p, q) with p, q in 1..3; n <= 3, 5 seeds:
    # everything converges with the predicted structure
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--report", str(report), "--workers", "2"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    s = doc["summary"]
    assert s["total_runs"] == 6 * 3 * 5
    assert doc["manifest"]["parameters"]["pairs"] == [
        [1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]
    assert s["converged"] == s["total_runs"]
    assert s["hard_violations"] == 0
    assert s["order_histogram"]
    assert s["exponent_histogram"]
    assert s["max_iterations"] <= 10**5


def test_suite_sl_mode(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "2",
                               "--seeds", "1", "--sl", "--report", str(report),
                               "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["hard_violations"] == 0
    assert doc["summary"]["converged"] == doc["summary"]["total_runs"] == 2
    # the suite's manifest records the flag; each cell's is pipeline's,
    # which hashes the determinant-one input drawn
    assert doc["manifest"]["parameters"]["sl"] is True
    drawn = [random_rep(2, 3, r["n"], r["seed"], sl=True) for r in doc["runs"]]
    drawn = {sha256_text(canonical_json(rep_to_json(rep))) for rep in drawn}
    assert {m["inputs"]["rep"] for m in doc["manifests"].values()} == drawn


@pytest.mark.parametrize("args", [
    ["census", "2", "3", "--n-max", "19", "--out"],
    ["census", "2", "3", "--n-max", "30", "--out"],
    ["construct", "--p", "2", "--q", "3", "--random", "30", "--seed", "1", "--out"],
    ["suite", "--pairs", "2:3", "--n-max", "30", "--seeds", "1", "--workers", "1",
     "--report"],
])
def test_census_modulus_past_limit_exits_bad_input(runner, tmp_path, args):
    # at (2, 3) the scans up to k = 17 would walk more than 2^27 elements;
    # the commands refuse them before the scan, and suite before any cell
    # runs.
    out = tmp_path / "out.json"
    res = runner.invoke(main, args + [str(out)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert "k = 17" in res.output and "m = |p^k - q^k| = 129009091" in res.output
    assert "2^27" in res.output
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--seeds", "0"], "the grid has no cell to run: 1 pairs, n_max 3, seeds 0"),
    (["--seeds", "-1"], "the grid has no cell to run: 1 pairs, n_max 3, seeds -1"),
    (["--n-max", "0"], "the grid has no cell to run: 1 pairs, n_max 0, seeds 5"),
    (["--n-max", "-2"], "the grid has no cell to run: 1 pairs, n_max -2, seeds 5"),
    (["--pairs", "2:3,1:2,2:3", "--n-max", "1", "--seeds", "1"], "pairs repeat 2:3"),
], ids=["no-seeds", "negative-seeds", "no-dimension", "negative-n-max", "repeated-pair"])
def test_suite_refuses_an_empty_grid_or_a_repeated_pair(runner, tmp_path, args, message):
    # an empty grid exited 0 with "converged_rate": 1.0 over 0 runs, and a
    # repeated pair ran each of its cells twice
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--workers", "1", *args,
                               "--report", str(report)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {message}")
    assert not report.exists()


def test_run_suite_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="no cell"):
        run_suite([(2, 3)], 1, 0, FlowConfig())


def _no_cell(task):
    raise AssertionError(f"cell {task[:4]} ran")


@pytest.mark.parametrize("pairs, settings, message", [
    ([(2, 3), (2, 3)], {}, "pairs repeat 2:3"),
    ([], {}, "no cell"),
    ([(2, 2)], {}, "must be coprime"),
    ([(2, 3)], {"snap_tol": float("nan")}, "snap_tol must be finite and positive"),
], ids=["repeated-pair", "no-pair", "invalid-pair", "nan-snap-tol"])
def test_run_suite_refuses_before_its_first_cell(monkeypatch, pairs, settings, message):
    # a library caller's repeated pair used to run each of its cells twice
    monkeypatch.setattr("bsretract.suite.run_one", _no_cell)
    with pytest.raises(ValueError, match=message):
        run_suite(pairs, 1, 1, FlowConfig(), workers=1, **settings)


def test_suite_rejects_invalid_explicit_pair(runner, tmp_path):
    res = runner.invoke(main, ["suite", "--pairs", "2:2",
                               "--report", str(tmp_path / "r.json")])
    assert res.exit_code == 2


@pytest.mark.parametrize("command, option", [
    ("flow", "--eta0"), ("pipeline", "--eta0"), ("suite", "--eta0"),
    ("suite", "--p-list"), ("suite", "--q-list"),
])
def test_retired_options_exit_bad_input(runner, command, option):
    # eta0 is a constant of the flow, and --pairs is suite's one pair list
    res = runner.invoke(main, [command, option, "1"])
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output


def test_suite_non_integer_list_exits_bad_input(runner, tmp_path):
    res = runner.invoke(main, ["suite", "--pairs", "a:3", "--n-max", "1", "--seeds", "1",
                               "--report", str(tmp_path / "r.json")])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output


# ----------------------------------------------------------------- manifests

_MANIFEST_INPUTS = {
    "unitary": lambda: n5_block(np.exp(0.2j)),
    "overflowed": lambda: overflowed_rep(2, 3, 4, 1),
    # in the variety for (1, 2), but B is unipotent: never of finite order
    "unipotent": lambda: rep_of(1, 2, np.diag([2.0, 1.0]), [[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("command, rep, args, code", [
    ("verify", "unitary", [], 0),
    ("verify", "overflowed", [], 2),
    ("verify", "unipotent", [], 4),
    ("pipeline", "unitary", [], 0),
    ("pipeline", "overflowed", [], 3),
    ("pipeline", "unipotent", ["--tol", "1e-3"], 4),
    ("flow", "unitary", [], 0),
    ("flow", "overflowed", [], 3),
    ("construct", None, ["--p", "2", "--q", "3", "--random", "2", "--seed", "1"], 0),
    ("census", None, ["2", "3", "--n-max", "2"], 0),
    ("suite", None, ["--pairs", "2:3", "--n-max", "1", "--seeds", "1", "--workers", "1"], 0),
], ids=lambda x: x if isinstance(x, (str, int)) else None)
def test_every_exit_writes_its_own_manifest(runner, tmp_path, command, rep, args, code):
    # verify's refusals (exit 2) wrote a new report and left an earlier
    # run's manifest beside it
    out, manifest = tmp_path / "out.json", tmp_path / "out.json.manifest.json"
    manifest.write_text('{"command": "stale"}\n')
    if rep is not None:
        args = [*args, "--in", write_rep(tmp_path, _MANIFEST_INPUTS[rep]())]
    out_option = "--report" if command == "suite" else "--out"
    res = runner.invoke(main, [command, *args, out_option, str(out)])
    assert res.exit_code == code, res.output
    doc = json.loads(manifest.read_text(), parse_constant=refuse_constant)
    assert doc["command"] == command
    assert doc["outputs"] == [str(out)] and "outcome" in doc
