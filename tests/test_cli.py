import json

import numpy as np
import pytest
from click.testing import CliRunner

from bsretract import (
    FlowConfig,
    NotFiniteOrder,
    random_rep,
    rep_from_json,
    rep_to_json,
    verify_unitary_rep,
)
from bsretract.cli import main
from bsretract.suite import derive_seed, run_one

from util import conditioned, n5_block, rep_of, swap2, zeta


@pytest.fixture
def runner():
    return CliRunner()


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


def test_zero_block_modulus_exits_bad_input(runner):
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--orbit", "0:1"])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output


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
    # count as a backtrack, so --eta0 1e30 spent the whole line search on
    # them and reported "iter_budget after 0 iterations" with exit 3
    rep = tmp_path / "rep.json"
    res = runner.invoke(main, ["construct", "--p", "2", "--q", "3", "--random", "3",
                               "--seed", "1", "--out", str(rep)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["flow", "--in", str(rep), "--out", "-", "--eta0", "1e30"])
    assert res.exit_code == 0, res.output
    assert "converged" in res.output


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
    res = runner.invoke(main, [command, "--in", str(rep), "--out", str(tmp_path / "e.json"),
                               "--eta0", "1e-20"])
    assert res.exit_code == 3, res.output
    assert message in res.output
    assert "iter_budget" not in res.output


def test_run_one_reports_a_stalled_line_search():
    cfg = FlowConfig(eta0=1e-20)
    record, _ = run_one((2, 3, 3, 1, cfg, 100, 1e-6, False))
    assert record["outcome"] == record["flow_outcome"] == "line_search_stalled"
    assert record["violations"] == []
    assert "detected_order" not in record


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


def test_pipeline_rejects_corrupted_rep(runner, tmp_path):
    rep = n5_block(1.0)
    doc = rep_to_json(rep)
    doc["B"]["re"][0][0] += 0.5
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    res = runner.invoke(main, ["pipeline", "--in", str(f), "--out", "-"])
    assert res.exit_code == 2


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


# ------------------------------------------------------------------- retract

def test_retract_command(runner, tmp_path):
    rep = rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    in_path = write_rep(tmp_path, rep)
    out = tmp_path / "end.json"
    res = runner.invoke(main, ["retract", "--in", in_path, "--out", str(out)])
    assert res.exit_code == 0
    end = rep_from_json(json.loads(out.read_text()))
    assert np.allclose(end.A, swap2(), atol=1e-10)


def test_retract_structural_exit_on_forced_tight_snap(runner, tmp_path):
    # perturb one eigenvalue of B by 1e-9: still a variety point to 1e-8,
    # but no root of unity within 1e-12
    b = np.diag([zeta(5, 1), zeta(5, 4) * (1 + 1e-9)])
    rep = rep_of(2, 3, swap2(), b)
    in_path = write_rep(tmp_path, rep)
    res = runner.invoke(main, ["retract", "--in", in_path, "--out", "-",
                               "--snap-tol", "1e-12"])
    assert res.exit_code == 4


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


def test_verify_and_retract_report_one_certificate(runner, tmp_path):
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
    res = runner.invoke(main, ["retract", "--in", in_path, "--out",
                               str(tmp_path / "end.json"), "--diag", str(diag)])
    assert res.exit_code == 0
    rep, d = json.loads(report.read_text()), json.loads(diag.read_text())
    assert rep["kappa_invariance_defect"] <= 1e-8
    for key in ("detected_order", "normality_exponent", "kappa_invariance_defect"):
        assert rep[key] == d[key]


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
    for cmd in ("flow", "pipeline", "retract"):
        res = runner.invoke(main, [cmd, "--in", in_path, "--out", "-"])
        assert res.exit_code == 2, (cmd, res.output)


def test_singular_input_exits_bad_input(runner, tmp_path):
    # A = 0 has no inverse, so the relation residual cannot be evaluated
    in_path = write_rep(tmp_path, rep_of(2, 3, np.zeros((2, 2)), np.eye(2)))
    for cmd in ("flow", "pipeline", "retract", "verify"):
        res = runner.invoke(main, [cmd, "--in", in_path, "--out", "-"])
        assert isinstance(res.exception, SystemExit), (cmd, res.exception)
        assert res.exit_code == 2, (cmd, res.output)


@pytest.mark.parametrize("option, value", [
    ("--tol", "inf"), ("--tol", "nan"), ("--eta0", "inf"), ("--eta0", "nan"),
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
    # the relation holds, so the finite-order certificates still run
    rep = rep_of(2, 3, 1e160 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    in_path = write_rep(tmp_path, rep)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--in", in_path, "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["detected_order"] == 5
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
    for cmd in (["verify"], ["retract"], ["pipeline", "--max-iter", "1"]):
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
    # a path needs both ends; one sample used to end the suite in a
    # ValueError traceback once its first cell reached the retraction
    in_path = write_rep(tmp_path, random_rep(2, 3, 3, 1))
    out = tmp_path / "out.json"
    report = tmp_path / "r.json"
    for cmd in (["retract", "--in", in_path, "--out", str(out)],
                ["pipeline", "--in", in_path, "--out", str(out)],
                ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                 "--report", str(report)]):
        res = runner.invoke(main, cmd + ["--samples", "1"])
        assert isinstance(res.exception, SystemExit), (cmd, res.exception)
        assert res.exit_code == 2, (cmd, res.output)
        assert not out.exists() and not report.exists(), cmd


def test_suite_ignores_the_removed_thread_variable(runner, tmp_path, monkeypatch):
    # --workers is the one way to set the worker count
    monkeypatch.setenv("BSRETRACT_THREADS", "abc")
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "1", "--seeds", "1",
                               "--report", str(report)])
    assert res.exit_code == 0, (res.output, res.exception)
    assert json.loads(report.read_text())["summary"]["total_runs"] == 1


# --------------------------------------------------------------------- suite

def test_run_one_classifies_spurious_orders():
    # (2,3), n = 8: these cells snap an eigenvalue to an order dividing no
    # |2^k - 3^k|, which must end as a classified structural failure
    cfg = FlowConfig(tol=1e-10, max_iter=10**5, eta0=0.1, armijo=0.5,
                     shrink=0.5, sl_mode=False)
    for i in (1, 3, 4):
        record, _ = run_one((2, 3, 8, derive_seed(0, 2, 3, 8, i), cfg,
                             100, 1e-6, False))
        assert record["outcome"] == "structural_failure"
        assert record["failed_stage"] == "detect_finite_order"


def _reject_order(b, moduli, tol):
    raise NotFiniteOrder("rejected for the test")


def _wrong_order(b, moduli, tol):
    return 7


@pytest.mark.parametrize("detect", [_reject_order, _wrong_order])
def test_run_one_recertifies_the_endpoint(monkeypatch, detect):
    # the suite's own endpoint check must be able to fail, and acceptance
    # criterion 2 must see the failure
    monkeypatch.setattr("bsretract.suite.detect_finite_order", detect)
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), FlowConfig(), 100, 1e-6, False)
    record, _ = run_one(task)
    assert record["outcome"] == "ok"
    assert record["detected_order"] != 7
    hits = [v for v in record["violations"]
            if "order" in v or "snap" in v or "structural" in v]
    assert len(hits) == 1, record["violations"]


def test_run_one_flags_nan_residuals(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr("bsretract.kempfness.FlowTrace.max_residual", lambda self: nan)
    monkeypatch.setattr("bsretract.retraction.RetractionPath.max_residual",
                        lambda self: nan)
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), FlowConfig(), 100, 1e-6, False)
    record, _ = run_one(task)
    assert record["outcome"] == "ok"
    assert any(v.startswith("flow residual nan") for v in record["violations"])
    assert any(v.startswith("path residual nan") for v in record["violations"])


def test_run_one_flags_a_nan_idempotence_delta(monkeypatch):
    monkeypatch.setattr("bsretract.suite.hs_norm", lambda x: float("nan"))
    task = (2, 3, 2, derive_seed(0, 2, 3, 2, 0), FlowConfig(), 100, 1e-6, True)
    record, _ = run_one(task)
    assert record["outcome"] == "ok"
    assert "pipeline not idempotent: delta nan" in record["violations"]


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


def test_suite_default_grid(runner, tmp_path):
    # default lists |p|,|q| <= 3, n <= 3, 5 seeds: everything converges
    # with the predicted structure
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--report", str(report), "--workers", "2"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    s = doc["summary"]
    assert s["total_runs"] == 6 * 3 * 5
    assert s["converged"] == s["total_runs"]
    assert s["hard_violations"] == 0
    assert s["order_histogram"]
    assert s["exponent_histogram"]
    assert s["max_iterations"] <= 10**5


def test_suite_empty_grid(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--p-list", "2", "--q-list", "2",
                               "--report", str(report), "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["total_runs"] == 0


def test_suite_sl_mode(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--pairs", "2:3", "--n-max", "2",
                               "--seeds", "1", "--sl", "--report", str(report),
                               "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["hard_violations"] == 0
    assert doc["summary"]["converged"] == doc["summary"]["total_runs"] == 2


@pytest.mark.parametrize("args", [
    ["census", "2", "3", "--n-max", "19", "--out"],
    ["census", "2", "3", "--n-max", "30", "--out"],
    ["construct", "--p", "2", "--q", "3", "--random", "30", "--seed", "1", "--out"],
    ["suite", "--pairs", "2:3", "--n-max", "30", "--seeds", "1", "--workers", "1",
     "--report"],
])
def test_census_modulus_past_limit_exits_bad_input(runner, tmp_path, args):
    # at (2, 3) the scans up to k = 17 would hold more than 2^27 values;
    # the commands refuse them before the scan, and suite before any cell
    # runs.
    out = tmp_path / "out.json"
    res = runner.invoke(main, args + [str(out)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert "k = 17" in res.output and "m = |p^k - q^k| = 129009091" in res.output
    assert "2^27" in res.output
    assert not out.exists()


def test_suite_rejects_invalid_explicit_pair(runner, tmp_path):
    res = runner.invoke(main, ["suite", "--pairs", "2:2",
                               "--report", str(tmp_path / "r.json")])
    assert res.exit_code == 2


def test_suite_grid_skips_invalid_combinations(runner, tmp_path):
    report = tmp_path / "report.json"
    res = runner.invoke(main, ["suite", "--p-list", "1,2", "--q-list", "2",
                               "--n-max", "1", "--seeds", "1",
                               "--report", str(report), "--workers", "1"])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    # (2,2) dropped, only (1,2) stays
    assert doc["summary"]["total_runs"] == 1


def test_suite_non_integer_list_exits_bad_input(runner, tmp_path):
    res = runner.invoke(main, ["suite", "--p-list", "a", "--n-max", "1", "--seeds", "1",
                               "--report", str(tmp_path / "r.json")])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
