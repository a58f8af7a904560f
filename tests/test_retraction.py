import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bsretract import (
    BSGroup,
    FlowConfig,
    PipelineStageError,
    PolarObstruction,
    SingularMatrix,
    certify,
    conjugate,
    direct_sum,
    full_pipeline,
    kn_energy,
    normality_exponent,
    order_bound,
    order_moduli,
    random_rep,
    relation_residual,
    rep_from_json,
    rep_to_json,
    retract_a,
    unitarity_defect,
    verify_unitary_rep,
)
from bsretract.compactify import conjugate_into_unitary, detect_finite_order, invariant_form
from bsretract.kempfness import flow
from bsretract.bsrep import residual
from bsretract.errors import NoConvergence, NotPositiveDefinite
from bsretract.numerics import PolarFactors, hs_norm, polar
from bsretract.retraction import RetractionPath, residual_budget
from bsretract.suite import check_pipeline, derive_seed

from util import (
    BASE_PAIRS,
    N_MAX,
    PAIRS,
    SEEDS,
    conditioned,
    count_linalg_calls,
    flow_constants,
    haar_unitary,
    jordan_rep,
    n5_block,
    off_diagonal,
    overflowed_rep,
    path_sample,
    reference_invariant_form,
    rep_of,
    sampled_differences,
    swap2,
    zeta,
)


def test_retract_constant_on_unitary_a():
    rep = n5_block(1.0)
    path = retract_a(rep, num_samples=10)
    for t, *_ in path.rows():
        assert np.allclose(path_sample(path, t).A, rep.A, atol=1e-12)
    cert = certify(rep)
    assert cert.order == 5 and cert.exponent == 4


def test_retract_scalar_positive_part():
    # A = 2 * swap: P = 2I commutes with everything, endpoint is swap.
    rep = rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    path = retract_a(rep, num_samples=50)
    assert np.allclose(path.endpoint.A, swap2(), atol=1e-12)
    times = [t for t, *_ in path.rows()]
    assert len(times) == 50
    for t in times:
        assert relation_residual(path_sample(path, t)) <= 1e-12
    # the scaling is monotone in t: A_t = 2^t swap
    mid = times[25]
    assert np.allclose(path_sample(path, mid).A, 2.0**mid * swap2(), atol=1e-12)


def test_retract_end_to_end_on_flowed_rep():
    rng = np.random.default_rng(0)
    rep = random_rep(2, 3, 2, seed=12)
    flowed, trace = flow(rep)
    assert trace.converged
    order = detect_finite_order(flowed.B, order_moduli(2, 3, 2))
    form = invariant_form(flowed.B, order)
    unit = conjugate_into_unitary(flowed, form)
    path = retract_a(unit, num_samples=100)
    rows = path.rows()
    assert len(rows) == 100 and max(r[1] for r in rows) <= 1e-8
    assert verify_unitary_rep(path.endpoint, 1e-8)
    assert rows[0][0] == 1.0 and rows[-1][0] == 0.0
    assert np.array_equal(path_sample(path, 0.0).A, path.endpoint.A)


@pytest.mark.usefixtures("cold_start")
def test_certified_run_decomposes_b_once(monkeypatch):
    # The order and the form share one decomposition of the flowed B;
    # eig_condition is read off its basis and the endpoint is not
    # decomposed.  The only other eig is the flow's warm step, on the
    # input's B, which it refuses; the Newton-CG flow then ends at a B
    # that is not diagonal, so certify decomposes it.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    rep = random_rep(2, 3, 3, derive_seed(0, 2, 3, 3, 0))
    flowed, _ = flow(rep, cfg)
    assert off_diagonal(flowed.B) > 1e-3
    eig, calls = np.linalg.eig, []

    def counting_eig(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    _, diag = full_pipeline(rep, cfg)
    assert diag.outcome == "ok"
    assert len(calls) == 2
    assert np.array_equal(calls[0], rep.B) and np.array_equal(calls[1], flowed.B)
    s = np.linalg.svd(eig(flowed.B)[1])[1]
    assert diag.eig_condition == s[0] / s[-1] >= 1.0
    assert "eig_condition_a" not in diag.to_dict()
    assert diag.to_dict()["initial_energy"] == kn_energy(rep)


def test_full_pipeline_measures_the_input_residual_once(monkeypatch):
    # On an already-flowed input the flow stops at iteration 0, whose
    # record takes the residual full_pipeline measured.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    flowed, _ = flow(random_rep(2, 3, 4, derive_seed(0, 2, 3, 4, 0)), cfg)
    calls = []

    def counting(a, b, p, q):
        calls.append(a)
        return residual(a, b, p, q)

    monkeypatch.setattr("bsretract.bsrep.residual", counting)
    monkeypatch.setattr("bsretract.kempfness.residual", counting)
    _, diag = full_pipeline(flowed, cfg)
    assert diag.outcome == "ok" and diag.flow_trace.iterations == 0
    assert len(calls) == 1 and np.array_equal(calls[0], flowed.A)


def test_certified_run_measures_the_unitarized_b_twice(monkeypatch):
    # certify's gate measures B' and retract_a checks its own
    # precondition; endpoint_defect_b reuses the gate's value.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    rep = random_rep(2, 3, 3, derive_seed(0, 2, 3, 3, 0))
    calls = []

    def counting(x):
        calls.append(x)
        return unitarity_defect(x)

    monkeypatch.setattr("bsretract.compactify.unitarity_defect", counting)
    monkeypatch.setattr("bsretract.retraction.unitarity_defect", counting)
    endpoint, diag = full_pipeline(rep, cfg)
    assert diag.outcome == "ok"
    assert sum(np.array_equal(x, endpoint.B) for x in calls) == 2
    assert diag.endpoint_defect_b == unitarity_defect(endpoint.B)


def test_retract_exponent_constant_along_path():
    rep = random_rep(2, 3, 2, seed=21)
    flowed, trace = flow(rep)
    assert trace.converged
    order = detect_finite_order(flowed.B, order_moduli(2, 3, 2))
    unit = conjugate_into_unitary(flowed, invariant_form(flowed.B, order))
    exponent = normality_exponent(unit, order)
    path = retract_a(unit, num_samples=25)
    for t, *_ in path.rows():
        assert normality_exponent(path_sample(path, t), order) == exponent


def test_retract_rejects_nonunitary_b():
    rng = np.random.default_rng(1)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    with pytest.raises(ValueError):
        retract_a(rep)


def test_retract_needs_two_samples():
    # a path from t = 1 to t = 0 has at least its two ends
    rep = n5_block(1.0)
    with pytest.raises(ValueError, match="num_samples must be >= 2"):
        retract_a(rep, 1)
    assert [row[0] for row in retract_a(rep, 2).rows()] == [1.0, 0.0]


@pytest.mark.parametrize("num_samples", [2.5, 10.0, math.inf, math.nan, "10", True])
def test_a_sample_count_that_is_not_an_integer_is_refused(num_samples):
    # the path reads its count where it stores it, so retract_a, direct
    # construction and the pipeline refuse it at once, not in rows()
    rep = n5_block(1.0)
    with pytest.raises(ValueError, match="num_samples must be an integer"):
        retract_a(rep, num_samples)
    path = retract_a(rep)
    with pytest.raises(ValueError, match="num_samples must be an integer"):
        RetractionPath(num_samples, path.B, path.group, path.factors)
    with pytest.raises(ValueError, match="num_samples must be an integer"):
        full_pipeline(rep, num_samples=num_samples)
    assert RetractionPath(np.int64(3), path.B, path.group, path.factors).num_samples == 3


def test_retract_polar_obstruction_guard():
    # A noncommuting positive part: B is unitary of order 5, and A has a P
    # with visible off-diagonal mixing.
    rng = np.random.default_rng(2)
    b = np.diag([zeta(5, 1), zeta(5, 4)])
    h = np.array([[0.0, 1e-3], [1e-3, 0.0]])
    skew = np.linalg.matrix_power(np.eye(2) + h, 1)  # symmetric PD factor
    a = skew @ swap2()
    rep = rep_of(2, 3, a, b)
    with pytest.raises(PolarObstruction):
        retract_a(rep)
    # At the boundary: P = I + eps X with X the swap, for the eps whose
    # path bound is 1% above and 1% below the default budget,
    # residual_budget(0) = 1e-8 (the bound is linear in eps to rounding),
    # and a fixed path against a budget passed 1% either side of its bound.
    def path_of(eps):
        rep = rep_of(2, 3, swap2() @ (np.eye(2) + eps * swap2()), b)
        return rep, RetractionPath(100, b, rep.group, polar(rep.A)).residual_bound

    per_eps = path_of(1e-9)[1] / 1e-9
    for share, raises in ((1.01, True), (0.99, False)):
        rep, bound = path_of(share * residual_budget(0.0) / per_eps)
        assert bound == pytest.approx(share * 1e-8, rel=1e-4)
        if raises:
            with pytest.raises(PolarObstruction):
                retract_a(rep)
        else:
            assert len(retract_a(rep).rows()) == 100
    rep, bound = path_of(1e-4)
    with pytest.raises(PolarObstruction):
        retract_a(rep, budget=0.99 * bound)
    assert retract_a(rep, budget=1.01 * bound).residual_bound == bound


def test_full_pipeline_identity_on_unitary_input():
    rep = n5_block(np.exp(0.4j))
    out, diag = full_pipeline(rep)
    assert diag.outcome == "ok"
    assert diag.flow_trace.iterations == 0
    assert hs_norm(out.A - rep.A) <= 1e-10
    assert hs_norm(out.B - rep.B) <= 1e-10


def test_full_pipeline_on_conjugated_block():
    rng = np.random.default_rng(3)
    rep = conjugate(
        direct_sum(n5_block(1.4), n5_block(0.6j, orbit=(2, 3))),
        conditioned(rng, 4, 10.0),
    )
    out, diag = full_pipeline(rep)
    assert diag.outcome == "ok"
    assert diag.detected_order == 5
    assert diag.normality_exponent == 4
    assert diag.endpoint_defect_a <= 1e-8
    assert diag.endpoint_defect_b <= 1e-8
    assert diag.endpoint_residual <= 1e-8
    assert diag.max_path_residual <= 1e-8
    assert verify_unitary_rep(out, 1e-8)


def test_full_pipeline_solvable_case_order_divides_bound():
    for seed in range(3):
        rep = random_rep(1, 2, 2, seed)
        out, diag = full_pipeline(rep)
        assert diag.outcome == "ok"
        assert order_bound(1, 2, 2) == 3
        assert 3 % diag.detected_order == 0


def test_full_pipeline_dimension_six():
    # beyond the acceptance grid: mod-19 cycles enter at k = 3
    rep = random_rep(2, 3, 6, seed=11)
    out, diag = full_pipeline(rep)
    assert diag.outcome == "ok"
    assert order_bound(2, 3, 6) % diag.detected_order == 0
    assert verify_unitary_rep(out, 1e-8)
    assert diag.max_path_residual <= 1e-8


def test_full_pipeline_idempotent():
    rep = random_rep(2, 3, 3, seed=4)
    out1, diag1 = full_pipeline(rep)
    assert diag1.outcome == "ok"
    out2, diag2 = full_pipeline(out1)
    assert diag2.outcome == "ok"
    assert hs_norm(out2.A - out1.A) <= 1e-9
    assert hs_norm(out2.B - out1.B) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_pipeline_classifies_jordan_points(n):
    # B = lam (I + N) with A in the null space of X -> X B^p - B^q X: a
    # point of the variety whose orbit is not closed.  The flowed B snaps,
    # but the form built from its near-repeated eigenvalues cannot make it
    # unitary; that must end as a structural failure naming its stage,
    # never as retract_a's ValueError (the CLI's bad-input exit).  The
    # stage depends on how far below tol the flow's last step lands; at
    # tol 1e-13 every n = 2 member reaches the unitarity gate.
    stages = []
    for p, q in BASE_PAIRS:
        for seed in range(4):
            rep = jordan_rep(p, q, n, seed)
            assert relation_residual(rep) <= 1e-10
            try:
                out, diag = full_pipeline(rep, FlowConfig(tol=1e-13))
            except PipelineStageError as exc:
                stages.append(exc.stage)
            else:
                assert diag.outcome == "ok" and verify_unitary_rep(out, 1e-8)
                stages.append("ok")
    if n == 2:
        assert stages.count("conjugate_into_unitary") >= 10, stages


def test_full_pipeline_gates_bad_input():
    rep = rep_of(2, 3, swap2(), np.diag([1.1, 0.9]))  # residual far from 0
    with pytest.raises(ValueError):
        full_pipeline(rep)


def _no_flow(*args, **kwargs):
    raise AssertionError("the flow ran")


@pytest.mark.parametrize("settings, message", [
    ({"num_samples": 2.5}, "num_samples must be an integer"),
    ({"num_samples": 1}, "num_samples must be >= 2"),
    ({"num_samples": True}, "num_samples must be an integer"),
    ({"snap_tol": math.nan}, "snap_tol must be finite and positive"),
    ({"snap_tol": -1.0}, "snap_tol must be finite and positive"),
    ({"snap_tol": math.inf}, "snap_tol must be finite and positive"),
], ids=lambda x: "-".join(f"{k}={v}" for k, v in x.items()) if isinstance(x, dict) else None)
def test_full_pipeline_refuses_a_bad_setting_before_its_flow(monkeypatch, settings, message):
    # on an input whose flow stalls at once, each of these returned
    # "line_search_stalled" with no error
    monkeypatch.setattr("bsretract.retraction.flow", _no_flow)
    with pytest.raises(ValueError, match=message):
        full_pipeline(overflowed_rep(2, 3, 4, 1), **settings)


@pytest.mark.usefixtures("cold_start")
def test_full_pipeline_iter_budget_is_soft():
    rng = np.random.default_rng(5)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    out, diag = full_pipeline(rep, FlowConfig(max_iter=2))
    assert diag.outcome == "iter_budget"
    assert out is not None
    assert diag.detected_order is None
    assert diag.flow_trace is not None


@pytest.mark.usefixtures("cold_start")
def test_full_pipeline_stalled_line_search_is_soft():
    with flow_constants(eta0=1e-20):
        out, diag = full_pipeline(random_rep(2, 3, 3, 1))
    assert diag.outcome == diag.flow_trace.outcome == "line_search_stalled"
    assert out is not None
    assert diag.detected_order is None


def test_full_pipeline_structural_failure_raises_with_stage():
    # A unipotent b passes the relation gate for (1,2) but has no finite
    # order; its orbit is not closed, so the flow crawls toward b = I and
    # a loose tolerance stops it while ||B - I|| is still large.
    rep = rep_of(1, 2, np.diag([2.0, 1.0]), [[1.0, 1.0], [0.0, 1.0]])
    assert relation_residual(rep) <= 1e-12
    with pytest.raises(PipelineStageError) as err:
        full_pipeline(rep, FlowConfig(max_iter=10**4, tol=1e-3))
    assert err.value.stage == "detect_finite_order"
    assert err.value.diagnostics.flow_trace.outcome == "converged"


@pytest.mark.parametrize("error", [NotPositiveDefinite, NoConvergence, SingularMatrix])
@pytest.mark.parametrize("stage", ["detect_finite_order", "invariant_form",
                                   "conjugate_into_unitary", "normality_exponent",
                                   "retract_a"])
@pytest.mark.usefixtures("cold_start")
def test_any_library_error_of_a_stage_is_recorded_under_its_name(monkeypatch, stage, error):
    # certify records the error of each of its stages, and full_pipeline
    # the error of retract_a, under the stage's name; none escapes.  The
    # flow starts cold, so that it ends at a B that is not diagonal, which
    # certify decomposes and passes through every stage.
    def failing(*args, **kwargs):
        raise error(f"{stage} failed for the test")

    module = "retraction" if stage == "retract_a" else "compactify"
    monkeypatch.setattr(f"bsretract.{module}.{stage}", failing)
    rep = random_rep(2, 3, 4, 1)
    flowed = flow(rep)[0]
    assert off_diagonal(flowed.B) > 1e-3
    if stage != "retract_a":
        cert = certify(flowed)
        assert cert.failed_stage == stage and isinstance(cert.error, error)
    with pytest.raises(PipelineStageError) as err:
        full_pipeline(rep)
    diag = err.value.diagnostics
    assert err.value.stage == diag.failed_stage == stage
    assert diag.error == f"{error.__name__}: {stage} failed for the test"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gates_fail_on_nan_residuals():
    # finite entries whose products overflow: every defect is NaN or inf
    big = (1e200 + 1e200j) * np.eye(2)
    rep = rep_of(2, 3, big, big)
    assert np.isnan(relation_residual(rep))
    with pytest.raises(ValueError):
        rep_from_json(rep_to_json(rep))
    with pytest.raises(ValueError):
        full_pipeline(rep)
    with pytest.raises(ValueError):
        retract_a(rep)
    assert not verify_unitary_rep(rep)


def test_verify_unitary_rep_examples():
    assert verify_unitary_rep(rep_of(2, 3, np.eye(2), np.eye(2)))
    assert verify_unitary_rep(n5_block(np.exp(1.1j)))
    assert not verify_unitary_rep(n5_block(2.0))
    # unitary generators off the variety: A B^2 A^-1 = B^3 fails for A = I
    # and B of order 5
    off = rep_of(2, 3, np.eye(2), np.diag([zeta(5, 1), zeta(5, 4)]))
    assert max(unitarity_defect(off.A), unitarity_defect(off.B)) <= 1e-15
    assert relation_residual(off) > 1.0
    assert not verify_unitary_rep(off)


@pytest.fixture(scope="module")
def grid_runs():
    """(input, endpoint, diagnostics) of every acceptance-grid cell, drawn
    as run_suite draws them."""
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    out = []
    for p, q in PAIRS:
        for n in range(1, N_MAX + 1):
            for i in range(SEEDS):
                rep = random_rep(p, q, n, derive_seed(0, p, q, n, i))
                endpoint, diag = full_pipeline(rep, cfg)
                assert diag.outcome == "ok"
                out.append((rep, endpoint, diag))
    return out


@pytest.fixture(scope="module")
def grid_diagnostics(grid_runs):
    return [diag for _, _, diag in grid_runs]


def test_measures_taken_once_equal_their_own_measurement(grid_runs, cold_start):
    # The flow's first residual is the input's, measured by full_pipeline;
    # endpoint_defect_b is certify's measure of the unitarized B; and
    # eig_condition is the 2-norm condition number of the basis certify
    # reads B in.  The warm step leaves every grid B diagonal, read in the
    # standard basis, of condition 1.  The Newton-CG flow (cold_start, which
    # the module's grid_runs predates) leaves B off the diagonal, and its
    # eigenbasis's condition number is read off a full SVD, which may round
    # apart from np.linalg.cond's values-only one.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    decomposed = 0
    for rep, endpoint, diag in grid_runs:
        res0 = relation_residual(rep)
        assert diag.flow_trace.records[0].residual == diag.initial_residual == res0
        assert diag.endpoint_defect_b == unitarity_defect(endpoint.B)
        assert diag.eig_condition == 1.0
        _, cold = full_pipeline(rep, cfg)
        flowed, _ = flow(rep, cfg)
        if off_diagonal(flowed.B) <= rep.n * 1e-6 * max(1.0, hs_norm(flowed.B)):
            assert cold.eig_condition == 1.0
            continue
        cond = np.linalg.cond(np.linalg.eig(flowed.B)[1])
        assert abs(cold.eig_condition - cond) <= 1e-12 * cond
        decomposed += 1
    assert decomposed >= 250


def test_certify_reads_every_grid_point_in_its_standard_basis(grid_runs, monkeypatch):
    # The flowed B of every grid cell, and its endpoint's, is diagonal and
    # unitary within the gates: certify reads its order and exponent off
    # diag(B), with Q = I and the point itself as its unitarized point,
    # with no eig and no SVD, and they equal the eig path's, whose public
    # steps decompose B.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    points = [x for rep, endpoint, _ in grid_runs for x in (flow(rep, cfg)[0], endpoint)]
    expected = []
    for point in points:
        order = detect_finite_order(point.B, order_moduli(point.group.p, point.group.q, point.n))
        unit = conjugate_into_unitary(point, invariant_form(point.B, order))
        expected.append((order, normality_exponent(unit, order)))
    calls = count_linalg_calls(monkeypatch, ("eig", "svd"))
    for point, (order, exponent) in zip(points, expected):
        cert = certify(point)
        assert cert.failed_stage is None
        assert (cert.order, cert.exponent) == (order, exponent)
        assert cert.unitary is point and np.array_equal(cert.form.Q, np.eye(point.n))
        assert cert.eig_condition == cert.form_condition == 1.0
        assert cert.invariance_defect == cert.unitarity_defect == unitarity_defect(point.B)
    assert calls == [] and len(points) == 800


def test_invariant_form_matches_the_inverse_route_on_the_grid(grid_runs):
    # at every flowed point of the grid, the form read off the SVD of B's
    # eigenvectors is the form built through their inverse, within rounding
    # amplified by cond(V)^2, and form_condition is its condition number
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    for rep, _, diag in grid_runs:
        flowed, _ = flow(rep, cfg)
        q = invariant_form(flowed.B, diag.detected_order).Q
        q_ref = reference_invariant_form(flowed.B, diag.detected_order).Q
        kappa = np.linalg.cond(np.linalg.eig(flowed.B)[1])
        assert hs_norm(q - q_ref) <= 1e-12 * kappa**2 * hs_norm(q_ref)
        cond = np.linalg.cond(q)
        assert 1.0 <= diag.form_condition and abs(diag.form_condition - cond) <= 1e-12 * cond


def test_path_rows_equal_per_sample_reps(grid_diagnostics):
    # Each row measures its sample alone; at 100 samples no t is 1/2, so
    # the rows have the bits of the vectorized reference.
    times = np.linspace(1.0, 0.0, 100)
    for diag in grid_diagnostics:
        path = diag.retraction_path
        rows = path.rows()
        assert path.num_samples == len(rows) == 100
        assert [r[0] for r in rows] == times.tolist()
        assert [r[1] for r in rows] == [hs_norm(d) for d in sampled_differences(path, times)]
        for t, res, defect in rows:
            sample = path_sample(path, t)
            assert abs(res - relation_residual(sample)) <= 1e-13
            assert defect == unitarity_defect(sample.A)
        assert max(r[1] for r in rows) <= diag.max_path_residual
        endpoint = path.endpoint
        assert np.array_equal(endpoint.A, path_sample(path, 0.0).A)
        assert diag.endpoint_residual == rows[-1][1]
        assert abs(diag.endpoint_residual - relation_residual(endpoint)) <= 1e-13


#: The benchmark's acceptance grid: the signed pairs, n <= 4, ten seeds.
BENCH_GRID_SEEDS = 10


def test_residual_bound_covers_10001_samples_of_every_grid_path():
    # The bound holds at every t in [0, 1], so no sample of a dense path
    # of the same factors exceeds it; the endpoint's residual is the last
    # sample's, bit for bit, at any number of samples.  The dense norms
    # are np.linalg.norm's row sums, within rounding of each row's hs_norm.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    dense_t = np.linspace(1.0, 0.0, 10_001)
    cells = 0
    for p, q in PAIRS:
        for n in range(2, N_MAX + 1):
            for i in range(BENCH_GRID_SEEDS):
                _, diag = full_pipeline(random_rep(p, q, n, derive_seed(0, p, q, n, i)), cfg)
                path = diag.retraction_path
                dense = sampled_differences(path, dense_t)
                bound = path.residual_bound
                assert np.linalg.norm(dense, axis=1).max() <= bound == diag.max_path_residual
                assert diag.max_path_residual <= 1e-8 + 10.0 * diag.initial_residual
                assert diag.endpoint_residual == path.endpoint_residual
                assert path.endpoint_residual == path.rows()[-1][1] == hs_norm(dense[-1])
                cells += 1
    assert cells == 600


def _noncommuting_path():
    """The (2, 3) mod-5 block's diagonal B of order 5 with A = swap P for a
    positive P = [[2, 1], [1, 2]] that does not commute with B."""
    rep = n5_block(1.0)
    p = np.array([[2.0, 1.0], [1.0, 2.0]])
    return RetractionPath(11, rep.B, rep.group, polar(rep.A @ p))


def test_residual_bound_of_a_noncommuting_path_fails_the_check():
    # P moves B off the relation at every t > 0: the bound exceeds the
    # largest sample, and check_pipeline's gate
    path = _noncommuting_path()
    res = [r[1] for r in path.rows()]
    assert res[-1] <= 1e-14 and max(res) >= 0.1
    assert path.residual_bound >= max(res)
    _, diag = full_pipeline(n5_block(1.0))
    diag = dataclasses.replace(diag, max_path_residual=path.residual_bound)
    violations = check_pipeline(path.endpoint, diag, 1e-6)
    assert any(v.startswith("path residual bound") for v in violations), violations


def test_residual_bound_is_nan_for_a_nan_factor():
    path = _noncommuting_path()
    f = path.factors
    nan_s = RetractionPath(path.num_samples, path.B, path.group,
                           PolarFactors(f.w, np.array([np.nan, 1.0]), f.vh))
    assert math.isnan(nan_s.residual_bound)
    _, diag = full_pipeline(n5_block(1.0))
    diag = dataclasses.replace(diag, max_path_residual=nan_s.residual_bound)
    violations = check_pipeline(diag.retraction_path.endpoint, diag, 1e-6)
    budget = residual_budget(diag.initial_residual)
    assert f"path residual bound nan exceeded the budget {budget:.3e}" in violations


def _factored_residual(a, t, path):
    """The residual of sample A_t as it was measured before the path moved
    into the SVD basis: ||A_t B^p A_t^-1 - B^q|| with the inverse
    Vh* diag(s^-t) W* of the path's factors."""
    f, b, group = path.factors, path.B, path.group
    bp, bq = np.linalg.matrix_power(b, group.p), np.linalg.matrix_power(b, group.q)
    return hs_norm(((a @ (bp @ f.vh.conj().T)) / f.s**t) @ f.w.conj().T - bq)


def test_full_pipeline_reads_no_rows(monkeypatch):
    # The pipeline reads the residual bound and the endpoint only: it
    # measures no sample.  The rows are measured when they are read, and
    # they agree with the samples measured in the original basis.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    rows, read = RetractionPath.rows, []

    def counting_rows(path):
        read.append(path)
        return rows(path)

    monkeypatch.setattr(RetractionPath, "rows", counting_rows)
    for p, q, n in ((2, 3, 4), (1, 2, 3), (-1, 2, 2)):
        _, diag = full_pipeline(random_rep(p, q, n, derive_seed(0, p, q, n, 0)), cfg)
        assert diag.outcome == "ok" and read == []
        path = diag.retraction_path
        f = path.factors
        for t, res, defect in path.rows():
            a = (f.w * f.s**t) @ f.vh
            assert abs(res - _factored_residual(a, t, path)) <= 1e-13
            assert abs(defect - unitarity_defect(a)) <= 1e-13
        assert read == [path]
        read.clear()


def test_full_pipeline_does_not_allocate_its_sample_times():
    # num_samples sets only the rows of the path CSV, so the pipeline's
    # memory does not grow with it: 10^7 sample times alone are 80 MB.
    rep = random_rep(2, 3, 4, 1)
    tracemalloc.start()
    try:
        _, diag = full_pipeline(rep, num_samples=10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert diag.outcome == "ok" and diag.retraction_path.num_samples == 10**7


def test_factored_residuals_match_lu_where_p_and_b_do_not_commute():
    # Where the path leaves the variety the residuals are of order one; the
    # path's own inverse measures them as an LU inverse of each sample does.
    rng = np.random.default_rng(8)
    for n in (2, 3, 5, 8):
        s = np.exp(np.linspace(1.5, -1.5, n))
        for _ in range(4):
            factors = PolarFactors(haar_unitary(rng, n), s, haar_unitary(rng, n))
            b = haar_unitary(rng, n)
            p = factors.p
            assert hs_norm(p @ b - b @ p) >= 0.1 * hs_norm(p)
            for pq in ((2, 3), (-1, 2), (3, -5)):
                path = RetractionPath(11, b, BSGroup(*pq), factors)
                rows = path.rows()
                lu = np.array([residual(path_sample(path, t).A, b, *pq) for t, *_ in rows])
                assert lu.min() >= 0.01
                res = np.array([r[1] for r in rows])
                assert np.all(np.abs(res - lu) <= 1e-12 * lu)
                assert path.residual_bound >= res.max()


def test_path_rows_take_the_scalar_power_of_each_t():
    # Each row is measured on A_t = W diag(s ** t) Vh for its own scalar t,
    # as numpy takes it: at t = 1/2 that is sqrt(s), and the second
    # singular value here is one where sqrt and pow round differently, so
    # that the defect of the row at t = 1/2 tells them apart.
    p_factor = np.diag([0.52565282, 0.56755784, 0.7147618265733313, 1.82916541])
    rep = rep_of(1, 2, np.eye(4)[::-1] @ p_factor, np.eye(4))
    f = polar(rep.A)
    pow_half = np.power(f.s, np.full(4, 0.5))
    assert not np.array_equal(np.sqrt(f.s), pow_half)
    for num_samples in (2, 5, 7, 100, 101):
        path = retract_a(rep, num_samples)
        rows = path.rows()
        times = [t for t, *_ in rows]
        assert times == np.linspace(1.0, 0.0, num_samples).tolist()
        assert (0.5 in times) == (num_samples % 2 == 1)
        for t, _, defect in rows:
            assert defect == unitarity_defect(path_sample(path, t).A)
        assert np.array_equal(path_sample(path, times[-1]).A, path.endpoint.A)
    half = retract_a(rep, 101).rows()[50]
    assert half[0] == 0.5
    assert half[2] == unitarity_defect((f.w * np.sqrt(f.s)) @ f.vh)
    assert half[2] != unitarity_defect((f.w * pow_half) @ f.vh)
    with pytest.raises(ValueError):
        RetractionPath(2, np.eye(3), path.group, path.factors)


def test_retract_singular_a_raises():
    rep = rep_of(2, 3, np.diag([1.0, 0.0]), np.diag([zeta(5, 1), zeta(5, 4)]))
    with pytest.raises(SingularMatrix):
        retract_a(rep)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_path_residual_check_fails_on_a_nan_sample():
    # (s_1 / s_2)^t overflows at t = 1, and its square in the norm at
    # t = 1/2, which makes those residuals NaN or Inf; the end, at t = 0,
    # is finite
    b = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    factors = PolarFactors(np.eye(2, dtype=complex), np.array([1e200, 1e-200]),
                           np.eye(2, dtype=complex))
    path = RetractionPath(3, b, BSGroup(2, 3), factors)
    res = np.array([r[1] for r in path.rows()])
    assert not np.isfinite(res[:2]).any() and np.isfinite(res[2])
    assert not np.max(res) <= 10.0
