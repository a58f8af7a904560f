import math

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
from bsretract.numerics import PolarFactors, hs_norm, polar
from bsretract.retraction import COMMUTE_TOL, RetractionPath
from bsretract.suite import derive_seed

from util import (
    BASE_PAIRS,
    N_MAX,
    PAIRS,
    SEEDS,
    conditioned,
    flow_constants,
    haar_unitary,
    jordan_rep,
    n5_block,
    rep_of,
    swap2,
    zeta,
)


def test_retract_constant_on_unitary_a():
    rep = n5_block(1.0)
    path = retract_a(rep, num_samples=10)
    for s in path.samples:
        assert np.allclose(s.A, rep.A, atol=1e-12)
    cert = certify(rep)
    assert cert.order == 5 and cert.exponent == 4


def test_retract_scalar_positive_part():
    # A = 2 * swap: P = 2I commutes with everything, endpoint is swap.
    rep = rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    path = retract_a(rep, num_samples=50)
    assert np.allclose(path.endpoint.A, swap2(), atol=1e-12)
    for s in path.samples:
        assert relation_residual(s) <= 1e-12
    # the scaling is monotone in t: A_t = 2^t swap
    mid = len(path.samples) // 2
    assert np.allclose(path.samples[mid].A, 2.0**path.t[mid] * swap2(), atol=1e-12)


def test_retract_end_to_end_on_flowed_rep():
    rng = np.random.default_rng(0)
    rep = random_rep(2, 3, 2, seed=12)
    flowed, trace = flow(rep)
    assert trace.converged
    order = detect_finite_order(flowed.B, order_moduli(2, 3, 2))
    form = invariant_form(flowed.B, order)
    unit = conjugate_into_unitary(flowed, form)
    path = retract_a(unit, num_samples=100)
    assert path.max_residual() <= 1e-8
    assert verify_unitary_rep(path.endpoint, 1e-8)
    assert path.t[0] == 1.0 and path.t[-1] == 0.0
    assert np.array_equal(path.samples[-1].A, path.endpoint.A)


def test_certified_run_decomposes_b_once(monkeypatch):
    # The order and the form share one decomposition of the flowed B;
    # eig_condition is read off its basis and the endpoint is not
    # decomposed.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    rep = random_rep(2, 3, 3, derive_seed(0, 2, 3, 3, 0))
    flowed, _ = flow(rep, cfg)
    eig, calls = np.linalg.eig, []

    def counting_eig(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    _, diag = full_pipeline(rep, cfg)
    assert diag.outcome == "ok"
    assert len(calls) == 1 and np.array_equal(calls[0], flowed.B)
    assert diag.eig_condition == np.linalg.cond(eig(flowed.B)[1]) >= 1.0
    assert "eig_condition_a" not in diag.to_dict()
    assert diag.initial_energy == kn_energy(rep)


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
    assert diag.outcome == "ok" and diag.flow_iterations == 0
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
    # Paths with the same number of samples share one read-only t.
    t = diag.retraction_path.t
    assert not t.flags.writeable
    assert full_pipeline(endpoint, cfg)[1].retraction_path.t is t


def test_retract_exponent_constant_along_path():
    rep = random_rep(2, 3, 2, seed=21)
    flowed, trace = flow(rep)
    assert trace.converged
    order = detect_finite_order(flowed.B, order_moduli(2, 3, 2))
    unit = conjugate_into_unitary(flowed, invariant_form(flowed.B, order))
    exponent = normality_exponent(unit, order)
    path = retract_a(unit, num_samples=25)
    for s in path.samples:
        assert normality_exponent(s, order) == exponent


def test_retract_rejects_nonunitary_b():
    rng = np.random.default_rng(1)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    with pytest.raises(ValueError):
        retract_a(rep)


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
    # At the boundary: P = I + eps X with X the swap gives
    # ||[P, B]|| / ||P|| = eps |b_1 - b_2| / sqrt(1 + eps^2), so eps is
    # solved for a ratio 1% above and 1% below COMMUTE_TOL.
    d = abs(b[0, 0] - b[1, 1])
    for share, raises in ((1.01, True), (0.99, False)):
        r = share * COMMUTE_TOL
        p = np.eye(2) + r / math.sqrt(d * d - r * r) * swap2()
        assert hs_norm(p @ b - b @ p) / hs_norm(p) == pytest.approx(r, rel=1e-9)
        rep = rep_of(2, 3, swap2() @ p, b)
        if raises:
            with pytest.raises(PolarObstruction):
                retract_a(rep)
        else:
            assert len(retract_a(rep).samples) == 100


def test_full_pipeline_identity_on_unitary_input():
    rep = n5_block(np.exp(0.4j))
    out, diag = full_pipeline(rep)
    assert diag.outcome == "ok"
    assert diag.flow_iterations == 0
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


def test_full_pipeline_iter_budget_is_soft():
    rng = np.random.default_rng(5)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    out, diag = full_pipeline(rep, FlowConfig(max_iter=2))
    assert diag.outcome == "iter_budget"
    assert out is not None
    assert diag.detected_order is None
    assert diag.flow_trace is not None


def test_full_pipeline_stalled_line_search_is_soft():
    with flow_constants(eta0=1e-20):
        out, diag = full_pipeline(random_rep(2, 3, 3, 1))
    assert diag.outcome == diag.flow_outcome == "line_search_stalled"
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
    assert err.value.diagnostics.flow_outcome == "converged"


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


def test_measures_taken_once_equal_their_own_measurement(grid_runs):
    # The flow's first residual is the input's, measured by full_pipeline;
    # endpoint_defect_b is certify's measure of the unitarized B; and
    # eig_condition is the 2-norm condition number of B's eigenbasis.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    for rep, endpoint, diag in grid_runs:
        res0 = relation_residual(rep)
        assert diag.flow_trace.records[0].residual == diag.initial_residual == res0
        assert diag.endpoint_defect_b == unitarity_defect(endpoint.B)
        flowed, _ = flow(rep, cfg)
        assert diag.eig_condition == np.linalg.cond(np.linalg.eig(flowed.B)[1])


def _svd_basis_residual(t, path):
    """||A_t B^p A_t^-1 - B^q|| of one sample alone, measured in the basis
    of the path's SVD A = W diag(s) Vh with s^t for the scalar t:
    ||(s_i / s_j)^t (B~^p)_ij - (O* B~^q O)_ij|| with B~ = Vh B Vh* and
    O = Vh W."""
    f, group = path.factors, path.group
    bt = f.vh @ path.B @ f.vh.conj().T
    bp, bq = np.linalg.matrix_power(bt, group.p), np.linalg.matrix_power(bt, group.q)
    o = f.vh @ f.w
    st = np.sqrt(f.s) if t == 0.5 else f.s**t
    return hs_norm((st[:, None] / st[None, :]) * bp - o.conj().T @ bq @ o)


def test_stacked_path_equals_per_sample_reps(grid_diagnostics):
    for diag in grid_diagnostics:
        path = diag.retraction_path
        samples = path.samples
        assert len(samples) == 100
        rows = path.rows()
        for i, (sample, (t, res, defect)) in enumerate(zip(samples, rows)):
            assert t == path.t[i]
            assert np.array_equal(sample.B, path.B)
            assert res == _svd_basis_residual(path.t[i], path)
            assert abs(res - relation_residual(sample)) <= 1e-13
            assert defect == unitarity_defect(sample.A)
        assert path.max_residual() == max(r[1] for r in rows) == diag.max_path_residual
        endpoint = path.endpoint
        assert path.t[-1] == 0.0 and np.array_equal(endpoint.A, samples[-1].A)
        assert diag.endpoint_residual == rows[-1][1]
        assert diag.endpoint_residual == _svd_basis_residual(0.0, path)
        assert abs(diag.endpoint_residual - relation_residual(endpoint)) <= 1e-13


def _factored_residual(a, t, path):
    """The residual of sample A_t as it was measured before the path moved
    into the SVD basis: ||A_t B^p A_t^-1 - B^q|| with the inverse
    Vh* diag(s^-t) W* of the path's factors."""
    f, b, group = path.factors, path.B, path.group
    bp, bq = np.linalg.matrix_power(b, group.p), np.linalg.matrix_power(b, group.q)
    return hs_norm(((a @ (bp @ f.vh.conj().T)) / f.s**t) @ f.w.conj().T - bq)


def test_full_pipeline_builds_no_stack(monkeypatch):
    # The pipeline reads the residuals and the endpoint only: it builds no
    # sample and no (k, n, n) stack.  The stack is built when the rows are
    # read, and they agree with the samples measured one at a time in the
    # original basis.
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    getitem, built = RetractionPath.__getitem__, []

    def counting_defect(a):
        if np.ndim(a) == 3:
            built.append(np.shape(a)[:1])
        return unitarity_defect(a)

    def counting_getitem(path, i):
        built.append(i)
        return getitem(path, i)

    monkeypatch.setattr("bsretract.retraction.unitarity_defect", counting_defect)
    monkeypatch.setattr(RetractionPath, "__getitem__", counting_getitem)
    for p, q, n in ((2, 3, 4), (1, 2, 3), (-1, 2, 2)):
        _, diag = full_pipeline(random_rep(p, q, n, derive_seed(0, p, q, n, 0)), cfg)
        assert diag.outcome == "ok" and built == []
        path = diag.retraction_path
        f = path.factors
        for t, (t_row, res, defect) in zip(path.t, path.rows()):
            a = (f.w * f.s**t) @ f.vh
            assert t_row == t
            assert abs(res - _factored_residual(a, t, path)) <= 1e-13
            assert abs(defect - unitarity_defect(a)) <= 1e-13
        assert built == [path.t.shape]
        built.clear()


def test_factored_residuals_match_lu_where_p_and_b_do_not_commute():
    # Where the path leaves the variety the residuals are of order one; the
    # path's own inverse measures them as an LU inverse of each sample does.
    rng = np.random.default_rng(8)
    t = np.linspace(1.0, 0.0, 11)
    for n in (2, 3, 5, 8):
        s = np.exp(np.linspace(1.5, -1.5, n))
        for _ in range(4):
            factors = PolarFactors(haar_unitary(rng, n), s, haar_unitary(rng, n))
            b = haar_unitary(rng, n)
            p = factors.p
            assert hs_norm(p @ b - b @ p) >= 0.1 * hs_norm(p)
            for pq in ((2, 3), (-1, 2), (3, -5)):
                path = RetractionPath(t, b, BSGroup(*pq), factors)
                lu = residual(np.stack([x.A for x in path.samples]), b, *pq)
                assert lu.min() >= 0.01
                assert np.all(np.abs(path.residuals - lu) <= 1e-12 * lu)


def test_path_samples_are_slices_of_the_stack():
    # The path is the sequence of its samples: each is built alone from its
    # row of the s^t table and has the bits of that row of the stack that
    # rows() builds, and of s ** t for its own scalar t, t = 1/2 included.
    p_factor = np.diag([0.52565282, 0.56755784, 0.7147618265733313, 1.82916541])
    rep = rep_of(1, 2, np.eye(4)[::-1] @ p_factor, np.eye(4))
    for num_samples in (2, 7, 100, 101):
        path = retract_a(rep, num_samples)
        f = path.factors
        assert (0.5 in path.t) == (num_samples % 2 == 1)
        assert len(path) == len(path.samples) == len(path.t) == num_samples
        assert path.samples is path and path.st is path.st
        with pytest.raises(ValueError):
            path.st[0, 0] = 1.0
        stack = (f.w * path.st[:, None, :]) @ f.vh
        defects = [row[2] for row in path.rows()]
        for i, t in enumerate(path.t):
            sample = path[i]
            assert np.array_equal(sample.A, stack[i]) and sample.B is path.B
            assert np.array_equal(sample.A, (f.w * f.s**t) @ f.vh)
            assert defects[i] == unitarity_defect(sample.A)
            assert np.array_equal(path[i - num_samples].A, sample.A)
        assert np.array_equal(path[-1].A, path.endpoint.A)
        head = path[1:3]
        assert type(head) is tuple and len(head) == min(2, num_samples - 1)
        assert [x.A.tolist() for x in head] == stack[1:3].tolist()
        assert [x.A.tolist() for x in path[::-1]] == stack[::-1].tolist()
        assert [x.A.tolist() for x in path] == stack.tolist()
        with pytest.raises(IndexError):
            path[len(path)]
        with pytest.raises(IndexError):
            path[-len(path) - 1]
    with pytest.raises(ValueError):
        RetractionPath(path.t, np.eye(3), path.group, path.factors)


def test_stacked_path_equals_scalar_power_construction():
    # A_t = W diag(s^t) Vh, with s^t taken for one scalar t at a time as
    # numpy does it; t = 1/2 is where numpy's s ** t is sqrt(s), and the
    # second singular value is one where sqrt and pow round differently.
    p_factor = np.diag([0.52565282, 0.56755784, 0.7147618265733313, 1.82916541])
    rep = rep_of(1, 2, np.eye(4)[::-1] @ p_factor, np.eye(4))
    f = polar(rep.A)
    assert not np.array_equal(np.sqrt(f.s), np.power(f.s, np.full(4, 0.5)))
    for num_samples in (2, 5, 100, 101):
        path = retract_a(rep, num_samples)
        assert (0.5 in path.t) == (num_samples % 2 == 1)
        for t, sample in zip(path.t, path.samples):
            assert np.array_equal(sample.A, (f.w * f.s**t) @ f.vh)


def test_retract_singular_a_raises():
    rep = rep_of(2, 3, np.diag([1.0, 0.0]), np.diag([zeta(5, 1), zeta(5, 4)]))
    with pytest.raises(SingularMatrix):
        retract_a(rep)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_path_residual_check_fails_on_a_nan_sample():
    # (s_1 / s_2)^t overflows at the middle sample's t = 1, which makes its
    # residual NaN or Inf; the ends, at t = 0, are finite
    b = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    factors = PolarFactors(np.eye(2, dtype=complex), np.array([1e200, 1e-200]),
                           np.eye(2, dtype=complex))
    path = RetractionPath(np.array([0.0, 1.0, 0.0]), b, BSGroup(2, 3), factors)
    res = path.residuals
    assert np.isfinite(res[[0, 2]]).all() and not np.isfinite(res[1])
    assert not path.max_residual() <= 10.0
