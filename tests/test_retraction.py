import numpy as np
import pytest

from bsretract import (
    BSGroup,
    FlowConfig,
    PipelineStageError,
    PolarObstruction,
    conjugate,
    direct_sum,
    full_pipeline,
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
from bsretract.numerics import hs_norm, polar
from bsretract.retraction import RetractionPath
from bsretract.suite import derive_seed

from util import N_MAX, PAIRS, SEEDS, conditioned, n5_block, rep_of, swap2, zeta


def test_retract_constant_on_unitary_a():
    rep = n5_block(1.0)
    path = retract_a(rep, num_samples=10)
    for s in path.samples:
        assert np.allclose(s.rep.A, rep.A, atol=1e-12)
    assert path.order == 5 and path.exponent == 4


def test_retract_scalar_positive_part():
    # A = 2 * swap: P = 2I commutes with everything, endpoint is swap.
    rep = rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    path = retract_a(rep, num_samples=50)
    assert np.allclose(path.endpoint.A, swap2(), atol=1e-12)
    for s in path.samples:
        assert relation_residual(s.rep) <= 1e-12
    # the scaling is monotone in t: A_t = 2^t swap
    mid = path.samples[len(path.samples) // 2]
    assert np.allclose(mid.rep.A, 2.0**mid.t * swap2(), atol=1e-12)


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
    assert path.samples[0].t == 1.0 and path.samples[-1].t == 0.0


def test_retract_exponent_constant_along_path():
    rep = random_rep(2, 3, 2, seed=21)
    flowed, trace = flow(rep)
    assert trace.converged
    order = detect_finite_order(flowed.B, order_moduli(2, 3, 2))
    unit = conjugate_into_unitary(flowed, invariant_form(flowed.B, order))
    path = retract_a(unit, num_samples=25)
    for s in path.samples:
        assert normality_exponent(s.rep, order=order) == path.exponent


def test_retract_rejects_nonunitary_b():
    rng = np.random.default_rng(1)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    with pytest.raises(ValueError):
        retract_a(rep)


def test_retract_polar_obstruction_guard():
    # Force a noncommuting positive part while bypassing detection: B is
    # unitary of order 5, and A has a P with visible off-diagonal mixing.
    rng = np.random.default_rng(2)
    b = np.diag([zeta(5, 1), zeta(5, 4)])
    h = np.array([[0.0, 1e-3], [1e-3, 0.0]])
    skew = np.linalg.matrix_power(np.eye(2) + h, 1)  # symmetric PD factor
    a = skew @ swap2()
    rep = rep_of(2, 3, a, b)
    with pytest.raises(PolarObstruction):
        retract_a(rep, order=5, exponent=4)


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


def test_full_pipeline_gates_bad_input():
    rep = rep_of(2, 3, swap2(), np.diag([1.1, 0.9]))  # residual far from 0
    with pytest.raises(ValueError):
        full_pipeline(rep)


def test_full_pipeline_iter_budget_is_soft():
    rng = np.random.default_rng(5)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    out, diag = full_pipeline(rep, FlowConfig(max_iter=3))
    assert diag.outcome == "iter_budget"
    assert out is not None
    assert diag.detected_order is None
    assert diag.flow_trace is not None


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
        retract_a(rep, order=1, exponent=0)
    assert not verify_unitary_rep(rep)


def test_verify_unitary_rep_examples():
    assert verify_unitary_rep(rep_of(2, 3, np.eye(2), np.eye(2)))
    assert verify_unitary_rep(n5_block(np.exp(1.1j)))
    assert not verify_unitary_rep(n5_block(2.0))


@pytest.fixture(scope="module")
def grid_diagnostics():
    """Diagnostics of every acceptance-grid cell, drawn as run_suite draws
    them."""
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    out = []
    for p, q in PAIRS:
        for n in range(1, N_MAX + 1):
            for i in range(SEEDS):
                _, diag = full_pipeline(random_rep(p, q, n, derive_seed(0, p, q, n, i)), cfg)
                assert diag.outcome == "ok"
                out.append(diag)
    return out


def test_stacked_path_equals_per_sample_reps(grid_diagnostics):
    for diag in grid_diagnostics:
        path = diag.retraction_path
        samples = path.samples
        assert len(samples) == 100
        rows = path.rows()
        for i, (sample, (t, res, defect)) in enumerate(zip(samples, rows)):
            assert sample.t == t == path.t[i]
            assert np.array_equal(sample.rep.A, path.A[i])
            assert np.array_equal(sample.rep.B, path.B)
            assert res == relation_residual(sample.rep)
            assert defect == unitarity_defect(sample.rep.A)
        assert path.max_residual() == max(r[1] for r in rows) == diag.max_path_residual
        endpoint = path.endpoint
        assert path.t[-1] == 0.0 and np.array_equal(endpoint.A, path.A[-1])
        assert diag.endpoint_residual == relation_residual(endpoint) == rows[-1][1]


def test_path_samples_are_slices_of_the_stack():
    rep = rep_of(2, 3, 2.0 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    path = retract_a(rep, num_samples=7)
    assert path.A.shape == (7, 2, 2) and len(path.samples) == 7
    assert [s.t for s in path.samples] == path.t.tolist()
    assert [s.t for s in path.samples[1:3]] == path.t[1:3].tolist()
    assert np.array_equal(path.samples[-1].rep.A, path.endpoint.A)
    with pytest.raises(IndexError):
        path.samples[7]
    with pytest.raises(ValueError):
        RetractionPath(path.t[:3], path.A, path.B, path.group, 5, 4)


def test_stacked_path_equals_scalar_power_construction():
    # A_t = U V diag(w^t) V*, with w^t taken for one scalar t at a time as
    # numpy does it; t = 1/2 is where numpy's w ** t is sqrt(w), and
    # w[2] is a value where sqrt and pow round differently.
    p_factor = np.diag([0.52565282, 0.56755784, 0.7147618265733313, 1.82916541])
    rep = rep_of(1, 2, np.eye(4)[::-1] @ p_factor, np.eye(4))
    u, p = polar(rep.A)
    w, v = np.linalg.eigh(0.5 * (p + p.conj().T))
    for num_samples in (2, 5, 100, 101):
        path = retract_a(rep, num_samples, order=1, exponent=0)
        for t, a in zip(path.t, path.A):
            assert np.array_equal(a, u @ ((v * w**t) @ v.conj().T))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_path_residual_check_fails_on_a_nan_sample():
    # the middle sample overflows to a NaN residual; the ends are finite
    b = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    a = np.stack([np.eye(2), np.diag([1e300, 1e-300]), np.eye(2)]).astype(complex)
    path = RetractionPath(np.linspace(1.0, 0.0, 3), a, b, BSGroup(2, 3), 1, 1)
    res = path.residuals()
    assert np.isfinite(res[[0, 2]]).all() and not np.isfinite(res[1])
    assert not path.max_residual() <= 10.0
