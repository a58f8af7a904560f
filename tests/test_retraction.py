import numpy as np
import pytest

from bsretract import (
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
    verify_unitary_rep,
)
from bsretract.compactify import conjugate_into_unitary, detect_finite_order, invariant_form
from bsretract.kempfness import flow
from bsretract.numerics import hs_norm

from util import conditioned, n5_block, rep_of, swap2, zeta


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
