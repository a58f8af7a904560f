import numpy as np
import pytest

from bsretract import (
    FlowConfig,
    conjugate,
    flow,
    kn_energy,
    moment_map,
    random_rep,
    relation_residual,
    snap_root_of_unity,
    verify_minimal,
)
from bsretract.bsrep import random_hermitian
from bsretract.errors import NoConvergence, SingularMatrix
from bsretract.kempfness import _RESIDUAL_BLOCK, CONVERGED, FlowRecord, FlowTrace
from bsretract.suite import derive_seed

from util import (
    N_MAX,
    PAIRS,
    SEEDS,
    conditioned,
    haar_unitary,
    n5_block,
    reference_flow,
    rep_of,
    zeta,
)


def unitary_rep(rng, n=2):
    # any pair of commuting unitaries with B^(q-p) = ... easiest: the
    # exact block with unimodular chi is unitary.
    return n5_block(np.exp(1j * rng.uniform(0, 2 * np.pi)))


def test_kn_energy_values():
    assert kn_energy(rep_of(2, 3, np.eye(2), np.eye(2))) == pytest.approx(4.0)
    rep = n5_block(1.0)
    assert kn_energy(rep) == pytest.approx(2 * rep.n)


def test_kn_energy_strictly_grows_off_unitary():
    rep = n5_block(1.0)
    g = np.diag([2.0, 0.5])
    # g A g^-1 = [[0, 4], [1/4, 0]] while B is diagonal and fixed
    assert kn_energy(conjugate(rep, g)) == pytest.approx(2.0 + 16.0 + 1.0 / 16.0)
    assert kn_energy(conjugate(rep, g)) > 4.0


def test_moment_map_zero_on_unitary():
    rng = np.random.default_rng(0)
    rep = rep_of(2, 3, haar_unitary(rng, 3), np.eye(3))
    assert np.linalg.norm(moment_map(rep)) <= 1e-12


def test_moment_map_shear_example():
    rep = rep_of(1, 2, [[1.0, 1.0], [0.0, 1.0]], np.eye(2))
    assert np.allclose(moment_map(rep), np.diag([1.0, -1.0]))


def test_moment_map_zero_on_normal_pair():
    b = np.diag([zeta(5, 1), zeta(5, 4)])
    a = np.array([[0.0, 1.3], [1.3, 0.0]], dtype=complex)  # normal, not unitary
    rep = rep_of(2, 3, a, b)
    assert np.linalg.norm(moment_map(rep)) <= 1e-12


def one_step(rep, eta, sl_mode=False):
    """The first accepted step of the flow, starting at step size eta."""
    out, trace = flow(rep, FlowConfig(max_iter=1, eta0=eta, sl_mode=sl_mode))
    return out, trace.records[-1].step


def test_flow_step_fixes_minimal_points():
    rep = n5_block(1.0)
    out, _ = one_step(rep, eta=0.7)
    assert np.linalg.norm(out.A - rep.A) <= 1e-12
    assert np.linalg.norm(out.B - rep.B) <= 1e-12


def test_flow_step_decreases_energy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
        stepped, _ = one_step(rep, eta=1e-3)
        assert kn_energy(stepped) < kn_energy(rep)


def test_flow_step_first_order_rate():
    # dF/dt along the descent direction is -2 ||mu||^2.
    rng = np.random.default_rng(2)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 5.0))
    mu = moment_map(rep)
    stepped, eta = one_step(rep, eta=1e-7)
    assert eta == 1e-7
    drop = kn_energy(rep) - kn_energy(stepped)
    assert drop / 1e-7 == pytest.approx(2 * np.linalg.norm(mu) ** 2, rel=1e-3)


def test_flow_step_sl_mode_preserves_determinants():
    rep = from_sl2()
    stepped, _ = one_step(rep, eta=0.05, sl_mode=True)
    assert abs(np.linalg.det(stepped.A) - np.linalg.det(rep.A)) <= 1e-10
    assert abs(np.linalg.det(stepped.B) - np.linalg.det(rep.B)) <= 1e-10


def from_sl2():
    rng = np.random.default_rng(3)
    rep = random_rep(2, 3, 2, seed=17, sl=True)
    return conjugate(rep, conditioned(rng, 2, 4.0))


def test_flow_converges_immediately_on_unitary():
    rep = n5_block(1.0)
    final, trace = flow(rep)
    assert trace.converged
    assert trace.iterations == 0
    assert np.allclose(final.A, rep.A)


def test_flow_converges_on_conjugated_blocks():
    rng = np.random.default_rng(4)
    for seed in range(6):
        rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
        final, trace = flow(rep, FlowConfig(tol=1e-9))
        assert trace.outcome == CONVERGED
        last = trace.records[-1]
        assert last.moment_norm <= 1e-8 * (1 + last.energy)
        assert last.energy <= trace.records[0].energy
        assert trace.energy_monotone()


def test_flow_endpoint_eigenvalues_snap_to_fifth_roots():
    rng = np.random.default_rng(5)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    final, trace = flow(rep)
    assert trace.converged
    for lam in np.linalg.eigvals(final.B):
        root = snap_root_of_unity(lam, 5, 1e-6)
        assert root.N == 5


def test_flow_residual_conservation():
    rng = np.random.default_rng(6)
    for seed in range(5):
        rep = random_rep(2, 3, 3, seed)
        r0 = relation_residual(rep)
        final, trace = flow(rep)
        assert trace.max_residual() <= 10.0 * r0 + 1e-9


def test_gradient_finite_difference_check():
    """Centered finite differences of the energy along exp(tH) match
    2 Re <H, mu> to relative error 1e-3 at t = 1e-4 and 1e-5."""
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(40):
        rep = conjugate(random_rep(2, 3, 2, seed), conditioned(rng, 2, 8.0))
        mu = moment_map(rep)
        h = random_hermitian(rng, rep.n)
        exact = 2.0 * np.trace(h @ mu).real
        if abs(exact) < 1e-2 * np.linalg.norm(mu):
            continue  # degenerate direction; derivative too small to resolve
        for t in (1e-4, 1e-5):
            w, v = np.linalg.eigh(h)
            gp = (v * np.exp(t * w)) @ v.conj().T
            gm = (v * np.exp(-t * w)) @ v.conj().T
            fd = (kn_energy(conjugate(rep, gp)) - kn_energy(conjugate(rep, gm))) / (2 * t)
            assert fd == pytest.approx(exact, rel=1e-3)
        checked += 1
    assert checked >= 25


def test_verify_minimal_passes_on_unitary():
    report = verify_minimal(n5_block(1.0), samples=1000, spread=2.0, tol=1e-9)
    assert report.passed
    assert report.margin >= -1e-9


def test_verify_minimal_refutes_conjugated_point():
    rng = np.random.default_rng(8)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    report = verify_minimal(rep, samples=500, spread=2.0, tol=1e-6)
    assert not report.passed
    assert report.margin < 0


def test_verify_minimal_passes_after_flow():
    rng = np.random.default_rng(9)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    final, trace = flow(rep)
    assert trace.converged
    report = verify_minimal(final, samples=500, spread=1.0, tol=1e-6)
    assert report.passed


def test_flow_endpoint_commutators_individually_small():
    # mu = [A,A*] + [B,B*] is driven to zero as a sum; at genuine minimal
    # vectors the two parts vanish separately, with no cancellation.
    for p, q, n, seed in [(2, 3, 2, 0), (2, 3, 4, 1), (3, 5, 4, 2), (1, 2, 3, 3)]:
        final, trace = flow(random_rep(p, q, n, seed))
        assert trace.converged
        a, b = final.A, final.B
        bound = 2.0 * 1e-10 * (1.0 + trace.records[-1].energy)
        assert np.linalg.norm(a @ a.conj().T - a.conj().T @ a) <= bound
        assert np.linalg.norm(b @ b.conj().T - b.conj().T @ b) <= bound


def test_flow_iter_budget_outcome():
    rng = np.random.default_rng(10)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    final, trace = flow(rep, FlowConfig(max_iter=2))
    assert trace.outcome == "iter_budget"
    assert trace.iterations <= 2
    # partial progress is still monotone
    assert trace.energy_monotone()


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(tol=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(max_iter=0)
    with pytest.raises(ValueError):
        FlowConfig(armijo=1.5)
    with pytest.raises(ValueError):
        FlowConfig(shrink=0.0)


def test_flow_residual_check_fails_on_a_nan_record():
    records = tuple(
        FlowRecord(i, 1.0, 1.0, 0.1, res)
        for i, res in enumerate([1e-12, float("nan"), 1e-12])
    )
    assert not FlowTrace(records, CONVERGED).max_residual() <= 1e-8


@pytest.mark.parametrize("field", ["tol", "eta0"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
def test_flow_config_rejects_non_finite_settings(field, value):
    # tol = inf would certify any point as minimal at iteration 0
    with pytest.raises(ValueError):
        FlowConfig(**{field: value})


# ------------------------------------------- batched residuals vs reference

def assert_same_flow(rep, cfg=None):
    """flow equals the reference loop: every record field, the outcome
    and both endpoint matrices, bit for bit."""
    final, trace = flow(rep, cfg)
    ref_final, ref_trace = reference_flow(rep, cfg)
    assert trace.outcome == ref_trace.outcome
    assert trace.records == ref_trace.records
    assert final.A.tobytes() == ref_final.A.tobytes()
    assert final.B.tobytes() == ref_final.B.tobytes()
    return trace


def test_flow_matches_reference_on_the_acceptance_grid():
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    for p, q in PAIRS:
        for n in range(1, N_MAX + 1):
            for i in range(SEEDS):
                assert_same_flow(random_rep(p, q, n, derive_seed(0, p, q, n, i)), cfg)


@pytest.mark.parametrize("p, q, n, seed, records", [
    (2, 3, 8, 0, 1692),    # more than six blocks
    (2, 3, 10, 0, 1594),
    (1, 2, 10, 2, 597),    # more than two blocks
    (2, 3, 10, 3, 257),    # a full block, then a block of one
    (1, 2, 8, 3, 259),
])
def test_flow_matches_reference_across_blocks(p, q, n, seed, records):
    trace = assert_same_flow(random_rep(p, q, n, seed))
    assert len(trace.records) == records


@pytest.mark.parametrize("max_iter", [
    _RESIDUAL_BLOCK - 1,      # stops on a block boundary
    _RESIDUAL_BLOCK,          # one iterate past it
    _RESIDUAL_BLOCK + 44,     # inside the second block
    2 * _RESIDUAL_BLOCK - 1,  # on the second boundary
])
def test_flow_matches_reference_at_budget_stops(max_iter):
    trace = assert_same_flow(random_rep(2, 3, 8, 0), FlowConfig(max_iter=max_iter))
    assert trace.outcome == "iter_budget"
    assert len(trace.records) == max_iter + 1


@pytest.mark.parametrize("p, q, n, seed", [
    (1, 2, 2, 0), (2, 3, 4, 0), (2, 3, 4, 1), (2, 3, 8, 0), (1, 2, 10, 2),
])
def test_flow_matches_reference_in_sl_mode(p, q, n, seed):
    assert_same_flow(random_rep(p, q, n, seed, sl=True), FlowConfig(sl_mode=True))


def nilpotent_rep():
    # A is singular, so no iterate has a relation residual; the moment
    # [A, A*] is not zero, so the flow runs for more than a block.
    return rep_of(2, 3, [[0.0, 1.0], [0.0, 0.0]], np.eye(2))


def test_flow_raises_on_singular_a():
    # converged at iteration 0: a block of one iterate
    with pytest.raises(SingularMatrix):
        flow(rep_of(2, 3, np.zeros((2, 2)), np.eye(2)))
    # singular in every iterate of a full stacked block
    with pytest.raises(SingularMatrix):
        flow(nilpotent_rep())


def _eigh_failing_at(call):
    eigh = np.linalg.eigh
    calls = []

    def failing(m):
        calls.append(m)
        if len(calls) == call:
            raise np.linalg.LinAlgError("forced for the test")
        return eigh(m)

    return failing


def test_singular_iterate_outranks_a_later_eigensolver_failure(monkeypatch):
    # the iterates pending when the eigensolver fails are still measured,
    # so the singular A is reported first, as a per-iterate check would
    monkeypatch.setattr(np.linalg, "eigh", _eigh_failing_at(3))
    with pytest.raises(SingularMatrix):
        flow(nilpotent_rep())
    monkeypatch.setattr(np.linalg, "eigh", _eigh_failing_at(3))
    rng = np.random.default_rng(11)
    with pytest.raises(NoConvergence):
        flow(conjugate(n5_block(1.0), conditioned(rng, 2, 50.0)))
