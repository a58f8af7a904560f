import dataclasses
import math

import numpy as np
import pytest

from bsretract import (
    FlowConfig,
    certify,
    conjugate,
    direct_sum,
    enumerate_orbits,
    flow,
    from_orbit_datum,
    full_pipeline,
    kn_energy,
    minimality_certificate,
    moment_map,
    random_rep,
    relation_residual,
    snap_root_of_unity,
)
from bsretract import kempfness
from bsretract.errors import NoConvergence, SingularMatrix
from bsretract.kempfness import (
    CONVERGED,
    ITER_BUDGET,
    LINE_SEARCH_STALLED,
    FlowRecord,
    FlowTrace,
    _hessian,
    _hessian_gram,
    _moment,
    _newton_direction,
    _search_line,
)
from bsretract.suite import check_flow, derive_seed

from util import (
    N_MAX,
    OVERFLOWED_CELLS,
    PAIRS,
    SEEDS,
    conditioned,
    flow_constants,
    haar_unitary,
    n5_block,
    overflowed_rep,
    random_hermitian,
    reference_flow,
    rep_of,
    swap2,
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


def one_step(rep, eta):
    """The first accepted step of the flow, starting at step size eta."""
    with flow_constants(eta0=eta):
        out, trace = flow(rep, FlowConfig(max_iter=1))
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


def stack(rep):
    return np.stack((rep.A, rep.B))


def hessian(rep):
    """The energy's Hessian at rep; _hessian is half of it."""
    ab = stack(rep)
    half = _hessian(ab, _moment(ab))
    return lambda h: 2.0 * half(h)


def newton_direction(rep, tol=FlowConfig.tol):
    """The flow's Newton direction at rep with stop level tol (1 + energy)."""
    ab = stack(rep)
    products = _moment(ab)
    d, _ = _newton_direction(products.mu, np.linalg.norm(products.mu),
                             kempfness._hessian(ab, products), kn_energy(rep), tol)
    return d


def search_direction(rep, cfg=FlowConfig()):
    """s d, the direction the flow's first iteration steps along, and s."""
    ab = stack(rep)
    resolution = 128.0 * rep.n * np.finfo(float).eps * (1.0 + kn_energy(rep))
    d = newton_direction(rep, cfg.tol)
    line = _search_line(ab, _moment(ab).mu, d, resolution, cfg)
    return (line.v * line.w) @ line.vh, line.s


def test_flow_step_first_order_rate():
    # dF/dt along exp(t x) is <2 mu, x> = 2 Re tr(mu x) for the direction
    # x = s d the flow steps along: the Newton direction d moved to the
    # energy's minimum on its geodesic.
    rng = np.random.default_rng(2)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 5.0))
    direction, s = search_direction(rep)
    assert s > 1.0
    rate = -2.0 * np.trace(moment_map(rep) @ direction).real
    stepped, eta = one_step(rep, eta=1e-7)
    assert eta == 1e-7
    drop = kn_energy(rep) - kn_energy(stepped)
    assert drop / 1e-7 == pytest.approx(rate, rel=1e-3)


def test_flow_step_sl_mode_preserves_determinants():
    # conjugation fixes determinants, so the one flow keeps SL inputs in SL
    rep = from_sl2()
    stepped, _ = one_step(rep, eta=0.05)
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


#: A seed-0 acceptance-grid input whose last, resolution-limited step
#: raises the measured energy.
_TAIL_RISE = (1, -2, 2, 1)


def _tail_rise_rep():
    p, q, n, i = _TAIL_RISE
    return random_rep(p, q, n, derive_seed(0, p, q, n, i))


def test_flow_records_a_measured_tail_rise():
    # Each record keeps its iterate's measured energy, not the running
    # minimum, so a tail step that raises it by rounding shows; the rise
    # is within the resolution, and the energy check passes.
    rep = _tail_rise_rep()
    final, trace = flow(rep)
    assert trace.converged and trace.resolution_unit == 128.0 * rep.n * np.finfo(float).eps
    e = [r.energy for r in trace.records]
    assert e[0] == kn_energy(rep) and e[-1] == kn_energy(final)
    assert any(later > earlier for earlier, later in zip(e, e[1:]))
    assert trace.energy_monotone()
    _, diag = full_pipeline(rep)
    assert diag.energy_monotone and diag.final_energy == e[-1]
    assert check_flow(diag) == []


@pytest.mark.parametrize("share, monotone", [(0.5, True), (2.0, False)])
def test_energy_check_fails_past_the_resolution(monkeypatch, share, monotone):
    # The last record raised to share times the resolution above its
    # predecessor: within it the check passes, past it check_flow fails.
    def raised_flow(rep, cfg=None, **kwargs):
        final, trace = flow(rep, cfg, **kwargs)
        *head, prev, last = trace.records
        rise = share * trace.resolution_unit * (1.0 + prev.energy)
        last = dataclasses.replace(last, energy=prev.energy + rise)
        return final, dataclasses.replace(trace, records=(*head, prev, last))

    monkeypatch.setattr("bsretract.retraction.flow", raised_flow)
    _, diag = full_pipeline(_tail_rise_rep())
    assert diag.energy_monotone is monotone
    violations = [] if monotone else ["energy increased along an accepted step"]
    assert check_flow(diag) == violations


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


def test_minimality_certificate_on_unitary():
    cert = minimality_certificate(n5_block(1.0))
    assert cert.hessian_kernel_dim == 1
    assert cert.moment_over_gap <= 1e-12


def test_minimality_certificate_flags_conjugated_point():
    rng = np.random.default_rng(8)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    assert minimality_certificate(rep).moment_over_gap >= 1e-3


def test_minimality_certificate_after_flow():
    rng = np.random.default_rng(9)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 10.0))
    final, trace = flow(rep)
    assert trace.converged
    assert minimality_certificate(final).moment_over_gap <= 1e-8


def kronecker_spectrum(rep):
    """Eigenvalues of half the energy's Hessian from its Kronecker form
    P (x) I + I (x) P^T - 2 sum_Y Y (x) conj(Y) over Y in {A, B, A*, B*},
    the matrix of h -> Ph + hP - 2 sum_Y Y h Y* on row-major vec(h)."""
    ys = [rep.A, rep.B, rep.A.conj().T, rep.B.conj().T]
    pm = sum(y @ y.conj().T for y in ys)
    eye = np.eye(rep.n)
    k = np.kron(pm, eye) + np.kron(eye, pm.T) - 2.0 * sum(np.kron(y, y.conj()) for y in ys)
    return np.linalg.eigvalsh(k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
def test_hessian_spectrum_matches_the_kronecker_form(n):
    rng = np.random.default_rng(20 + n)
    for p, q in [(2, 3), (1, -3)]:
        rep = random_rep(p, q, n, n)
        for point in (rep, conjugate(rep, conditioned(rng, n, 8.0)), flow(rep)[0]):
            ab = stack(point)
            lam = np.linalg.eigvalsh(_hessian_gram(ab, _moment(ab)))
            ref = kronecker_spectrum(point)
            # at n = 1 the spectrum is {0}; rounding is measured on the energy
            scale = ref[-1] if n > 1 else kn_energy(point)
            assert np.max(np.abs(lam - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("p, q, dims", [
    (2, 3, (1,)),
    (2, 3, (1, 1)),
    (2, 3, (2, 2, 1)),
    (1, 3, (3, 3)),
    (2, 5, (1, 2, 4)),
    (-2, 3, (3, 1, 1, 1)),
])
def test_kernel_dim_counts_the_blocks(p, q, dims):
    # the Hermitian stabilizer of a minimal sum of pairwise non-isomorphic
    # irreducible blocks is one scalar per block; distinct chi keep blocks
    # drawn from one orbit apart
    rng = np.random.default_rng(len(dims))
    orbits = enumerate_orbits(p, q, max(dims))
    blocks = []
    for j, k in enumerate(dims):
        of_length = [d for d in orbits if d.k == k]
        datum = of_length[int(rng.integers(len(of_length)))]
        blocks.append(from_orbit_datum(datum, (1.0 + 0.25 * j) * np.exp(1j * j)))
    rep = blocks[0]
    for block in blocks[1:]:
        rep = direct_sum(rep, block)
    final, trace = flow(conjugate(rep, conditioned(rng, rep.n, 8.0)))
    assert trace.converged
    cert = minimality_certificate(final)
    assert cert.hessian_kernel_dim == len(dims)
    assert (cert.hessian_gap is None) == (rep.n == 1)
    assert cert.moment_over_gap is None or cert.moment_over_gap <= 1e-8


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


def test_flow_stalled_line_search_outcome():
    # at eta0 = 1e-20 each trial step is lost in rounding; once no trial
    # lowers ||mu|| the line search gives up with the budget unspent
    with flow_constants(eta0=1e-20):
        final, trace = flow(random_rep(2, 3, 3, 1))
    assert trace.outcome == LINE_SEARCH_STALLED
    assert not trace.converged
    assert 0 <= trace.iterations < 100
    assert trace.energy_monotone()


def test_kernel_dim_sees_isomorphic_blocks():
    # m copies of one block are stabilized by GL(m) acting on the copies,
    # whose Hermitian part has dimension m^2
    rng = np.random.default_rng(11)
    rep = direct_sum(n5_block(1.0), n5_block(1.0))
    final, trace = flow(conjugate(rep, conditioned(rng, 4, 8.0)))
    assert trace.converged
    assert minimality_certificate(final).hessian_kernel_dim == 4
    # scalar A and B: every direction is in the kernel, so there is no gap
    scalar = rep_of(2, 3, 2.0 * np.exp(0.3j) * np.eye(3), np.eye(3))
    assert minimality_certificate(scalar) == (9, None, None)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_certificate_is_empty_where_the_hessian_overflows():
    rep = rep_of(2, 3, 1e160 * swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    assert minimality_certificate(rep) == (None, None, None)


def test_small_eta0_ends_on_the_budget():
    # no step is longer than eta0 s, so at eta0 = 1e-8 every iteration
    # passes the strict Armijo test, far from the resolution-limited tail:
    # the energy falls at every step, nothing backtracks and the flow
    # crawls until its budget runs out
    with flow_constants(eta0=1e-8):
        _, trace = flow(random_rep(2, 3, 3, 1), FlowConfig(max_iter=300))
    assert trace.outcome == ITER_BUDGET
    energies = [r.energy for r in trace.records]
    assert all(later < earlier for earlier, later in zip(energies, energies[1:]))
    assert all(r.step == 1e-8 for r in trace.records[1:])


def steps_are_powers_of_shrink(trace):
    eta0, shrink = FlowConfig.eta0, FlowConfig.shrink
    for r in trace.records[1:]:
        k = round(math.log(eta0 / r.step) / math.log(1.0 / shrink))
        assert k >= 0 and r.step == pytest.approx(eta0 * shrink**k, rel=1e-12)


# cfg: the line-search constants set for the run; none, then eta0 = 2.
@pytest.mark.parametrize("cfg", [{}, {"eta0": 2.0}])
def test_flow_steps_are_eta0_times_powers_of_shrink(cfg):
    # s is folded into the direction, never into the recorded step: the
    # benchmark counts backtracks as k in step = eta0 * shrink^k.  eta0 = 2
    # overshoots the energy's minimum, so that setting backtracks.
    backtracked = 0
    with flow_constants(**cfg):
        for p, q in PAIRS:
            for n in range(1, N_MAX + 1):
                for i in range(SEEDS):
                    _, trace = flow(random_rep(p, q, n, derive_seed(0, p, q, n, i)))
                    steps_are_powers_of_shrink(trace)
                    backtracked += any(r.step < FlowConfig.eta0 for r in trace.records[1:])
        for p, q in [(1, 2), (-1, 3), (2, -3)]:
            for n in (8, 10, 12):
                _, trace = flow(random_rep(p, q, n, derive_seed(0, p, q, n, 0)))
                assert trace.converged
                steps_are_powers_of_shrink(trace)
        assert (backtracked > 0) == (FlowConfig.eta0 > 1.0)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(tol=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(max_iter=0)


def test_flow_config_settings_are_tol_and_max_iter():
    # the line search's step settings are constants of the flow, not fields
    cfg = FlowConfig()
    assert [f.name for f in dataclasses.fields(FlowConfig)] == ["tol", "max_iter"]
    assert dataclasses.asdict(cfg) == {"tol": 1e-10, "max_iter": 10**5}
    assert (cfg.eta0, cfg.armijo, cfg.shrink) == (1.0, 0.25, 0.5)
    for name in ("eta0", "armijo", "shrink"):
        with pytest.raises(TypeError):
            FlowConfig(**{name: 1.0})


def test_flow_residual_check_fails_on_a_nan_record():
    records = tuple(
        FlowRecord(i, 1.0, 1.0, 0.1, res)
        for i, res in enumerate([1e-12, float("nan"), 1e-12])
    )
    assert not FlowTrace(records, CONVERGED, 0.0).max_residual() <= 1e-8


@pytest.mark.parametrize("field", ["tol"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
def test_flow_config_rejects_non_finite_settings(field, value):
    # tol = inf would certify any point as minimal at iteration 0
    with pytest.raises(ValueError):
        FlowConfig(**{field: value})


# ------------------------------------------------------------ Newton step

def newton_cells():
    """Random inputs at n = 2..6, some conjugated far off their minimum."""
    rng = np.random.default_rng(12)
    for seed in range(12):
        n = 2 + seed % 5
        rep = random_rep(2, 3, n, seed)
        if seed % 2:
            rep = conjugate(rep, conditioned(rng, n, 8.0))
        yield rep


def test_hessian_matches_second_differences():
    """<H, Hess H> equals the centered second difference of the energy
    along exp(tH) to relative error 1e-5 at t = 1e-3 and 1e-4."""
    rng = np.random.default_rng(13)
    for rep in newton_cells():
        h = random_hermitian(rng, rep.n)
        exact = np.trace(h @ hessian(rep)(h)).real
        w, v = np.linalg.eigh(h)
        for t in (1e-3, 1e-4):
            gp = (v * np.exp(t * w)) @ v.conj().T
            gm = (v * np.exp(-t * w)) @ v.conj().T
            fd = (kn_energy(conjugate(rep, gp)) - 2.0 * kn_energy(rep)
                  + kn_energy(conjugate(rep, gm))) / t**2
            assert fd == pytest.approx(exact, rel=1e-5)


def test_hessian_is_symmetric_and_hermitian():
    rng = np.random.default_rng(14)
    for rep in newton_cells():
        hess = hessian(rep)
        h, k = random_hermitian(rng, rep.n), random_hermitian(rng, rep.n)
        hh, hk = hess(h), hess(k)
        assert np.array_equal(hh, hh.conj().T)
        left, right = np.trace(k @ hh).real, np.trace(h @ hk).real
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12 * np.linalg.norm(hh))


def test_hessian_kills_the_scalars():
    # exp(t I) acts trivially, so scalars span the stabilizer's kernel
    for rep in newton_cells():
        hess = hessian(rep)
        assert np.linalg.norm(hess(np.eye(rep.n, dtype=complex))) <= 1e-12 * kn_energy(rep)


def count_products(monkeypatch):
    counts = []
    original = kempfness._hessian

    def counted(ab, products):
        apply = original(ab, products)
        counts.append(0)

        def inner(h):
            counts[-1] += 1
            return apply(h)

        return inner

    monkeypatch.setattr(kempfness, "_hessian", counted)
    return counts


def forcing_bound(rep, tol):
    """The CG residual at which the flow's Newton solve stops, on the
    energy's own system hess(d) = -g with g = 2 mu:
    max(min(0.1, ||g|| / (2 (1 + E))) ||g||, tol (1 + E))."""
    g_norm, scale = 2.0 * np.linalg.norm(moment_map(rep)), 1.0 + kn_energy(rep)
    return max(min(0.1, g_norm / (2.0 * scale)) * g_norm, tol * scale)


def test_newton_direction_descends_within_the_forcing_bound(monkeypatch):
    counts = count_products(monkeypatch)
    for rep in newton_cells():
        mu = moment_map(rep)
        d = newton_direction(rep)
        assert np.array_equal(d, d.conj().T)
        assert np.trace(mu @ d).real < 0.0
        gap = np.linalg.norm(hessian(rep)(d) + 2.0 * mu)
        assert gap <= forcing_bound(rep, FlowConfig.tol) * (1 + 1e-9) or counts[-1] == rep.n**2
        assert 1 <= counts[-1] <= rep.n**2


def test_forcing_floor_stops_the_last_solve_at_the_stop_level(monkeypatch):
    # one step from converging, the quadratic term asks CG for a residual
    # far below the stop level; the floor stops it at half that level,
    # and the step it gives still ends the flow
    cfg = FlowConfig()
    near, trace = flow(random_rep(2, 3, 8, 0), FlowConfig(max_iter=6))
    assert trace.outcome == ITER_BUDGET
    counts = count_products(monkeypatch)
    newton_direction(near, tol=0.0)
    newton_direction(near, tol=cfg.tol)
    unfloored, floored = counts
    assert floored < unfloored
    final, trace = flow(near, cfg)
    last = trace.records[-1]
    assert trace.converged and trace.iterations == 1
    assert last.moment_norm <= cfg.tol * (1.0 + last.energy)


def test_flow_counts_its_hessian_products(monkeypatch):
    # one CG solve per iteration; the trace and the pipeline's
    # diagnostics report the products all of them took
    counts = count_products(monkeypatch)
    _, trace = flow(random_rep(2, 3, 8, 0))
    assert len(counts) == trace.iterations
    assert trace.hessian_products == sum(counts) > trace.iterations
    counts.clear()
    _, diag = full_pipeline(random_rep(2, 3, 8, 0))
    assert diag.flow_hessian_products == trace.hessian_products == sum(counts)
    assert diag.to_dict()["flow_hessian_products"] == trace.hessian_products
    assert flow(n5_block(1.0))[1].hessian_products == 0


#: Draws whose A times 1e53 stalled while CG's curvature, of order E^3,
#: overflowed, then a slice of the scaled family ((2, 3), (1, 2) and
#: (-2, 3); seeds 1000 n + i).
_SCALED_CELLS = [(-2, 3, 3, 8369), (-2, 3, 2, 53),
                 (2, 3, 2, 2000), (1, 2, 3, 3001), (-2, 3, 4, 4002), (2, 3, 6, 6003)]


@pytest.mark.parametrize("p, q, n, seed", _SCALED_CELLS)
def test_flow_on_a_scaled_input_takes_full_steps(p, q, n, seed):
    # A times s keeps the relation exactly; CG solves a scaled system, so
    # up to 1e60 the flow takes the steps it takes at 1e30, every one full
    rep = random_rep(p, q, n, seed)
    iterations = []
    for scale in (1e30, 1e50, 1e53, 1e60):
        _, trace = flow(rep_of(p, q, scale * rep.A, rep.B))
        assert trace.converged, (scale, trace.outcome)
        assert all(r.step == 1.0 for r in trace.records[1:]), scale
        iterations.append(trace.iterations)
    assert len(set(iterations)) == 1, iterations


@pytest.mark.filterwarnings("ignore:overflow")
def test_flow_with_an_overflowed_moment_norm_stalls():
    # at A times 1e80, ||mu|| overflows in hs_norm; CG falls back to -mu
    # instead of stepping by inf / curvature, and the flow stalls
    rep = random_rep(2, 3, 4, 1)
    _, trace = flow(rep_of(2, 3, 1e80 * rep.A, rep.B))
    assert trace.outcome == LINE_SEARCH_STALLED and trace.iterations == 0


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
@pytest.mark.parametrize("cell", OVERFLOWED_CELLS)
def test_flow_from_an_overflowed_input_stalls(cell):
    # the energy and ||mu|| start NaN, so the Newton direction is not
    # finite and no trial along it can be measured: the flow stalls at
    # iteration 0 after one Hessian product, before any eigendecomposition
    _, trace = flow(overflowed_rep(*cell))
    first = trace.records[0]
    assert math.isnan(first.energy) and math.isnan(first.moment_norm)
    assert trace.outcome == LINE_SEARCH_STALLED and trace.iterations == 0
    assert trace.hessian_products == 1


def test_search_line_moves_to_the_energy_minimum():
    # on every one of these cells the energy still falls past the Newton
    # step d; s d minimizes it along exp(t d), and the flow's first full
    # step lands there
    def energy_along(rep, d, t):
        w, v = np.linalg.eigh(t * d)
        return kn_energy(conjugate(rep, (v * np.exp(w)) @ v.conj().T))

    for rep in newton_cells():
        d = newton_direction(rep)
        x, s = search_direction(rep)
        assert s > 1.0
        assert np.allclose(x, s * d, rtol=0, atol=1e-10 * np.linalg.norm(s * d))
        f = energy_along(rep, d, s)
        assert f < energy_along(rep, d, 1.0)
        assert f <= min(energy_along(rep, d, s * 0.99), energy_along(rep, d, s * 1.01))
        assert kn_energy(one_step(rep, eta=1.0)[0]) == pytest.approx(f, rel=1e-12)


def test_newton_direction_is_traceless_in_sl_mode():
    # mu is a sum of commutators and the Hessian's range is traceless, so
    # CG builds no trace on SL inputs without any projection
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        rep = conjugate(random_rep(2, 3, n, n, sl=True), conditioned(rng, n, 8.0))
        d = newton_direction(rep)
        assert abs(np.trace(d)) <= 1e-14 * np.linalg.norm(d)
        assert np.trace(moment_map(rep) @ d).real < 0.0


@pytest.mark.parametrize("p, q", [(2, 3), (1, -2), (-3, 5)])
def test_flow_preserves_determinants_of_sl_inputs(p, q):
    # the whole flow, not one step: every accepted iterate is a conjugate
    # of the input, so det A and det B stay put to rounding
    for n in range(2, 9):
        rep = random_rep(p, q, n, n, sl=True)
        final, trace = flow(rep)
        assert trace.converged
        for x, y in ((rep.A, final.A), (rep.B, final.B)):
            assert abs(np.linalg.det(y) - np.linalg.det(x)) <= 1e-12, (p, q, n)


def test_flow_converges_superlinearly():
    # near the minimum the full Newton step is accepted and each step
    # shrinks ||mu|| by a falling factor; a gradient step's is constant.
    # The last step is left loose on purpose: its solve stops at the
    # forcing floor, half the stop level, so only the records before the
    # terminating one show the rate, and the last one must pass the stop
    # test.
    for p, q, n, seed in [(2, 3, 8, 0), (1, 2, 10, 2), (3, 5, 4, 1), (2, 3, 3, 2)]:
        _, trace = flow(random_rep(p, q, n, seed))
        assert trace.converged
        *tail, last = trace.records[-5:]
        assert all(r.step == 1.0 for r in (*tail, last))
        m = [r.moment_norm for r in tail]
        ratios = [m[i + 1] / m[i] for i in range(3)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] <= 1e-2
        assert last.moment_norm <= FlowConfig.tol * (1.0 + last.energy)


# ----------------------------------------- Newton endpoints vs the gradient loop

def assert_same_spectrum(x, y, tol):
    """Equal multisets of complex numbers to tol, by greedy matching."""
    rest = list(y)
    for lam in x:
        j = int(np.argmin([abs(lam - mu) for mu in rest]))
        assert abs(lam - rest.pop(j)) <= tol, (x, y)


def assert_same_invariants(rep, cfg=None):
    """flow and the gradient loop reach the same minimal K-orbit: the same
    outcome and certificate, and equal energies, B spectra and singular
    values.  Returns both traces."""
    final, trace = flow(rep, cfg)
    ref_final, ref_trace = reference_flow(rep, cfg)
    assert trace.outcome == ref_trace.outcome
    energy, ref_energy = trace.records[-1].energy, ref_trace.records[-1].energy
    assert energy == pytest.approx(ref_energy, rel=1e-12)
    assert_same_spectrum(np.linalg.eigvals(final.B), np.linalg.eigvals(ref_final.B), 1e-12)
    for x, y in ((final.A, ref_final.A), (final.B, ref_final.B)):
        sx = np.linalg.svd(x, compute_uv=False)
        sy = np.linalg.svd(y, compute_uv=False)
        assert np.all(np.abs(sx - sy) <= 1e-8 * sy)
    cert, ref_cert = certify(final), certify(ref_final)
    assert (cert.order, cert.exponent, cert.failed_stage) == (
        ref_cert.order, ref_cert.exponent, ref_cert.failed_stage)
    return final, trace, ref_trace


def test_flow_matches_reference_on_the_acceptance_grid():
    cfg = FlowConfig(tol=1e-10, max_iter=10**5)
    for p, q in PAIRS:
        for n in range(1, N_MAX + 1):
            for i in range(SEEDS):
                rep = random_rep(p, q, n, derive_seed(0, p, q, n, i))
                final, _, _ = assert_same_invariants(rep, cfg)
                assert n == 1 or minimality_certificate(final).moment_over_gap <= 1e-6


#: The most iterations the flow may take on each cell below; with the
#: square-root forcing min(0.1, sqrt|g|) |g| and no floor it took 9, 9,
#: 9, 8 and 9.
MAX_ITERATIONS = {
    (2, 3, 8, 0): 7, (2, 3, 10, 0): 7, (1, 2, 10, 2): 6, (2, 3, 10, 3): 6, (1, 2, 8, 3): 6,
}


@pytest.mark.parametrize("p, q, n, seed, records", [
    (2, 3, 8, 0, 1692),    # the gradient loop's record counts
    (2, 3, 10, 0, 1594),
    (1, 2, 10, 2, 597),
    (2, 3, 10, 3, 257),
    (1, 2, 8, 3, 259),
])
def test_flow_matches_reference_across_blocks(p, q, n, seed, records):
    _, trace, ref_trace = assert_same_invariants(random_rep(p, q, n, seed))
    assert len(ref_trace.records) == records
    assert len(trace.records) < records // 10
    assert trace.iterations <= MAX_ITERATIONS[p, q, n, seed]


@pytest.mark.parametrize("p, q, n, seed", [
    (1, 2, 2, 0), (2, 3, 4, 0), (2, 3, 4, 1), (2, 3, 8, 0), (1, 2, 10, 2),
])
def test_flow_matches_reference_in_sl_mode(p, q, n, seed):
    assert_same_invariants(random_rep(p, q, n, seed, sl=True))


# ------------------------------------------------- stacked residual blocks

def assert_same_run(run, other):
    (final, trace), (other_final, other_trace) = run, other
    assert trace.outcome == other_trace.outcome
    assert trace.records == other_trace.records
    assert final.A.tobytes() == other_final.A.tobytes()
    assert final.B.tobytes() == other_final.B.tobytes()


def far_off(rep, seed):
    """rep conjugated by a matrix of condition number 1e12: the flow
    needs 19 to 26 records from these, the random reps themselves 10."""
    return conjugate(rep, conditioned(np.random.default_rng(seed), rep.n, 1e12))


BLOCK_CASES = [
    (far_off(random_rep(2, 3, 8, 1), 1), None),
    (far_off(random_rep(2, 3, 12, 0), 0), None),
    (far_off(random_rep(2, 3, 8, 1, sl=True), 1), None),
]


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_flow_records_do_not_depend_on_the_block(monkeypatch, block):
    defaults = [flow(rep, cfg) for rep, cfg in BLOCK_CASES]
    monkeypatch.setattr(kempfness, "_RESIDUAL_BLOCK", block)
    for (rep, cfg), default in zip(BLOCK_CASES, defaults):
        assert_same_run(flow(rep, cfg), default)
        assert len(default[1].records) > 2 * block


BLOCK = 3


@pytest.mark.parametrize("max_iter", [
    BLOCK - 1,      # stops on a block boundary
    BLOCK,          # one iterate past it
    BLOCK + 1,      # inside the second block
    2 * BLOCK - 1,  # on the second boundary
])
def test_flow_blocks_at_budget_stops(monkeypatch, max_iter):
    rep, cfg = random_rep(2, 3, 8, 0), FlowConfig(max_iter=max_iter)
    default = flow(rep, cfg)
    monkeypatch.setattr(kempfness, "_RESIDUAL_BLOCK", BLOCK)
    assert_same_run(flow(rep, cfg), default)
    assert default[1].outcome == "iter_budget"
    assert len(default[1].records) == max_iter + 1


def test_flow_is_deterministic():
    for rep, cfg in BLOCK_CASES:
        assert_same_run(flow(rep, cfg), flow(rep, cfg))


def nilpotent_rep():
    # A is singular, so no iterate has a relation residual; the moment
    # [A, A*] is not zero, so the flow runs for more than a small block.
    return rep_of(2, 3, [[0.0, 1.0], [0.0, 0.0]], np.eye(2))


def test_flow_raises_on_singular_a(monkeypatch):
    # converged at iteration 0: a block of one iterate
    with pytest.raises(SingularMatrix):
        flow(rep_of(2, 3, np.zeros((2, 2)), np.eye(2)))
    # singular in every iterate of a full stacked block
    monkeypatch.setattr(kempfness, "_RESIDUAL_BLOCK", 4)
    blocks = []
    residual = kempfness.residual

    def recorded(a, b, p, q):
        blocks.append(len(a))
        return residual(a, b, p, q)

    monkeypatch.setattr(kempfness, "residual", recorded)
    with pytest.raises(SingularMatrix):
        flow(nilpotent_rep())
    assert blocks == [4]


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
