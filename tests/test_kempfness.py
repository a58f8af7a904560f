import dataclasses
import hashlib
import math
import struct

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
    _line_minimum,
    _moment,
    _newton_direction,
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
    jordan_rep,
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


def search_direction(rep):
    """s d, the direction the flow's first iteration steps along when the
    energy still falls past the Newton step d, and s: the step to the
    energy's minimum along exp(t d), capped as the line search caps it."""
    w, v = np.linalg.eigh(newton_direction(rep))
    vh = v.conj().T
    cap = kempfness._EXP_CAP / kempfness._max_modulus(w)
    s = _line_minimum(vh @ stack(rep) @ v, 2.0 * np.subtract.outer(w, w), cap)
    return (v * (s * w)) @ vh, s


@pytest.mark.usefixtures("cold_start")
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


@pytest.mark.usefixtures("cold_start")
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
    d = diag.to_dict()
    assert d["energy_monotone"] is True and d["final_energy"] == e[-1]
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
    assert diag.flow_trace.energy_monotone() is diag.to_dict()["energy_monotone"] is monotone
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


@pytest.mark.usefixtures("cold_start")
def test_flow_iter_budget_outcome():
    rng = np.random.default_rng(10)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 50.0))
    final, trace = flow(rep, FlowConfig(max_iter=2))
    assert trace.outcome == "iter_budget"
    assert trace.iterations <= 2
    # partial progress is still monotone
    assert trace.energy_monotone()


@pytest.mark.usefixtures("cold_start")
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


@pytest.mark.usefixtures("cold_start")
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
        # the closed orbits above converge at the warm point; these inputs
        # take Newton steps
        for rep in (split_cluster_rep(), jordan_rep(2, 3, 4, 0), *FAR_OFF_CASES):
            _, trace = flow(rep)
            assert trace.converged and trace.hessian_products > 0
            steps_are_powers_of_shrink(trace)
            backtracked += any(r.step < FlowConfig.eta0 for r in trace.records[1:])
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


@pytest.mark.usefixtures("cold_start")
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


@pytest.mark.usefixtures("cold_start")
def test_flow_counts_its_hessian_products(monkeypatch):
    # one CG solve per iteration; the trace and the pipeline's
    # diagnostics report the products all of them took
    counts = count_products(monkeypatch)
    _, trace = flow(random_rep(2, 3, 8, 0))
    assert len(counts) == trace.iterations
    assert trace.hessian_products == sum(counts) > trace.iterations
    counts.clear()
    _, diag = full_pipeline(random_rep(2, 3, 8, 0))
    assert diag.flow_trace.hessian_products == trace.hessian_products == sum(counts)
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


@pytest.mark.usefixtures("cold_start")
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
    # the energy and ||mu|| start NaN, so there is no warm step, the
    # Newton direction is not finite and no trial along it can be
    # measured: the flow stalls at iteration 0 after one Hessian product,
    # before any eigendecomposition
    _, trace = flow(overflowed_rep(*cell))
    first = trace.records[0]
    assert math.isnan(first.energy) and math.isnan(first.moment_norm)
    assert trace.outcome == LINE_SEARCH_STALLED and trace.iterations == 0
    assert not trace.warm_start
    assert trace.hessian_products == 1


@pytest.mark.usefixtures("cold_start")
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


@pytest.mark.usefixtures("cold_start")
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


# ------------------------------------------------------ recorded residuals

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


FAR_OFF_CASES = [
    far_off(random_rep(2, 3, 8, 1), 1),
    far_off(random_rep(2, 3, 12, 0), 0),
    far_off(random_rep(2, 3, 8, 1, sl=True), 1),
]


@pytest.mark.parametrize("rep, records", [
    (FAR_OFF_CASES[0], 19),
    (FAR_OFF_CASES[2], 18),
    (jordan_rep(2, 3, 4, 0), 19),
])
@pytest.mark.parametrize("given", [False, True])
def test_each_record_measures_its_own_iterate(rep, records, given):
    # iterate k is the endpoint of the flow truncated at max_iter = k; its
    # record in the full flow carries relation_residual of it, bit for
    # bit, except record 0, which takes a given initial_residual as it is
    initial = 0.5 if given else None
    _, trace = flow(rep, initial_residual=initial)
    assert len(trace.records) == records
    for record in trace.records[1:]:
        cfg = FlowConfig(max_iter=record.iteration)
        iterate, truncated = flow(rep, cfg, initial_residual=initial)
        assert truncated.records[-1] == record
        assert record.residual == relation_residual(iterate)
    expected = initial if given else relation_residual(rep)
    assert trace.records[0].residual == expected


def test_flow_is_deterministic():
    for rep in FAR_OFF_CASES:
        assert_same_run(flow(rep), flow(rep))


def nilpotent_rep():
    # A is singular, so no iterate has a relation residual; the moment
    # [A, A*] is not zero, so the flow would run past iteration 0.
    return rep_of(2, 3, [[0.0, 1.0], [0.0, 0.0]], np.eye(2))


@pytest.mark.usefixtures("cold_start")
@pytest.mark.parametrize("rep, initial", [
    (rep_of(2, 3, np.zeros((2, 2)), np.eye(2)), None),  # converged at 0
    (nilpotent_rep(), None),  # off the minimum: record 0 raises
    (nilpotent_rep(), 0.0),   # record 0 is given: iterate 1 raises
], ids=["zero", "nilpotent", "nilpotent-given"])
def test_flow_raises_on_singular_a(rep, initial):
    with pytest.raises(SingularMatrix):
        flow(rep, initial_residual=initial)


def _failing_at(name, call):
    """np.linalg's `name`, raising LinAlgError at its call-th call."""
    original = getattr(np.linalg, name)
    calls = []

    def failing(m):
        calls.append(m)
        if len(calls) == call:
            raise np.linalg.LinAlgError("forced for the test")
        return original(m)

    return failing


@pytest.mark.usefixtures("cold_start")
def test_singular_iterate_outranks_a_later_eigensolver_failure(monkeypatch):
    # each iterate is measured when it is recorded, before the next step:
    # the singular A of iterate 1 is reported, not the failure of the
    # eigensolver on the step from it
    monkeypatch.setattr(np.linalg, "eigh", _failing_at("eigh", 2))
    with pytest.raises(SingularMatrix):
        flow(nilpotent_rep(), initial_residual=0.0)
    monkeypatch.setattr(np.linalg, "eigh", _failing_at("eigh", 3))
    rng = np.random.default_rng(11)
    with pytest.raises(NoConvergence):
        flow(conjugate(n5_block(1.0), conditioned(rng, 2, 50.0)))


# ------------------------------------------------------------ warm step

def schur_bound(rep):
    """n + sum |lambda(A)|^2, the least energy on the orbit's closure:
    at a minimal vector A and B are normal, so Schur's inequality
    ||X||^2 >= sum |lambda(X)|^2 is an equality for both, and B's
    eigenvalues are roots of unity."""
    return rep.n + float(np.sum(np.abs(np.linalg.eigvals(rep.A)) ** 2))


def oracle_cells():
    """The seed-0 benchmark cells the Schur oracle reads: every grid cell
    with n >= 2 (20 signed pairs, n = 2..4, 10 seeds) and the first seed of
    each flow_wide (p, q, n)."""
    for p, q in PAIRS:
        for n in range(2, N_MAX + 1):
            for i in range(10):
                yield random_rep(p, q, n, derive_seed(0, p, q, n, i))
    for p, q in [(1, 2), (-1, 2), (2, 3), (2, -3), (1, 3), (-1, 3)]:
        for n in (8, 10, 12):
            yield random_rep(p, q, n, derive_seed(0, p, q, n, 0))


def distinct_eigenvalues(b, gap=1e-6):
    """Whether the eigenvalues of b lie pairwise more than gap apart."""
    lam = np.linalg.eigvals(b)
    close = np.abs(np.subtract.outer(lam, lam)) <= gap
    return close.sum() == len(lam)


@pytest.mark.parametrize("start", ["warm", "cold"])
def test_flowed_energy_meets_the_schur_bound(request, start):
    # At the minimum the energy is n + sum |lambda(A_in)|^2, read off the
    # input with no flow; every input misses it, so a flow that does
    # nothing fails here.  Whether B's eigenvalues are distinct or not,
    # the warm point is the minimum: the flow converges at record 1 with
    # no Hessian product.
    if start == "cold":
        request.getfixturevalue("cold_start")
    cells = distinct = warm = 0
    for rep in oracle_cells():
        bound = schur_bound(rep)
        assert kn_energy(rep) > bound * (1.0 + 1e-12)
        _, trace = flow(rep)
        assert trace.converged
        assert trace.records[-1].energy == pytest.approx(bound, rel=1e-12, abs=0.0)
        cells += 1
        warm += trace.warm_start
        distinct += distinct_eigenvalues(rep.B)
        if start == "warm":
            assert trace.warm_start
            assert (trace.iterations, trace.hessian_products) == (1, 0)
    assert (cells, distinct) == (618, 536)
    if start == "cold":
        assert warm == 0


def cold_flow(rep, cfg=None):
    """flow(rep, cfg) with the warm step switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kempfness, "_WARM_COND", 0.0)
        return flow(rep, cfg)


def split_cluster_rep():
    """B = g diag(1, 1, -1) g^-1 and A = g P g^-1, with P sending e_1 to
    2 e_1, e_2 to 3 e_3 and e_3 to e_2 / 2, and g of condition number 10.
    A sends B's 1-eigenspace into both eigenspaces, so its cluster map is
    no permutation.  The orbit is closed (P is a weighted permutation of
    the lines e_i), but eig's basis of the 1-eigenspace is not e_1, e_2:
    the warm step is the bare conjugation, and Newton-CG finishes.  Not a
    point of a variety; the flow does not need one."""
    p = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 3.0, 0.0]])
    g = conditioned(np.random.default_rng(0), 3, 10.0)
    gi = np.linalg.inv(g)
    return rep_of(2, 3, g @ p @ gi, g @ np.diag([1.0, 1.0, -1.0]) @ gi)


def test_warm_step_is_record_one():
    # record 0 is the input; record 1 is the warm point, reached with
    # step eta0 (no backtrack) and no Hessian product, and it counts
    # against max_iter
    rep = split_cluster_rep()
    _, trace = flow(rep)
    assert trace.warm_start and trace.converged and trace.iterations > 1
    first, warm = trace.records[:2]
    assert (first.iteration, first.energy, first.step) == (0, kn_energy(rep), 0.0)
    assert warm.iteration == 1 and warm.step == FlowConfig.eta0
    assert warm.energy < first.energy and warm.moment_norm < first.moment_norm
    assert trace.energy_monotone()
    _, budget = flow(rep, FlowConfig(max_iter=1))
    assert budget.warm_start and budget.outcome == ITER_BUDGET
    assert budget.records == trace.records[:2] and budget.hessian_products == 0


def test_flow_counts_no_hessian_product_for_the_warm_step(monkeypatch):
    counts = count_products(monkeypatch)
    _, trace = flow(random_rep(2, 3, 8, 0))
    assert trace.warm_start
    assert len(counts) == trace.iterations - 1
    assert trace.hessian_products == sum(counts)
    _, diag = full_pipeline(random_rep(2, 3, 8, 0))
    assert diag.flow_trace.warm_start is diag.to_dict()["flow_warm_start"] is True


def test_flow_starts_cold_on_a_jordan_point():
    # B = lam (I + N) conjugated: its eigenvectors are nearly parallel, far
    # past the threshold, and the flow is bit for bit the cold one
    for p, q, n, seed in [(1, 2, 2, 1), (2, 3, 3, 0), (1, 3, 4, 2)]:
        rep = jordan_rep(p, q, n, seed)
        _, v = np.linalg.eig(rep.B)
        assert np.linalg.norm(v) * np.linalg.norm(np.linalg.inv(v)) > kempfness._WARM_COND
        warm = flow(rep)
        assert not warm[1].warm_start
        assert_same_run(warm, cold_flow(rep))


@pytest.mark.parametrize("name", ["eig", "inv"])
def test_a_failed_warm_step_falls_back_cold(monkeypatch, name):
    # with record 0's residual given, the flow's first call of eig or inv
    # is the warm step's; each raises once, and the flow catches it and
    # starts cold, bit for bit
    rep = random_rep(2, 3, 8, 0)
    cold = cold_flow(rep)
    res0 = relation_residual(rep)
    monkeypatch.setattr(np.linalg, name, _failing_at(name, 1))
    fell_back = flow(rep, initial_residual=res0)
    assert not fell_back[1].warm_start
    assert_same_run(fell_back, cold)


@pytest.mark.parametrize("x", [np.nan, 10.0])
def test_a_warm_step_off_the_energy_falls_back_cold(monkeypatch, x):
    # a scaling x that gives a non-finite warm point, or one that raises
    # the energy, is discarded, so energy_monotone holds from record 0 on
    rep = random_rep(2, 3, 8, 0)
    monkeypatch.setattr(kempfness, "_cycle_start", lambda a: x * np.arange(len(a)))
    fell_back = flow(rep)
    assert not fell_back[1].warm_start
    assert_same_run(fell_back, cold_flow(rep))


def test_minimal_inputs_take_no_warm_step():
    # an input that passes the stop test at iteration 0 is returned as it
    # is, so the idempotence rerun of a certified endpoint stays exact
    rep = n5_block(1.0)
    final, trace = flow(rep)
    assert not trace.warm_start and trace.iterations == 0
    assert final.A.tobytes() == rep.A.tobytes() and final.B.tobytes() == rep.B.tobytes()
    endpoint, diag = full_pipeline(random_rep(2, 3, 4, 1))
    assert diag.flow_trace.warm_start
    _, rerun = full_pipeline(endpoint)
    assert rerun.flow_trace.warm_start is False and rerun.flow_trace.iterations == 0


def census_cycles_rep():
    """A conjugated direct sum of (2, 3) census cycles at n = 8: the
    trivial 1-cycle, both 2-cycles mod 5 and one 3-cycle mod 19, whose
    closing entries have different moduli.  Its B has eight distinct
    eigenvalues, and its A maps B's eigenlines along the cycles."""
    census = enumerate_orbits(2, 3, 3)
    data = [d for d in census if d.N in (1, 5)] + [d for d in census if d.N == 19][:1]
    blocks = [from_orbit_datum(d, chi) for d, chi in zip(data, (2.0, 0.5j, 3.0, -1.5))]
    total = blocks[0]
    for block in blocks[1:]:
        total = direct_sum(total, block)
    assert total.n == 8
    return conjugate(total, conditioned(np.random.default_rng(0), 8, 100.0))


def test_census_cycles_converge_at_the_warm_point():
    # V^-1 A V is a weighted permutation with cycles of lengths 1, 2, 2
    # and 3, so the cycle solution is the minimum and leaves Newton-CG
    # nothing to do
    rep = census_cycles_rep()
    _, trace = flow(rep)
    assert trace.warm_start and trace.converged
    assert trace.iterations == 1 and trace.hessian_products == 0
    bound = schur_bound(rep)
    assert kn_energy(rep) > 2.0 * bound
    assert trace.records[-1].energy == pytest.approx(bound, rel=1e-12, abs=0.0)
    _, diag = full_pipeline(rep)
    assert diag.flow_trace.iterations == diag.to_dict()["flow_iterations"] == 1


def test_cycle_start_scales_each_cycle_to_its_geometric_mean():
    # sigma = (0 1 2)(3)(4 5); the zero entries off sigma stay zero
    a = np.zeros((6, 6))
    a[[0, 1, 2, 3, 4, 5], [1, 2, 0, 3, 5, 4]] = [8.0, 1.0, 0.5, 7.0, 3.0, 1.0 / 3.0]
    a[0, 3] = 1e-3
    x = kempfness._cycle_start(a)
    scaled = a * np.exp(2.0 * np.subtract.outer(x, x))
    np.testing.assert_allclose(scaled[[0, 1, 2], [1, 2, 0]], [4.0 ** (1 / 3)] * 3)
    np.testing.assert_allclose(scaled[[4, 5], [5, 4]], [1.0, 1.0])
    assert scaled[3, 3] == 7.0
    np.testing.assert_allclose([x[:3].sum(), x[3], x[4:].sum()], 0.0, atol=1e-15)
    # no start when two rows share their largest column, a largest entry
    # is zero, or the start would spread past _EXP_CAP / 2
    assert kempfness._cycle_start(np.ones((3, 3)) + np.eye(3)[[0, 0, 1]]) is None
    assert kempfness._cycle_start(np.zeros((2, 2))) is None
    assert kempfness._cycle_start(np.array([[0.0, 1.0], [1e-60, 0.0]])) is None


def test_repeated_eigenvalues_converge_at_the_warm_point():
    # two 2-cycles on the same eigenvalues of B: inside each repeated
    # eigenspace A~ is a full 2 x 2 block, no permutation, until the
    # monodromy's eigenvectors change the basis there; then the cycle
    # solution is the minimum
    rep = conjugate(
        direct_sum(n5_block(2.0), n5_block(0.5j)),
        conditioned(np.random.default_rng(1), 4, 100.0),
    )
    assert not distinct_eigenvalues(rep.B)
    _, trace = flow(rep)
    assert trace.warm_start and (trace.iterations, trace.hessian_products) == (1, 0)
    assert trace.records[-1].energy == pytest.approx(schur_bound(rep), rel=1e-12, abs=0.0)


def test_a_warm_step_off_a_permutation_is_the_bare_conjugation():
    # with no cluster basis and no cycle solution the warm point is
    # V^-1 (A, B) V itself, D = I
    rep = split_cluster_rep()
    ab = np.stack((rep.A, rep.B))
    lam, v = np.linalg.eig(rep.B)
    tilde = np.linalg.inv(v) @ ab @ v
    clusters = [[i for i in range(3) if abs(lam[i] - 1.0) < 0.5], [int(np.argmin(lam.real))]]
    assert kempfness._cluster_basis(tilde[0], sorted(clusters)) is None
    assert kempfness._cycle_start((tilde[0] * tilde[0].conj()).real) is None
    products = kempfness._moment(ab)
    warm, energy, _, _, eta = kempfness._warm_start(
        ab, kn_energy(rep), kempfness.hs_norm(products.mu), FlowConfig())
    assert warm.tobytes() == tilde.tobytes()
    assert energy == kempfness._energy(*tilde) and eta == FlowConfig.eta0


def without_clusters(rep):
    """flow(rep) with every eigenvalue of B its own cluster: the warm step
    as it was before the cluster basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kempfness, "_clusters", lambda lam, tol: None)
        return flow(rep)


def test_a_split_cluster_takes_the_bare_warm_step():
    # the cluster map is no permutation, so the flow is bit for bit the
    # one that never groups B's eigenvalues
    rep = split_cluster_rep()
    run = flow(rep)
    assert run[1].warm_start and run[1].converged and run[1].hessian_products > 0
    assert_same_run(run, without_clusters(rep))


@pytest.mark.parametrize("share, merged", [(0.9, True), (1.1, False)])
def test_eigenvalues_just_inside_the_tolerance_fall_back(monkeypatch, share, merged):
    # B = diag(1, 1 + delta, -1), so V = I and ||V|| ||V^-1|| = n, with
    # delta a share of the clustering tolerance 128 n eps ||B|| n.  A
    # sends e_2 to e_1 + 3 e_3, so the bare warm point is no minimum and
    # the flow groups B's eigenvalues.  Just inside the tolerance 1 and
    # 1 + delta form one cluster, which A sends into both clusters, so the
    # step falls back to the bare one; just outside they are distinct.
    # Both flows are the ungrouped one, bit for bit.
    n = 3
    unit = kempfness._resolution_unit(n) * n
    delta = share * unit * math.sqrt(n)
    b = np.diag([1.0, 1.0 + delta, -1.0]).astype(complex)
    rep = rep_of(2, 3, [[2.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 3.0, 0.0]], b)
    assert np.linalg.eig(b)[1].tobytes() == np.eye(n, dtype=complex).tobytes()
    found = []
    group = kempfness._clusters

    def spy(lam, tol):
        found.append(group(lam, tol))
        return found[-1]

    monkeypatch.setattr(kempfness, "_clusters", spy)
    run = flow(rep)
    assert found == [[[0, 1], [2]] if merged else None]
    assert run[1].warm_start and run[1].converged and run[1].hessian_products > 0
    assert_same_run(run, without_clusters(rep))


@pytest.mark.parametrize(
    "make",
    [census_cycles_rep, lambda: random_rep(2, 3, 4, derive_seed(0, 2, 3, 4, 0))],
    ids=["census_cycles", "grid_2_3_4_0"],
)
def test_the_warm_point_does_not_depend_on_the_scale_of_bs_eigenvectors(monkeypatch, make):
    # eig fixes each eigenvector of B only up to a scalar; rescaling V's
    # columns by S conjugates V^-1 A V by the diagonal S, which the cycle
    # solution absorbs, so the warm point keeps its energy and is still
    # the minimum
    rep = make()
    assert distinct_eigenvalues(rep.B)
    _, trace = flow(rep)
    assert trace.warm_start and (trace.iterations, trace.hessian_products) == (1, 0)
    rng = np.random.default_rng(3)
    s = rng.uniform(0.5, 2.0, rep.n) * np.exp(2j * np.pi * rng.uniform(size=rep.n))
    eig = np.linalg.eig
    # unscaled by the cycle solution, the two bases give different points
    ab = np.stack((rep.A, rep.B))
    v = eig(rep.B)[1]
    bare = [kempfness._energy(*(np.linalg.inv(w) @ ab @ w)) for w in (v, v * s)]
    assert abs(bare[1] - bare[0]) > 1e-3 * bare[0]

    def scaled_eig(m):
        lam, v = eig(m)
        return lam, v * s

    monkeypatch.setattr(np.linalg, "eig", scaled_eig)
    _, scaled = flow(rep)
    assert scaled.warm_start and (scaled.iterations, scaled.hessian_products) == (1, 0)
    assert scaled.records[1].energy == pytest.approx(trace.records[1].energy, rel=1e-12, abs=0.0)


#: Seed-0 grid cells (p, q, n, index) whose B has a repeated eigenvalue
#: and whose bare warm point, in eig's own basis of that eigenspace, has a
#: higher energy than the input.
REPEATED_CELLS = [(1, 2, 2, 0), (1, -2, 4, 5), (2, -3, 3, 1), (-1, 3, 4, 2)]


@pytest.mark.parametrize("p, q, n, index", REPEATED_CELLS)
def test_repeated_cells_converge_at_the_warm_point(p, q, n, index):
    # eig returns an arbitrary basis of a repeated eigenspace, and
    # conjugating by its inverse alone raises these inputs' energy, so
    # that the bare step would start cold; the cluster basis reaches the
    # minimum instead
    rep = random_rep(p, q, n, derive_seed(0, p, q, n, index))
    assert not distinct_eigenvalues(rep.B)
    ab = np.stack((rep.A, rep.B))
    v = np.linalg.eig(rep.B)[1]
    assert kempfness._energy(*(np.linalg.inv(v) @ ab @ v)) > kn_energy(rep)
    _, trace = flow(rep)
    assert trace.warm_start and (trace.iterations, trace.hessian_products) == (1, 0)
    assert trace.records[-1].energy == pytest.approx(schur_bound(rep), rel=1e-12, abs=0.0)


#: sha256 of the seed-0 oracle flows whose B has distinct eigenvalues, as
#: test_flows_with_distinct_eigenvalues_keep_their_bytes hashes them,
#: from the flow before the cluster basis (numpy 2.4.6 with its OpenBLAS
#: 0.3.31 wheel on x86-64).
DISTINCT_FLOWS_DIGEST = "37608eb9ca7ba84f5dfbad362be6b80dc0e8ee4dc40becc8b08644c8fa098b95"


def test_flows_with_distinct_eigenvalues_keep_their_bytes():
    # the cluster basis is built only when B has a repeated eigenvalue:
    # on every other oracle cell each record, the counters and the
    # endpoint hash to the digest of the flow from before that basis
    # existed.  Another LAPACK or BLAS build rounds differently and moves
    # the digest.
    digest, count = hashlib.sha256(), 0
    for rep in oracle_cells():
        if not distinct_eigenvalues(rep.B):
            continue
        final, trace = flow(rep)
        for r in trace.records:
            digest.update(struct.pack("<q4d", r.iteration, r.energy, r.moment_norm,
                                      r.step, r.residual))
        digest.update(f"{trace.outcome}:{trace.hessian_products}:{trace.warm_start}".encode())
        digest.update(final.A.tobytes() + final.B.tobytes())
        count += 1
    assert count == 536
    assert digest.hexdigest() == DISTINCT_FLOWS_DIGEST
