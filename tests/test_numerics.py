import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsretract import (
    BSGroup,
    FlowConfig,
    NotARootOfUnity,
    Rep,
    RootOfUnity,
    SingularMatrix,
    eigvals,
    flow,
    hs_norm,
    order_moduli,
    polar,
    random_rep,
    snap_root_of_unity,
)
from bsretract import numerics
from bsretract.census import (OrbitPool, check_moduli, enumerate_orbits, order_bound,
                              validate_parameters)
from bsretract.compactify import certify, invariant_form, normality_exponent
from bsretract.numerics import matrix_from_json, matrix_to_json
from bsretract.retraction import full_pipeline, verify_unitary_rep
from bsretract.suite import derive_seed, run_suite

from util import N_MAX, PAIRS, SEEDS, haar_unitary, reference_snap, swap2, zeta


def test_hs_norm_examples():
    assert hs_norm(np.eye(2)) == pytest.approx(math.sqrt(2))
    assert hs_norm(np.zeros((3, 3))) == 0.0
    assert hs_norm(np.array([[1, 1], [0, 1]])) == pytest.approx(math.sqrt(3))


def test_hs_norm_equals_numpy_norm():
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (3, 3), (7, 7), (12, 12), (4,)]:
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for x in (z, z.real, z.T, np.rint(10 * z.real).astype(int)):
            assert hs_norm(x) == float(np.linalg.norm(x))
    assert math.isnan(hs_norm(np.array([[np.nan, 1.0]])))
    assert hs_norm(np.array([[np.inf, 1j]])) == math.inf


def test_polar_of_unitary_is_identity_factor():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        a = haar_unitary(rng, n)
        factors = polar(a)
        u, p = factors.u, factors.p
        assert np.allclose(u, a, atol=1e-12)
        assert np.allclose(p, np.eye(n), atol=1e-12)


def test_polar_of_positive_definite():
    p0 = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    factors = polar(p0)
    u, p = factors.u, factors.p
    assert np.allclose(u, np.eye(2), atol=1e-12)
    assert np.allclose(p, p0, atol=1e-12)


def test_polar_swap_scaling_example():
    # A = diag(2, 1/2) . swap has polar factors (swap, diag(1/2, 2)).
    a = np.diag([2.0, 0.5]) @ swap2()
    factors = polar(a)
    u, p = factors.u, factors.p
    assert np.allclose(u, swap2(), atol=1e-12)
    assert np.allclose(p, np.diag([0.5, 2.0]), atol=1e-12)


def test_polar_against_inverse_sqrt_oracle():
    # Independent oracle: U = A (A* A)^{-1/2} via eigendecomposition.
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, v = np.linalg.eigh(a.conj().T @ a)
        u_oracle = a @ (v * w**-0.5) @ v.conj().T
        factors = polar(a)
        u, p = factors.u, factors.p
        assert np.allclose(u, u_oracle, atol=1e-10)
        assert hs_norm(u @ p - a) <= 1e-10 * hs_norm(a)


def test_polar_round_trip_random():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        factors = polar(a)
        u, p = factors.u, factors.p
        assert hs_norm(u @ p - a) <= 1e-10 * hs_norm(a)
        assert hs_norm(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
        assert hs_norm(p - p.conj().T) <= 1e-12 * hs_norm(p)
        assert np.linalg.eigvalsh(p)[0] > 0


def test_polar_singular_raises():
    with pytest.raises(SingularMatrix):
        polar(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_as_matrix_rejects_bad_inputs():
    from bsretract.numerics import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_as_matrix_accepts_any_strides():
    # a transposed, reversed or Fortran-ordered matrix is the same matrix,
    # returned C-ordered; a C-ordered complex128 input is not copied; a
    # NaN is refused whatever the strides
    from bsretract.numerics import as_matrix

    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for x in (a.T, a.conj().T, a[:, ::-1], a[::-1], np.asfortranarray(a),
              np.asfortranarray(np.eye(3)), a.real.T):
        m = as_matrix(x)
        assert m.dtype == np.complex128 and m.flags.c_contiguous
        assert np.array_equal(m, x)
    assert as_matrix(a) is a
    b = rng.standard_normal((2, 2)) + 0j
    assert np.array_equal(polar(a.conj().T).u, polar(np.ascontiguousarray(a.conj().T)).u)
    rep = Rep(BSGroup(2, 3), 2, b.T, np.diag([zeta(5, 1), zeta(5, 4)]))
    assert np.array_equal(rep.A, b.T)
    bad = a.copy()
    bad[0, 1] = np.nan
    for x in (bad.T, bad[:, ::-1], np.asfortranarray(bad)):
        with pytest.raises(ValueError, match="non-finite entries"):
            as_matrix(x)


def test_eigvals_examples():
    assert sorted(eigvals(np.diag([3.0, -1.0])).real) == pytest.approx([-1.0, 3.0])
    # swap has characteristic polynomial lambda^2 - 1
    vals = sorted(eigvals(swap2()).real)
    assert vals == pytest.approx([-1.0, 1.0])


def test_eigvals_hermitian_real():
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (z + z.conj().T)
        vals = eigvals(h)
        assert np.max(np.abs(vals.imag)) <= 1e-10


def test_eigvals_unitary_on_circle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        u = haar_unitary(rng, n)
        vals = eigvals(u)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-8


def test_eigvals_conjugate_pair_with_equal_real_parts():
    # zeta5 and its conjugate share a real part: they must come out apart,
    # told by their imaginary parts.
    b = np.diag([zeta(5, 1), zeta(5, 4)])
    vals = sorted(eigvals(b), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(zeta(5, 4), abs=1e-12)
    assert vals[1] == pytest.approx(zeta(5, 1), abs=1e-12)


def test_snap_examples():
    r = snap_root_of_unity(1.0, 10, 1e-6)
    assert (r.N, r.m) == (1, 0)
    lam = zeta(5) * (1.0 + 1e-9)
    r = snap_root_of_unity(lam, 5, 1e-6)
    assert (r.N, r.m) == (5, 1)
    with pytest.raises(NotARootOfUnity):
        snap_root_of_unity(1.2, 10, 1e-6)


def test_snap_reports_the_distance_to_the_circle():
    # |lam| = 1 + 1e-9 prints as 1 to six digits; the message gives the
    # distance that failed and the tolerance it failed against
    lam = zeta(5) * (1.0 + 1e-9)
    with pytest.raises(NotARootOfUnity, match=r"\|\|lam\| - 1\| = 1e-09, tolerance 1e-12$"):
        snap_root_of_unity(lam, 5, 1e-12)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_snap_rejects_tolerances_that_are_not_finite_and_positive(tol):
    # tol = inf would snap every point, 3 + 4j included, to order 1
    with pytest.raises(ValueError):
        snap_root_of_unity(3.0 + 4.0j, 10, tol)


@pytest.mark.parametrize("value", [complex(float("nan"), 0.0), complex(0.0, float("nan")),
                                   complex(float("inf"), 0.0)])
def test_snap_classifies_non_finite_values(value):
    with pytest.raises(NotARootOfUnity):
        snap_root_of_unity(value, 10, 1e-6)


def test_snap_matches_brute_force_oracle():
    # Oracle: smallest N <= cap whose nearest root is within tol.
    lam = zeta(5) + 1e-9 * (0.3 + 0.4j)
    best = None
    for n_ in range(1, 6):
        for m_ in range(n_):
            d = abs(lam - zeta(n_, m_))
            if d <= 1e-6:
                best = (n_, m_)
                break
        if best:
            break
    r = snap_root_of_unity(lam, 5, 1e-6)
    assert (r.N, r.m) == best == (5, 1)


def test_snap_exact_on_all_orders_up_to_64():
    for n_ in range(1, 65):
        for m_ in range(n_):
            g = math.gcd(m_, n_)
            r = snap_root_of_unity(zeta(n_, m_), 64, 1e-9)
            assert (r.N, r.m) == (n_ // g, m_ // g)


def test_snap_does_not_chase_noise_with_large_denominators():
    # A perturbed 5th root must still snap to order 5 even when orders up
    # to 10^6 are admissible.
    lam = zeta(5) * np.exp(1e-8j)
    r = snap_root_of_unity(lam, 10**6, 1e-6)
    assert (r.N, r.m) == (5, 1)


def _snap_outcome(snap, lam, max_order, tol):
    try:
        return snap(lam, max_order, tol)
    except NotARootOfUnity:
        return NotARootOfUnity


_max_orders = st.one_of(
    st.integers(1, 100), st.integers(1, 10**6), st.integers(1, 10**20)
)


@given(
    angle=st.floats(0.0, 1.0, allow_nan=False),
    radius=st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-7]),
    log_tol=st.floats(-16.0, 0.5),
    max_order=_max_orders,
)
def test_snap_matches_binary_search(angle, radius, log_tol, max_order):
    lam = radius * cmath.exp(2j * math.pi * angle)
    tol = 10.0**log_tol
    assert _snap_outcome(snap_root_of_unity, lam, max_order, tol) == _snap_outcome(
        reference_snap, lam, max_order, tol
    )


@given(
    order=st.integers(1, 10**6),
    numerator=st.integers(0, 10**6),
    log_offset=st.floats(-15.0, -3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    ulps=st.integers(-4, 4),
    max_order=_max_orders,
)
def test_snap_matches_binary_search_at_the_boundary(
    order, numerator, log_offset, sign, ulps, max_order
):
    # tol a few ulps either side of the distance to a root of unity, so
    # the angular budget lands on that root's rounding boundary
    root = zeta(order, numerator % order)
    lam = root * cmath.exp(2j * math.pi * sign * 10.0**log_offset)
    tol = abs(lam - root) * (1.0 + ulps * 2.0**-52)
    assert _snap_outcome(snap_root_of_unity, lam, max_order, tol) == _snap_outcome(
        reference_snap, lam, max_order, tol
    )


def test_snap_matches_the_reference_on_flowed_spectra():
    # Every diagonal eigenvalue of the flowed points of the acceptance grid
    # and of the (2, 3, 8) cells whose snap picks a spurious order: the
    # exact continued fraction gives the reference rule's answer, the
    # spurious orders included.
    grid = FlowConfig(tol=1e-10, max_iter=10**5)
    cells = [(p, q, n, derive_seed(0, p, q, n, i), grid)
             for p, q in PAIRS for n in range(1, N_MAX + 1) for i in range(SEEDS)]
    cells += [(2, 3, 8, derive_seed(0, 2, 3, 8, i), FlowConfig()) for i in (1, 3, 4)]
    spectra = []
    for p, q, n, seed, cfg in cells:
        flowed, _ = flow(random_rep(p, q, n, seed), cfg)
        spectra.append((order_moduli(p, q, n), np.diagonal(flowed.B).tolist()))

    def snap_all(snap):
        return [[_snap_outcome(snap, lam, math.prod(moduli), 1e-6)
                 for lam in spectrum] for moduli, spectrum in spectra]

    snapped = snap_all(snap_root_of_unity)
    assert sum(len(s) for _, s in spectra) == 1024
    assert snapped == snap_all(reference_snap)
    # the first order of each (2, 3, 8) cell that divides no modulus
    spurious = [next(r.N for r in roots if all(m % r.N for m in moduli))
                for (moduli, _), roots in zip(spectra[-3:], snapped[-3:])]
    assert spurious == [4109, 1613, 4689]


def test_snap_is_exact_where_a_float_interval_is_not():
    # tol a hair inside lam's distance to -1: the budget interval in
    # floats holds 1/2, but the exact distance puts it outside, and the
    # answer is 4891/9783, as the reference rule has it
    lam = -0.9999999871079747 + 0.0001605741277477734j
    tol = 0.00016057412826518252
    assert abs(lam + 1) > tol
    root = snap_root_of_unity(lam, 10**6, tol)
    assert root == reference_snap(lam, 10**6, tol) == RootOfUnity(9783, 4891)


def _scan_smallest_denominator(theta, ang_tol, max_den):
    """The first x/y by y, then x, with y <= max_den whose distance to
    theta, rounded once to a float, is at most ang_tol."""
    # a distance beyond the next float up rounds above ang_tol
    reach = Fraction(math.nextafter(ang_tol, math.inf))
    for y in range(1, max_den + 1):
        for x in range(math.floor((theta - reach) * y), math.ceil((theta + reach) * y) + 1):
            if float(abs(theta - Fraction(x, y))) <= ang_tol:
                return x, y
    return None


_EVEN = 2.0**-10  # significand 2^52
_ODD = math.nextafter(_EVEN, math.inf)  # significand 2^52 + 1


@pytest.mark.parametrize("ang_tol", [_EVEN, _ODD])
@pytest.mark.parametrize("center", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)])
@pytest.mark.parametrize("sign", [-1, 1])
def test_smallest_denominator_on_a_rounding_tie(ang_tol, center, sign):
    # theta exactly the midpoint h of ang_tol and the next float away from
    # a dyadic fraction: that distance rounds to the even significand, so
    # the fraction is within for the even ang_tol and outside for the odd
    h = (Fraction(ang_tol) + Fraction(math.nextafter(ang_tol, math.inf))) / 2
    theta = center + sign * h
    answer = _scan_smallest_denominator(theta, ang_tol, 1000)
    assert answer is not None
    assert (Fraction(*answer) == center) == (ang_tol == _EVEN)
    args = theta.numerator, theta.denominator, ang_tol
    assert numerics._smallest_denominator(*args, 1000) == answer
    # max_den cuts off just below the answer's denominator and at it
    y = answer[1]
    assert numerics._smallest_denominator(*args, y - 1) is None
    assert _scan_smallest_denominator(theta, ang_tol, y - 1) is None
    assert numerics._smallest_denominator(*args, y) == answer


@pytest.mark.parametrize("theta", [Fraction(3, 8), Fraction(3, 8) + Fraction(1, 2**1075),
                                   Fraction(3, 8) + Fraction(1, 2**1074), Fraction(5, 7)])
@pytest.mark.parametrize("max_den", [6, 8, 1000])
def test_smallest_denominator_at_zero_tolerance(theta, max_den):
    # at ang_tol = 0 only a distance that rounds to 0.0, at most 2^-1075,
    # is within: theta itself, or 3/8 from a tie away
    answer = numerics._smallest_denominator(theta.numerator, theta.denominator, 0.0, max_den)
    assert answer == _scan_smallest_denominator(theta, 0.0, max_den)
    member = Fraction(3, 8) if abs(theta - Fraction(3, 8)) == Fraction(1, 2**1075) else theta
    assert answer == ((member.numerator, member.denominator)
                      if member.denominator <= max_den else None)


@pytest.mark.parametrize("max_order", [math.inf, math.nan, 2.5, 10.0, "10", True, None, 0, -3])
def test_snap_rejects_a_max_order_that_is_not_a_positive_integer(max_order):
    with pytest.raises(ValueError, match="max_order"):
        snap_root_of_unity(1.0, max_order, 1e-6)


def test_root_of_unity_value():
    r = RootOfUnity(12, 5)
    assert r.value == pytest.approx(zeta(12, 5))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = matrix_to_json(a)
    assert d["n"] == 3
    assert np.allclose(matrix_from_json(d), a)
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "re": [[1.0]], "im": [[0.0]]})


# ------------------------------------------------------------ run settings

def _refuse(*args, **kwargs):
    raise AssertionError("work ran before the settings were checked")


#: A small point of the variety, built once, for the entry points that take one.
_REP = random_rep(2, 3, 2, 1)

#: (entry point, the argument's name in its ValueError, a call with the
#: argument set to x, the library names whose call would be work).
_COUNTS = [
    ("validate_parameters", "p", lambda x: validate_parameters(x, 3), ()),
    ("validate_parameters", "q", lambda x: validate_parameters(2, x), ()),
    ("BSGroup", "p", lambda x: BSGroup(x, 3), ()),
    ("order_moduli", "n", lambda x: order_moduli(2, 3, x), ()),
    ("order_bound", "n", lambda x: order_bound(2, 3, x), ()),
    ("check_moduli", "n", lambda x: check_moduli(2, 3, x), ()),
    ("OrbitPool", "n", lambda x: OrbitPool(2, 3, x, False), ("bsretract.census._scan",)),
    ("enumerate_orbits", "n_max", lambda x: enumerate_orbits(2, 3, x),
     ("bsretract.census.orbit_pool",)),
    ("random_rep", "n", lambda x: random_rep(2, 3, x, 0), ("bsretract.census.orbit_pool",)),
    ("random_rep", "seed", lambda x: random_rep(2, 3, 2, x),
     ("bsretract.census.orbit_pool",)),
    ("invariant_form", "order", lambda x: invariant_form(_REP.B, x),
     ("bsretract.compactify._eig",)),
    ("normality_exponent", "order", lambda x: normality_exponent(_REP, x),
     ("bsretract.compactify.residual",)),
    ("FlowConfig", "max_iter", lambda x: FlowConfig(max_iter=x), ()),
    ("snap_root_of_unity", "max_order", lambda x: snap_root_of_unity(1.0, x, 1e-6),
     ("bsretract.numerics._smallest_denominator",)),
    ("full_pipeline", "num_samples", lambda x: full_pipeline(_REP, num_samples=x),
     ("bsretract.retraction.relation_residual", "bsretract.retraction.flow")),
    ("run_suite", "p", lambda x: run_suite([(x, 3)], 1, 1, FlowConfig()),
     ("bsretract.suite.run_one",)),
    ("run_suite", "n_max", lambda x: run_suite([(2, 3)], x, 1, FlowConfig()),
     ("bsretract.suite.run_one",)),
    ("run_suite", "seeds", lambda x: run_suite([(2, 3)], 1, x, FlowConfig()),
     ("bsretract.suite.run_one",)),
    ("run_suite", "base_seed", lambda x: run_suite([(2, 3)], 1, 1, FlowConfig(), base_seed=x),
     ("bsretract.suite.run_one",)),
]

_TOLERANCES = [
    ("certify", "snap_tol", lambda x: certify(_REP, x), ("bsretract.census.order_moduli",)),
    ("normality_exponent", "tol", lambda x: normality_exponent(_REP, 5, x),
     ("bsretract.compactify.residual",)),
    ("verify_unitary_rep", "tol", lambda x: verify_unitary_rep(_REP, x),
     ("bsretract.retraction.unitarity_defect",)),
    ("FlowConfig", "tol", lambda x: FlowConfig(tol=x), ()),
    ("snap_root_of_unity", "tol", lambda x: snap_root_of_unity(1.0, 10, x),
     ("bsretract.numerics._smallest_denominator",)),
    ("full_pipeline", "snap_tol", lambda x: full_pipeline(_REP, snap_tol=x),
     ("bsretract.retraction.relation_residual", "bsretract.retraction.flow")),
    ("run_suite", "snap_tol", lambda x: run_suite([(2, 3)], 1, 1, FlowConfig(), snap_tol=x),
     ("bsretract.suite.run_one",)),
]

_SETTING_CASES = [
    pytest.param(name, call, work, value, id=f"{entry}-{name}-{value!r}")
    for cases, values in ((_COUNTS, [2.5, True, "2", None]),
                          (_TOLERANCES, [True, "2", None, math.inf, 0.0]))
    for entry, name, call, work in cases
    for value in values
]


@pytest.mark.parametrize("name, call, work, value", _SETTING_CASES)
def test_every_entry_point_refuses_a_bad_setting_before_any_work(
        monkeypatch, name, call, work, value):
    # numerics.json_int and numerics.finite_positive make every one of
    # these decisions: 2.5 was truncated or reached a TypeError, True ran
    # as 1, "2" and None reached a TypeError, and a tolerance took True.
    for target in work:
        monkeypatch.setattr(target, _refuse)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("workers", [2.5, True, "2", -1])
def test_run_suite_refuses_a_bad_worker_count_before_any_cell(monkeypatch, workers):
    # None and 0 are the default worker count
    monkeypatch.setattr("bsretract.suite.run_one", _refuse)
    with pytest.raises(ValueError, match="^workers must be "):
        run_suite([(2, 3)], 1, 1, FlowConfig(), workers=workers)


def test_checked_settings_are_kept_as_python_numbers():
    # a numpy integer or float is kept as the int or float it equals, so
    # manifests that record it stay JSON
    group = BSGroup(np.int64(2), np.int64(3))
    assert (type(group.p), type(group.q)) == (int, int)
    cfg = FlowConfig(tol=np.float64(1e-9), max_iter=np.int64(7))
    assert (type(cfg.tol), type(cfg.max_iter)) == (float, int)
    assert numerics.json_int(np.int32(5), "n", 5) == 5
    assert numerics.finite_positive(np.float32(0.5), "tol") == 0.5
