import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsretract import (
    BSGroup,
    NotARootOfUnity,
    Rep,
    RootOfUnity,
    SingularMatrix,
    eigvals,
    hs_norm,
    polar,
    snap_root_of_unity,
)
from bsretract.numerics import matrix_from_json, matrix_to_json

from util import haar_unitary, reference_snap, swap2, zeta


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
def test_snap_walk_matches_binary_search(angle, radius, log_tol, max_order):
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
def test_snap_walk_matches_binary_search_at_the_boundary(
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
