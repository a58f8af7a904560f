import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsretract import (
    NotARootOfUnity,
    NotPositiveDefinite,
    RootOfUnity,
    SingularMatrix,
    eigvals,
    exp_herm,
    herm_power,
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


def test_polar_of_unitary_is_identity_factor():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        a = haar_unitary(rng, n)
        u, p = polar(a)
        assert np.allclose(u, a, atol=1e-12)
        assert np.allclose(p, np.eye(n), atol=1e-12)


def test_polar_of_positive_definite():
    p0 = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    u, p = polar(p0)
    assert np.allclose(u, np.eye(2), atol=1e-12)
    assert np.allclose(p, p0, atol=1e-12)


def test_polar_swap_scaling_example():
    # A = diag(2, 1/2) . swap has polar factors (swap, diag(1/2, 2)).
    a = np.diag([2.0, 0.5]) @ swap2()
    u, p = polar(a)
    assert np.allclose(u, swap2(), atol=1e-12)
    assert np.allclose(p, np.diag([0.5, 2.0]), atol=1e-12)


def test_polar_against_inverse_sqrt_oracle():
    # Independent oracle: U = A (A* A)^{-1/2} via eigendecomposition.
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, v = np.linalg.eigh(a.conj().T @ a)
        u_oracle = a @ (v * w**-0.5) @ v.conj().T
        u, p = polar(a)
        assert np.allclose(u, u_oracle, atol=1e-10)
        assert hs_norm(u @ p - a) <= 1e-10 * hs_norm(a)


def test_polar_round_trip_random():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, p = polar(a)
        assert hs_norm(u @ p - a) <= 1e-10 * hs_norm(a)
        assert hs_norm(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
        assert hs_norm(p - p.conj().T) <= 1e-12 * hs_norm(p)
        assert np.linalg.eigvalsh(p)[0] > 0


def test_polar_singular_raises():
    with pytest.raises(SingularMatrix):
        polar(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_herm_power_examples():
    assert np.allclose(herm_power(np.eye(3), 0.37), np.eye(3))
    assert np.allclose(herm_power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]))
    p = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
    assert hs_norm(herm_power(p, 1.0) - p) <= 1e-12
    assert np.allclose(herm_power(p, 0.0), np.eye(2))


def test_herm_power_semigroup():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = z @ z.conj().T + 0.1 * np.eye(4)
    for s, t in [(0.3, 0.4), (0.5, 0.5), (-0.2, 1.2)]:
        lhs = herm_power(p, s) @ herm_power(p, t)
        assert hs_norm(lhs - herm_power(p, s + t)) <= 1e-9


def test_herm_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        herm_power(np.diag([1.0, -2.0]), 0.5)


def test_exp_herm_examples():
    assert np.allclose(exp_herm(np.zeros((2, 2))), np.eye(2))
    assert np.allclose(exp_herm(np.diag([math.log(2), 0.0])), np.diag([2.0, 1.0]))
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = 0.5 * (z + z.conj().T)
    assert hs_norm(exp_herm(h) @ exp_herm(-h) - np.eye(3)) <= 1e-10
    assert np.linalg.eigvalsh(exp_herm(h))[0] > 0


def test_as_matrix_rejects_bad_inputs():
    from bsretract.numerics import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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
    # zeta5 and its conjugate share a real part: the Hermitian-pair path
    # must separate them through the imaginary part.
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
