import numpy as np
import pytest

from bsretract import (
    NotFiniteOrder,
    NotNormalizing,
    certify,
    conjugate,
    conjugate_into_unitary,
    detect_finite_order,
    flow,
    invariant_form,
    normality_exponent,
    order_moduli,
    relation_residual,
)
from bsretract.numerics import hs_norm

from util import conditioned, haar_unitary, n5_block, powers, rep_of, zeta


def cyclic_generator(rng, order, n, cond=1.0):
    """Generator of a random order-`order` cyclic subgroup of GL_n, similar
    to a diagonal of order-th roots with at least one primitive entry."""
    exps = [1] + list(rng.integers(0, order, n - 1))
    gen = np.diag(np.exp(2j * np.pi * np.array(exps) / order))
    if cond > 1.0:
        g = conditioned(rng, n, cond)
        gen = g @ gen @ np.linalg.inv(g)
    return gen


def brute_force_exponent(rep, order):
    """argmin over j < order of ||A B A^-1 - B^j||, scanning every power."""
    c = rep.A @ rep.B @ np.linalg.inv(rep.A)
    return int(np.argmin([hs_norm(c - h) for h in powers(rep.B, order)]))


def test_detect_finite_order_examples():
    assert detect_finite_order(np.eye(3), 10) == 1
    assert detect_finite_order(np.diag([zeta(5, 1), zeta(5, 4)]), 10) == 5
    with pytest.raises(NotFiniteOrder):
        detect_finite_order(np.diag([2.0, 0.5]), 100)


def test_detect_finite_order_power_check_catches_unipotent():
    # eigenvalues both 1, but the matrix is not the identity
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotFiniteOrder):
        detect_finite_order(b, 10)


def test_detect_finite_order_lcm():
    b = np.diag([zeta(3, 1), zeta(4, 1)])
    assert detect_finite_order(b, 12) == 12


def test_detect_finite_order_rejects_irrational_angles():
    # every angle snaps to some root of order <= prod |2^k - 3^k| within
    # 1e-6, but not to one whose order divides some |2^k - 3^k|
    angles = np.array([np.sqrt(2.0) * k % 1.0 for k in range(1, 9)])
    b = np.diag(np.exp(2j * np.pi * angles))
    with pytest.raises(NotFiniteOrder):
        detect_finite_order(b, order_moduli(2, 3, 8))


def test_detect_finite_order_rejects_order_dividing_no_modulus():
    b = np.diag([zeta(7, 1), zeta(5, 2)])
    assert detect_finite_order(b, (5, 7)) == 35
    with pytest.raises(NotFiniteOrder):
        detect_finite_order(b, (5, 19))


def test_averaged_form_identity_on_unitary_groups():
    rng = np.random.default_rng(0)
    for order in (2, 3, 8, 24):
        q = invariant_form(cyclic_generator(rng, order, 3), order).Q
        assert hs_norm(q - np.eye(3)) <= 1e-10


def test_averaged_form_two_element_example():
    # H = {I, g} with g = [[1,-2],[0,-1]]: mean of h*h is [[1,-1],[-1,3]].
    g = np.array([[1.0, -2.0], [0.0, -1.0]])
    assert np.allclose(g @ g, np.eye(2))
    q = invariant_form(g, 2).Q
    raw = np.array([[1.0, -1.0], [-1.0, 3.0]])
    # determinant-normalized, so proportional to the raw average
    assert np.allclose(q * np.sqrt(np.linalg.det(raw).real), raw)


def test_averaged_form_invariance():
    rng = np.random.default_rng(1)
    for _ in range(25):
        order = int(rng.integers(2, 13))
        n = int(rng.integers(1, 5))
        gen = cyclic_generator(rng, order, n, cond=30.0)
        q = invariant_form(gen, order).Q
        for h in powers(gen, order):
            assert hs_norm(h.conj().T @ q @ h - q) <= 1e-8


def test_averaged_form_equivariance_under_unitaries():
    rng = np.random.default_rng(2)
    gen = cyclic_generator(rng, 6, 3, cond=10.0)
    q = invariant_form(gen, 6).Q
    u = haar_unitary(rng, 3)
    q_moved = invariant_form(u @ gen @ u.conj().T, 6).Q
    assert hs_norm(q_moved - u @ q @ u.conj().T) <= 1e-9


def test_averaged_form_continuity_proxy():
    rng = np.random.default_rng(3)
    order = 5
    gen = cyclic_generator(rng, order, 2, cond=3.0)
    q = invariant_form(gen, order).Q
    eps = 1e-6
    noisy = gen + eps * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(8)
    q2 = invariant_form(noisy, order).Q
    assert hs_norm(q2 - q) <= 10.0 * order * eps


def test_conjugate_into_unitary():
    rng = np.random.default_rng(5)
    rep = conjugate(n5_block(1.0), conditioned(rng, 2, 20.0))
    order = detect_finite_order(rep.B, 5)
    form = invariant_form(rep.B, order)
    fixed = conjugate_into_unitary(rep, form)
    assert hs_norm(fixed.B.conj().T @ fixed.B - np.eye(2)) <= 1e-8
    assert abs(relation_residual(fixed) - relation_residual(rep)) <= 1e-8

    # already unitary: the form is I and nothing moves
    rep_u = n5_block(1.0)
    form_u = invariant_form(rep_u.B, 5)
    same = conjugate_into_unitary(rep_u, form_u)
    assert np.allclose(same.A, rep_u.A, atol=1e-10)


def test_normality_exponent_examples():
    trivial = rep_of(2, 3, [[3.0, 1.0], [0.0, 2.0]], np.eye(2))
    assert normality_exponent(trivial) == 0

    # swap conjugation of diag(z, z^4) gives diag(z^4, z) = B^4
    rep = n5_block(1.0)
    assert normality_exponent(rep, order=5) == 4

    rng = np.random.default_rng(6)
    bad = rep_of(2, 3, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                 np.diag([zeta(5, 1), zeta(5, 4)]))
    with pytest.raises(NotNormalizing):
        normality_exponent(bad, order=5)


def test_normality_exponent_is_q_over_p_mod_order():
    # at exact block points A B A^-1 = B^u with u = q p^-1 (mod N)
    rep = n5_block(0.3 + 0.8j, orbit=(2, 3))
    assert normality_exponent(rep, order=5) == 4
    rep13 = rep_of(1, 3, np.eye(1), [[zeta(2)]])
    assert normality_exponent(rep13, order=2) == 1


def test_order_bound_holds_on_flowed_endpoints():
    rng = np.random.default_rng(7)
    from bsretract import order_bound, random_rep

    for seed in range(4):
        rep = random_rep(2, 3, 3, seed)
        final, trace = flow(rep)
        assert trace.converged
        order = detect_finite_order(final.B, order_moduli(2, 3, 3))
        assert order <= order_bound(2, 3, 3)
        cert = certify(final)
        assert cert.order == order
        assert cert.exponent == brute_force_exponent(cert.unitary, order)


def test_order_bound_across_all_small_parameter_pairs():
    # every flowed endpoint for |p|,|q| <= 5, n <= 4 detects a finite
    # order dividing the a-priori bound
    import math

    from bsretract import order_bound, random_rep

    pairs = [
        (p, q)
        for p in range(1, 6)
        for q in range(1, 6)
        if p != q and math.gcd(p, q) == 1
    ]
    for p, q in pairs:
        for n in (1, 4):
            for seed in (0, 1):
                final, trace = flow(random_rep(p, q, n, seed))
                assert trace.converged, (p, q, n, seed)
                bound = order_bound(p, q, n)
                order = detect_finite_order(final.B, order_moduli(p, q, n))
                assert bound % order == 0, (p, q, n, seed, order)
                cert = certify(final)
                assert cert.exponent == brute_force_exponent(cert.unitary, order)


def test_detected_order_equals_lcm_of_chosen_block_moduli():
    # direct sum of a mod-5 cycle, a mod-19 cycle and a trivial block:
    # the flowed endpoint must report lcm(5, 19, 1) = 95
    from bsretract import OrbitDatum, conjugate, direct_sum, from_orbit_datum

    rng = np.random.default_rng(8)
    rep = direct_sum(
        direct_sum(
            from_orbit_datum(OrbitDatum(2, 3, 5, 4, (1, 4), 2), 1.4),
            from_orbit_datum(OrbitDatum(2, 3, 19, 11, (1, 11, 7), 3), 0.8j),
        ),
        from_orbit_datum(OrbitDatum(2, 3, 1, 0, (0,), 1), 0.9),
    )
    start = conjugate(rep, conditioned(rng, 6, 10.0))
    final, trace = flow(start)
    assert trace.converged
    order = detect_finite_order(final.B, order_moduli(2, 3, 6))
    assert order == 95


def test_mixed_modulus_normality_exponent_is_crt_solution():
    # with blocks mod 5 and mod 19 the exponent solves j = q/p mod lcm:
    # j = 3 * 2^-1 = 3 * 48 = 144 = 49 (mod 95)
    from bsretract import OrbitDatum, conjugate, direct_sum, from_orbit_datum

    rng = np.random.default_rng(9)
    rep = direct_sum(
        from_orbit_datum(OrbitDatum(2, 3, 5, 4, (1, 4), 2), 1.0),
        from_orbit_datum(OrbitDatum(2, 3, 19, 11, (1, 11, 7), 3), 1.0),
    )
    start = conjugate(rep, conditioned(rng, 5, 5.0))
    final, trace = flow(start)
    assert trace.converged
    unit = certify(final).unitary
    j = normality_exponent(unit, order=95)
    assert j == 3 * pow(2, -1, 95) % 95 == 49
    assert j == brute_force_exponent(unit, 95)
