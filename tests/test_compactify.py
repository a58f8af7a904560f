from functools import reduce

import numpy as np
import pytest

from bsretract import (
    BSGroup,
    Certificate,
    HermitianForm,
    NotFiniteOrder,
    NotNormalizing,
    NotPositiveDefinite,
    OrbitDatum,
    certify,
    conjugate,
    conjugate_into_unitary,
    detect_finite_order,
    direct_sum,
    flow,
    from_orbit_datum,
    invariant_form,
    normality_exponent,
    order_moduli,
    random_rep,
    relation_residual,
)
from bsretract import compactify
from bsretract.bsrep import Rep, random_conditioned
from bsretract.compactify import UNITARY_TOL
from bsretract.numerics import hs_norm, unitarity_defect

from util import (
    conditioned,
    count_linalg_calls,
    haar_unitary,
    n5_block,
    off_diagonal,
    powers,
    reference_invariant_form,
    rep_of,
    zeta,
)


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


def test_detection_stops_at_the_first_inadmissible_order(monkeypatch):
    # 95 divides 1 * 5 * 19 but none of the moduli, so the first eigenvalue
    # ends the detection before the second is snapped
    calls = []
    snap = compactify.snap_root_of_unity

    def counted(*args):
        calls.append(args)
        return snap(*args)

    monkeypatch.setattr(compactify, "snap_root_of_unity", counted)
    b = np.diag([zeta(95, 1), zeta(5, 1)])
    with pytest.raises(NotFiniteOrder, match=r"snapped order 95 divides none of \(1, 5, 19\)"):
        detect_finite_order(b, (1, 5, 19))
    assert len(calls) == 1


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


def test_conjugate_into_unitary_inverse_from_one_decomposition():
    # Q^(1/2) and Q^(-1/2) are built from the one eigendecomposition the
    # form keeps; they are inverse to each other and make B unitary
    rng = np.random.default_rng(5)
    reps = [n5_block(1.0), conjugate(n5_block(1.0), conditioned(rng, 2, 20.0))]
    for n, order, cond in ((2, 5, 100.0), (3, 7, 20.0), (4, 6, 50.0)):
        b = cyclic_generator(rng, order, n, cond)
        reps.append(rep_of(2, 3, conditioned(rng, n, 5.0), b))
    for rep in reps:
        form = invariant_form(rep.B, detect_finite_order(rep.B, (5, 7, 6)))
        assert hs_norm((form.v * form.w) @ form.v.conj().T - form.Q) <= 1e-12 * hs_norm(form.Q)
        g = (form.v * np.sqrt(form.w)) @ form.v.conj().T
        g_inv = (form.v / np.sqrt(form.w)) @ form.v.conj().T
        assert hs_norm(g @ g_inv - np.eye(rep.n)) <= 1e-13
        fixed = conjugate_into_unitary(rep, form)
        assert np.array_equal(fixed.B, g @ rep.B @ g_inv)
        assert unitarity_defect(fixed.B) <= 1e-12


def test_conjugate_into_unitary_rejects_an_indefinite_form():
    # a form cannot be built from an indefinite Q, so no indefinite Q
    # reaches conjugate_into_unitary
    for q in (np.diag([2.0, -0.5]), np.diag([-2.0, -0.5]), np.diag([1.0, 0.0])):
        with pytest.raises(NotPositiveDefinite):
            HermitianForm(q)


def test_hermitian_form_is_scaled_to_determinant_one():
    # the input is scaled by exp(mean log w), not rejected, and the kept
    # decomposition rebuilds the scaled form
    rng = np.random.default_rng(7)
    for n, cond in ((1, 1.0), (3, 1e2), (5, 1e4)):
        g = conditioned(rng, n, cond)
        raw = 3.7 * g.conj().T @ g
        raw = 0.5 * (raw + raw.conj().T)
        form = HermitianForm(raw)
        assert abs(np.prod(form.w) - 1.0) <= 1e-12
        assert np.all(np.diff(form.w) >= 0.0)
        assert hs_norm(form.Q / hs_norm(form.Q) - raw / hs_norm(raw)) <= 1e-14
        assert hs_norm((form.v * form.w) @ form.v.conj().T - form.Q) <= 1e-12 * hs_norm(form.Q)


def test_normality_exponent_examples():
    trivial = rep_of(2, 3, [[3.0, 1.0], [0.0, 2.0]], np.eye(2))
    assert normality_exponent(trivial, 1) == 0

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


def test_hermitian_form_tolerance_is_relative_to_the_norm():
    # Hermitian to rounding at a norm of 3.4e6, with a defect of 1.7e-10
    # that an absolute 1e-10 refused
    g = random_conditioned(np.random.default_rng(7), 5, 1e8)
    q = 3.7 * g.conj().T @ g
    assert hs_norm(q - q.conj().T) > 1e-10
    assert abs(np.prod(HermitianForm(q).w) - 1.0) <= 1e-9
    # a relative off-Hermitian part of 1e-6 is refused at small, unit and
    # large norms
    x = np.random.default_rng(8).standard_normal((5, 5))
    skew = (x - x.T) / hs_norm(x - x.T)
    for scale in (2e-8, 1.0, 1e8):
        h = scale * (np.eye(5) + 0.1 * (x + x.T))
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianForm(h + 1e-6 * hs_norm(h) * skew)


# A NaN measurement must fail each of HermitianForm's checks, never pass it.

def test_hermitian_form_rejects_a_nan_hermiticity_defect(monkeypatch):
    monkeypatch.setattr("bsretract.compactify.hs_norm", lambda x: float("nan"))
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianForm(np.eye(2))


def test_hermitian_form_rejects_a_nan_determinant(monkeypatch):
    # a NaN largest eigenvalue makes the determinant scale NaN
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (np.array([1.0, float("nan")]), np.eye(2)))
    with pytest.raises(NotPositiveDefinite):
        HermitianForm(np.eye(2))


def test_hermitian_form_rejects_a_nan_eigenvalue(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (np.array([float("nan"), 1.0]), np.eye(2)))
    with pytest.raises(NotPositiveDefinite):
        HermitianForm(np.eye(2))


@pytest.mark.usefixtures("cold_start")
def test_certify_shares_one_decomposition_bit_identically():
    # the order and the form read one decomposition of B; each equals what
    # its own public call, which decomposes B itself, returns.  The
    # Newton-CG flow from a conjugated input ends at a B that is not
    # diagonal, so certify decomposes it.
    rng = np.random.default_rng(16)
    for n in (2, 4, 6):
        rep = flow(conjugate(random_rep(2, 3, n, n), conditioned(rng, n, 8.0)))[0]
        assert off_diagonal(rep.B) > 1e-3
        cert = certify(rep)
        assert cert.failed_stage is None
        order = detect_finite_order(rep.B, order_moduli(2, 3, n))
        form = invariant_form(rep.B, order)
        assert cert.order == order
        assert cert.form.Q.tobytes() == form.Q.tobytes()


@pytest.mark.parametrize("seed", [15, 128])
def test_certify_a_conditioned_eigenbasis(seed):
    # B = V diag(zeta_5^k) V^-1 with cond(V) near 5e5: an LU determinant
    # of the scaled form misses one by more than 1e-6, yet the form is
    # scaled by construction and certify returns a certificate; at this
    # conditioning the unitarized B misses unitarity by a few 1e-6, past
    # UNITARY_TOL, so certify stops there instead of handing retract_a a
    # B it refuses.  Q read off the SVD of V makes B no less unitary than
    # Q formed through V^-1 does.
    v = random_conditioned(np.random.default_rng(seed), 4, 1e6)
    b = v @ np.diag(np.exp(2j * np.pi * np.arange(1, 5) / 5)) @ np.linalg.inv(v)
    rep = Rep(BSGroup(2, 3), 4, np.eye(4), b)
    cert = certify(rep)
    assert isinstance(cert, Certificate)
    assert cert.order == 5 and cert.eig_condition > 1e5
    assert cert.form_condition == cert.form.w[-1] / cert.form.w[0] > 1e10
    assert abs(np.prod(cert.form.w) - 1.0) <= 1e-12
    assert UNITARY_TOL < unitarity_defect(cert.unitary.B) <= 1e-4
    reference = conjugate_into_unitary(rep, reference_invariant_form(b, 5))
    assert cert.unitarity_defect <= unitarity_defect(reference.B)
    assert cert.failed_stage == "conjugate_into_unitary"
    assert isinstance(cert.error, NotFiniteOrder) and cert.exponent is None


def test_invariant_form_matches_the_inverse_route_on_repeated_roots():
    # direct sums of equal orbit blocks, conjugated: every root of B is
    # repeated, and the form read off the SVD of V, with each repeated
    # root's eigenvectors orthonormalized, is the form built through V^-1
    # within rounding amplified by cond(V)^2
    rng = np.random.default_rng(21)
    data = [OrbitDatum(2, 3, 5, 4, (1, 4), 2), OrbitDatum(2, 3, 19, 11, (1, 11, 7), 3),
            OrbitDatum(1, 2, 1, 0, (0,), 1)]
    for datum in data:
        for copies in (2, 3):
            for cond in (1.0, 30.0, 1e3):
                blocks = [from_orbit_datum(datum, rng.uniform(0.5, 2.0)) for _ in range(copies)]
                n = datum.k * copies
                rep = conjugate(reduce(direct_sum, blocks), random_conditioned(rng, n, cond))
                order = detect_finite_order(rep.B, datum.N)
                q = invariant_form(rep.B, order).Q
                q_ref = reference_invariant_form(rep.B, order).Q
                kappa = np.linalg.cond(np.linalg.eig(rep.B)[1])
                assert hs_norm(q - q_ref) <= 1e-12 * kappa**2 * hs_norm(q_ref), (datum, copies, cond)


@pytest.mark.usefixtures("cold_start")
def test_certify_decomposes_the_form_once(monkeypatch):
    # with distinct roots, the one SVD of B's eigenvectors gives V^-1, the
    # form's positivity, its determinant and Q^(+-1/2): Q is neither formed
    # through an inverse nor decomposed again.  The one inverse is A's, in
    # the normality exponent's relation residual.  The Newton-CG flow ends
    # at a B that is not diagonal, so certify decomposes it.
    rep, trace = flow(random_rep(2, 3, 4, 3))
    assert trace.converged and off_diagonal(rep.B) > 1e-3
    calls = {name: [] for name in ("eigh", "eigvalsh", "det", "svd", "inv")}
    for name in calls:
        def counting(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name].append(args[0])
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    cert = certify(rep)
    assert cert.failed_stage is None and cert.order == 65
    assert {name: len(args) for name, args in calls.items()} == {
        "eigh": 0, "eigvalsh": 0, "det": 0, "svd": 1, "inv": 1}
    assert np.array_equal(calls["inv"][0], cert.unitary.A)


def _raising_eig(b):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _singular_eig(b, _eig=np.linalg.eig):
    # eig's basis with its second column replaced by its first: exactly
    # singular, so the SVD's smallest singular value is 0
    lam, v = _eig(b)
    v = v.copy()
    v[:, 1] = v[:, 0]
    return lam, v


@pytest.mark.parametrize(
    "fake, message",
    [(_raising_eig, "no eigenvector basis: Eigenvalues did not converge"),
     (_singular_eig, "no invertible eigenvector basis")],
    ids=["eig_fails", "singular_basis"],
)
def test_an_unusable_eigenbasis_fails_the_order(monkeypatch, fake, message):
    # an eig that fails, or a basis that cannot be inverted, ends the
    # order detection with NotFiniteOrder, on its own and inside certify.
    # The block is conjugated by a shear, so that certify decomposes its B,
    # which stays triangular: its first eigenvector is e1 exactly.
    rep = conjugate(n5_block(1.0), np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert off_diagonal(rep.B) > 1e-3 and certify(rep).failed_stage is None
    monkeypatch.setattr(np.linalg, "eig", fake)
    with pytest.raises(NotFiniteOrder, match=message):
        detect_finite_order(rep.B, 5)
    cert = certify(rep)
    assert cert.failed_stage == "detect_finite_order" and cert.order is None
    assert isinstance(cert.error, NotFiniteOrder) and message in str(cert.error)


def test_a_near_jordan_b_falls_back_to_the_eig_path(monkeypatch):
    # B's off-diagonal 1e-6 is within the rebuild bound, and its diagonal
    # snaps to order 1, but B misses unitarity by 1.4e-6, past
    # UNITARY_TOL: certify decomposes B after all, and ends where the eig
    # path ends, at the form of B's nearly parallel eigenvectors
    b = np.array([[1.0, 1e-6], [0.0, 1.0]])
    rep = rep_of(2, 3, np.diag([1.5, 1.0]), b)
    assert off_diagonal(b) <= 2 * 1e-6 * max(1.0, hs_norm(b))
    assert 1e-6 < unitarity_defect(rep.B) < 2e-6
    with pytest.raises(NotPositiveDefinite) as expected:
        invariant_form(rep.B, detect_finite_order(rep.B, order_moduli(2, 3, 2)))
    calls = count_linalg_calls(monkeypatch, ("eig",))
    cert = certify(rep)
    assert calls == ["eig"]
    assert cert.failed_stage == "invariant_form" and cert.order == 1
    assert type(cert.error) is NotPositiveDefinite and str(cert.error) == str(expected.value)
    assert cert.form is None and cert.unitary is None


def test_a_diagonal_b_of_inadmissible_order_fails_as_on_the_eig_path(monkeypatch):
    # a diagonal unitary B with a root of order 7, which divides none of
    # the moduli (1, 5, 19) of (2, 3) at n = 3: the standard basis fails
    # the order, and so does the eig path, with the same message
    b = np.diag([zeta(5, 1), zeta(7, 1), zeta(5, 4)])
    rep = rep_of(2, 3, np.eye(3), b)
    with pytest.raises(NotFiniteOrder) as expected:
        detect_finite_order(rep.B, order_moduli(2, 3, 3))
    assert "snapped order 7 divides none" in str(expected.value)
    calls = count_linalg_calls(monkeypatch, ("eig",))
    cert = certify(rep)
    assert calls == ["eig"]
    assert cert.failed_stage == "detect_finite_order" and cert.order is None
    assert type(cert.error) is NotFiniteOrder and str(cert.error) == str(expected.value)


def test_a_b_unitary_within_the_gate_certifies_in_its_standard_basis(monkeypatch):
    # B = [[1, 6e-9], [0, 1]] is within UNITARY_TOL of the diagonal unitary
    # I: certify reads order 1 off its diagonal, with Q = I and rep itself
    # as the unitarized point, where the eig path's nearly defective basis
    # fails the form.  eig's second eigenvector leans off the first by
    # about eps / 6e-9, so their Gram matrix is within n eps of singular.
    b = np.array([[1.0, 6e-9], [0.0, 1.0]])
    rep = rep_of(2, 3, np.diag([1.5, 1.0]), b)
    with pytest.raises(NotPositiveDefinite):
        invariant_form(rep.B, 1)
    calls = count_linalg_calls(monkeypatch, ("eig", "svd"))
    cert = certify(rep)
    assert calls == []
    assert cert.failed_stage is None and cert.order == 1 and cert.exponent == 0
    assert cert.unitary is rep and np.array_equal(cert.form.Q, np.eye(2))
    assert cert.eig_condition == cert.form_condition == 1.0
    assert cert.invariance_defect == cert.unitarity_defect == unitarity_defect(b) <= UNITARY_TOL
