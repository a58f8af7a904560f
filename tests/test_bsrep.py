import json

import numpy as np
import pytest

from bsretract import (
    BSGroup,
    GroupMismatch,
    InvalidOrbit,
    OrbitDatum,
    conjugate,
    direct_sum,
    eigvals,
    from_orbit_datum,
    kn_energy,
    random_rep,
    relation_residual,
    rep_from_json,
    rep_to_json,
    snap_root_of_unity,
)

from bsretract.suite import derive_seed

from util import (
    N_MAX,
    PAIRS,
    SEEDS,
    conditioned,
    haar_unitary,
    n5_block,
    reference_random_rep,
    rep_of,
    swap2,
    zeta,
)


def test_bsgroup_validation():
    BSGroup(2, 3)
    BSGroup(-1, 2)
    for bad in [(2, 2), (2, 4), (0, 1), (-3, 3)]:
        with pytest.raises(ValueError):
            BSGroup(*bad)


def test_relation_residual_trivial():
    assert relation_residual(rep_of(2, 3, np.eye(2), np.eye(2))) == 0.0
    # 1-dim: b^(q-p) = 1 forces b = 1 for (2,3); any invertible a works.
    assert relation_residual(rep_of(2, 3, [[5.0]], [[1.0]])) == 0.0


def test_relation_residual_n5_block():
    # swap . diag(z^2, z^3) . swap = diag(z^3, z^2) = B^3 for z of order 5
    rep = rep_of(2, 3, swap2(), np.diag([zeta(5, 1), zeta(5, 4)]))
    assert relation_residual(rep) <= 1e-14


def test_relation_residual_negative_powers():
    rep = from_orbit_datum(OrbitDatum(-1, 2, 3, 1, (1,), 1), 2.0)
    assert relation_residual(rep) <= 1e-14


def test_from_orbit_datum_examples():
    rep = n5_block(chi=1.0)
    assert rep.n == 2
    assert np.allclose(rep.A, swap2())
    assert np.allclose(rep.B, np.diag([zeta(5, 1), zeta(5, 4)]))

    trivial = from_orbit_datum(OrbitDatum(2, 3, 1, 0, (0,), 1), 7.0)
    assert trivial.n == 1
    assert trivial.A[0, 0] == 7.0
    assert trivial.B[0, 0] == 1.0

    other = from_orbit_datum(OrbitDatum(2, 3, 5, 4, (2, 3), 2), 1j)
    assert relation_residual(other) <= 1e-12


def test_from_orbit_datum_rejects_broken_recursion():
    with pytest.raises(InvalidOrbit):
        from_orbit_datum(OrbitDatum(2, 3, 5, 4, (1, 3), 2), 1.0)


def test_from_orbit_datum_rejects_zero_chi():
    with pytest.raises(ValueError):
        from_orbit_datum(OrbitDatum(2, 3, 5, 4, (1, 4), 2), 0.0)


def test_from_orbit_datum_sl_mode():
    rep = from_orbit_datum(OrbitDatum(2, 3, 5, 4, (1, 4), 2), 1.7 + 0.3j, sl=True)
    assert abs(np.linalg.det(rep.A) - 1.0) <= 1e-12
    assert abs(np.linalg.det(rep.B) - 1.0) <= 1e-12
    assert relation_residual(rep) <= 1e-12
    # (2,5) fixed point mod 3 has exponent sum 1: no determinant-one form
    with pytest.raises(InvalidOrbit):
        from_orbit_datum(OrbitDatum(2, 5, 3, 1, (1,), 1), 1.0, sl=True)


def test_direct_sum():
    t = rep_of(2, 3, np.eye(1), np.eye(1))
    s = direct_sum(t, t)
    assert s.n == 2
    assert np.allclose(s.A, np.eye(2))

    blocks = direct_sum(n5_block(1.0), n5_block(1j, orbit=(2, 3)))
    assert blocks.n == 4
    assert relation_residual(blocks) <= 1e-12

    with_trivial = direct_sum(n5_block(1.0), t)
    vals = sorted(eigvals(with_trivial.B), key=lambda z: (z.real, z.imag))
    expected = sorted([zeta(5, 1), zeta(5, 4), 1.0], key=lambda z: (z.real, z.imag))
    assert np.allclose(vals, expected)

    with pytest.raises(GroupMismatch):
        direct_sum(t, rep_of(1, 2, np.eye(1), np.eye(1)))


def test_conjugate_identity_and_unitary_energy():
    rep = n5_block(1.0)
    same = conjugate(rep, np.eye(2))
    assert np.allclose(same.A, rep.A) and np.allclose(same.B, rep.B)
    rng = np.random.default_rng(10)
    u = haar_unitary(rng, 2)
    assert kn_energy(conjugate(rep, u)) == pytest.approx(kn_energy(rep), abs=1e-10)


def test_conjugate_keeps_residual_small():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rep = direct_sum(n5_block(0.5 + 0.2j), n5_block(2.0, orbit=(2, 3)))
        g = conditioned(rng, 4, 10.0)
        assert relation_residual(conjugate(rep, g)) <= 1e-8


def test_conjugation_equivariance_bound():
    rng = np.random.default_rng(12)
    group = BSGroup(2, 3)
    for _ in range(20):
        rep = n5_block(1.3)
        g = conditioned(rng, 2, 10.0)
        cond = np.linalg.cond(g)
        before = relation_residual(rep)
        after = relation_residual(conjugate(rep, g))
        bnd = 10.0 * cond ** (abs(group.p) + 1) * (
            before + 1e-12 * np.linalg.norm(rep.A) * np.linalg.norm(rep.B) ** abs(group.p)
        )
        assert after <= bnd


def test_random_rep_deterministic():
    r1 = random_rep(2, 3, 3, seed=99)
    r2 = random_rep(2, 3, 3, seed=99)
    assert np.array_equal(r1.A, r2.A) and np.array_equal(r1.B, r2.B)
    r3 = random_rep(2, 3, 3, seed=100)
    assert not np.allclose(r1.A, r3.A)


def test_random_rep_residual():
    for seed in range(8):
        assert relation_residual(random_rep(2, 3, 2, seed)) <= 1e-8
        assert relation_residual(random_rep(-2, 5, 3, seed)) <= 1e-8


def test_random_rep_eigenvalue_structure():
    # B eigenvalues are roots of unity of order dividing some |p^k - q^k|:
    # for (2,3) and n <= 3 the orders lie in {1, 5, 19}.
    for seed in range(12):
        rep = random_rep(2, 3, 3, seed)
        for lam in eigvals(rep.B):
            root = snap_root_of_unity(lam, 19, 1e-8)
            assert root.N in (1, 5, 19)


def test_random_rep_dim1_is_trivial_b():
    # (2,3) in dimension 1: b^(q-p) = b = 1; the block constructor is
    # exact and the scalar conjugation in random_rep adds only rounding.
    from bsretract import OrbitDatum

    block = from_orbit_datum(OrbitDatum(2, 3, 1, 0, (0,), 1), 3.0)
    assert block.B[0, 0] == 1.0
    rep = random_rep(2, 3, 1, seed=5)
    assert abs(rep.B[0, 0] - 1.0) <= 1e-12


def test_random_rep_draws_as_the_reference_loop():
    # The acceptance grid, the n = 12 pairs of the wide-flow benchmark and
    # determinant-one draws: every block comes from the same pool prefix
    # under the same generator stream, so A and B agree bit for bit.
    cells = [
        (p, q, n, derive_seed(0, p, q, n, i), False)
        for p, q in PAIRS for n in range(1, N_MAX + 1) for i in range(SEEDS)
    ]
    cells += [
        (p, q, 12, derive_seed(0, p, q, 12, i), False)
        for p, q in [(1, 2), (-1, 2), (2, 3), (2, -3), (1, 3), (-1, 3)]
        for i in range(2)
    ]
    cells += [
        (p, q, n, seed, True)
        for p, q in [(2, 3), (1, 2), (-2, 5)] for n in range(1, 7) for seed in range(2)
    ]
    for p, q, n, seed, sl in cells:
        rep = random_rep(p, q, n, seed, sl=sl)
        ref = reference_random_rep(p, q, n, seed, sl=sl)
        assert np.array_equal(rep.A, ref.A) and np.array_equal(rep.B, ref.B), (
            p, q, n, seed, sl)


def test_random_rep_sl_mode():
    for seed in range(4):
        rep = random_rep(2, 3, 2, seed, sl=True)
        assert abs(np.linalg.det(rep.A) - 1.0) <= 1e-10
        assert abs(np.linalg.det(rep.B) - 1.0) <= 1e-10
        assert relation_residual(rep) <= 1e-8


def test_rep_json_round_trip():
    rep = random_rep(2, 3, 2, seed=3)
    doc = json.loads(json.dumps(rep_to_json(rep)))
    back = rep_from_json(doc)
    assert np.allclose(back.A, rep.A) and np.allclose(back.B, rep.B)
    assert back.group == rep.group


def test_rep_json_validation_gate():
    rep = n5_block(1.0)
    doc = rep_to_json(rep)
    doc["A"]["re"][0][0] += 0.5  # corrupt
    with pytest.raises(ValueError):
        rep_from_json(doc)
    rep_from_json(doc, validate=False)  # explicit opt-out parses fine
