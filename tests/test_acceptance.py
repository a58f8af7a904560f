"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The flow grid (criteria 1-4) is shared through a module-scoped fixture:
pairs (1,2), (2,3), (1,3), (2,5), (3,5) with all sign variants, n <= 4,
five seeds each, full pipeline with idempotence re-runs.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bsretract import (
    FlowConfig,
    conjugate,
    enumerate_orbits,
    from_orbit_datum,
    kn_energy,
    moment_map,
    order_bound,
    random_rep,
    relation_residual,
    verify_orbit,
)
from bsretract.cli import main
from bsretract.compactify import invariant_form
from bsretract.numerics import hs_norm
from bsretract.suite import run_suite

from util import (
    N_MAX,
    PAIRS,
    SEEDS,
    conditioned,
    divisors,
    group_mean_form,
    powers,
    random_hermitian,
)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def grid():
    t0 = time.time()
    doc = run_suite(
        PAIRS,
        N_MAX,
        SEEDS,
        FlowConfig(tol=1e-10, max_iter=10**5),
        base_seed=0,
        num_samples=100,
        snap_tol=1e-6,
        check_idempotence=True,
        workers=2,
    )
    doc["elapsed_seconds"] = time.time() - t0
    return doc


def test_criterion_1_kempf_ness_convergence(grid):
    s = grid["summary"]
    rate = s["reached_1e-8_rate"]
    monotone_violations = [
        v for v in s["violations"] if "energy increased" in v["what"]
    ]
    elapsed = grid["elapsed_seconds"]
    ok = (
        rate >= 0.95
        and s["max_iterations"] <= 10**5
        and not monotone_violations
        and elapsed <= 300.0
    )
    report(
        "criterion 1 (KN convergence)",
        ok,
        f"{s['reached_1e-8']}/{s['total_runs']} runs reached |mu| <= 1e-8*(1+E) "
        f"({100 * rate:.1f}%), max {s['max_iterations']} iterations, "
        f"{len(monotone_violations)} monotonicity violations, {elapsed:.0f}s",
    )
    assert rate >= 0.95
    assert s["max_iterations"] <= 10**5
    assert not monotone_violations
    assert elapsed <= 300.0


def test_criterion_2_finite_order_structure(grid):
    converged = [r for r in grid["runs"] if r.get("outcome") == "ok"]
    assert converged, "no converged runs to certify"
    bad = []
    for r in converged:
        if r["detected_order"] is None or r["normality_exponent"] is None:
            bad.append(r)
            continue
        bound = order_bound(r["p"], r["q"], r["n"])
        # <= is the stated comparison; divisibility also holds and is the
        # sharper structural fact, so assert both.
        if r["detected_order"] > bound or bound % r["detected_order"] != 0:
            bad.append(r)
    structural = [
        v for v in grid["summary"]["violations"]
        if "order" in v["what"] or "snap" in v["what"] or "structural" in v["what"]
    ]
    ok = not bad and not structural
    report(
        "criterion 2 (finite-order structure)",
        ok,
        f"{len(converged)} converged endpoints all certified: order <= bound, "
        f"eigenvalue orders divide |p^k - q^k|, normality exponent found "
        f"({len(bad) + len(structural)} failures)",
    )
    assert ok


def test_criterion_3_variety_conservation(grid):
    residual_violations = [
        v for v in grid["summary"]["violations"] if "residual" in v["what"]
    ]
    worst_flow = max(r["max_flow_residual"] for r in grid["runs"])
    worst_path = max(
        r["max_path_residual"] for r in grid["runs"]
        if r.get("max_path_residual") is not None
    )
    ok = not residual_violations
    report(
        "criterion 3 (variety conservation)",
        ok,
        f"all {grid['summary']['total_runs']} flows and retraction paths kept "
        f"residual <= 1e-8 + 10*initial (worst flow {worst_flow:.2e}, "
        f"worst path {worst_path:.2e}, {len(residual_violations)} violations)",
    )
    assert ok


def test_criterion_4_endpoint_membership(grid):
    converged = [r for r in grid["runs"] if r.get("outcome") == "ok"]
    endpoint_violations = [
        v for v in grid["summary"]["violations"]
        if "unitary-representation" in v["what"] or "idempotent" in v["what"]
    ]
    worst_idem = max(
        (r.get("idempotence_delta", 0.0) for r in converged), default=0.0
    )
    ok = not endpoint_violations
    report(
        "criterion 4 (endpoints in Hom(G,K))",
        ok,
        f"{len(converged)} endpoints pass the unitary check at 1e-8; pipeline "
        f"idempotent within 1e-9 (worst delta {worst_idem:.2e})",
    )
    assert ok


def test_criterion_5_invariant_form_properties():
    rng = np.random.default_rng(2024)
    worst_invariance = 0.0
    worst_identity = 0.0
    worst_reference = 0.0
    unitary_count = 0
    for _ in range(1000):
        order = int(rng.integers(1, 25))
        n = int(rng.integers(1, 5))
        exps = np.concatenate([[1], rng.integers(0, order, n - 1)])
        gen = np.diag(np.exp(2j * np.pi * exps / order))
        is_unitary = bool(rng.random() < 0.35)
        if not is_unitary:
            g = conditioned(rng, n, float(rng.uniform(1.0, 100.0)))
            gen = g @ gen @ np.linalg.inv(g)
        q = invariant_form(gen, order).Q
        ref = group_mean_form(gen, order)
        worst_reference = max(worst_reference, hs_norm(q - ref) / hs_norm(ref))
        dev = max(hs_norm(h.conj().T @ q @ h - q) for h in powers(gen, order))
        worst_invariance = max(worst_invariance, dev)
        if is_unitary:
            unitary_count += 1
            worst_identity = max(worst_identity, hs_norm(q - np.eye(n)))
    ok = (
        worst_invariance <= 1e-8
        and worst_identity <= 1e-10
        and worst_reference <= 1e-10
    )
    report(
        "criterion 5 (invariant form)",
        ok,
        f"1000 cyclic groups (orders <= 24, n <= 4, cond <= 100): worst "
        f"h*Qh - Q = {worst_invariance:.2e} (tol 1e-8); worst Q - I on "
        f"{unitary_count} unitary groups = {worst_identity:.2e} (tol 1e-10); "
        f"worst relative distance to the group mean = {worst_reference:.2e} "
        f"(tol 1e-10)",
    )
    assert worst_invariance <= 1e-8
    assert worst_identity <= 1e-10
    assert worst_reference <= 1e-10


def brute_force_orbits(u, modulus, k):
    """All unit orbits of x -> u*x on Z/modulus of length exactly k."""
    seen = set()
    out = set()
    for x in range(1, modulus):
        if x in seen or math.gcd(x, modulus) != 1:
            continue
        orb = [x]
        y = u * x % modulus
        while y != x:
            orb.append(y)
            y = u * y % modulus
        seen.update(orb)
        if len(orb) == k:
            i = orb.index(min(orb))
            out.add(tuple(orb[i:] + orb[:i]))
    return out


def test_criterion_6_census_exactness():
    pairs = [
        (p, q)
        for p in range(1, 8)
        for q in list(range(-7, 0)) + list(range(1, 8))
        if abs(p) != abs(q) and math.gcd(p, abs(q)) == 1
    ]
    checked_orbits = 0
    worst_residual = 0.0
    for p, q in pairs:
        census = enumerate_orbits(p, q, 4)
        by_kn = {}
        for d in census:
            assert verify_orbit(d)
            by_kn.setdefault((d.k, d.N), set()).add(d.orbit)
        for k in range(1, 5):
            m = abs(p**k - q**k)
            for modulus in divisors(m):
                if modulus == 1 or modulus > 10**4:
                    continue
                if math.gcd(modulus, abs(p * q)) != 1:
                    continue
                u = q * pow(p, -1, modulus) % modulus
                expected = brute_force_orbits(u, modulus, k)
                got = by_kn.get((k, modulus), set())
                assert got == expected, (p, q, k, modulus)
                checked_orbits += len(expected)
        for d in census:
            rep = from_orbit_datum(d, 0.9 + 0.35j)
            worst_residual = max(worst_residual, relation_residual(rep))
    # the (2,3) dimension-2 census is exactly the two mod-5 orbits + trivial
    c23 = enumerate_orbits(2, 3, 2)
    nontrivial = {(d.N, d.orbit) for d in c23 if d.N > 1}
    exact = nontrivial == {(5, (1, 4)), (5, (2, 3))} and len(c23) == 3
    ok = worst_residual <= 1e-12 and exact
    report(
        "criterion 6 (census exactness)",
        ok,
        f"{len(pairs)} parameter pairs, {checked_orbits} orbits cross-checked "
        f"against brute force; block residuals <= {worst_residual:.2e} "
        f"(tol 1e-12); (2,3) n=2 census exact: {exact}",
    )
    assert exact
    assert worst_residual <= 1e-12


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(777)
    grid_params = [(1, 2), (2, 3), (3, 5), (-2, 3)]
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 100 and attempts < 500:
        attempts += 1
        p, q = grid_params[int(rng.integers(len(grid_params)))]
        n = int(rng.integers(1, 5))
        rep = conjugate(
            random_rep(p, q, n, int(rng.integers(2**32))),
            conditioned(rng, n, 8.0),
        )
        mu = moment_map(rep)
        if hs_norm(mu) < 1e-6:
            continue  # 1x1 blocks can start minimal; no gradient to check
        h = random_hermitian(rng, n)
        exact = 2.0 * np.trace(h @ mu).real
        if abs(exact) < 1e-2 * hs_norm(mu):
            continue  # direction nearly tangent to the level set
        for t in (1e-4, 1e-5):
            w, v = np.linalg.eigh(h)
            gp = (v * np.exp(t * w)) @ v.conj().T
            gm = (v * np.exp(-t * w)) @ v.conj().T
            fd = (kn_energy(conjugate(rep, gp)) - kn_energy(conjugate(rep, gm))) / (2 * t)
            worst = max(worst, abs(fd - exact) / abs(exact))
        checked += 1
    ok = checked >= 100 and worst <= 1e-3
    report(
        "criterion 7 (gradient correctness)",
        ok,
        f"finite differences at t in (1e-4, 1e-5) on {checked} random points: "
        f"worst relative error {worst:.2e} (tol 1e-3)",
    )
    assert checked >= 100
    assert worst <= 1e-3


def test_criterion_8_falsifiability_gate(tmp_path):
    runner = CliRunner()
    # a rep payload whose group parameters violate the hypotheses, with
    # matrices that would satisfy the relation: still refused at parse
    bad_rep = tmp_path / "bad.json"
    bad_rep.write_text(json.dumps({
        "p": 2, "q": 2, "n": 1,
        "A": {"n": 1, "re": [[1.0]], "im": [[0.0]]},
        "B": {"n": 1, "re": [[1.0]], "im": [[0.0]]},
    }))
    results = {
        "census 2 2": runner.invoke(main, ["census", "2", "2"]).exit_code,
        "census 2 4": runner.invoke(main, ["census", "2", "4"]).exit_code,
        "construct 2 2": runner.invoke(
            main, ["construct", "--p", "2", "--q", "2", "--random", "2"]
        ).exit_code,
        "construct 2 4": runner.invoke(
            main, ["construct", "--p", "2", "--q", "4", "--random", "2"]
        ).exit_code,
        "suite 2:4": runner.invoke(
            main, ["suite", "--pairs", "2:4", "--report", "-"]
        ).exit_code,
        "pipeline p=q=2": runner.invoke(
            main, ["pipeline", "--in", str(bad_rep), "--out", "-"]
        ).exit_code,
    }
    ok = all(code == 2 for code in results.values())
    report(
        "criterion 8 (falsifiability gate)",
        ok,
        f"hypothesis-violating parameters rejected at parse with exit 2: {results}",
    )
    assert ok
