"""Contract properties: each input object is checked once, where it is
built, and refused with a ValueError or a BsretractError, never another
exception; what the library builds, its own reader accepts; and the CLI
turns every refusal into exit 2 with one `error:` line on stderr."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from bsretract import (
    BSGroup,
    InvalidOrbit,
    OrbitDatum,
    Rep,
    from_orbit_datum,
    random_rep,
    relation_residual,
    rep_from_json,
    rep_to_json,
    verify_orbit,
)
from bsretract.cli import main
from bsretract.suite import canonical_json

#: Valid pairs, then pairs that BSGroup refuses.
PAIRS = [(2, 3), (1, 2), (-1, 2), (3, 5), (2, -5), (3, 1)]
BAD_PAIRS = [(2, 4), (0, 1), (3, -3)]


def _valid_pair(p, q):
    return (p, q) in PAIRS


@st.composite
def orbit_data(draw):
    """An OrbitDatum near a true orbit.  N runs from -2 to 40; where N is
    prime to pq the exponents start as the cycle of a drawn x under
    u = q/p mod N.  Then u may be redrawn, the exponents tampered with
    (repeated, moved out of [0, N), dropped or replaced) and k drawn apart
    from the orbit's length."""
    p, q = draw(st.sampled_from(PAIRS + BAD_PAIRS))
    modulus = draw(st.integers(-2, 40))
    if modulus >= 1 and math.gcd(modulus, p * q) == 1:
        u = q * pow(p, -1, modulus) % modulus
        x = draw(st.integers(0, modulus - 1))
        orbit = [x]
        while (y := u * orbit[-1] % modulus) != x:
            orbit.append(y)
    else:
        u = draw(st.integers(-1, 41))
        orbit = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    u = draw(st.one_of(st.just(u), st.integers(-1, 41)))
    tamper = draw(st.sampled_from(["none", "repeat", "shift", "drop", "replace", "empty"]))
    i = draw(st.integers(0, len(orbit) - 1))
    if tamper == "repeat":
        orbit.append(orbit[i])
    elif tamper == "shift":
        orbit[i] += draw(st.sampled_from([modulus, -modulus, 40]))
    elif tamper == "drop" and len(orbit) > 1:
        del orbit[i]
    elif tamper == "replace":
        orbit[i] = draw(st.integers(-3, 45))
    elif tamper == "empty":
        orbit = []
    k = draw(st.one_of(st.just(len(orbit)), st.integers(-1, 8)))
    return OrbitDatum(p, q, modulus, u, tuple(orbit), k)


@given(orbit_data(), st.sampled_from([1.0, 0.5 + 1.5j, 0.0]), st.booleans())
def test_from_orbit_datum_accepts_exactly_what_verify_orbit_accepts(datum, chi, sl):
    # chi = 0, an invalid pair and, with sl, a nonzero exponent sum are
    # refused by their own checks; otherwise the datum alone decides.
    checks = chi != 0 and _valid_pair(datum.p, datum.q)
    expected = checks and verify_orbit(datum) and (not sl or sum(datum.orbit) % datum.N == 0)
    try:
        rep = from_orbit_datum(datum, chi, sl=sl)
    except (InvalidOrbit, ValueError) as exc:
        assert not expected, exc
        assert isinstance(exc, InvalidOrbit) or not checks, exc
    else:
        assert expected, datum
        assert rep.n == datum.k and relation_residual(rep) <= 1e-12, datum


_N_VALUES = st.one_of(st.integers(-2, 3), st.sampled_from([2.0, 0.0, True, False, None, "2"]))
_ENTRIES = st.sampled_from([0.0, -0.0, 1e-300, -2.5e-7, 1.0 / 3, 7.0, -4.2e150, 1e300,
                           math.nan, -math.inf])


@st.composite
def rep_parts(draw):
    """(group, n, A, B) for Rep: A and B square of one side, or not square
    at all, and n that side or a value of any JSON kind."""
    group = BSGroup(*draw(st.sampled_from(PAIRS)))
    side = draw(st.integers(0, 2))
    n = draw(st.one_of(st.just(side), _N_VALUES))

    def matrix():
        cols = side + draw(st.sampled_from([0, 0, 0, 1]))
        entry = st.builds(complex, _ENTRIES, _ENTRIES)
        rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=side, max_size=side))
        return np.array(rows, dtype=complex).reshape(side, cols)

    return group, n, matrix(), matrix()


@given(rep_parts())
def test_every_rep_the_constructor_accepts_round_trips_byte_for_byte(parts):
    try:
        rep = Rep(*parts)
    except ValueError:
        return
    text = canonical_json(rep_to_json(rep))
    back = rep_from_json(json.loads(text), validate=False)
    assert canonical_json(rep_to_json(back)) == text


@given(rep_parts(), st.sampled_from([None, "p", "n", "A"]))
def test_rep_from_json_returns_or_refuses_with_a_value_error(parts, wrong):
    group, n, a, b = parts
    payload = {"p": group.p, "q": group.q, "n": n,
               "A": {"n": n, "re": a.real.tolist(), "im": a.imag.tolist()},
               "B": {"n": n, "re": b.real.tolist(), "im": b.imag.tolist()}}
    if wrong is not None:
        payload[wrong] = 2.5
    try:
        rep = rep_from_json(payload, validate=False)
    except ValueError:
        return
    assert rep.n == n and type(rep.n) is int


@pytest.fixture(scope="module")
def rep_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "rep.json"
    path.write_text(json.dumps(rep_to_json(random_rep(2, 3, 2, 1))))
    return str(path)


def _refusal_argvs(rep_path):
    """Argv lists that the library refuses after the CLI has parsed them."""
    flow_setting = st.tuples(
        st.sampled_from(["flow", "pipeline"]),
        st.sampled_from([("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
                         ("--tol", "inf"), ("--max-iter", "-1")]),
    ).map(lambda c: [c[0], "--in", rep_path, *c[1]])
    run_setting = st.tuples(
        st.sampled_from([["verify"], ["pipeline"]]),
        st.sampled_from([("--snap-tol", "nan"), ("--snap-tol", "-1")]),
    ).map(lambda c: [*c[0], "--in", rep_path, *c[1]])
    pairs = st.sampled_from(["a:3", "2:3,2:3", "2:4", "0:1", "2:", "2:3;1:2"])
    suite = pairs.map(lambda s: ["suite", "--pairs", s, "--n-max", "1", "--seeds", "1"])
    census = st.tuples(st.sampled_from([(2, 4), (0, 3), (3, 3)]), st.integers(-1, 3)).map(
        lambda c: ["census", str(c[0][0]), str(c[0][1]), "--n-max", str(c[1])])
    return st.one_of(flow_setting, run_setting, suite, census,
                     st.just(["pipeline", "--in", rep_path, "--samples", "1"]),
                     st.just(["census", "2", "3", "--n-max", "0"]))


def _assert_refused(res, argv):
    assert res.exit_code == 2, (argv, res.output)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, res.stderr)
    assert "Traceback" not in res.output, argv


@given(data=st.data())
def test_each_cli_refusal_exits_2_with_one_error_line(rep_path, data):
    argv = data.draw(_refusal_argvs(rep_path))
    _assert_refused(CliRunner().invoke(main, argv), argv)


@given(orbit_data())
def test_construct_accepts_an_orbit_block_exactly_when_it_verifies(datum):
    # construct --orbit N:m1,...,mk builds the datum of u = q/p mod N and k
    # exponents, the exponent 0 alone if none is given
    p, q, modulus, orbit = datum.p, datum.q, datum.N, datum.orbit or (0,)
    argv = ["construct", "--p", str(p), "--q", str(q),
            "--orbit", f"{modulus}:{','.join(map(str, datum.orbit))}"]
    res = CliRunner().invoke(main, argv)
    if (_valid_pair(p, q) and modulus >= 1 and math.gcd(modulus, p) == 1
            and verify_orbit(OrbitDatum(p, q, modulus, q * pow(p, -1, modulus) % modulus,
                                        orbit, len(orbit)))):
        assert res.exit_code == 0 and res.stderr == "", (argv, res.output)
    else:
        _assert_refused(res, argv)
