"""Root datum construction, Weyl group primitives, and the form."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    orbit_by_bfs,
    orbit_size_by_pairings,
    root_datum_by_fractions,
    sign_by_coroots,
    simple_reflection,
    sip_wr,
    to_dominant_dense,
    weyl_orbit_dense,
)
from rho_tensor.charcalc import dominant_weights_below, freudenthal
from rho_tensor.rootdata import (
    AlgebraError,
    AlgebraId,
    InvariantError,
    build_root_system,
    weyl_orbit,
)

# classical positive-root counts and dual Coxeter numbers, kept as test data
POSROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9, "D4": 12,
    "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}
DUAL_COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "B2": 3, "B3": 5, "C3": 4, "D4": 6,
    "G2": 4, "F4": 9, "E6": 12, "E7": 18, "E8": 30,
}


def root_norm(rs, c):
    """form_scale * (c|c) for the root with simple-root coordinates ``c``."""
    return sip_wr(rs, rs.fund_coords_of_root(c), c)


def test_algebra_id_parsing():
    assert str(AlgebraId.parse("B2")) == "B2"
    assert AlgebraId.parse("a1~") == AlgebraId("A", 1, True)
    with pytest.raises(AlgebraError):
        AlgebraId.parse("H3")
    with pytest.raises(AlgebraError):
        AlgebraId.parse("E9")
    with pytest.raises(AlgebraError):
        AlgebraId.parse("F3")
    with pytest.raises(AlgebraError):
        AlgebraId.parse("G5")
    with pytest.raises(AlgebraError):
        AlgebraId.parse("D2")
    with pytest.raises(AlgebraError):
        AlgebraId.parse("not-an-algebra")


@pytest.mark.parametrize("name", ["B\u0662", " B2 ", "B2\n", "\tA1~", "A1~ ", "B+2", "B2_0"])
def test_algebra_names_take_plain_ascii_digits_only(name):
    with pytest.raises(AlgebraError):
        AlgebraId.parse(name)


@pytest.mark.parametrize("name,count", sorted(POSROOT_COUNTS.items()))
def test_positive_root_closure_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == count
    # every positive root is a non-negative integer combination of simple roots
    assert all(min(r) >= 0 for r in rs.positive_roots)


@pytest.mark.parametrize("name", sorted(DUAL_COXETER))
def test_dual_coxeter_numbers(name):
    assert build_root_system(name).dual_coxeter == DUAL_COXETER[name]


def test_a1_and_b2_cartan_data(a1, b2):
    assert a1.cartan == ((2,),)
    assert len(a1.positive_roots) == 1
    assert b2.cartan == ((2, -1), (-2, 2))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "F4", "D4", "E6", "E7", "E8"])
def test_normalization_and_symmetrizability(name):
    rs = build_root_system(name)
    theta = rs.marks
    assert root_norm(rs, theta) == 2 * rs.form_scale
    a, d = rs.cartan, rs.form_d
    for i in range(rs.rank):
        assert a[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert a[i][j] <= 0
            assert d[i] * a[i][j] == d[j] * a[j][i]


@pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "G2", "D4", "F4", "E6", "E7", "E8"])
def test_sum_of_positive_roots_is_twice_rho(name):
    rs = build_root_system(name)
    total = tuple(sum(col) for col in zip(*rs.positive_roots_fund))
    assert total == tuple(2 * x for x in rs.rho)


def test_form_identities(b2, g2):
    # (alpha_i | alpha_i) = 2 d_i and (omega_i | alpha_j) = delta_ij d_j, all
    # scaled by form_scale
    for rs in (b2, g2):
        for i in range(rs.rank):
            e_i = tuple(int(k == i) for k in range(rs.rank))
            assert root_norm(rs, e_i) == 2 * rs.form_d[i]
            for j in range(rs.rank):
                e_j = tuple(int(k == j) for k in range(rs.rank))
                omega_i = tuple(int(k == i) for k in range(rs.rank))
                expect = rs.form_d[j] if i == j else 0
                assert sip_wr(rs, omega_i, e_j) == expect


def test_bilinear_form_values(a1, g2):
    assert 2 * a1.sip_ww((1,), (1,)) == a1.form_scale  # (omega|omega) = 1/2
    assert a1.sip_ww((0,), (5,)) == 0
    # strange-formula cross-check: (rho|rho) = h_dual * dim / 12
    for name in ["A1", "A2", "B2", "B3", "C3", "G2", "F4", "D4", "E6", "E7", "E8"]:
        rs = build_root_system(name)
        assert 12 * rs.sip_ww(rs.rho, rs.rho) == rs.dual_coxeter * rs.dim_adjoint * rs.form_scale


@pytest.mark.parametrize("name", sorted(POSROOT_COUNTS))
def test_weyl_dimension_identities(name):
    rs = build_root_system(name)
    assert rs.weyl_dimension(rs.fund_coords_of_root(rs.marks)) == rs.dim_adjoint
    assert rs.weyl_dimension(rs.rho) == 2 ** len(rs.positive_roots)
    assert rs.weyl_denominator == prod(sum(map(mul, rs.rho, cv)) for cv in rs.positive_coroots)


def test_weyl_dimension_checks_integrality(b2):
    # dim V(rho) = 2^4 * den / den; a denominator 7 times too large leaves a remainder
    broken = replace(b2, weyl_denominator=7 * b2.weyl_denominator)
    with pytest.raises(InvariantError, match="not integral"):
        broken.weyl_dimension(b2.rho)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(POSROOT_COUNTS)), st.data())
def test_weyl_numerator_is_the_denominator_times_a_signed_dimension(name, data):
    # weyl_denominator * dim V(lam) at a dominant lam; at any integral w, the dimension at
    # the dominant point of w + rho's orbit, signed by the reflections, and 0 on a wall
    rs = build_root_system(name)
    lam = data.draw(st.tuples(*[st.integers(0, 3)] * rs.rank))
    assert rs.weyl_numerator(lam) == rs.weyl_dimension(lam) * rs.weyl_denominator
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.rank))
    y, sign = rs.to_dominant(tuple(x + 1 for x in w))
    signed = sign and sign * rs.weyl_dimension(tuple(x - 1 for x in y))
    assert rs.weyl_numerator(w) == signed * rs.weyl_denominator


def test_weyl_orbit_starts_at_the_dominant_representative(b2, g2):
    for rs, w in [(b2, (2, 1)), (b2, (-2, 3)), (g2, (0, 2)), (g2, (1, -4))]:
        dom = rs.to_dominant(w)[0]
        orbit = weyl_orbit(rs, w)
        assert orbit[0] == dom and orbit == weyl_orbit(rs, dom)


def test_root_data_holds_no_fractions():
    def leaves(x):
        if isinstance(x, tuple):
            for y in x:
                yield from leaves(y)
        else:
            yield x

    for name in sorted(POSROOT_COUNTS) + ["A1~", "A2~", "B2~", "G2~"]:
        rs = build_root_system(name)
        for f in fields(rs):
            value = getattr(rs, f.name)
            assert not any(isinstance(x, Fraction) for x in leaves(value)), (name, f.name)
        assert type(rs.weyl_denominator) is int


DATUM_NAMES = (
    [f"A{n}" for n in range(1, 9)] + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"]
    + ["A1~", "A2~", "B2~", "G2~", "A3~", "C3~"]
)


@pytest.mark.parametrize("name", DATUM_NAMES)
def test_root_datum_against_fraction_build(name):
    rs, expected = build_root_system(name), root_datum_by_fractions(name)
    assert len(fields(rs)) == 18
    for f in fields(rs):
        assert getattr(rs, f.name) == getattr(expected, f.name), f.name


# the index of the root lattice in the weight lattice
def _root_lattice_index(family, rank):
    return {"A": rank + 1, "B": 2, "C": 2, "D": 4, "E": 9 - rank, "F": 1, "G": 1}[family]


@pytest.mark.parametrize("name", [n for n in DATUM_NAMES if not n.endswith("~")])
def test_cartan_inverse_is_the_adjugate(name):
    rs = build_root_system(name)
    idx = rs.lattice_index
    assert idx == _root_lattice_index(rs.algebra.family, rs.rank)
    a, adj = rs.cartan, rs.cartan_inverse
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert sum(a[i][k] * adj[k][j] for k in range(n)) == (idx if i == j else 0)


def test_to_dominant_basic(a1, b2):
    assert a1.to_dominant((4,)) == ((4,), 1)
    assert a1.to_dominant((-3,)) == ((3,), -1)
    assert b2.to_dominant((2, 1)) == ((2, 1), 1)
    dom, sign = b2.to_dominant((-1, 0))
    assert sign == 0 and b2.is_dominant(dom)


def test_to_dominant_sign_against_orbit_walk(b2, g2):
    # independent sign: parity of the BFS distance from the dominant chamber
    for rs in (b2, g2):
        for w0 in [(1, 1), (2, 1), (1, 0), (0, 2)]:
            on_wall = 0 in w0
            for v, k in orbit_by_bfs(rs, w0).items():
                dom, sign = rs.to_dominant(v)
                assert dom == w0
                assert sign == (0 if on_wall else (-1) ** k)


def _orbit_cases():
    """Every fundamental weight (only some of E7 and E8), rho up to rank 5,
    and the non-dominant s_r(w_r) per type, as (algebra, weight, id)."""
    some = {"E7": (1, 6, 7), "E8": (1, 8)}
    for name in ("A1", "A4", "B3", "C4", "D4", "D5", "G2", "F4", "E6", "E7", "E8"):
        rs = build_root_system(name)
        r = rs.rank
        omega = {i: tuple(int(i == j + 1) for j in range(r)) for i in range(1, r + 1)}
        for i in some.get(name, omega):
            yield pytest.param(name, omega[i], id=f"{name}-w{i}")
        if r <= 5:
            yield pytest.param(name, rs.rho, id=f"{name}-rho")
        yield pytest.param(name, simple_reflection(rs, omega[r], r - 1), id=f"{name}-s{r}w{r}")


@pytest.mark.parametrize("name,w", _orbit_cases())
def test_weyl_orbit_against_bfs(name, w):
    rs = build_root_system(name)
    orbit = weyl_orbit(rs, w)
    assert len(orbit) == len(set(orbit))
    assert set(orbit) == set(orbit_by_bfs(rs, w))
    assert rs.orbit_size(tuple(map(bool, rs.to_dominant(w)[0]))) == len(orbit)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4"])
def test_orbit_size_on_every_zero_pattern(name):
    rs = build_root_system(name)
    for pattern in product((0, 1), repeat=rs.rank):
        assert rs.orbit_size(tuple(map(bool, pattern))) == len(weyl_orbit(rs, pattern)), pattern


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_orbit_size_on_every_zero_pattern_against_pairings(name):
    # too many points to walk: the regular E8 orbit has 696,729,600
    rs = build_root_system(name)
    for pattern in product((0, 1), repeat=rs.rank):
        assert rs.orbit_size(tuple(map(bool, pattern))) == orbit_size_by_pairings(rs, pattern), pattern


@pytest.mark.parametrize("name", DATUM_NAMES)
def test_to_dominant_against_dense_loop(name):
    # an affine id reflects its finite part
    rs = build_root_system(name)
    rng = Random(f"to_dominant {name}")
    for _ in range(200):
        w = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        assert rs.to_dominant(w) == to_dominant_dense(rs, w), w


@pytest.mark.parametrize("name,n", [("F4", 1), ("B3", 3), ("D4", 2)])
def test_weyl_orbit_on_every_dominant_weight_of_n_rho(name, n):
    # the sparse walk makes the dense walk's list, in its order
    rs = build_root_system(name)
    for mu in freudenthal(rs, (n,) * rs.rank).mults:
        orbit = weyl_orbit(rs, mu)
        assert orbit == weyl_orbit_dense(rs, mu)
        assert set(orbit) == set(orbit_by_bfs(rs, mu))
        assert len(orbit) == rs.orbit_size(tuple(map(bool, mu)))


def _check_recorded_orbits(name, patterns, data):
    # two fresh systems record every pattern, one from a plain walk of the dominant weight
    # and one from a shifted walk started anywhere on the orbit; then another weight of
    # each pattern replays on both, plain and shifted, once from off the chamber
    plain, shifted = build_root_system(name), build_root_system(name)
    v = data.draw(st.tuples(*[st.integers(-3, 3)] * plain.rank), label="v")

    def draw_weight(pattern):
        return tuple(data.draw(st.integers(1, 3)) if b else 0 for b in pattern)

    def shift(orbit):
        return [tuple(a + b for a, b in zip(v, x)) for x in orbit]

    for pattern in patterns:
        mu, nu = draw_weight(pattern), draw_weight(pattern)
        dense_mu, dense_nu = weyl_orbit_dense(plain, mu), weyl_orbit_dense(plain, nu)
        assert weyl_orbit(plain, mu) == dense_mu
        start = data.draw(st.sampled_from(dense_mu), label="start")
        assert weyl_orbit(shifted, start, v) == shift(dense_mu)
        for rs in (plain, shifted):
            assert len(rs.orbit_shapes[pattern]) == rs.orbit_size(pattern)
            assert weyl_orbit(rs, nu) == dense_nu
            assert weyl_orbit(rs, nu, v) == shift(dense_nu)
        assert weyl_orbit(plain, data.draw(st.sampled_from(dense_nu), label="off"), v) == shift(dense_nu)


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4"])
@given(data=st.data())
def test_recorded_orbits_replay_every_zero_pattern(name, data):
    # Snow's tree is recorded once per zero pattern and replayed for every other weight
    # with that pattern: the dense walk's list, in its order, shifted or not
    rank = build_root_system(name).rank
    _check_recorded_orbits(name, list(product((False, True), repeat=rank)), data)


# the dominant weights of V(rho) are those below rho
E6_RHO_PATTERNS = sorted({tuple(map(bool, mu)) for mu in dominant_weights_below(build_root_system("E6"), (1,) * 6)})


@settings(max_examples=5, deadline=None)
@given(st.lists(st.sampled_from(E6_RHO_PATTERNS), min_size=2, max_size=2, unique=True), st.data())
def test_recorded_orbits_replay_the_e6_patterns_of_v_rho(patterns, data):
    _check_recorded_orbits("E6", patterns, data)


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_recorded_orbits_replay_past_rank_8(data):
    # above rank 8 a bitmask no longer fits in a byte: A9 at its last node and beside it
    patterns = [tuple(i in nodes for i in range(9)) for nodes in ((8,), (0, 8), (1,), (1, 8))]
    _check_recorded_orbits("A9", patterns, data)


def test_threads_sharing_a_root_system_record_and_replay_whole_orbits():
    # eight threads race to record and replay every F4 pattern on one root system,
    # each in its own order: every orbit is the one a lone walk gives
    weights = [tuple(k * b for b in p) for p in product((0, 1), repeat=4) for k in (1, 2)]
    v = (3, -1, 2, 1)
    alone = build_root_system("F4")
    expected = {mu: weyl_orbit(alone, mu, v) for mu in weights}
    shared = build_root_system("F4")

    def walk(seed):
        order = weights[:]
        Random(seed).shuffle(order)
        return all(weyl_orbit(shared, mu, v) == expected[mu] for mu in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(walk, seed) for seed in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 8
    for pattern in product((0, 1), repeat=4):
        assert len(shared.orbit_shapes[tuple(map(bool, pattern))]) == alone.orbit_size(tuple(map(bool, pattern)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A4", "B3", "C4", "D5", "G2", "F4", "E6", "E7"]), st.data())
def test_to_dominant_sign_by_coroot_count(name, data):
    rs = build_root_system(name)
    w = data.draw(st.tuples(*[st.integers(-6, 6)] * rs.rank))
    dom, sign = rs.to_dominant(w)
    assert rs.is_dominant(dom)
    assert sign == sign_by_coroots(rs, w)


WEYL_ORDERS = {"A4": 120, "B3": 48, "G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}


@pytest.mark.parametrize("name,order", WEYL_ORDERS.items())
def test_regular_orbit_size_is_the_weyl_group_order(name, order):
    # the whole Weyl group, counted from root heights with no orbit built
    rs = build_root_system(name)
    assert rs.orbit_size((True,) * rs.rank) == order
    assert rs.orbit_size(tuple(map(bool, rs.to_dominant(tuple(-x for x in rs.rho))[0]))) == order


def test_orbit_sizes(b2, g2):
    assert g2.orbit((0, 0)) == [(0, 0)]
    assert len(b2.orbit((1, 1))) == 8
    assert len(g2.orbit((1, 0))) == 6
    assert len(g2.orbit((1, 1))) == 12


def test_orbit_size_divides_weyl_order(systems):
    weyl_orders = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48, "G2": 12}
    for name, rs in systems.items():
        for w in [(1,) * rs.rank, (2,) + (0,) * (rs.rank - 1), (0,) * (rs.rank - 1) + (3,)]:
            assert weyl_orders[name] % len(rs.orbit(w)) == 0


def test_weyl_dimension_values(a1, b2, g2):
    assert b2.weyl_dimension((0, 0)) == 1
    for m in range(5):
        assert a1.weyl_dimension((m,)) == m + 1
    # dim V(m rho) = (m+1)^(number of positive roots)
    assert b2.weyl_dimension((2, 2)) == 3**4
    assert g2.weyl_dimension((1, 1)) == 2**6
    with pytest.raises(AlgebraError):
        b2.weyl_dimension((-1, 0))


def test_affine_flag_restrictions():
    rs = build_root_system("A1~")
    with pytest.raises(AlgebraError):
        rs.weyl_dimension((1,))
    with pytest.raises(AlgebraError):
        rs.orbit((1,))


def test_pair_coroot_integrality(g2):
    # <w, alpha^vee> = 2 (w|alpha) / (alpha|alpha), an integer on weights
    for rc, cv in zip(g2.positive_roots, g2.positive_coroots):
        for w in [(1, 0), (0, 1), (3, 2)]:
            pairing = sum(map(mul, w, cv))
            assert isinstance(pairing, int)
            assert pairing * root_norm(g2, rc) == 2 * sip_wr(g2, w, rc)
    # <rho, theta^vee> = h_dual - 1
    theta_vee = g2.positive_coroots[g2.positive_roots.index(g2.marks)]
    assert sum(map(mul, g2.rho, theta_vee)) == g2.dual_coxeter - 1
