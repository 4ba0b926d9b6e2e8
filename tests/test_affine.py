"""Truncated affine characters, delta-maximal structure, truncated tensor
decomposition, and the GKO coset scalars."""

import copy
import re
import time
from fractions import Fraction
from itertools import product as iproduct
from operator import add, sub

import pytest

from rho_tensor.affine import (
    GAP_AT_ONE,
    UNBROKEN,
    AffineWeight,
    _numerator_sums,
    _numerator_terms,
    affine_bilinear,
    affine_freudenthal,
    affine_rho,
    affinize,
    delta_max_weights,
    delta_string_classify,
    gko_central_charge,
    gko_l0_scalar,
    gko_positivity_certificate,
    in_affine_root_lattice,
    kac_wakimoto_check,
    level,
    sl2_delta_max_rule,
    theta_pairing,
    truncated_tensor,
)
import rho_tensor.charcalc as charcalc
from rho_tensor.charcalc import (
    _memo,
    clear_memory_cache,
    expand_orbits,
    freudenthal,
    freudenthal_candidates,
    freudenthal_slices,
)
from rho_tensor.rootdata import AlgebraError, InvariantError, build_root_system, floor_root_coords
from rho_tensor.tensor import klimyk

import oracles
from oracles import (
    _affine_nodes,
    _ball,
    _dominant_convolution,
    _dominant_partners,
    _partner_index,
    _rho_orbit_terms,
    _signed_affine_orbit,
    affine_candidates_by_box,
    affine_rho_character_by_product,
    affine_slices_by_weyl_kac,
    alcove_point_by_walk,
    freudenthal_slices_by_all_roots,
    truncated_tensor_by_full_peel,
    truncated_tensor_by_read_off,
)

# frozen from the truncated Weyl-Kac oracle (re-derived live below)
SL2_RHO_SLICES = [
    {(1,): 1},
    {(1,): 2, (3,): 1},
    {(1,): 4, (3,): 2},
    {(1,): 8, (3,): 4, (5,): 1},
]


def test_affine_weight_arithmetic(sl2_affine):
    rs = sl2_affine
    rho = affine_rho(rs)
    assert level(rs, rho) == rs.dual_coxeter == 2
    assert level(rs, 3 * rho) == 6
    assert (rho + rho).fund == (2, 2)
    assert (2 * rho - rho) == rho
    assert rho.shifted(-2).delta_shift == -2
    assert rho.is_dominant() and not (rho - 2 * affine_rho(rs)).is_dominant()
    delta = AffineWeight((0,) * (rs.rank + 1), 1)
    assert level(rs, delta) == 0
    assert in_affine_root_lattice(rs, delta)
    assert not in_affine_root_lattice(rs, rho)


def test_affine_form_conventions(sl2_affine, sl3_affine):
    for rs in (sl2_affine, sl3_affine):
        delta = AffineWeight((0,) * (rs.rank + 1), 1)
        rho = affine_rho(rs)
        assert affine_bilinear(rs, delta, delta) == 0
        assert affine_bilinear(rs, delta, rho) == rs.dual_coxeter
        lam0 = AffineWeight((1,) + (0,) * rs.rank)
        assert affine_bilinear(rs, lam0, lam0) == 0
        assert affine_bilinear(rs, delta, lam0) == 1


def test_slice_zero_is_the_finite_character(sl2_affine, sl3_affine):
    fin2 = build_root_system("A1")
    fin3 = build_root_system("A2")
    for rs, fin, m in [(sl2_affine, fin2, 1), (sl2_affine, fin2, 2), (sl3_affine, fin3, 2)]:
        char = affine_freudenthal(rs, m * affine_rho(rs), 2)
        assert char.slices[0] == freudenthal(fin, (m,) * fin.rank).mults
        assert char.multiplicity(rs, char.highest.finite, 0) == 1


def test_sl2_rho_slices_frozen(sl2_affine):
    char = affine_freudenthal(sl2_affine, affine_rho(sl2_affine), 3)
    assert list(char.slices) == SL2_RHO_SLICES


def test_multiplicity_outside_the_computed_depth_is_refused(sl2_affine):
    char = affine_freudenthal(sl2_affine, affine_rho(sl2_affine), 3)
    assert char.multiplicity(sl2_affine, (-3,), 3) == 4
    for d in (-1, 4):
        with pytest.raises(AlgebraError, match=re.escape(f"depth {d} outside computed range 0..3")):
            char.multiplicity(sl2_affine, (1,), d)


@pytest.mark.parametrize(
    "name,fund,depth",
    [
        ("A1~", (1, 1), 3),
        ("A1~", (2, 2), 4),
        ("A1~", (2, 0), 3),
        ("A1~", (0, 3), 3),
        ("A1~", (4, 1), 3),
        ("A2~", (1, 1, 1), 3),
        ("A2~", (2, 2, 2), 3),
        ("A2~", (1, 2, 0), 2),
        ("B2~", (1, 1, 1), 3),
        ("B2~", (2, 0, 1), 3),
        ("B2~", (0, 1, 0), 3),
        ("G2~", (1, 1, 1), 2),
        ("G2~", (2, 0, 1), 2),
        ("G2~", (0, 1, 0), 3),
        # most candidates of these lie off the affine chamber
        ("A1~", (1, 1), 12),
        ("A1~", (2, 2), 10),
        ("A1~", (4, 1), 12),
        ("A2~", (1, 1, 1), 5),
        ("B2~", (1, 1, 1), 5),
    ],
)
def test_against_weyl_kac_oracle(name, fund, depth):
    rs = build_root_system(name)
    lam = AffineWeight(fund)
    expected = affine_slices_by_weyl_kac(rs, lam, depth)
    got = [expand_orbits(rs, sl) for sl in affine_freudenthal(rs, lam, depth).slices]
    assert got == expected


@pytest.mark.parametrize(
    "name,n,depth",
    [("A1~", 1, 20), ("A1~", 2, 20), ("A1~", 3, 20), ("A2~", 1, 4), ("B2~", 1, 3), ("G2~", 1, 3),
     ("A3~", 1, 2), ("B3~", 1, 1), ("C3~", 1, 1), ("D4~", 1, 1)],
)
def test_rho_multiples_against_product_formula(name, n, depth):
    # the candidates of V(n rho^) come from the descent below n rho + depth*theta
    rs = build_root_system(name)
    got = [expand_orbits(rs, sl) for sl in affine_freudenthal(rs, affine_rho(rs, n), depth).slices]
    assert got == affine_rho_character_by_product(rs, n, depth)


B2_AFF = build_root_system("B2~")


# the denominator terms of a depth-2 division, which walks translations up to depth + 3
@pytest.mark.parametrize("term", sorted(oracles._signed_affine_orbit(B2_AFF, affine_rho(B2_AFF), 2, 5)))
def test_weyl_kac_oracle_raises_on_a_broken_denominator(monkeypatch, term):
    # a denominator missing one term of the signed affine orbit of rho must
    # stop the division, not run it forever
    signed = oracles._signed_affine_orbit

    def broken(rs, x, cutoff, kmax):
        out = signed(rs, x, cutoff, kmax)
        if x == affine_rho(rs):
            del out[term]
        return out

    monkeypatch.setattr(oracles, "_signed_affine_orbit", broken)
    start = time.perf_counter()
    with pytest.raises(InvariantError, match="lowest weight|does not cancel"):
        affine_slices_by_weyl_kac(B2_AFF, AffineWeight((1, 0, 1)), 2)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "name,fund,depth",
    [
        ("B2~", (1, 1, 1), 3), ("B2~", (2, 0, 1), 3), ("B2~", (1, 0, 0), 3),
        ("G2~", (1, 1, 1), 3), ("G2~", (0, 2, 0), 3),
        ("A3~", (1, 1, 1, 1), 2), ("A3~", (2, 0, 1, 0), 3), ("A3~", (1, 0, 0, 0), 3),
        ("D4~", (1, 1, 1, 1, 1), 2), ("D4~", (2, 0, 1, 0, 0), 2),
    ],
)
def test_orbit_grouped_slices_match_the_all_roots_oracle(name, fund, depth):
    rs = build_root_system(name)
    lam = AffineWeight(fund)
    candidates = freudenthal_candidates(rs, lam.finite, depth, 0)
    expected = freudenthal_slices_by_all_roots(rs, lam.finite, candidates, depth, level(rs, lam))
    got = freudenthal_slices(rs, lam.finite, depth, level(rs, lam))
    assert [list(sl.items()) for sl in got] == [list(sl.items()) for sl in expected]


def test_candidate_that_is_not_a_weight_is_an_invariant_failure(monkeypatch, sl2_affine):
    # (0,) at depth 1 is affine-dominant below V(rho^) at level 2, but lies outside
    # the root-lattice class of the top (1,): the recursion finds it no multiplicity
    bad = (1, (0,), (0,))
    monkeypatch.setattr(charcalc, "freudenthal_candidates", lambda *args: freudenthal_candidates(*args) + [bad])
    with pytest.raises(InvariantError, match=re.escape("multiplicity 0 at mu=(0,), depth 1")):
        freudenthal_slices(sl2_affine, (1,), 1, 2)


def test_alcove_walk_goes_on_through_walls(sl3_affine):
    # at level 1, (2,0) lies on a finite wall but not in the affine chamber
    # (<(2,0), theta^vee> = 2 > 1): s_0 takes it to (1,-1) one depth up, and
    # s_2 to (0,1), the alcove point Lambda_2 on the wall of s_0
    assert sl3_affine.alcove_point((2, 0), 3, 1) == ((0, 1), 2, 0)
    assert sl3_affine.alcove_point((0, 2), 3, 1) == ((1, 0), 2, 0)
    with pytest.raises(AlgebraError, match="positive level"):
        sl3_affine.alcove_point((1, 0), 3, 0)  # at level 0, s_0 would lower the depth forever


@pytest.mark.parametrize("name", ["A2~", "B2~", "G2~"])
def test_alcove_point_is_the_dominant_point_of_the_affine_orbit(name):
    rs = build_root_system(name)
    lvl, d = 3, 6
    for v in iproduct(range(-4, 5), repeat=rs.rank):
        nu, e, sign = rs.alcove_point(v, d, lvl)
        point = affinize(rs, nu, lvl, -e)
        assert point.is_dominant()
        if sign:
            assert _signed_affine_orbit(rs, point, d - e, 4)[(v, -d)] == sign
        else:
            assert 0 in point.fund


@pytest.mark.parametrize(
    "name,lam_fin,depth",
    [("A1~", (1,), 20), ("A1~", (4,), 20), ("A2~", (1, 1), 4), ("A2~", (2, 0), 4),
     ("B2~", (1, 1), 4), ("G2~", (1, 1), 4), ("A3~", (1, 1, 1), 3), ("A3~", (0, 1, 0), 4),
     ("C3~", (1, 1, 1), 3), ("C3~", (1, 0, 1), 4)],
)
def test_candidates_match_box_walk(name, lam_fin, depth):
    rs = build_root_system(name)
    assert freudenthal_candidates(rs, lam_fin, depth, 0) == affine_candidates_by_box(rs, lam_fin, depth)


@pytest.mark.parametrize("name,fund", [("A1~", (1, 1)), ("A1~", (2, 2)), ("A2~", (1, 1, 1)), ("B2~", (1, 1, 1))])
def test_memo_serves_shallow_requests_from_deep_tables(name, fund):
    rs = build_root_system(name)
    lam = AffineWeight(fund)
    fresh = {}
    for depth in (1, 4):
        clear_memory_cache()
        fresh[depth] = affine_freudenthal(rs, lam, depth).slices
    for order in ((4, 1), (1, 4)):
        clear_memory_cache()
        for depth in order:
            char = affine_freudenthal(rs, lam, depth)
            assert char.depth == depth and char.highest == lam
            assert char.slices == fresh[depth]
        # one table per highest weight: the deepest, whatever the order of the requests
        assert [c.depth for c in _memo.values()] == [4]


@pytest.mark.parametrize(
    "name,fund,shallow,deep",
    [("A1~", (1, 1), 3, 10), ("A1~", (2, 2), 0, 6), ("A2~", (1, 1, 1), 1, 4),
     ("B2~", (1, 1, 1), 1, 3), ("G2~", (1, 1, 1), 0, 3)],
)
def test_deeper_request_resumes_from_the_memoised_table(monkeypatch, name, fund, shallow, deep):
    rs = build_root_system(name)
    lam = AffineWeight(fund)
    clear_memory_cache()
    fresh = [list(sl.items()) for sl in affine_freudenthal(rs, lam, deep).slices]
    clear_memory_cache()
    held = affine_freudenthal(rs, lam, shallow)
    view = affine_freudenthal(rs, lam.shifted(1), shallow)
    before = [list(sl.items()) for sl in held.slices]
    ran = []

    def recording_candidates(*args):
        candidates = freudenthal_candidates(*args)
        ran.extend(d for d, _, _ in candidates)
        return candidates

    monkeypatch.setattr(charcalc, "freudenthal_candidates", recording_candidates)
    deeper = affine_freudenthal(rs, lam, deep)
    assert ran and min(ran) == shallow + 1
    # insertion order counts: a resumed slice is filled as a fresh one is
    assert [list(sl.items()) for sl in deeper.slices] == fresh
    for char in (held, view):
        assert char.depth == shallow and [list(sl.items()) for sl in char.slices] == before
    assert deeper.slices[: shallow + 1] == held.slices
    assert [c.depth for c in _memo.values()] == [deep]


@pytest.mark.parametrize("name", ["A2~", "B2~", "G2~"])
def test_alcove_memo_matches_the_walk(name):
    rs = build_root_system(name)
    for v in iproduct(range(-5, 6), repeat=rs.rank):
        for lvl in (1, 2, 4):
            # each depth twice: the second read is a memo hit
            for d in (0, 3, 7, 3, 0, 7):
                assert rs.alcove_point(v, d, lvl) == alcove_point_by_walk(rs, v, d, lvl), (v, d, lvl)
    assert len(rs._alcove_points) == 11 ** rs.rank * 3
    assert any(sign == 0 for _, _, sign in rs._alcove_points.values())
    with pytest.raises(AlgebraError, match="positive level"):
        rs.alcove_point((1, 0), 3, 0)


def test_clear_memory_cache_drops_affine_tables():
    rs = build_root_system("A1~")
    rho = affine_rho(rs)
    clear_memory_cache()
    char = affine_freudenthal(rs, rho, 3)
    assert affine_freudenthal(rs, rho, 3) is char
    points = dict(rs._alcove_points)
    assert points  # (3,) at depth 1 lies off the level-2 chamber
    clear_memory_cache()
    assert not _memo
    # the root system held keeps its root data and alcove points, and gives
    # the same table again, as a fresh one does
    again = affine_freudenthal(rs, rho, 3)
    assert again is not char and again.slices == char.slices
    assert rs._alcove_points == points
    clear_memory_cache()
    assert affine_freudenthal(build_root_system("A1~"), rho, 3).slices == char.slices


def test_delta_shifted_highest_weight_shares_its_table(sl3_affine):
    rs = sl3_affine
    lam = AffineWeight((2, 1, 0))
    clear_memory_cache()
    char = affine_freudenthal(rs, lam, 3)
    shifted = affine_freudenthal(rs, lam.shifted(2), 3)
    assert len(_memo) == 1
    assert shifted.highest == lam.shifted(2) and shifted.depth == 3
    assert shifted.slices == char.slices


def test_truncated_tensor_leaves_the_memo_unchanged(sl3_affine):
    rs = sl3_affine
    rho = affine_rho(rs)
    clear_memory_cache()
    truncated_tensor(rs, 2 * rho, rho, 3)
    before = copy.deepcopy(_memo)
    # the same product again peels from the memoised slices, and a shallower
    # one from prefixes of them
    truncated_tensor(rs, 2 * rho, rho, 3)
    truncated_tensor(rs, rho, 2 * rho, 2)
    assert {k: (c.depth, c.slices) for k, c in _memo.items()} == {
        k: (c.depth, c.slices) for k, c in before.items()
    }


@pytest.mark.parametrize(
    "name,m,n,depth",
    [
        ("A1~", 2, 1, 8),
        ("A1~", 3, 2, 4),
        ("A2~", 2, 1, 3),
        ("B2~", 1, 1, 3),
        ("G2~", 1, 1, 2),
        ("A3~", 1, 1, 2),
        ("C3~", 1, 1, 1),
        ("B3~", 1, 1, 1),
        pytest.param("A3~", (2, 1, 0, 1), (1, 0, 1, 0), 3, id="A3~-2101-1010-3"),
        pytest.param("A1~", (1, 0), (0, 1), 6, id="A1~-10-01-6"),
        pytest.param("B2~", (0, 0, 1), (0, 0, 1), 4, id="B2~-001-001-4"),
    ],
)
def test_truncated_tensor_matches_full_peel(name, m, n, depth):
    """``m`` and ``n`` are multiples of rho or fundamental coordinates."""
    rs = build_root_system(name)
    lam, mu = (AffineWeight(x) if isinstance(x, tuple) else x * affine_rho(rs) for x in (m, n))
    dec = truncated_tensor(rs, lam, mu, depth)
    assert dec.components == truncated_tensor_by_full_peel(rs, lam, mu, depth)


def _finite_dominant_terms(orbit, depth):
    """``{(v, n): eps}`` over the terms of a signed affine orbit whose finite
    part ``v`` is dominant, at depth ``n <= depth``."""
    return {(v, -u): eps for (v, u), eps in orbit.items() if u >= -depth and min(v) > 0}


@pytest.mark.parametrize("name", ["A1~", "A2~", "B2~", "G2~", "A3~", "C3~"])
def test_rho_orbit_terms_match_the_signed_affine_orbit(name):
    """With no bound on the finite room, the read-off oracle's walk yields
    every ``w`` with ``n_0 <= D``: the terms ``e^(w rho^)`` of the Weyl-Kac
    denominator down to depth ``D``, with their signs. From ``rho^`` the
    library's numerator walk yields those of them with a dominant finite
    part. Translations up to 3 coroot steps reach every such term for ``D <=
    3`` on these algebras (as at 2 or 4 steps)."""
    rs = build_root_system(name)
    nodes = _affine_nodes(rs)
    orbit = _signed_affine_orbit(rs, affine_rho(rs), 3, 3)
    for depth in range(4):
        terms = _rho_orbit_terms(nodes, (depth,) + (10**9,) * rs.rank, (0,) * (rs.rank + 1), 0)
        found = {(v, -n0): eps for n0, v, eps in terms}
        assert len(found) == len(terms)
        assert found == {k: eps for k, eps in orbit.items() if k[1] >= -depth}
        terms = _numerator_terms(rs, affine_rho(rs), depth)
        found = {(v, n): eps for n, v, eps in terms}
        assert len(found) == len(terms)
        assert found == _finite_dominant_terms(orbit, depth)


@pytest.mark.parametrize(
    "name,fund",
    [("A1~", (1, 0)), ("A1~", (3, 0)), ("A2~", (1, 2, 0)), ("B2~", (2, 0, 1)), ("G2~", (0, 1, 0))],
)
def test_numerator_terms_match_the_signed_affine_orbit(name, fund):
    """From ``lam^ + rho^``, the walk yields every ``u`` with ``u(lam^ +
    rho^)`` finite-dominant at depth ``<= D``, with its sign: the finite
    cosets of the Weyl-Kac numerator of V(lam^)."""
    rs = build_root_system(name)
    start = AffineWeight(fund) + affine_rho(rs)
    orbit = _signed_affine_orbit(rs, start, 3, 4)
    for depth in range(4):
        terms = _numerator_terms(rs, start, depth)
        found = {(v, n): eps for n, v, eps in terms}
        assert len(found) == len(terms)
        assert found == _finite_dominant_terms(orbit, depth)


@pytest.mark.parametrize(
    "name,lam,mu,depth",
    [
        ("A2~", (1, 1, 1), (1, 1, 1), 2),
        ("B2~", (2, 0, 1), (1, 1, 1), 3),
        ("G2~", (0, 1, 0), (1, 1, 1), 2),
        ("A3~", (1, 2, 0, 1), (1, 0, 1, 0), 1),
        ("E6~", (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), 1),
    ],
    ids=["A2~-rho-2", "B2~-201-rho-3", "G2~-010-rho-2", "A3~-1201-1010-1", "E6~-w0-w1-1"],
)
def test_numerator_sums_at_depth_zero_are_the_finite_klimyk_product(name, lam, mu, depth):
    """At depth 0 the only numerator term is ``v = lam + rho``, so the sums
    there are the components of the finite product of the classical parts."""
    rs = build_root_system(name)
    lam, mu = AffineWeight(lam), AffineWeight(mu)
    terms = _numerator_terms(rs, lam + affine_rho(rs), depth)
    sums = _numerator_sums(rs, affine_freudenthal(rs, mu, depth), terms, depth)[0]
    finite = klimyk(build_root_system(name.rstrip("~")), lam.finite, mu.finite).components
    assert {x: s for x, s in sums.items() if s} == finite


@pytest.mark.parametrize("name,lam,mu,depth", [("A2~", (1, 1, 1), (1, 1, 1), 2), ("B2~", (2, 0, 1), (1, 1, 1), 3)])
def test_numerator_sums_keep_the_keys_whose_terms_cancel(name, lam, mu, depth):
    """Every key a term reflects to, zero sums included, against one plain
    ``to_dominant`` per weight and term of the orbit-expanded slices."""
    rs = build_root_system(name)
    lam, mu = AffineWeight(lam), AffineWeight(mu)
    char = affine_freudenthal(rs, mu, depth)
    terms = _numerator_terms(rs, lam + affine_rho(rs), depth)
    expected = [{} for _ in range(depth + 1)]
    for e, sl in enumerate(char.slices):
        for nu, m in expand_orbits(rs, sl).items():
            for n0, v, eps in terms:
                dom, sign = rs.to_dominant(tuple(map(add, v, nu)))
                if e + n0 <= depth and sign:
                    x = tuple(a - 1 for a in dom)
                    expected[e + n0][x] = expected[e + n0].get(x, 0) + sign * eps * m
    assert _numerator_sums(rs, char, terms, depth) == expected
    assert any(0 in sl.values() for sl in expected)


@pytest.mark.parametrize(
    "name,lam,mu,depth",
    [
        ("D4~", (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 1),
        ("A4~", (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 1),
        ("B3~", (1, 1, 1, 1), (1, 1, 1, 1), 2),
        ("C3~", (1, 1, 1, 1), (1, 1, 1, 1), 2),
        ("E6~", (1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), 1),
        ("E6~", (0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0), 1),
    ],
    ids=["D4~-rho-1", "A4~-rho-1", "B3~-rho-2", "C3~-rho-2", "E6~-w0-w1-1", "E6~-w1-w0-1"],
)
def test_truncated_tensor_matches_read_off(name, lam, mu, depth):
    """The components against the dominant convolution and per-key
    read-off."""
    rs = build_root_system(name)
    lam, mu = AffineWeight(lam), AffineWeight(mu)
    components = truncated_tensor(rs, lam, mu, depth).components
    expected = truncated_tensor_by_read_off(rs, lam, mu, depth)
    assert components == expected


# the products of the affine_products benchmark workload, (m rho) (x) (n rho)
AFFINE_PRODUCTS = [
    ("A1~", 2, 1, 3), ("A1~", 2, 1, 10), ("A1~", 3, 1, 12), ("A1~", 2, 1, 20), ("A1~", 3, 2, 8),
    ("A2~", 1, 1, 4), ("A2~", 2, 1, 4), ("B2~", 1, 1, 3), ("B2~", 2, 1, 3), ("G2~", 1, 1, 3), ("A3~", 1, 1, 3),
]


@pytest.mark.parametrize("name,m,n,depth", AFFINE_PRODUCTS)
def test_off_chamber_keys_reflect_to_a_shallower_depth_or_a_wall(name, m, n, depth):
    """``truncated_tensor`` reads each slice's keys in any order: an
    off-chamber key ``x`` at depth ``d`` is checked against the component at
    its alcove point, which lies strictly shallower, so in a slice already
    read off, or is on a wall, with sign 0. Both factors are tried as the
    one whose numerator is summed."""
    rs = build_root_system(name)
    rho = affine_rho(rs)
    lvl = (m + n) * rs.dual_coxeter
    off = 0
    for a, b in ((m, n), (n, m)):
        terms = _numerator_terms(rs, a * rho + rho, depth)
        sums = _numerator_sums(rs, affine_freudenthal(rs, b * rho, depth), terms, depth)
        for d, sl in enumerate(sums):
            for x in sl:
                if theta_pairing(rs, x) > lvl:
                    off += 1
                    _, e, sign = rs.alcove_point(tuple(c + 1 for c in x), d, lvl + rs.dual_coxeter)
                    assert e < d or sign == 0, (x, d, e, sign)
    assert off


@pytest.mark.parametrize(
    "name,fund,depth",
    [("A2~", (1, 1, 1), 3), ("B2~", (2, 1, 1), 2), ("G2~", (1, 1, 1), 2), ("E6~", (1, 0, 0, 0, 0, 0, 0), 2)],
    ids=["A2~-111-3", "B2~-211-2", "G2~-111-2", "E6~-1000000-2"],
)
def test_ball_cuts_exactly_the_terms_outside_it(name, fund, depth):
    """At every affine-dominant key of ``V(fund) (x) V(fund)``, the walk
    with the costs and budget of ``_ball`` keeps exactly those terms of the
    walk in the same room without them whose weight ``x^ + N`` has
    ``|x^ + N|^2 <= |top^|^2``, computed here from the form (a depth ``d``
    adds ``-2 lvl d``)."""
    rs = build_root_system(name)
    lam = AffineWeight(fund)
    char = affine_freudenthal(rs, lam, depth)
    top, lvl = (lam + lam).finite, 2 * level(rs, lam)
    nodes, free = _affine_nodes(rs), (0,) * (rs.rank + 1)
    for d, sl in enumerate(_dominant_convolution(rs, char, char, depth)):
        for x in sl:
            if theta_pairing(rs, x) > lvl:
                continue
            gamma = floor_root_coords(rs, tuple(map(sub, top, x)))
            room = (d,) + tuple(g + d * a for g, a in zip(gamma, rs.marks))
            inside = set()
            for n0, v, eps in _rho_orbit_terms(nodes, room, free, 0):
                y = tuple(a + 1 - b for a, b in zip(x, v))
                if rs.sip_ww(y, y) - 2 * rs.form_scale * lvl * (d - n0) <= rs.sip_ww(top, top):
                    inside.add((n0, v, eps))
            kept = _rho_orbit_terms(nodes, room, *_ball(rs, x, d, top, lvl))
            assert len(kept) == len(inside) and set(kept) == inside, (x, d)


@pytest.mark.parametrize(
    "name,fund,depth",
    [("A3~", (1, 1, 1, 1), 1), ("B2~", (1, 1, 1), 3), ("B2~", (2, 0, 1), 3), ("G2~", (1, 1, 1), 3)],
    ids=["A3~-1111-1", "B2~-111-3", "B2~-201-3", "G2~-111-3"],
)
def test_partner_index_matches_brute_force(name, fund, depth):
    rs = build_root_system(name)
    for sl in affine_freudenthal(rs, AffineWeight(fund), depth).slices:
        weights = expand_orbits(rs, sl)
        index = _partner_index(weights, rs.rank)
        # every threshold -w1_i from two below a coordinate's least value to two above its greatest
        box = [range(-max(column) - 2, -min(column) + 3) for column in zip(*weights)]
        for w1 in iproduct(*box):
            expected = {w2 for w2 in weights if min(map(add, w1, w2)) >= 0}
            assert _dominant_partners(index, w1) == expected, w1


def test_component_above_the_prv_bound_is_an_invariant_failure(inflated_top_component):
    rs = build_root_system("A2~")
    with pytest.raises(InvariantError, match="PRV bound"):
        truncated_tensor(rs, affine_rho(rs), affine_rho(rs), 2)


def test_negative_read_off_is_an_invariant_failure(lowered_top_of_product):
    rs = build_root_system("A2~")
    with pytest.raises(InvariantError, match=r"negative multiplicity -1 read off at finite part \(2, 2\), depth 0"):
        truncated_tensor(rs, affine_rho(rs), affine_rho(rs), 2)


def test_read_off_off_the_chamber_must_match_its_alcove_point(raised_reflected_entry):
    rs = build_root_system("A2~")
    # unperturbed, the sum at (4,4) is -1: (4,4) + rho^ is s_0 of (3,3) + rho^, a component one depth up
    message = "(finite (4, 4), depth 2, level 6) over A2~ is 0, but its alcove point (finite (3, 3), depth 1) gives -1"
    with pytest.raises(InvariantError, match=re.escape(message)):
        truncated_tensor(rs, affine_rho(rs), affine_rho(rs), 2)


def test_misplaced_reflections_fail_the_read_off(misplaced_affine_reflections):
    rs = build_root_system("A2~")
    with pytest.raises(InvariantError):
        truncated_tensor(rs, affine_rho(rs), affine_rho(rs), 2)


def test_affine_freudenthal_rejects_bad_input(sl2_affine):
    zero = AffineWeight((0, 0))
    with pytest.raises(AlgebraError):
        affine_freudenthal(sl2_affine, zero, 2)  # level 0
    with pytest.raises(AlgebraError):
        affine_freudenthal(sl2_affine, AffineWeight((1, -1)), 2)
    with pytest.raises(AlgebraError):
        affine_freudenthal(sl2_affine, affine_rho(sl2_affine), -1)
    fin = build_root_system("A1")
    with pytest.raises(AlgebraError):
        affine_freudenthal(fin, affine_rho(sl2_affine), 2)


@pytest.mark.parametrize("name,depth", [("A1~", 12), ("A2~", 6), ("B2~", 5), ("G2~", 5), ("A3~", 3)])
def test_slices_are_nested(name, depth):
    """Multiplicities along a delta-string never decrease at positive level, so
    a weight's first depth is the slice it is in and the slice above is not."""
    rs = build_root_system(name)
    for fund in iproduct(range(4), repeat=rs.rank + 1):
        if 1 <= sum(fund) <= 3:
            char = affine_freudenthal(rs, AffineWeight(fund), depth)
            slices = char.slices
            for d in range(1, depth + 1):
                for w, mult in slices[d - 1].items():
                    assert mult <= slices[d].get(w, 0), (fund, d, w)
            starts = [(w, d) for d, sl in enumerate(slices) for w in sl if d == 0 or w not in slices[d - 1]]
            assert delta_max_weights(char) == sorted(starts, key=lambda t: (t[1], t[0]))


def test_delta_max_weights(sl2_affine):
    rs = sl2_affine
    char = affine_freudenthal(rs, affine_rho(rs), 3)
    dm = delta_max_weights(char)
    assert ((1,), 0) in dm  # the classical part of the highest weight
    char2 = affine_freudenthal(rs, 2 * affine_rho(rs), 6)
    dm2 = delta_max_weights(char2)
    assert dm2[:2] == [((0,), 0), ((2,), 0)]
    # delta-strings are gap-free: below the start every slice contains the weight
    for w, d in dm2:
        for k in range(d, char2.depth + 1):
            assert char2.multiplicity(rs, w, k) > 0
    # affine-dominant delta-maximal entries of an sl_{r+1}-hat module have a
    # vanishing coordinate in the affine simple-root expansion of (highest - weight)
    n = 2
    dominant_entries = [(w, d) for w, d in dm2 if w[0] <= 2 * n]
    assert len(dominant_entries) >= 3
    for w, d in dominant_entries:
        c0 = d
        c1, rem = divmod(rs.root_coords(tuple(a - b for a, b in zip((n,), w)))[0], rs.lattice_index)
        assert rem == 0
        c1 += d
        assert c0 == 0 or c1 == 0, (w, d)


def test_truncated_tensor_rho_rho(sl2_affine):
    rs = sl2_affine
    rho = affine_rho(rs)
    dec = truncated_tensor(rs, rho, rho, 3)
    # Cartan component at depth 0
    assert dec.components[((2,), 0)] == 1
    # all components have level lhs+rhs by construction; translation property:
    char = affine_freudenthal(rs, rho, 3)
    for (w, d) in dec.components:
        beta = tuple(a - b for a, b in zip(w, (1,)))
        assert char.multiplicity(rs, beta, d) > 0
    assert dec.delta_max_components() == [((0,), 0), ((2,), 0), ((4,), 1)]


def test_truncated_tensor_2rho_rho_support(sl2_affine):
    rs = sl2_affine
    dec = truncated_tensor(rs, 2 * affine_rho(rs), affine_rho(rs), 6)
    char = affine_freudenthal(rs, affine_rho(rs), 6)
    # predicted delta-maximal components: m rho + beta over delta-maximal beta
    predicted = set()
    for beta_dom, d in delta_max_weights(char):
        for sign in (1, -1):
            lam_fin = (2 + sign * beta_dom[0],)
            if lam_fin[0] >= 0 and lam_fin[0] <= 6:
                predicted.add((lam_fin, d))
    assert set(dec.delta_max_components()) == predicted
    # full delta-strings below every delta-maximal component
    for w, d in dec.delta_max_components():
        for k in range(d, 6 + 1):
            assert (w, k) in dec.components, (w, k)


def test_truncated_tensor_input_validation(sl2_affine):
    rho = affine_rho(sl2_affine)
    with pytest.raises(AlgebraError):
        truncated_tensor(sl2_affine, AffineWeight((0, 0)), rho, 2)
    with pytest.raises(AlgebraError):
        truncated_tensor(sl2_affine, rho, rho, -1)
    # level 2 and 0: the cause named is the non-dominant factor, not the level
    with pytest.raises(AlgebraError, match="dominant"):
        truncated_tensor(sl2_affine, rho, AffineWeight((1, -1)), 2)


def test_sl2_delta_max_rule(sl2_affine):
    rs = sl2_affine
    # Cartan component: N = 0
    lam = affinize(rs, (3,), 6)
    assert sl2_delta_max_rule(rs, 2, 1, lam, depth=6) == 0
    # beta delta-maximal at depth 0 gives N = 0
    lam = affinize(rs, (1,), 6)  # beta = (-1), in the depth-0 slice of V(rho)
    assert sl2_delta_max_rule(rs, 2, 1, lam, depth=6) == 0
    # deep string member: for lam = (5) at shift 0, beta = (3) enters V(rho)
    # only at depth 1, so the string top sits one delta below the shift
    lam = affinize(rs, (5,), 6)
    n_rule = sl2_delta_max_rule(rs, 2, 1, lam, depth=6)
    assert n_rule == -1
    dec = truncated_tensor(rs, 2 * affine_rho(rs), affine_rho(rs), 6)
    assert ((5,), 1) in dec.components
    assert ((5,), 0) not in dec.components


def test_sl2_rule_matches_truncated_tensor(sl2_affine):
    rs = sl2_affine
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        depth = 4
        dec = truncated_tensor(rs, m * affine_rho(rs), n * affine_rho(rs), depth)
        for w, d in dec.delta_max_components():
            lam = affinize(rs, w, 2 * (m + n))
            assert sl2_delta_max_rule(rs, m, n, lam, depth=depth) == -d, (m, n, w, d)


def test_sl2_rule_rejections(sl2_affine, sl3_affine):
    rs = sl2_affine
    with pytest.raises(AlgebraError):
        sl2_delta_max_rule(sl3_affine, 2, 1, affinize(sl3_affine, (3, 3), 9))
    with pytest.raises(AlgebraError):
        sl2_delta_max_rule(rs, 1, 2, affinize(rs, (3,), 6))
    with pytest.raises(AlgebraError):
        sl2_delta_max_rule(rs, 2, 1, affinize(rs, (2,), 5))  # wrong level
    with pytest.raises(AlgebraError, match="not congruent to"):
        sl2_delta_max_rule(rs, 2, 1, affinize(rs, (4,), 6).shifted(5))  # wrong class
    with pytest.raises(AlgebraError, match=re.escape("lam must be dominant, got 7,-1")):
        sl2_delta_max_rule(rs, 2, 1, AffineWeight((7, -1)))
    # (5,) - 2 rho = (3,) first occurs in V(rho^) at depth 1
    with pytest.raises(AlgebraError, match="lam - m rho is not a weight of the complementary factor within depth 0"):
        sl2_delta_max_rule(rs, 2, 1, affinize(rs, (5,), 6), depth=0)
    assert sl2_delta_max_rule(rs, 2, 1, affinize(rs, (5,), 6), depth=1) == -1


def test_gko_central_charge(sl2_affine, sl3_affine):
    assert gko_central_charge(sl2_affine, 2, 2) == 1
    assert gko_central_charge(sl2_affine, 2, 0) == 0
    assert gko_central_charge(sl2_affine, 4, 2) == 3 * (Fraction(2, 3) + Fraction(1, 2) - Fraction(3, 4))
    # sl3-hat at levels (3,3): 8 * (1/2 + 1/2 - 2/3)
    assert gko_central_charge(sl3_affine, 3, 3) == Fraction(8, 3)
    assert gko_central_charge(sl2_affine, 100, 1) >= 0
    with pytest.raises(AlgebraError):
        gko_central_charge(sl2_affine, -2, 2)


def test_gko_l0_shift_linearity(sl2_affine):
    rs = sl2_affine
    rho = affine_rho(rs)
    lam, mu = 2 * rho, rho
    nu = affinize(rs, (4,), 6)
    base = gko_l0_scalar(rs, lam, mu, nu)
    for k in range(1, 5):
        assert gko_l0_scalar(rs, lam, mu, nu.shifted(-k)) == base + k


def test_gko_certificate_highest_weight_case(sl2_affine, sl3_affine):
    for rs, m, n in [(sl2_affine, 2, 1), (sl2_affine, 3, 3), (sl3_affine, 2, 2)]:
        beta = n * affine_rho(rs)
        rep = gko_positivity_certificate(rs, m, n, beta)
        t1, t2, t3, t4 = rep.certificate_terms
        assert (t1, t2, t3) == (0, 0, 0) and t4 > 0
        assert rep.l0_scalar == t4 / rep.denominator
        assert rep.l0_scalar == gko_l0_scalar(
            rs, m * affine_rho(rs), n * affine_rho(rs), (m + n) * affine_rho(rs)
        )


def test_gko_certificate_exhaustive_delta_max(sl2_affine):
    rs = sl2_affine
    m, n = 2, 1
    char = affine_freudenthal(rs, affine_rho(rs), 6)
    certified, refused = [], []
    for beta_dom, d in delta_max_weights(char):
        for sign in (1, -1):
            beta_fin = (sign * beta_dom[0],)
            beta = affinize(rs, beta_fin, 2 * n, -d)
            if not (m * affine_rho(rs) + beta).is_dominant():
                # no component V(m rho + beta) to certify
                with pytest.raises(AlgebraError, match="requires a dominant m rho \\+ beta"):
                    gko_positivity_certificate(rs, m, n, beta)
                refused.append(str(beta))
                continue
            rep = gko_positivity_certificate(rs, m, n, beta)
            assert all(t >= 0 for t in rep.certificate_terms)
            assert rep.certificate_terms[3] > 0
            assert rep.l0_scalar > 0
            certified.append(str(beta))
    assert len(certified) == 3
    assert sorted(refused) == sorted(["5,-3:d-1", "-3,5:d-3", "7,-5:d-3", "-5,7:d-6", "9,-7:d-6"])


def test_gko_certificate_rejects_non_weight(sl2_affine):
    beta = affinize(sl2_affine, (5,), 2)  # not a weight of V(rho) at shift 0
    with pytest.raises(AlgebraError):
        gko_positivity_certificate(sl2_affine, 2, 1, beta)
    # the finite part (1) is a weight of V(rho) at shift 0, but the level is 5, not 2
    with pytest.raises(AlgebraError, match="not a weight of V\\(1 rho\\)"):
        gko_positivity_certificate(sl2_affine, 1, 1, AffineWeight((4, 1)))


def test_delta_string_classify():
    assert delta_string_classify(Fraction(1, 24)) == UNBROKEN
    assert delta_string_classify(Fraction(0)) == GAP_AT_ONE
    with pytest.raises(InvariantError):
        delta_string_classify(Fraction(-1, 2))


def test_kac_wakimoto_check(sl2_affine):
    rs = sl2_affine
    rho = affine_rho(rs)
    lam, mu = 2 * rho, rho
    # Cartan component: k = 0
    assert kac_wakimoto_check(rs, lam, mu, 3 * rho, 4) == 0
    # predicted component from a delta-maximal beta sits exactly at its shift
    nu = affinize(rs, (5,), 6, -1)  # beta = (3), delta-maximal at depth 1
    assert kac_wakimoto_check(rs, lam, mu, nu, 6) == 0
    # a weight in the lattice coset but above the component strings
    nu = affinize(rs, (5,), 6).shifted(1)
    k = kac_wakimoto_check(rs, lam, mu, nu, 6)
    assert k is not None and k >= 1
    # depth-qualified: absent within a tiny window is None, not a refutation
    assert kac_wakimoto_check(rs, lam, mu, affinize(rs, (5,), 6).shifted(8), 2) is None
    with pytest.raises(AlgebraError):
        kac_wakimoto_check(rs, lam, mu, affinize(rs, (4,), 6), 4)  # wrong coset


def test_kac_wakimoto_check_rejects_a_non_dominant_nu(sl2_affine):
    rho = affine_rho(sl2_affine)
    # (7,-1) is off the chamber: it is not answered for its reflection (5,1)
    with pytest.raises(AlgebraError, match=re.escape("requires a dominant nu, got 7,-1")):
        kac_wakimoto_check(sl2_affine, 2 * rho, rho, AffineWeight((7, -1)), 6)
    assert kac_wakimoto_check(sl2_affine, 2 * rho, rho, AffineWeight((5, 1)), 6) == 0


def test_gko_l0_scalar_checks_the_levels(sl2_affine):
    rho = affine_rho(sl2_affine)
    with pytest.raises(AlgebraError, match="gko_l0_scalar requires positive levels, got 0, 2"):
        gko_l0_scalar(sl2_affine, AffineWeight((0, 0)), rho, rho)
    with pytest.raises(AlgebraError, match="nu must have level 4, got 2"):
        gko_l0_scalar(sl2_affine, rho, rho, rho)


def test_gko_l0_scalar_rejects_non_dominant_weights(sl2_affine):
    rho = affine_rho(sl2_affine)
    nu = AffineWeight((7, -1), -1)
    for args in [(2 * rho, rho, nu), (AffineWeight((5, -1)), rho, 3 * rho), (2 * rho, AffineWeight((3, -1)), 3 * rho)]:
        with pytest.raises(AlgebraError, match="gko_l0_scalar requires dominant weights"):
            gko_l0_scalar(sl2_affine, *args)
    # so does the certificate, at a non-dominant m rho + beta
    beta = nu - 2 * rho
    with pytest.raises(AlgebraError, match="requires a dominant m rho \\+ beta, got 7,-1:d-1"):
        gko_positivity_certificate(sl2_affine, 2, 1, beta)
