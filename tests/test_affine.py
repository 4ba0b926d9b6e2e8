"""Truncated affine characters, delta-maximal structure, truncated tensor
decomposition, and the GKO coset scalars."""

import copy
from fractions import Fraction

import pytest

from rho_tensor.affine import (
    GAP_AT_ONE,
    UNBROKEN,
    AffineWeight,
    affine_bilinear,
    affine_candidates,
    affine_delta,
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
    truncated_tensor,
)
from rho_tensor.charcalc import _memo, clear_memory_cache, expand_orbits, freudenthal
from rho_tensor.rootdata import AlgebraError, InvariantError, build_root_system

from oracles import affine_candidates_by_box, affine_slices_by_weyl_kac, truncated_tensor_by_full_peel

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
    delta = affine_delta(rs)
    assert level(rs, delta) == 0
    assert in_affine_root_lattice(rs, delta)
    assert not in_affine_root_lattice(rs, rho)


def test_affine_form_conventions(sl2_affine, sl3_affine):
    for rs in (sl2_affine, sl3_affine):
        delta = affine_delta(rs)
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
    ],
)
def test_against_weyl_kac_oracle(name, fund, depth):
    rs = build_root_system(name)
    lam = AffineWeight(fund)
    expected = affine_slices_by_weyl_kac(rs, lam, depth)
    got = [expand_orbits(rs, sl) for sl in affine_freudenthal(rs, lam, depth).slices]
    assert got == expected


@pytest.mark.parametrize(
    "name,lam_fin,depth",
    [("A1~", (1,), 20), ("A1~", (4,), 20), ("A2~", (1, 1), 4), ("A2~", (2, 0), 4),
     ("B2~", (1, 1), 4), ("G2~", (1, 1), 4), ("A3~", (1, 1, 1), 3), ("A3~", (0, 1, 0), 4),
     ("C3~", (1, 1, 1), 3), ("C3~", (1, 0, 1), 4)],
)
def test_candidates_match_box_walk(name, lam_fin, depth):
    rs = build_root_system(name)
    assert affine_candidates(rs, lam_fin, depth) == affine_candidates_by_box(rs, lam_fin, depth)


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


def test_clear_memory_cache_drops_affine_tables(sl2_affine):
    rho = affine_rho(sl2_affine)
    char = affine_freudenthal(sl2_affine, rho, 3)
    assert affine_freudenthal(sl2_affine, rho, 3) is char
    clear_memory_cache()
    assert not _memo
    assert affine_freudenthal(sl2_affine, rho, 3) is not char


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
    [("A1~", 2, 1, 8), ("A1~", 3, 2, 4), ("A2~", 2, 1, 3), ("B2~", 1, 1, 3), ("G2~", 1, 1, 2), ("A3~", 1, 1, 2)],
)
def test_truncated_tensor_matches_full_peel(name, m, n, depth):
    rs = build_root_system(name)
    rho = affine_rho(rs)
    dec = truncated_tensor(rs, m * rho, n * rho, depth)
    assert dec.components == truncated_tensor_by_full_peel(rs, m * rho, n * rho, depth)


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
    with pytest.raises(AlgebraError):
        sl2_delta_max_rule(rs, 2, 1, affinize(rs, (4,), 6).shifted(5))  # above every string


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
    count = 0
    for beta_dom, d in delta_max_weights(char):
        for sign in (1, -1):
            beta_fin = (sign * beta_dom[0],)
            beta = affinize(rs, beta_fin, 2 * n, -d)
            rep = gko_positivity_certificate(rs, m, n, beta)
            assert all(t >= 0 for t in rep.certificate_terms)
            assert rep.certificate_terms[3] > 0
            assert rep.l0_scalar > 0
            count += 1
    assert count >= 6


def test_gko_certificate_rejects_non_weight(sl2_affine):
    beta = affinize(sl2_affine, (5,), 2)  # not a weight of V(rho) at shift 0
    with pytest.raises(AlgebraError):
        gko_positivity_certificate(sl2_affine, 2, 1, beta)


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
