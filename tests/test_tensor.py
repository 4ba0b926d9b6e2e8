"""Klimyk decomposition, the brute-force oracle, and comparison utilities."""

import random
from itertools import combinations_with_replacement
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from rho_tensor.charcalc import freudenthal
from rho_tensor.rootdata import AlgebraError, InvariantError, build_root_system
from rho_tensor.tensor import (
    contains_component,
    klimyk,
    oracle_decompose,
    saturation_check,
    schur_compare,
)

from reference_tables import B2_5RHO_2RHO, G2_3RHO_4RHO, G2_5RHO_2RHO


def test_clebsch_gordan(a1):
    assert klimyk(a1, (2,), (1,)).components == {(3,): 1, (1,): 1}
    for m in range(0, 5):
        for n in range(0, m + 1):
            dec = klimyk(a1, (m,), (n,))
            assert dec.components == {(k,): 1 for k in range(m - n, m + n + 1, 2)}
            assert oracle_decompose(a1, (m,), (n,)).components == dec.components


def test_unit_of_tensor_product(b2, g2):
    for rs in (b2, g2):
        mu = (2, 1)
        assert klimyk(rs, (0, 0), mu).components == {mu: 1}
        assert oracle_decompose(rs, (0, 0), mu).components == {mu: 1}


def test_commutativity(b2, g2):
    for rs in (b2, g2):
        assert klimyk(rs, (2, 1), (1, 2)).components == klimyk(rs, (1, 2), (2, 1)).components


def test_b2_reference_table(b2):
    assert klimyk(b2, (5, 5), (2, 2)).components == B2_5RHO_2RHO


def test_g2_reference_tables(g2):
    assert klimyk(g2, (5, 5), (2, 2)).components == G2_5RHO_2RHO
    assert klimyk(g2, (3, 3), (4, 4)).components == G2_3RHO_4RHO


def test_oracle_agrees_on_small_products(b2, g2):
    for rs, lhs, rhs in [(b2, (2, 2), (1, 1)), (b2, (3, 1), (0, 2)), (g2, (1, 1), (1, 0))]:
        assert oracle_decompose(rs, lhs, rhs).components == klimyk(rs, lhs, rhs).components


def test_oracle_equivalence_randomized(systems):
    rng = random.Random(20250810)
    names = sorted(systems)
    done = 0
    while done < 40:
        rs = systems[rng.choice(names)]
        lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        mu = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        if rs.weyl_dimension(lam) * rs.weyl_dimension(mu) > 20_000:
            continue
        assert klimyk(rs, lam, mu).components == oracle_decompose(rs, lam, mu).components
        done += 1


def test_translation_necessary_condition(b2, g2):
    # every component nu satisfies: nu - lam is a weight of V(mu)
    for rs, lam, mu in [(b2, (3, 3), (1, 1)), (g2, (2, 2), (1, 1))]:
        char = freudenthal(rs, mu)
        for nu in klimyk(rs, lam, mu).components:
            beta = tuple(a - b for a, b in zip(nu, lam))
            assert char.multiplicity(rs, beta) > 0


def test_contains_component(b2):
    assert contains_component(b2, (5, 5), (2, 2), (7, 7))
    assert not contains_component(b2, (5, 5), (2, 2), (0, 1))
    assert contains_component(b2, (2, 1), (1, 2), (3, 3))  # Cartan component


def test_non_dominant_weights_are_rejected(b2):
    with pytest.raises(AlgebraError, match=r"klimyk requires dominant weights, got \(1, -1\)"):
        klimyk(b2, (1, 1), (1, -1))
    with pytest.raises(AlgebraError, match=r"oracle_decompose requires dominant weights, got \(-1, 2\)"):
        oracle_decompose(b2, (-1, 2), (1, 1))
    with pytest.raises(AlgebraError, match=r"contains_component requires a dominant nu, got \(3, -1\)"):
        contains_component(b2, (1, 1), (1, 1), (3, -1))


def test_saturation_check(b2, a2):
    # d = 1 reduces to plain membership
    assert saturation_check(b2, (5, 5), (2, 2), (7, 7), 1)
    # Cartan components scale with any d
    for d in (1, 2, 3):
        assert saturation_check(b2, (2, 1), (1, 1), (3, 2), d)
        assert saturation_check(a2, (1, 0), (0, 1), (1, 1), d)
    with pytest.raises(AlgebraError):
        saturation_check(a2, (1, 0), (0, 0), (0, 1), 2)  # not in the root lattice
    with pytest.raises(AlgebraError):
        saturation_check(b2, (1, 1), (1, 1), (2, 2), 0)


def test_saturation_over_all_predicted_b2_triples(b2):
    # every predicted component of V(5 rho) (x) V(2 rho) passes at d = 1
    from rho_tensor.harness import predicted_weights

    for lam in predicted_weights(b2, 5, 2):
        assert saturation_check(b2, (5, 5), (2, 2), lam, 1)


def test_schur_compare_reflexive_and_reference(g2, b2):
    a = klimyk(g2, (5, 5), (2, 2))
    b = klimyk(g2, (3, 3), (4, 4))
    assert schur_compare(a, a).dominates
    rep = schur_compare(a, b)
    assert rep.dominates and rep.witnesses == []
    # and the comparison is strict somewhere, so the reverse direction fails
    rev = schur_compare(b, a)
    assert not rev.dominates and rev.witnesses
    with pytest.raises(AlgebraError, match="cannot compare decompositions over G2 and B2"):
        schur_compare(a, klimyk(b2, (5, 5), (2, 2)))
    with pytest.raises(AlgebraError):
        schur_compare(klimyk(b2, (1, 1), (1, 1)), klimyk(b2, (2, 2), (1, 1)))


def test_schur_compare_sl2_min_pair(a1):
    a = oracle_decompose(a1, (3,), (1,))
    b = oracle_decompose(a1, (2,), (2,))
    assert schur_compare(a, b).dominates


BEYOND_RANK_THREE = [
    ("D4", (1, 0, 0, 0), (0, 0, 1, 0)),
    ("D4", (0, 1, 0, 0), (1, 0, 0, 0)),
    ("D4", (1, 0, 0, 1), (0, 0, 1, 0)),
    ("D4", (0, 1, 0, 0), (0, 1, 0, 0)),
    ("D4", (1, 1, 0, 0), (0, 0, 0, 1)),
    ("F4", (0, 0, 0, 1), (0, 0, 0, 1)),
    ("F4", (1, 0, 0, 0), (0, 0, 0, 1)),
    ("F4", (0, 0, 1, 0), (0, 0, 0, 1)),
    ("F4", (1, 0, 0, 0), (1, 0, 0, 0)),
    ("E6", (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    ("E6", (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("name,lam,mu", BEYOND_RANK_THREE)
def test_klimyk_against_oracle_beyond_rank_three(name, lam, mu):
    # the D/E/F constructions end to end, against character multiplication
    rs = build_root_system(name)
    assert klimyk(rs, lam, mu).components == oracle_decompose(rs, lam, mu).components


def test_klimyk_beyond_rank_three():
    # the 26-dimensional F4 module squares to the classical five summands
    f4 = build_root_system("F4")
    dec = klimyk(f4, (0, 0, 0, 1), (0, 0, 0, 1))
    assert dec.components == {
        (0, 0, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 0, 0): 1,
        (0, 0, 0, 2): 1, (0, 0, 1, 0): 1,
    }


@pytest.mark.parametrize(
    "name,lam,mu",
    BEYOND_RANK_THREE
    + [
        ("A1", (1,), (4,)),
        ("A2", (2, 0), (0, 2)),
        ("B2", (3, 0), (0, 2)),
        ("B2", (0, 1), (3, 2)),  # the smaller factor is lam
        ("G2", (2, 1), (0, 3)),
        ("A3", (1, 0, 2), (0, 2, 0)),
        ("B3", (1, 0, 1), (0, 0, 2)),
        ("C3", (0, 1, 0), (2, 0, 1)),
    ],
)
def test_translated_set_is_big_plus_the_weights_of_small(name, lam, mu):
    rs = build_root_system(name)
    big, small = (mu, lam) if rs.weyl_dimension(lam) < rs.weyl_dimension(mu) else (lam, mu)
    shifted = (tuple(a + b for a, b in zip(big, nu)) for nu in freudenthal(rs, small).full_weights(rs))
    assert klimyk(rs, lam, mu).translated == {w for w in shifted if rs.is_dominant(w)}


def test_component_outside_the_translated_set_is_an_invariant_failure(misplaced_reflections):
    with pytest.raises(InvariantError, match="exceeds the translated weight set"):
        klimyk(build_root_system("B2"), (1, 1), (1, 1))


ORACLE_MAX_DIM = 300_000  # the oracle's time


def _small_products(name):
    rs = build_root_system(name)
    if name in ("F4", "E6"):
        # most of {0,1}^r is past the bound here: draw the pairs within it of 0, the
        # fundamental weights and their sums of two
        basis = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        weights = [(0,) * rs.rank, *basis, *(tuple(map(add, a, b)) for a, b in combinations_with_replacement(basis, 2))]
        pairs = [
            (lam, mu) for lam in weights for mu in weights
            if rs.weyl_dimension(lam) * rs.weyl_dimension(mu) <= ORACLE_MAX_DIM
        ]
        return st.sampled_from(pairs).map(lambda pair: (name, *pair))
    weight = st.tuples(*[st.integers(0, 1)] * rs.rank)
    return st.tuples(st.just(name), weight, weight)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "D4", "F4", "E6"]).flatmap(_small_products))
def test_klimyk_matches_oracle_on_small_weights(case):
    name, lam, mu = case
    rs = build_root_system(name)
    assume(rs.weyl_dimension(lam) * rs.weyl_dimension(mu) <= ORACLE_MAX_DIM)
    dec = klimyk(rs, lam, mu)
    assert dec.components == oracle_decompose(rs, lam, mu).components
    assert dec.support() <= dec.translated


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["A2", "B2"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_klimyk_properties(name, lam, mu):
    rs = build_root_system(name)
    dec = klimyk(rs, lam, mu)
    cartan = tuple(a + b for a, b in zip(lam, mu))
    assert dec.components[cartan] == 1
    assert all(m > 0 for m in dec.components.values())
    assert klimyk(rs, mu, lam).components == dec.components
