"""Freudenthal character tables, weight-set queries, and the cache."""

import threading
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rho_tensor.charcalc import (
    CharCache,
    clear_memory_cache,
    dominant_weights_below,
    freudenthal,
    freudenthal_slices,
)
from rho_tensor.rootdata import AlgebraError, build_root_system

from oracles import character_by_weyl_formula, dominant_weights_by_box, rho_character_by_product

# frozen from the Weyl-character-formula oracle (see test below re-deriving it)
B2_2RHO_TABLE = {
    (2, 2): 1, (3, 0): 1, (1, 2): 2, (2, 0): 3, (0, 2): 4, (1, 0): 4, (0, 0): 5,
    (0, 4): 1,
}


def test_sl2_strings(a1):
    assert freudenthal(a1, (2,)).mults == {(2,): 1, (0,): 1}
    assert freudenthal(a1, (5,)).mults == {(5,): 1, (3,): 1, (1,): 1}
    assert freudenthal(a1, (0,)).mults == {(0,): 1}


def test_adjoint_zero_weight_multiplicity_is_rank(a2, b2, g2):
    # the adjoint of sl3 is V(rho); zero weight carries the Cartan
    assert freudenthal(a2, (1, 1)).mults[(0, 0)] == 2
    theta_b2 = tuple(b2.fund_coords_of_root(b2.highest_root))
    assert freudenthal(b2, theta_b2).mults[(0, 0)] == 2
    theta_g2 = tuple(g2.fund_coords_of_root(g2.highest_root))
    assert freudenthal(g2, theta_g2).mults[(0, 0)] == 2


def test_b2_2rho_table_frozen(b2):
    assert freudenthal(b2, (2, 2)).mults == B2_2RHO_TABLE


@pytest.mark.parametrize(
    "name,lam",
    [("A1", (4,)), ("A2", (2, 1)), ("B2", (2, 2)), ("B2", (1, 3)), ("G2", (1, 2)),
     ("A3", (1, 1, 1)), ("B3", (1, 0, 2)), ("C3", (2, 1, 0)),
     ("D4", (1, 0, 0, 0)), ("D4", (0, 1, 0, 0))],
)
def test_against_weyl_formula_oracle(name, lam):
    rs = build_root_system(name)
    oracle = character_by_weyl_formula(rs, lam)
    dominant_part = {w: m for w, m in oracle.items() if rs.is_dominant(w)}
    assert freudenthal(rs, lam).mults == dominant_part


def test_dimension_conservation(systems):
    for name, rs in systems.items():
        lam = (2,) * rs.rank
        char = freudenthal(rs, lam)
        assert char.dimension(rs) == rs.weyl_dimension(lam)


def test_every_dominant_weight_below_appears(b2, g2):
    for rs, lam in [(b2, (2, 2)), (g2, (1, 1))]:
        char = freudenthal(rs, lam)
        assert sorted(char.mults) == sorted(dominant_weights_below(rs, lam))
        assert char.mults[lam] == 1


@pytest.mark.parametrize(
    "name,lam",
    [("A1", (7,)), ("A2", (3, 2)), ("A3", (2, 1, 2)), ("B2", (3, 4)), ("B3", (2, 1, 2)),
     ("C3", (2, 2, 1)), ("G2", (3, 2)), ("D4", (2, 2, 2, 2)), ("F4", (1, 1, 1, 1)),
     ("E6", (1, 0, 1, 0, 0, 0)), ("E6", (0, 1, 1, 0, 0, 0)), ("E6", (0, 2, 0, 0, 0, 0)),
     ("E6", (1, 0, 0, 1, 0, 0))],
)
def test_descent_matches_box_walk(name, lam):
    rs = build_root_system(name)
    assert dominant_weights_below(rs, lam) == dominant_weights_by_box(rs, lam)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4"])
def test_rho_character_against_product_formula(name):
    rs = build_root_system(name)
    oracle = rho_character_by_product(rs)
    assert freudenthal(rs, rs.rho).mults == {w: m for w, m in oracle.items() if rs.is_dominant(w)}


def test_dominant_weights_below_examples(a1, b2):
    assert dominant_weights_below(a1, (0,)) == [(0,)]
    assert dominant_weights_below(a1, (4,)) == [(4,), (2,), (0,)]
    below = dominant_weights_below(b2, (7, 7))
    assert len(below) == len(set(below))
    # rank-2 lattice-point cross-check: mu dominant with lam - mu in the
    # non-negative root lattice box
    caps = [x // b2.lattice_index for x in b2.root_coords((7, 7))]  # floor of (21/2, 14)
    expected = set()
    for c1 in range(caps[0] + 1):
        for c2 in range(caps[1] + 1):
            mu = tuple(a - b for a, b in zip((7, 7), b2.fund_coords_of_root((c1, c2))))
            if min(mu) >= 0:
                expected.add(mu)
    assert set(below) == expected


def test_weight_set_queries(a1, b2):
    ch = freudenthal(a1, (2,))
    assert ch.contains(a1, (2,))
    assert ch.contains(a1, (-2,))
    assert not ch.contains(a1, (1,))
    assert ch.multiplicity(a1, (2,)) == 1
    assert ch.multiplicity(a1, (4,)) == 0
    ch = freudenthal(b2, (2, 2))
    # membership matches brute-force orbit expansion of the dominant table;
    # (-1, 0) is omega_2 - rho in disguise
    expanded = ch.full_weights(b2)
    for w in [(-1, 2), (2, -2), (0, 1), (3, -4), (-2, 0), (-1, 0)]:
        assert ch.contains(b2, w) == (w in expanded)
        assert ch.multiplicity(b2, w) == expanded.get(w, 0)


def test_multiplicity_reflects_into_chamber(a2):
    ch = freudenthal(a2, (1, 1))
    assert ch.multiplicity(a2, (-1, -1)) == 1  # lowest weight of the adjoint


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["A2", "B2", "G2"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.integers(0, 1), min_size=0, max_size=6),
)
def test_weyl_invariance(name, lam, word):
    rs = build_root_system(name)
    ch = freudenthal(rs, lam)
    w = lam
    for i in word:
        w = rs.simple_reflection(w, i)
    assert ch.multiplicity(rs, w) == 1


def test_evaluation_order_independence(b2, g2):
    # weights of one height layer never reference each other, so any order
    # within a layer gives the same table
    for rs, lam in [(b2, (2, 2)), (g2, (2, 1))]:
        reference = freudenthal(rs, lam).mults
        layers: dict[int, list] = {}
        for mu in dominant_weights_below(rs, lam)[1:]:
            diff = tuple(a - b for a, b in zip(lam, mu))
            coords = [divmod(x, rs.lattice_index) for x in rs.root_coords(diff)]
            assert all(rem == 0 for _, rem in coords)
            gamma = tuple(q for q, _ in coords)
            layers.setdefault(sum(gamma), []).append((0, mu, gamma))
        for seed in (1, 7, 42):
            rng = Random(seed)
            candidates = []
            for h in sorted(layers):
                layer = layers[h][:]
                rng.shuffle(layer)
                candidates += layer
            assert freudenthal_slices(rs, lam, candidates, 0, 0) == [reference]


def test_ckm_shift_equivalence(systems):
    # lam <= 2 rho in dominance iff lam = rho + (weight of V(rho)), as sets
    for name, rs in systems.items():
        rho = rs.rho
        two_rho = tuple(2 * x for x in rho)
        below = set(dominant_weights_below(rs, two_rho))
        char = freudenthal(rs, rho)
        translated = set()
        for beta_dom in char.mults:
            for beta in rs.orbit(beta_dom):
                lam = tuple(a + b for a, b in zip(rho, beta))
                if rs.is_dominant(lam):
                    translated.add(lam)
        assert below == translated, name


def test_nondominant_highest_rejected(b2):
    with pytest.raises(AlgebraError):
        freudenthal(b2, (-1, 0))


def test_cache_round_trip(tmp_path, b2):
    cache = CharCache(tmp_path)
    clear_memory_cache()
    char = freudenthal(b2, (2, 2), cache)
    files = cache.stat()
    assert len(files) == 1 and files[0][0] == "B2.2_2.char"
    clear_memory_cache()
    again = freudenthal(b2, (2, 2), cache)
    assert again.mults == char.mults
    text = (tmp_path / "B2.2_2.char").read_text().splitlines()
    assert text[0] == "rho-tensor-char v1 B2 2,2"
    assert all(":" in line for line in text[1:])
    assert cache.clear() == 1
    assert cache.stat() == []
    clear_memory_cache()


def test_concurrent_writers_with_their_own_cache_objects(tmp_path, b2):
    # the write lock is per instance: only the per-thread temporary file name
    # keeps one writer from moving another's temporary file away mid-write
    table = freudenthal(b2, (2, 2)).mults
    errors = []

    def write():
        cache = CharCache(tmp_path)
        try:
            for _ in range(300):
                cache.store(b2, (2, 2), table)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == ["B2.2_2.char"]
    assert CharCache(tmp_path).load(b2, (2, 2)) == table


def test_cache_rejects_corrupt_file(tmp_path, b2):
    cache = CharCache(tmp_path)
    (tmp_path / "B2.1_1.char").write_text("garbage header\n0,0:1\n")
    assert cache.load(b2, (1, 1)) is None
