"""Freudenthal character tables, weight-set queries, and the cache."""

import threading
import time
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import rho_tensor.charcalc as charcalc
from rho_tensor.charcalc import (
    CharCache,
    clear_memory_cache,
    dominant_weights_below,
    freudenthal,
    freudenthal_candidates,
    freudenthal_slices,
    root_strings,
)
from rho_tensor.rootdata import AlgebraError, InvariantError, build_root_system

from oracles import (
    character_by_weyl_formula,
    dominant_weights_by_box,
    freudenthal_slices_by_all_roots,
    rho_character_by_product,
    simple_reflection,
)

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


def _small_weights(name):
    """Dominant weights with coordinates up to 2 at rank 2 and up to 1 at
    rank 3, where the oracle's division stays small."""
    rank = build_root_system(name).rank
    return st.tuples(st.just(name), st.tuples(*[st.integers(0, 2 if rank == 2 else 1)] * rank))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3"]).flatmap(_small_weights))
def test_freudenthal_matches_weyl_formula_on_small_weights(case):
    name, lam = case
    rs = build_root_system(name)
    assert freudenthal(rs, lam).full_weights(rs) == character_by_weyl_formula(rs, lam)


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


@pytest.mark.parametrize("name,n", [("B2", 2), ("A3", 2), ("D4", 2), ("G2", 3), ("C3", 3), ("F4", 1)])
def test_n_rho_character_against_product_formula(name, n):
    # the tables the conjecture scans read, every weight of them
    rs = build_root_system(name)
    assert freudenthal(rs, (n,) * rs.rank).full_weights(rs) == rho_character_by_product(rs, n)


def test_dominant_weights_below_rejects_a_non_dominant_weight(b2):
    with pytest.raises(AlgebraError, match=r"requires a dominant weight, got \(2, -1\)"):
        dominant_weights_below(b2, (2, -1))


def test_dominant_weights_below_reads_the_finite_part_of_an_affine_algebra(b2):
    assert dominant_weights_below(build_root_system("B2~"), (3, 3)) == dominant_weights_below(b2, (3, 3))


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
    assert ch.multiplicity(a1, (2,)) > 0
    assert ch.multiplicity(a1, (-2,)) > 0
    assert ch.multiplicity(a1, (1,)) == 0
    assert ch.multiplicity(a1, (2,)) == 1
    assert ch.multiplicity(a1, (4,)) == 0
    ch = freudenthal(b2, (2, 2))
    # membership matches brute-force orbit expansion of the dominant table;
    # (-1, 0) is omega_2 - rho in disguise
    expanded = ch.full_weights(b2)
    for w in [(-1, 2), (2, -2), (0, 1), (3, -4), (-2, 0), (-1, 0)]:
        assert (ch.multiplicity(b2, w) > 0) == (w in expanded)
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
        w = simple_reflection(rs, w, i)
    assert ch.multiplicity(rs, w) == 1


def test_evaluation_order_independence(monkeypatch, b2, g2):
    # weights of one height layer never reference each other, so any order
    # within a layer gives the same table
    reordered = False
    for rs, lam in [(b2, (2, 2)), (g2, (2, 1))]:
        reference = freudenthal(rs, lam).mults
        listed = freudenthal_candidates(rs, lam, 0, 0)
        assert [mu for _, mu, _ in listed] == dominant_weights_below(rs, lam)[1:]
        layers: dict[int, list] = {}
        for d, mu, gamma in listed:
            diff = tuple(a - b for a, b in zip(lam, mu))
            coords = [divmod(x, rs.lattice_index) for x in rs.root_coords(diff)]
            assert d == 0 and coords == [(g, 0) for g in gamma]
            layers.setdefault(sum(gamma), []).append((d, mu, gamma))
        for seed in (1, 7, 42):
            rng = Random(seed)
            candidates = []
            for h in sorted(layers):
                layer = layers[h][:]
                rng.shuffle(layer)
                candidates += layer
            reordered |= candidates != listed
            with monkeypatch.context() as patch:
                patch.setattr(charcalc, "freudenthal_candidates", lambda *args: candidates)
                assert freudenthal_slices(rs, lam, 0, 0) == [reference]
    assert reordered


def _orbit_by_bfs(rs, root, zeros):
    """The orbit of a root (fundamental coordinates) under the simple
    reflections on the nodes ``zeros``."""
    seen, todo = {root}, [root]
    for u in todo:
        for i in zeros:
            v = simple_reflection(rs, u, i)
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4", "F4"])
def test_stabiliser_root_orbits_partition_the_roots(name):
    rs = build_root_system(name)
    positive = set(rs.positive_roots_fund)
    roots = positive | {tuple(-x for x in r) for r in positive}
    indexed = list(rs.positive_roots_fund) + [tuple(-x for x in r) for r in rs.positive_roots_fund]
    for size in range(rs.rank + 1):
        for zeros in combinations(range(rs.rank), size):
            modulo_sign, every = root_strings(rs).root_orbits(tuple(i not in zeros for i in range(rs.rank)))
            for orbits, universe, fold in ((every, roots, False), (modulo_sign, positive, True)):
                covered = set()
                for t, length in orbits:
                    top = indexed[t]
                    assert top in universe and all(top[i] >= 0 for i in zeros), (name, zeros, top)
                    orbit = _orbit_by_bfs(rs, top, zeros)
                    if fold:  # {alpha, -alpha} counted once, as its positive member
                        orbit = {r if r in positive else tuple(-x for x in r) for r in orbit}
                    assert len(orbit) == length and not orbit & covered, (name, zeros, top)
                    covered |= orbit
                assert covered == universe, (name, zeros)
                assert sum(length for _, length in orbits) == len(universe)


EXCEPTIONAL_E6_WEIGHTS = [
    (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
    (1, 0, 1, 0, 0, 0), (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1),
    (0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 2, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0),
]


@pytest.mark.parametrize(
    "name,lam",
    [("E6", w) for w in EXCEPTIONAL_E6_WEIGHTS]
    + [("E6", (1,) * 6), ("D4", (2, 2, 2, 2)), ("F4", (1, 1, 1, 1)),
       ("B4", (0, 0, 0, 4)), ("B4", (2, 0, 0, 1)), ("C4", (0, 3, 0, 0)), ("C4", (2, 0, 0, 1)),
       ("D5", (0, 2, 0, 0, 0)), ("D5", (1, 0, 0, 0, 2))],
)
def test_orbit_grouped_kernel_matches_the_all_roots_oracle(name, lam):
    rs = build_root_system(name)
    candidates = freudenthal_candidates(rs, lam, 0, 0)
    (expected,) = freudenthal_slices_by_all_roots(rs, lam, candidates, 0, 0)
    (table,) = freudenthal_slices(rs, lam, 0, 0)
    assert list(table.items()) == list(expected.items())


def test_a_computed_table_is_checked_against_the_weyl_dimension(monkeypatch, b2):
    def dropping(rs, lam, depth, lvl):
        slices = freudenthal_slices(rs, lam, depth, lvl)
        del slices[0][(0, 0)]
        return slices

    clear_memory_cache()
    monkeypatch.setattr("rho_tensor.charcalc.freudenthal_slices", dropping)
    with pytest.raises(InvariantError, match=r"dimension 76, but the Weyl dimension is 81"):
        freudenthal(b2, (2, 2))
    clear_memory_cache()


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


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_cache_load_of_a_regular_weight_builds_no_orbit(tmp_path, monkeypatch, name):
    # the dimension check on load counts |W mu| from root heights: E8 rho has
    # 696,729,600 orbit elements, which no load may walk
    def no_walk(*_):
        raise AssertionError("CharCache.load walked a Weyl orbit")

    monkeypatch.setattr("rho_tensor.charcalc.weyl_orbit", no_walk)
    monkeypatch.setattr("rho_tensor.rootdata.weyl_orbit", no_walk)
    rs = build_root_system(name)
    zero = (0,) * rs.rank
    order = {"E7": 2903040, "E8": 696729600}[name]
    # not the character of V(rho), but a table whose dimension adds up
    table = {rs.rho: 1, zero: rs.weyl_dimension(rs.rho) - order}
    cache = CharCache(tmp_path)
    cache.store(rs, rs.rho, table)
    start = time.perf_counter()
    assert cache.load(rs, rs.rho) == table
    cache.store(rs, rs.rho, {**table, zero: table[zero] + 1})
    assert cache.load(rs, rs.rho) is None
    assert time.perf_counter() - start < 2.0


def test_cache_rejects_corrupt_file(tmp_path, b2):
    cache = CharCache(tmp_path)
    (tmp_path / "B2.1_1.char").write_text("garbage header\n0,0:1\n")
    assert cache.load(b2, (1, 1)) is None


def test_cache_load_skips_blank_lines(tmp_path, b2):
    table = freudenthal(b2, (1, 1)).mults
    cache = CharCache(tmp_path)
    cache.store(b2, (1, 1), table)
    path = tmp_path / "B2.1_1.char"
    header, *body = path.read_text().splitlines()
    path.write_text("\n".join([header, "", *body, "  "]) + "\n")
    assert cache.load(b2, (1, 1)) == table


def test_cache_load_needs_the_highest_weight_once(tmp_path, b2):
    # 16 times the zero weight has the dimension of V(rho), but it is not its character
    cache = CharCache(tmp_path)
    cache.store(b2, (1, 1), {(0, 0): 16})
    assert b2.weyl_dimension((1, 1)) == 16
    assert cache.load(b2, (1, 1)) is None
