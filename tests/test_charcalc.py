"""Freudenthal character tables, weight-set queries, and the cache."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from operator import mul, sub
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import rho_tensor.charcalc as charcalc
from rho_tensor.affine import AffineWeight, affine_freudenthal
from rho_tensor.charcalc import (
    CharCache,
    clear_memory_cache,
    dominant_weights_below,
    freudenthal,
    freudenthal_candidates,
    freudenthal_slices,
)
from rho_tensor.rootdata import AlgebraError, InvariantError, build_root_system

import oracles
from oracles import (
    affine_candidates_by_box,
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
    theta_b2 = tuple(b2.fund_coords_of_root(b2.marks))
    assert freudenthal(b2, theta_b2).mults[(0, 0)] == 2
    theta_g2 = tuple(g2.fund_coords_of_root(g2.marks))
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
     ("E6", (1, 0, 0, 1, 0, 0)), ("D4", (1, 1, 1, 1))],
)
def test_descent_matches_box_walk(name, lam):
    rs = build_root_system(name)
    assert dominant_weights_below(rs, lam) == dominant_weights_by_box(rs, lam)


@pytest.mark.parametrize("name,count", [("E6", 226), ("E7", 1464)])
def test_descent_counts_at_rho(name, count):
    rs = build_root_system(name)
    below = dominant_weights_below(rs, rs.rho)
    assert len(below) == len(set(below)) == count
    assert below[0] == rs.rho and all(rs.is_dominant(mu) for mu in below)
    heights = [rs.height(tuple(map(sub, rs.rho, mu))) for mu in below]
    assert list(zip(heights, below)) == sorted(zip(heights, below))


def _weights_up_to_two(name):
    rank = build_root_system(name).rank
    return st.tuples(st.just(name), st.tuples(*[st.integers(0, 2)] * rank))


def _descent_within(rs, lam, lines=10**6):
    """:func:`dominant_weights_below`, failing once it has run ``lines`` lines
    of its own body, so that a faulty packing fails the test in bounded time
    even if it made the walk run long. The lines are counted by a
    ``sys.settrace`` hook, so a runaway descent fails at the same point on
    every run, as an ``AssertionError`` raised inside the descent's frame.
    The largest descent tested, from F4 ``2rho``, runs 35,638 lines."""
    code = dominant_weights_below.__code__
    left = [lines]

    def count(frame, event, arg):
        if event == "line":
            left[0] -= 1
            if left[0] < 0:
                raise AssertionError(f"the descent below {lam} ran past {lines} lines")
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        return dominant_weights_below(rs, lam)
    finally:
        sys.settrace(previous)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4"]).flatmap(_weights_up_to_two))
def test_descent_takes_a_root_exactly_when_the_difference_is_dominant(case):
    # the first step of the descent from mu: mu - alpha is listed exactly when
    # it is dominant, whichever coordinates of alpha are positive
    name, mu = case
    rs = build_root_system(name)
    below = set(_descent_within(rs, mu))
    for fund in rs.positive_roots_fund:
        nu = tuple(map(sub, mu, fund))
        assert (nu in below) == (min(nu) >= 0), (mu, fund)


# weights on which a packing one bit narrower than their bound asks for drops
# dominant weights from the walk (A1 ``(8,)`` does not fit it at all): a step
# from a coordinate ``mu_i`` with ``mu_i - least >= 2**width`` carries out of
# its field, and the guard test refuses it. A check of the first weight and of
# ``<lam, theta^vee>`` alone returns a short list on each of the others
NARROW_PACKINGS = [
    ("A1", (8,)), ("A3", (0, 2, 7)), ("B2", (2, 6)), ("G2", (2, 4)), ("D4", (0, 4, 0, 4)), ("F4", (0, 4, 0, 0)),
]


@pytest.mark.parametrize("name,lam", NARROW_PACKINGS)
def test_descent_with_a_packing_one_bit_too_narrow_raises(monkeypatch, name, lam):
    # the memo entry for the width lam's bound asks for holds the packing of
    # one bit less: the descent raises, instead of returning a short list
    rs = build_root_system(name)
    width = rs.packing(sum(map(mul, rs.dual_marks, lam))).width
    narrow = rs.packing((1 << width - 1) - 1 + rs.least_root_coord)  # the largest bound of one bit less
    assert narrow.width == width - 1
    monkeypatch.setitem(rs._packings, width, narrow)
    start = time.perf_counter()
    with pytest.raises(InvariantError, match="bit fields"):
        _descent_within(rs, lam)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ["A1", "F4"])
def test_descent_with_a_code_that_carries_past_the_top_field_raises(monkeypatch, name):
    # the first root's code less 2**(rank*(width+1)) keeps every guard bit of
    # a dominant step but climbs out of the packing, on every step it takes:
    # the walk raises at the first, instead of running without end
    rs = build_root_system(name)
    lam = tuple(2 * x for x in rs.rho)
    packing = rs.packing(sum(map(mul, rs.dual_marks, lam)))
    (code, ht), *rest = packing.codes
    carried = (code - (packing.place[0] << packing.width + 1), ht)
    monkeypatch.setitem(rs._packings, packing.width, packing._replace(codes=(carried, *rest)))
    with pytest.raises(InvariantError, match="left its packing"):
        _descent_within(rs, lam)


@st.composite
def _weights_at_bound(draw, rs, bound):
    """Dominant weights ``lam`` with ``<lam, theta^vee> == bound``, the rest of
    the bound on the first node of dual mark 1."""
    marks = rs.dual_marks
    last = marks.index(1)
    lam = [0] * rs.rank
    for i, a in enumerate(marks):
        if i != last:
            lam[i] = draw(st.integers(0, bound // a))
            bound -= a * lam[i]
    lam[last] = bound
    return tuple(lam)


def _at_width_boundary(rs, k, offset, extra=0):
    """A strategy for weights whose bound, raised by ``extra``, less
    ``least_root_coord`` is ``2**k + offset``, ``k >= 3``: the packing's width
    is ``k`` below ``2**k`` and ``k + 1`` from it on."""
    bound = 2**k + offset + rs.least_root_coord - extra
    assume(bound >= 0)
    assert rs.packing(bound + extra).width == (k if offset < 0 else k + 1)
    return _weights_at_bound(rs, bound)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A1", "A2", "B2", "G2", "B3"]), st.integers(3, 5), st.sampled_from([-1, 0, 1]), st.data())
def test_descent_at_the_width_boundaries_matches_box_walk(name, k, offset, data):
    rs = build_root_system(name)
    lam = data.draw(_at_width_boundary(rs, k, offset))
    assert dominant_weights_below(rs, lam) == dominant_weights_by_box(rs, lam)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A1~", "A2~", "B2~", "G2~"]), st.integers(1, 3), st.integers(3, 5), st.sampled_from([-1, 0, 1]),
    st.data(),
)
def test_candidates_at_the_width_boundaries_match_box_walk(name, depth, k, offset, data):
    # the candidates come from the descent below the top lam + depth*theta,
    # whose bound is lam's plus 2*depth
    rs = build_root_system(name)
    lam = data.draw(_at_width_boundary(rs, k, offset, 2 * depth))
    assert freudenthal_candidates(rs, lam, depth, 0) == affine_candidates_by_box(rs, lam, depth)


@pytest.mark.parametrize("term", sorted(oracles._signed_orbit(build_root_system("B2"), (1, 1))))
def test_weyl_formula_oracle_raises_on_a_broken_denominator(monkeypatch, term):
    # a denominator missing one term of the signed orbit of rho must stop the
    # division, not run it forever
    rs = build_root_system("B2")
    signed = oracles._signed_orbit

    def broken(rs, w):
        out = signed(rs, w)
        if w == rs.rho:
            del out[term]
        return out

    monkeypatch.setattr(oracles, "_signed_orbit", broken)
    start = time.perf_counter()
    with pytest.raises(InvariantError, match="lowest weight|does not cancel"):
        character_by_weyl_formula(rs, (1, 2))
    assert time.perf_counter() - start < 1


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


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4", "E6"])
def test_stabiliser_root_orbits_partition_the_roots(name):
    # the orbits found by BFS, in the order of their first positive root, each
    # as its highest (J-dominant) root and its length, modulo sign; over all
    # roots an orbit off Phi_J is followed by its negative, listed by the
    # negative of its lowest root, and an orbit in Phi_J holds both signs
    rs = build_root_system(name)
    index = {r: t for t, r in enumerate(rs.positive_roots_fund)}
    for size in range(rs.rank + 1):
        for zeros in combinations(range(rs.rank), size):
            positive, every, seen = [], [], set()
            for root in rs.positive_roots_fund:
                if index[root] in seen:
                    continue
                orbit = _orbit_by_bfs(rs, root, zeros)
                members = sorted({index[r] if r in index else index[tuple(-x for x in r)] for r in orbit})
                seen.update(members)
                top, n = members[-1], len(members)
                assert all(rs.positive_roots_fund[top][i] >= 0 for i in zeros), (name, zeros, top)
                positive.append((top, n))
                if len(orbit) == 2 * n:
                    every.append((top, 2 * n))
                else:  # the negative of the lowest root is the negative orbit's J-dominant root
                    assert all(rs.positive_roots_fund[members[0]][i] <= 0 for i in zeros), (name, zeros)
                    every += [(top, n), (len(index) + members[0], n)]
            assert sum(n for _, n in positive) == len(index)
            nonzero = tuple(i not in zeros for i in range(rs.rank))
            assert rs.root_orbits(nonzero) == (positive, every), (name, zeros)


@pytest.mark.parametrize(
    "name,depth",
    [(name, 0) for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4", "E6"]]
    + [(name, depth) for name in ["A1~", "A2~", "B2~", "G2~", "A3~"] for depth in (1, 2)],
)
def test_rho_norm_gap_is_the_difference_of_norms(name, depth):
    # the O(rank) Freudenthal denominator against the invariant form, at the
    # highest weight and every candidate of the rho table
    rs = build_root_system(name)
    lam_rho = tuple(x + 1 for x in rs.rho)
    for _, mu, gamma in [(0, rs.rho, (0,) * len(rs.rho))] + freudenthal_candidates(rs, rs.rho, depth, 0):
        mu_rho = tuple(x + 1 for x in mu)
        assert rs.rho_norm_gap(rs.rho, mu, gamma) == rs.sip_ww(lam_rho, lam_rho) - rs.sip_ww(mu_rho, mu_rho), mu


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


@pytest.mark.parametrize("name,lam", [("B2", (2, 1)), ("E6", (1, 0, 0, 0, 0, 1))])
def test_a_table_loaded_from_disk_builds_no_descent(tmp_path, name, lam):
    # a command that only loads its table pays for no packing, root codes or strings
    cache = CharCache(tmp_path)
    clear_memory_cache()
    table = freudenthal(build_root_system(name), lam, cache).mults
    clear_memory_cache()
    rs = build_root_system(name)
    assert freudenthal(rs, lam, cache).mults == table
    assert not {"_packings", "root_codes", "_strings"} & vars(rs).keys()
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


THREAD_E6_WEIGHTS = [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
THREAD_AFFINE_WEIGHTS = [(1, 1, 1), (2, 1, 0), (0, 1, 2), (3, 0, 0)]
ROOT_DATA_MEMOS = ("_packings", "root_codes", "_strings", "_orbit_strings", "_orbit_sizes", "_alcove_points")


def test_threads_sharing_a_root_system_build_whole_root_data():
    # four threads start at once on one fresh E6, A2~ and B2~ system each, with
    # highest weights of their own, so they race to build the same root data:
    # every table, and every memo entry of each system, is the one a lone run
    # gives. Twenty rounds, as one round races too seldom to fail every time
    # on a memo that publishes an entry before it is built
    clear_memory_cache()
    alone = {name: build_root_system(name) for name in ("E6", "A2~", "B2~")}
    finite = {lam: freudenthal(alone["E6"], lam).mults for lam in THREAD_E6_WEIGHTS}
    affine = {
        (name, fund): affine_freudenthal(alone[name], AffineWeight(fund), 3).slices
        for name in ("A2~", "B2~") for fund in THREAD_AFFINE_WEIGHTS
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            clear_memory_cache()
            shared = {name: build_root_system(name) for name in alone}
            start = threading.Barrier(4, timeout=60)

            def run(k):
                start.wait()
                lam, fund = THREAD_E6_WEIGHTS[k], THREAD_AFFINE_WEIGHTS[k]
                same = [freudenthal(shared["E6"], lam).mults == finite[lam]]
                for name in ("A2~", "B2~"):
                    same.append(affine_freudenthal(shared[name], AffineWeight(fund), 3).slices == affine[(name, fund)])
                return same

            with ThreadPoolExecutor(4) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(run, k) for k in range(4)]]
            assert results == [[True] * 3] * 4
            for name, rs in shared.items():
                for memo in ROOT_DATA_MEMOS:
                    assert vars(rs).get(memo) == vars(alone[name]).get(memo), (name, memo)
    finally:
        sys.setswitchinterval(interval)
        clear_memory_cache()


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_cache_load_of_a_regular_weight_builds_no_orbit(tmp_path, monkeypatch, name):
    # the identities checked on load count |W mu| from root supports and heights:
    # E8 rho has 696,729,600 orbit elements, which no load may walk
    def no_walk(*_):
        raise AssertionError("CharCache.load walked a Weyl orbit")

    monkeypatch.setattr("rho_tensor.charcalc.weyl_orbit", no_walk)
    monkeypatch.setattr("rho_tensor.rootdata.weyl_orbit", no_walk)
    rs = build_root_system(name)
    zero = (0,) * rs.rank
    order = {"E7": 2903040, "E8": 696729600}[name]
    # not the character of V(rho), but a table that passes both identities of the
    # load check: the multiplicity of 2 omega_4 makes sum m |W mu| (mu|mu) add up
    # with that of omega_i, and the zero weight's makes the dimension add up
    i, m_i, size_i, m_4, size_4 = {
        "E7": (2, 32, 576, 600479950314869, 10080),
        "E8": (8, 512, 240, 1373623507548896198023940820396, 483840),
    }[name]
    omega_i = tuple(int(j == i - 1) for j in range(rs.rank))
    two_omega_4 = tuple(2 * int(j == 3) for j in range(rs.rank))
    rest = rs.weyl_dimension(rs.rho) - order - m_i * size_i - m_4 * size_4
    table = {rs.rho: 1, omega_i: m_i, two_omega_4: m_4, zero: rest}
    cache = CharCache(tmp_path)
    cache.store(rs, rs.rho, table)
    start = time.perf_counter()
    assert cache.load(rs, rs.rho) == table
    cache.store(rs, rs.rho, {**table, zero: table[zero] + 1})
    assert cache.load(rs, rs.rho) is None
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "name,lam",
    [("B2", (5, 5)), ("G2", (3, 3)), ("A3", (2, 2, 2)), ("C3", (1, 2, 3)), ("F4", (1, 1, 1, 1)),
     ("E6", (1, 1, 1, 1, 1, 1)), ("E6", (1, 0, 0, 0, 0, 1))],
)
def test_cache_load_accepts_the_true_table(tmp_path, name, lam):
    # both identities of the load check hold on every character table
    rs = build_root_system(name)
    table = freudenthal(rs, lam).mults
    cache = CharCache(tmp_path)
    cache.store(rs, lam, table)
    assert cache.load(rs, lam) == table


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
