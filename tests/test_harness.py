"""Conjecture scans: predicted sets, verdicts, counterexample enumeration."""

import pytest

from rho_tensor import harness
from rho_tensor.charcalc import dominant_weights_below
from rho_tensor.harness import (
    DEPTH_LIMITED,
    HOLDS,
    naive_condition_scan,
    predicted_weights,
    scan_all,
    support_containment_check,
    verify_affine_conjecture,
    verify_conjecture,
)
from rho_tensor.rootdata import AlgebraError, build_root_system
from rho_tensor.tensor import klimyk

from oracles import predicted_weights_by_descent
from reference_tables import B2_5RHO_2RHO, G2_3RHO_4RHO, G2_5RHO_2RHO


def test_predicted_weights_n_zero(b2):
    assert predicted_weights(b2, 4, 0) == [(4, 4)]


def test_predicted_weights_b2_reference(b2):
    assert set(predicted_weights(b2, 5, 2)) == set(B2_5RHO_2RHO)
    assert len(predicted_weights(b2, 5, 2)) == 34


def test_predicted_weights_g2_reference(g2):
    assert set(predicted_weights(g2, 5, 2)) == set(G2_5RHO_2RHO)
    assert set(predicted_weights(g2, 4, 3)) == set(G2_3RHO_4RHO)
    assert len(predicted_weights(g2, 4, 3)) == 112


def test_predicted_weights_requires_m_ge_n(b2):
    for m, n in [(1, 2), (1, -1)]:
        for fn, name in ((predicted_weights, "predicted_weights"), (verify_conjecture, "conjecture")):
            with pytest.raises(AlgebraError, match=f"^{name} requires m >= n >= 0"):
                fn(b2, m, n)


@pytest.mark.parametrize(
    "name,max_sum",
    [(name, 6) for name in ("A1", "A2", "A3", "B2", "B3", "C3", "G2")] + [("D4", 4), ("F4", 3)],
)
def test_predicted_set_matches_the_descent_oracle(name, max_sum):
    # predicted_weights, built from descents with no pass, is the pass's translated set
    rs = build_root_system(name)
    for total in range(max_sum + 1):
        for n in range(total // 2 + 1):
            m = total - n
            assert verify_conjecture(rs, m, n).predicted == predicted_weights_by_descent(rs, m, n)
            translated = klimyk(rs, (m,) * rs.rank, (n,) * rs.rank).translated
            assert predicted_weights(rs, m, n) == sorted(translated), (m, n)


def test_verify_conjecture_reference_cases(b2, g2):
    rep = verify_conjecture(b2, 5, 2)
    assert rep.verdict == HOLDS and rep.missing == [] and len(rep.present) == 34
    rep = verify_conjecture(g2, 4, 3)
    assert rep.verdict == HOLDS and len(rep.present) == 112
    rep = verify_conjecture(g2, 3, 0)
    assert rep.verdict == HOLDS and rep.present == [(3, 3)]


def test_verify_affine_conjecture_sl2(sl2_affine):
    rep = verify_affine_conjecture(sl2_affine, 2, 1, 4)
    assert (rep.algebra, rep.m, rep.n, rep.depth, rep.verdict) == ("A1~", 2, 1, 4, DEPTH_LIMITED)
    # m rho + beta for beta = -rho, rho at depth 0 and 3 rho at depth 1; only rho is dominant
    expected = [((1,), 0, False), ((3,), 0, True), ((5,), 1, False)]
    assert [(e["weight"], e["depth"], e["beta_dominant"]) for e in rep.predicted] == expected
    assert rep.present == rep.predicted
    assert rep.missing == [] and rep.unexpected == []


def test_verify_affine_conjecture_checks_its_arguments(a1, sl2_affine):
    with pytest.raises(AlgebraError, match=r"conjecture on an affine type requires n >= 1, got n=0"):
        verify_affine_conjecture(sl2_affine, 1, 0, 4)
    with pytest.raises(AlgebraError, match="requires an untwisted affine algebra"):
        verify_affine_conjecture(a1, 2, 1, 4)


@pytest.mark.parametrize("name,m,n,depth", [("A2~", 1, 2, 2), ("B2~", 1, 2, 2), ("G2~", 1, 2, 1), ("A1~", 0, 1, 4)])
def test_verify_affine_conjecture_rejects_m_below_n_before_any_work(monkeypatch, name, m, n, depth):
    def no_work(*args):
        raise AssertionError("the arguments are checked before any work")

    monkeypatch.setattr(harness, "predicted_components", no_work)
    monkeypatch.setattr(harness, "truncated_tensor", no_work)
    with pytest.raises(AlgebraError, match=rf"^conjecture on an affine type requires m >= n >= 1, got m={m}, n={n}$"):
        verify_affine_conjecture(build_root_system(name), m, n, depth)


def test_naive_scan_b2_counterexample_list(b2):
    absent = naive_condition_scan(b2, 5, 2)
    assert len(absent) == 16
    assert (0, 1) in absent
    # disjoint from the support, and together they partition the cone slice
    support = klimyk(b2, (5, 5), (2, 2)).support()
    assert support.isdisjoint(absent)
    assert support | set(absent) == set(dominant_weights_below(b2, (7, 7)))


def test_naive_scan_diagonal_sl2_is_empty(a1):
    for n in range(0, 4):
        assert naive_condition_scan(a1, n, n) == []


def test_naive_scan_n_zero(b2):
    absent = naive_condition_scan(b2, 3, 0)
    below = dominant_weights_below(b2, (3, 3))
    assert set(absent) == set(below) - {(3, 3)}


@pytest.mark.parametrize("m,n", [(1, 2), (2, -1)])
def test_naive_scan_requires_m_ge_n_ge_0(b2, m, n):
    with pytest.raises(AlgebraError, match=f"naive_condition_scan requires m >= n >= 0, got m={m}, n={n}"):
        naive_condition_scan(b2, m, n)


def test_support_containment(a1, g2):
    for m, n in [(5, 2), (4, 3), (3, 0)]:
        assert support_containment_check(g2, m, n).holds
    for m in range(1, 6):
        for n in range(m):
            assert support_containment_check(a1, m, n).holds
    # m = n + 1 extreme holds by commutativity
    assert support_containment_check(a1, 3, 2).holds
    with pytest.raises(AlgebraError):
        support_containment_check(a1, 2, 2)


def test_scan_all_small(a1):
    reports = scan_all(["A1"], 4)
    assert len(reports) == 9
    assert all(r.verdict == HOLDS for r in reports)
    assert scan_all([], 3) == []


def test_scan_all_rank2_includes_reference_cases():
    reports = scan_all(["B2", "G2"], 7)
    key = {(r.algebra, r.m, r.n): r for r in reports}
    assert key[("B2", 5, 2)].verdict == HOLDS
    assert key[("G2", 5, 2)].verdict == HOLDS
    assert all(r.verdict == HOLDS for r in reports)


def test_scan_all_rejects_affine():
    with pytest.raises(AlgebraError):
        scan_all(["A1~"], 2)


def test_scan_all_records_per_case_errors(monkeypatch):
    import rho_tensor.harness as hn

    def boom(rs, m, n, cache=None):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(hn, "verify_conjecture", boom)
    reports = hn.scan_all(["A1"], 1)
    assert all(r.verdict == "ERROR" and r.error == "synthetic failure" for r in reports)


def test_scan_all_builds_each_root_system_once(monkeypatch):
    import rho_tensor.harness as hn

    built = []

    def counting_build(aid):
        built.append(str(aid))
        return build_root_system(aid)

    monkeypatch.setattr(hn, "build_root_system", counting_build)
    reports = hn.scan_all(["A1", "B2"], 3)
    assert len(reports) == 12 and all(r.verdict == HOLDS for r in reports)
    assert built == ["A1", "B2"]


def test_scan_all_records_a_failed_build_per_case(monkeypatch):
    import rho_tensor.harness as hn

    def broken_build(aid):
        raise RuntimeError(f"no datum for {aid}")

    monkeypatch.setattr(hn, "build_root_system", broken_build)
    reports = hn.scan_all(["A1"], 2)
    assert [(r.m, r.n) for r in reports] == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert all(r.verdict == "ERROR" and r.error == "no datum for A1" for r in reports)
