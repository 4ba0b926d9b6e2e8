"""Certificates for V(rho) (x) V(rho) from fundamental pairings, for the
diagonal V(n rho) (x) V(n rho) from components of V(rho) (x) V(rho), and the
choice between them and the Klimyk pass in ``verify_conjecture``."""

from operator import add

import pytest

from rho_tensor import harness
from rho_tensor.harness import certify_conjecture, verify_conjecture
from rho_tensor.rootdata import AlgebraError, InvariantError, build_root_system
from rho_tensor.tensor import klimyk

CERTIFIED = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4"]


def omega(rs, i):
    return tuple(int(k == i) for k in range(rs.rank))


def report(monkeypatch, rs, m, n, certify_first):
    """``verify_conjecture`` with the choice of path forced."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_certify_first", lambda rs, n: certify_first)
        return verify_conjecture(rs, m, n)


def spy_klimyk(monkeypatch):
    """Record the factors of every product the harness decomposes."""
    calls = []
    real = harness.klimyk

    def spy(rs, lam, mu, cache=None):
        calls.append((lam, mu))
        return real(rs, lam, mu, cache)

    monkeypatch.setattr(harness, "klimyk", spy)
    return calls


@pytest.mark.parametrize("name", CERTIFIED)
def test_certificates_are_sums_of_fundamental_pair_components(name):
    rs = build_root_system(name)
    cert = certify_conjecture(rs, 1)
    assert cert.certificates
    pairs = {}
    for lam, (pairing, parts) in cert.certificates.items():
        assert sorted(pairing) == list(range(rs.rank))
        assert tuple(map(sum, zip(*parts))) == lam
        for i, (j, part) in enumerate(zip(pairing, parts)):
            if (i, j) not in pairs:
                pairs[i, j] = klimyk(rs, omega(rs, i), omega(rs, j)).components
            assert part in pairs[i, j], (lam, i, j, part)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4"])
def test_fundamental_pair_components_lie_within_the_packing_bound(name):
    # certify_conjecture packs its parts for <2 rho, theta^vee>, as the
    # descent of D(2 rho) packs (and checks) the weights it searches for
    rs = build_root_system(name)
    bound = 2 * sum(rs.dual_marks)
    for i in range(rs.rank):
        for j in range(i, rs.rank):
            comps = klimyk(rs, omega(rs, i), omega(rs, j)).components
            assert max(map(max, comps)) <= bound, (i, j, comps)


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_set_and_residue_make_up_the_translated_set(monkeypatch, name):
    rs = build_root_system(name)
    cert = certify_conjecture(rs, 1)
    translated = klimyk(rs, rs.rho, rs.rho).translated
    assert cert.predicted == sorted(translated)
    assert cert.residue == sorted(translated - cert.certificates.keys())
    assert cert.certificates.keys() <= translated
    if not cert.residue:
        by_pass = report(monkeypatch, rs, 1, 1, False)
        by_certificates = report(monkeypatch, rs, 1, 1, True)
        assert vars(by_certificates) == vars(by_pass)


def test_b4_leaves_one_residue_and_the_pass_decides(monkeypatch):
    rs = build_root_system("B4")
    assert certify_conjecture(rs, 1).residue == [(2, 0, 4, 0)]
    calls = spy_klimyk(monkeypatch)
    forced = report(monkeypatch, rs, 1, 1, True)
    assert (rs.rho, rs.rho) in calls
    assert vars(forced) == vars(report(monkeypatch, rs, 1, 1, False))
    assert vars(verify_conjecture(rs, 1, 1)) == vars(forced)


def lossy_descent(monkeypatch, n):
    """A descent of ``n rho`` that loses its least weight, so that the split
    loses the weights ``n rho + nu``, ``nu`` in that weight's orbit, from the
    predicted set; and one of ``2n rho`` with a target above ``2n rho``
    added, which no sum reaches, so that a target is missed and the split
    runs."""
    below = harness.dominant_weights_below

    def lossy(rs, lam):
        found = below(rs, lam)
        if lam == (n,) * rs.rank:
            return found[1:]
        if lam == (2 * n,) * rs.rank:
            return [*found, (2 * n,) * (rs.rank - 1) + (2 * n + 1,)]
        return found

    monkeypatch.setattr(harness, "dominant_weights_below", lossy)


def test_a_sum_outside_the_predicted_set_raises(monkeypatch):
    # a predicted set that lost the weights rho + nu, nu in the orbit of the
    # lowest dominant weight of V(rho), while each is still a certified sum
    rs = build_root_system("F4")
    lossy_descent(monkeypatch, 1)
    with pytest.raises(InvariantError, match="so a component of rho \\(x\\) rho, but lies outside the predicted set"):
        certify_conjecture(rs, 1)


def test_f4_rho_rho_runs_no_pass(monkeypatch):
    rs = build_root_system("F4")
    calls = spy_klimyk(monkeypatch)
    rep = verify_conjecture(rs, 1, 1)
    assert calls and (rs.rho, rs.rho) not in calls
    fundamental = {omega(rs, i) for i in range(rs.rank)}
    assert all(lam in fundamental and mu in fundamental for lam, mu in calls)
    assert vars(rep) == vars(report(monkeypatch, rs, 1, 1, False))


@pytest.mark.parametrize("name,certify_first", [("C4", True), ("C5", True), ("C6", False), ("C7", False)])
def test_type_c_is_certified_below_c6_only(name, certify_first):
    # from C6 on the fundamental pairings leave a residue (C6 two weights, C7
    # nine), so the certificates would only add to the pass
    assert harness._certify_first(build_root_system(name), 1) is certify_first


@pytest.mark.parametrize(
    "name,m,n",
    [("B3", 1, 1), ("F4", 1, 0), ("F4", 2, 0), ("F4", 2, 1), ("F4", 3, 0), ("D5", 2, 1), ("E6", 1, 0),
     ("A3", 2, 2), ("B2", 3, 3), ("G2", 3, 3)],
)
def test_every_other_case_runs_the_pass(monkeypatch, name, m, n):
    rs = build_root_system(name)
    calls = spy_klimyk(monkeypatch)
    monkeypatch.setattr(harness, "certify_conjecture", None)  # any call fails
    verify_conjecture(rs, m, n)
    assert calls == [((m,) * rs.rank, (n,) * rs.rank)]


@pytest.mark.parametrize("m,n", [(1, 2), (1, -1), (0, 1), (-1, -1)])
def test_bad_m_n_are_refused_before_the_choice_of_path(monkeypatch, m, n):
    calls = spy_klimyk(monkeypatch)
    monkeypatch.setattr(harness, "_certify_first", None)  # any call fails
    with pytest.raises(AlgebraError, match=f"^conjecture requires m >= n >= 0, got m={m}, n={n}$"):
        verify_conjecture(build_root_system("F4"), m, n)
    assert calls == []


@pytest.mark.parametrize("n", [0, -1])
def test_certify_conjecture_covers_the_diagonal_only(n):
    with pytest.raises(AlgebraError, match=f"^certify_conjecture covers n >= 1 only, got n={n}$"):
        certify_conjecture(build_root_system("F4"), n)


def test_certify_conjecture_refuses_an_affine_type():
    with pytest.raises(AlgebraError, match="requires a finite-type algebra"):
        certify_conjecture(build_root_system("F4~"), 1)


DIAGONAL = [
    (name, n)
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2"]
    for n in ((2, 3) if name not in ("B4", "C4") else (2,))
]


@pytest.mark.parametrize("name,n", DIAGONAL)
def test_diagonal_certificates_are_sums_of_rho_rho_components(name, n):
    rs = build_root_system(name)
    cert = certify_conjecture(rs, n)
    assert cert.certificates
    components = klimyk(rs, rs.rho, rs.rho).components
    for lam, (pairing, parts) in cert.certificates.items():
        assert pairing == () and len(parts) == n
        assert tuple(map(sum, zip(*parts))) == lam
        assert all(part in components for part in parts), (lam, parts)


@pytest.mark.parametrize("name,n", DIAGONAL)
def test_diagonal_certified_set_and_residue_make_up_the_translated_set(monkeypatch, name, n):
    rs = build_root_system(name)
    cert = certify_conjecture(rs, n)
    translated = klimyk(rs, (n,) * rs.rank, (n,) * rs.rank).translated
    assert cert.predicted == sorted(translated)
    assert sorted(cert.certificates.keys() | set(cert.residue)) == sorted(translated)
    assert cert.residue == sorted(translated - cert.certificates.keys())
    if not cert.residue:
        by_pass = report(monkeypatch, rs, n, n, False)
        by_certificates = report(monkeypatch, rs, n, n, True)
        assert vars(by_certificates) == vars(by_pass)


@pytest.mark.parametrize("name,n", [("B3", 2), ("C3", 3), ("F4", 2)])
def test_diagonal_cases_run_no_n_rho_product(monkeypatch, name, n):
    rs = build_root_system(name)
    calls = spy_klimyk(monkeypatch)
    rep = verify_conjecture(rs, n, n)
    assert rep.verdict == "HOLDS" and rep.present == rep.predicted == harness.predicted_weights(rs, n, n)
    assert calls and ((n,) * rs.rank, (n,) * rs.rank) not in calls
    # only the (1, 1) case's products: rho (x) rho, or fundamental pairs
    assert all(max(lam) <= 1 and max(mu) <= 1 for lam, mu in calls)


def test_a_sum_of_rho_rho_components_outside_the_predicted_set_raises(monkeypatch):
    # a predicted set that lost the weights 2 rho + nu, nu in the orbit of
    # the lowest dominant weight of V(2 rho), while each is still a sum of
    # two components of rho (x) rho (B3 decides (1, 1) by the pass, which
    # the lossy descent does not reach)
    rs = build_root_system("B3")
    lossy_descent(monkeypatch, 2)
    with pytest.raises(InvariantError, match="so a component of 2 rho \\(x\\) 2 rho, but lies outside"):
        certify_conjecture(rs, 2)


ORACLE = [
    (name, n)
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5", "G2", "F4"]
    for n in ((1, 2, 3) if name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2") else (1, 2))
]


@pytest.mark.parametrize("name,n", ORACLE)
def test_the_predicted_set_is_the_split_of_d_2n_rho(name, n):
    # with every target certified, the predicted set is D(2n rho) with no
    # split; the split is the reference it must agree with
    rs = build_root_system(name)
    cert = certify_conjecture(rs, n)
    predicted = harness.predicted_weights(rs, n, n)
    assert cert.predicted == predicted
    assert cert.certificates.keys() <= set(predicted)


def spy_split(monkeypatch):
    """Count the calls of ``_predicted_and_rest``."""
    calls = []
    real = harness._predicted_and_rest

    def spy(rs, m, n):
        calls.append((m, n))
        return real(rs, m, n)

    monkeypatch.setattr(harness, "_predicted_and_rest", spy)
    return calls


@pytest.mark.parametrize("name,n", [("F4", 1), ("B3", 2), ("C3", 3)])
def test_a_fully_certified_case_runs_no_split(monkeypatch, name, n):
    rs = build_root_system(name)
    calls = spy_split(monkeypatch)
    cert = certify_conjecture(rs, n)
    assert calls == [] and cert.residue == []
    assert cert.predicted == harness.dominant_weights_below(rs, (2 * n,) * rs.rank)


def test_a_missed_target_runs_the_split_once(monkeypatch):
    rs = build_root_system("B5")
    calls = spy_split(monkeypatch)
    cert = certify_conjecture(rs, 1)
    assert calls == [(1, 1)]
    assert cert.residue == [(1, 1, 0, 5, 0), (1, 3, 0, 4, 0), (2, 0, 6, 0, 0), (3, 0, 0, 5, 0), (3, 2, 0, 4, 0)]


IDENTITY_CASES = [("A2", 4), ("B2", 4), ("G2", 3), ("A3", 3), ("B3", 3), ("C3", 3), ("A4", 2), ("B4", 2), ("D4", 2)]


@pytest.mark.parametrize("name,top", IDENTITY_CASES)
def test_the_diagonal_predicted_set_is_the_n_fold_sum_of_d_2rho(name, top):
    # D(x): the dominant weights <= x. The predicted set of (n, n) is D(2n
    # rho), and D(2n rho) is D(2 rho) + ... + D(2 rho), n times: so once (1,
    # 1) HOLDS, every predicted weight of (n, n) has a diagonal certificate
    rs = build_root_system(name)
    two = set(harness.dominant_weights_below(rs, (2,) * rs.rank))
    sums = two
    for n in range(2, top + 1):
        below = harness.dominant_weights_below(rs, (2 * n,) * rs.rank)
        assert harness.predicted_weights(rs, n, n) == sorted(below)
        sums = {tuple(map(add, a, b)) for a in sums for b in two}
        assert sums == set(below), (name, n)
