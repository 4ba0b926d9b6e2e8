"""Certificates for V(rho) (x) V(rho) from fundamental pairings, and the
choice between them and the Klimyk pass in ``verify_conjecture``."""

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
        patch.setattr(harness, "_certify_first", lambda rs: certify_first)
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
    cert = certify_conjecture(rs, 1, 1)
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
    cert = certify_conjecture(rs, 1, 1)
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
    assert certify_conjecture(rs, 1, 1).residue == [(2, 0, 4, 0)]
    calls = spy_klimyk(monkeypatch)
    forced = report(monkeypatch, rs, 1, 1, True)
    assert (rs.rho, rs.rho) in calls
    assert vars(forced) == vars(report(monkeypatch, rs, 1, 1, False))
    assert vars(verify_conjecture(rs, 1, 1)) == vars(forced)


def test_a_sum_outside_the_predicted_set_raises(monkeypatch):
    # a predicted set that lost the weights rho + nu, nu in the orbit of the
    # lowest dominant weight of V(rho), while each is still a certified sum
    rs = build_root_system("F4")
    below = harness.dominant_weights_below

    def lossy(rs, lam):
        found = below(rs, lam)
        return found[:-1] if lam == rs.rho else found

    monkeypatch.setattr(harness, "dominant_weights_below", lossy)
    with pytest.raises(InvariantError, match="so a component of rho \\(x\\) rho, but lies outside the predicted set"):
        certify_conjecture(rs, 1, 1)


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
    assert harness._certify_first(build_root_system(name)) is certify_first


@pytest.mark.parametrize(
    "name,m,n",
    [("B3", 1, 1), ("F4", 1, 0), ("F4", 2, 0), ("F4", 2, 1), ("F4", 3, 0), ("D5", 2, 1), ("E6", 1, 0),
     ("C4", 2, 2)],
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


@pytest.mark.parametrize("m,n", [(1, 0), (2, 1), (2, 2), (0, 0)])
def test_certify_conjecture_covers_rho_rho_only(m, n):
    with pytest.raises(AlgebraError, match=f"^certify_conjecture covers m = n = 1 only, got m={m}, n={n}$"):
        certify_conjecture(build_root_system("F4"), m, n)


def test_certify_conjecture_refuses_an_affine_type():
    with pytest.raises(AlgebraError, match="requires a finite-type algebra"):
        certify_conjecture(build_root_system("F4~"), 1, 1)
