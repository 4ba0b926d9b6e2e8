import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rho_tensor import affine, tensor
from rho_tensor.affine import affine_rho, truncated_tensor
from rho_tensor.charcalc import freudenthal
from rho_tensor.rootdata import RootSystem, build_root_system

RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


@pytest.fixture(scope="session")
def systems():
    return {name: build_root_system(name) for name in RANK_LE_3}


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="session")
def sl2_affine():
    return build_root_system("A1~")


@pytest.fixture(scope="session")
def sl3_affine():
    return build_root_system("A2~")


def _misplace_reflections(monkeypatch):
    reflect = RootSystem.to_dominant

    def misplaced(self, w):
        dom, sign = reflect(self, w)
        if min(w) < 0 and sign:
            dom = tuple(x + 1 for x in dom)
        return dom, sign

    monkeypatch.setattr(RootSystem, "to_dominant", misplaced)


@pytest.fixture
def misplaced_reflections(monkeypatch):
    """Make ``to_dominant`` return ``dom + rho`` for every weight off the
    dominant chamber, once the B2 ``V(rho)`` table it builds is memoised:
    Klimyk's reflected terms in ``B2 rho (x) rho`` then land outside the
    translated set."""
    freudenthal(build_root_system("B2"), (1, 1))
    _misplace_reflections(monkeypatch)


@pytest.fixture
def misplaced_affine_reflections(monkeypatch):
    """The same misplaced ``to_dominant``, once both factor tables of A2~
    ``rho (x) rho`` at depth 2 are memoised: the Klimyk passes against the
    Weyl-Kac numerator then add each reflected term at the wrong dominant
    weight."""
    rs = build_root_system("A2~")
    truncated_tensor(rs, affine_rho(rs), affine_rho(rs), 2)
    _misplace_reflections(monkeypatch)


def _perturb_sums(monkeypatch, d, w, by):
    numerator_sums = affine._numerator_sums

    def perturbed(*args):
        sums = numerator_sums(*args)
        sums[d][w] = sums[d].get(w, 0) + by
        return sums

    monkeypatch.setattr(affine, "_numerator_sums", perturbed)


@pytest.fixture
def lowered_top_of_product(monkeypatch):
    """Take 2 from the sum ``S`` at ``(2,2)``, depth 0, of every product: in
    A2~ ``rho (x) rho`` the component ``(2,2)`` at depth 0 then reads off as
    -1."""
    _perturb_sums(monkeypatch, 0, (2, 2), -2)


@pytest.fixture
def raised_reflected_entry(monkeypatch):
    """Add 1 to the sum ``S`` at ``(4,4)``, depth 2, of every product: in A2~
    ``rho (x) rho`` that weight is off the affine chamber, and its sum no
    longer matches the component ``(3,3)`` at depth 1: ``s_0`` takes
    ``(4,4) + rho^`` to ``(3,3) + rho^`` one depth up."""
    _perturb_sums(monkeypatch, 2, (4, 4), 1)


@pytest.fixture
def inflated_top_component(monkeypatch):
    """Add 1 to the sum ``S`` at ``(2,2)``, depth 0, of every product: in A2~
    ``rho (x) rho`` the component ``(2,2)`` then has multiplicity 2, above
    the multiplicity 1 of ``(1,1)`` in ``V(rho)`` (the PRV bound)."""
    _perturb_sums(monkeypatch, 0, (2, 2), 1)


def _perturb_klimyk_sums(monkeypatch, w, by):
    klimyk_pass = tensor.klimyk_pass

    def perturbed(rs, orbits):
        targets = {}  # by id: the sums are dicts

        def seen():
            for c, points, target in orbits:
                targets[id(target)] = target
                yield c, points, target

        unreflected = klimyk_pass(rs, seen())
        y = tuple(x + 1 for x in w)  # the sums are keyed by weight + rho
        for target in targets.values():
            target[y] = target.get(y, 0) + by
        return unreflected

    monkeypatch.setattr(tensor, "klimyk_pass", perturbed)


@pytest.fixture
def raised_klimyk_component(monkeypatch):
    """Add 1 to the Klimyk sum at ``(1,0)`` of every finite product: in B2
    ``(2,1) (x) (1,1)`` the component ``(1,0)``, of dimension 5, then has
    multiplicity 2."""
    _perturb_klimyk_sums(monkeypatch, (1, 0), 1)


@pytest.fixture
def raised_klimyk_cartan(monkeypatch):
    """Add 1 to the Klimyk sum at ``(3,2)`` of every finite product: in B2
    ``(2,1) (x) (1,1)`` the Cartan component then has multiplicity 2."""
    _perturb_klimyk_sums(monkeypatch, (3, 2), 1)


@pytest.fixture
def negative_klimyk_component(monkeypatch):
    """Take 2 from the Klimyk sum at ``(0,0)`` of every finite product: in B2
    ``rho (x) rho`` the translated weight ``(0,0)``, a component of
    multiplicity 1, then sums to -1."""
    _perturb_klimyk_sums(monkeypatch, (0, 0), -2)
