import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
    """The same misplaced ``to_dominant``, once every table of A2~
    ``rho (x) rho`` at depth 2 is memoised: the product then convolves and
    peels as before, but its containment check looks each off-chamber
    ``w - rho`` up at the wrong dominant weight and finds it missing."""
    rs = build_root_system("A2~")
    truncated_tensor(rs, affine_rho(rs), affine_rho(rs), 2)
    _misplace_reflections(monkeypatch)
