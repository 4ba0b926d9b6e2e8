import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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


@pytest.fixture
def misplaced_reflections(monkeypatch):
    """Make ``to_dominant`` return ``dom + rho`` for every weight off the
    dominant chamber, once the B2 ``V(rho)`` table it builds is memoised:
    Klimyk's reflected terms in ``B2 rho (x) rho`` then land outside the
    translated set."""
    freudenthal(build_root_system("B2"), (1, 1))
    reflect = RootSystem.to_dominant

    def misplaced(self, w):
        dom, sign = reflect(self, w)
        if min(w) < 0 and sign:
            dom = tuple(x + 1 for x in dom)
        return dom, sign

    monkeypatch.setattr(RootSystem, "to_dominant", misplaced)
