"""Every module of the library uses each name it imports.

A name bound by an import and never read is left over from code that went
away. The check parses each module of ``src/rho_tensor`` (the package's
``__init__``, which imports to re-export, aside) with :mod:`ast` and reads
the names the module loads, so it needs nothing beyond the standard library.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "rho_tensor").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and that no expression
    reads, in the order they are imported."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from itertools import islice\nimport os.path\nimport sys\n\nsys.exit(os.sep)\n"
    assert unused_imports(source) == ["islice"]
    assert unused_imports("from itertools import islice as cut\n") == ["cut"]
