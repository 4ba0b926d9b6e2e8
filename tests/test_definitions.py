"""Every function, class and method of the library is named somewhere.

A definition that no code reaches is left over from code that went away. The
check parses each module of ``src/rho_tensor`` with :mod:`ast` and, for each
module-level function and class and each method of a module-level class,
looks for its name in the library, the tests and the benchmark: a name read,
an attribute, an imported name or a string (``__all__``, ``monkeypatch``
targets), in any file but inside the definition itself, or a word of
``perfbench/plan.json``. Dunder methods are called by Python and are left
aside. Names are matched as names, not as bindings, so two definitions that
share a name count each other's uses. It needs nothing beyond the standard
library.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "rho_tensor").glob("*.py"))
CORPUS = sorted({*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")})
PLAN = ROOT / "perfbench" / "plan.json"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions(tree: ast.Module):
    """The module-level functions and classes of ``tree`` and the methods of
    its classes, dunders aside, as ``(name, node)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def names_used(node: ast.AST) -> Counter:
    """How often each name is used under ``node``: read or bound as a name,
    taken as an attribute, imported, or written as a string that is an
    identifier or a dotted path of identifiers."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.update(IDENTIFIER.findall(sub.value) if re.fullmatch(r"[\w.]+", sub.value) else ())
    return used


def unused_definitions(library: list[str], corpus: dict[str, str], words: str = "") -> list[str]:
    """The ``module.name`` of each definition in the ``library`` files that
    no file of ``corpus`` (path -> source, the library included) names
    outside that definition, and that ``words`` does not name."""
    trees = {path: ast.parse(text) for path, text in corpus.items()}
    used = Counter(IDENTIFIER.findall(words))
    for tree in trees.values():
        used.update(names_used(tree))
    unused = []
    for path in library:
        for name, node in definitions(trees[path]):
            if used[name] - names_used(node)[name] <= 0:
                unused.append(f"{Path(path).stem}.{name}")
    return unused


def test_every_definition_is_named_outside_itself():
    corpus = {str(p): p.read_text() for p in CORPUS}
    assert unused_definitions([str(p) for p in LIBRARY], corpus, PLAN.read_text()) == []


def test_an_unused_helper_is_found():
    source = (
        "def used(x):\n    return helper(x)\n\n\n"
        "def helper(x):\n    return x\n\n\n"
        "def unused(n):\n    return unused(n - 1) if n else 0\n\n\n"
        "class Box:\n    def __init__(self):\n        self.kept = 1\n\n"
        "    def stale(self):\n        return self.kept\n\n"
        "    def read(self):\n        return Box().kept\n"
    )
    caller = "from mod import used\nprint(used(1), mod.Box().read())\n"
    library = ["mod.py"]
    corpus = {"mod.py": source, "caller.py": caller}
    assert unused_definitions(library, corpus) == ["mod.unused", "mod.stale"]
    # a word of the benchmark's plan, or a string such as a patch target, names it
    assert unused_definitions(library, corpus, "trace mod.unused") == ["mod.stale"]
    assert unused_definitions(library, {**corpus, "t.py": "setattr(mod.Box, 'stale', None)\n"}) == ["mod.unused"]
