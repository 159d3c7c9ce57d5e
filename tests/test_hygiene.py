"""Source hygiene: no unused top-level import in the package, the tests or
the scripts, and no package definition that nothing names."""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for folder in ("src/ctcseq", "tests", "scripts") for path in (ROOT / folder).glob("*.py")
)
PACKAGE = sorted((ROOT / "src/ctcseq").glob("*.py"))
CALLERS = PACKAGE + sorted(
    path for folder in ("tests", "scripts", "bench") for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name bound by a module-level import and
    never read as a name anywhere in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_detector_reports_only_the_unused_names():
    source = "import os.path\nimport sys as system\nfrom math import pi, tau\nprint(system.argv, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_definitions(source: str) -> list[str]:
    """Names of the module-level functions, classes and assigned constants,
    dunders excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unnamed_definitions(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module: name`` for each definition in ``package`` (module -> source)
    whose name appears as a word in no source but at its definitions."""
    words = Counter(w for source in callers for w in re.findall(r"\w+", source))
    defs = Counter(n for source in package.values() for n in module_definitions(source))
    return [f"{module}: {name}" for module, source in package.items()
            for name in module_definitions(source) if words[name] <= defs[name]]


def test_definition_detector():
    package = {"m": "LIMIT = 3\ndef used(): return LIMIT\ndef _left(): pass\nclass Gone: pass\n__all__ = []\n"}
    callers = [package["m"], "from m import used\n"]
    assert unnamed_definitions(package, callers) == ["m: _left", "m: Gone"]


def test_every_package_definition_is_named_somewhere_else():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert unnamed_definitions(package, callers) == []
