"""Source hygiene: no unused top-level import in the package, the tests or
the scripts. ``src/ctcseq/__init__.py`` is exempt: its imports are the
public re-exports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in ("src/ctcseq", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path.relative_to(ROOT).as_posix() != "src/ctcseq/__init__.py"
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
