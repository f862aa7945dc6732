"""The engine is stdlib-only: every import in ``src/alexdb`` is either the
standard library or the package itself."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "alexdb").glob("*.py"))


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import; relative imports stay
    inside the package and are skipped."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_the_scan_sees_every_kind_of_import():
    tree = ast.parse("import a.b, c\nfrom d.e import f\nfrom . import g\nfrom .h import i\n")
    assert imported_packages(tree) == {"a", "c", "d"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    packages = imported_packages(ast.parse(path.read_text(encoding="utf-8")))
    assert packages - set(sys.stdlib_module_names) - {"alexdb"} == set()


def test_the_package_has_modules():
    assert len(SOURCES) > 5
