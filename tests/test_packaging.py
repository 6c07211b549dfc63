import ast
import re
import sys
from pathlib import Path

import pytest

import hcmu

ROOT = Path(hcmu.__file__).resolve().parent


def imported_packages():
    """Top-level names of the third-party modules that src/hcmu imports."""
    names = set()
    for path in ROOT.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"hcmu"}


def test_runtime_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT.parent.parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("hcmu is not imported from a source checkout")
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    assert imported_packages() == declared
