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



# -- dead code: a stdlib-ast check, since no lint package is a dependency --------

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def package_trees():
    """Syntax tree of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in ROOT.glob("*.py")}


def own_nodes(scope):
    """Nodes of ``scope``'s body that belong to its own namespace: nested
    functions, classes and comprehensions are left out."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES + COMPREHENSIONS):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(function, name) for each function local that is assigned but never read."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = set(), set()
        for node in own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        found += [(func.name, name) for name in sorted(stored - read - declared) if not name.startswith("_")]
    return found


def test_no_function_local_is_assigned_but_never_read():
    found = {name: unread_locals(tree) for name, tree in package_trees().items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_every_private_module_function_is_referenced():
    trees = package_trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unused == []


def test_no_unused_import_outside_the_package_init():
    unused = []
    for name, tree in package_trees().items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}:{b}" for b in bound if b not in read]
    assert unused == []


def test_no_assert_statement_in_the_package():
    # an assert vanishes under python -O; a failed identity raises AssertionFailure
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# -- numpy only in the array code: nothing imports it at import time -----------

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def import_time_numpy(tree):
    """Line numbers of the numpy imports that run when the module is
    imported: every one outside a function body."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numpy" for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "numpy":
                found.append(node.lineno)
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_numpy_is_imported_only_inside_functions():
    # `import hcmu` and every subcommand but profile start without numpy
    example = (
        "import numpy as np\nif x:\n    from numpy.linalg import solve\n"
        "class C:\n    import os, numpy.fft\ndef f():\n    import numpy as np\n"
    )
    assert import_time_numpy(ast.parse(example)) == [1, 3, 5]
    found = {name: import_time_numpy(tree) for name, tree in package_trees().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert "numpy" in imported_packages()  # still imported, inside the array code

# -- no recursion: a call depth that grows with the input exits 3 ---------------


def self_calls(tree):
    """(function, line) for each call of a function by its own name, or of a
    method through ``self`` or ``cls``, anywhere in its body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if (isinstance(func, ast.Name) and func.id == node.name) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    found.append((node.name, sub.lineno))
    return found


def test_no_function_calls_itself():
    example = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g(xs):\n    return [g(x) for x in xs]\n"
        "class C:\n    def h(self):\n        return self.h()\n"
        "    def k(self, other):\n        return other.k() + len(self.kk())\n"
    )
    assert self_calls(ast.parse(example)) == [("f", 2), ("g", 4), ("h", 7)]
    found = {name: self_calls(tree) for name, tree in package_trees().items()}
    assert {name: calls for name, calls in found.items() if calls} == {}


# -- MapBuilder keeps its rows: builders hand MixedAngulation the rows they wrote --


def attribute_uses(tree, attr):
    """Line numbers of every read or write of an attribute named ``attr``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_the_angulation_module_touches_rotation_rows():
    example = "b.rot[0] = [1]\nrow = b.rot[v]\nb.rot += x\nma.rotations\nrot = 1\n"
    assert attribute_uses(ast.parse(example), "rot") == [1, 2, 3]
    found = {name: attribute_uses(tree, "rot") for name, tree in package_trees().items() if name != "angulation.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def searches_in_class(tree, name):
    """Line numbers of every ``.index(`` or ``.insert(`` call inside the class
    ``name``, or None if the tree defines no such class."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == name]
    if not classes:
        return None
    return sorted(
        node.lineno
        for cls in classes
        for node in ast.walk(cls)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("index", "insert")
    )


def test_the_map_builder_splices_darts_without_searching_a_row():
    # an insertion is an O(1) splice of sigma^-1, not a search of a row list
    example = "class B:\n    def f(self, r):\n        r.insert(r.index(1), 2)\n        r.append(3)\nr.index(0)\n"
    assert searches_in_class(ast.parse(example), "B") == [3, 3]
    assert searches_in_class(ast.parse(example), "MapBuilder") is None
    assert searches_in_class(package_trees()["angulation.py"], "MapBuilder") == []

# -- one dart representation: int darts, with (arc, end) pairs at the edge -------

ENDS = {"b", "w"}


def pair_uses(tree, allowed=()):
    """Line numbers of tuple, list and set displays holding the constant "b"
    or "w", other than those assigned to a module-level name in ``allowed``,
    and of every use of the name ``opposite``."""
    skip = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in allowed for t in node.targets)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and id(node) not in skip:
            if any(isinstance(e, ast.Constant) and e.value in ENDS for e in node.elts):
                found.append(node.lineno)
        elif any(getattr(node, field, None) == "opposite" for field in ("name", "id", "attr")):
            found.append(node.lineno)  # a definition, import, name or attribute
    return sorted(found)


def test_darts_are_ints_inside_the_package():
    # only angulation.END spells the two ends; every other module uses int
    # darts 2a and 2a + 1 and reads or writes pairs through angulation
    assert pair_uses(ast.parse('x = (a, "b")\ny = [d, "w"]\nz = {"b"}')) == [1, 2, 3]
    assert pair_uses(ast.parse('END = ("b", "w")'), {"END"}) == []
    assert pair_uses(ast.parse("from m import opposite\ndef opposite(d):\n    pass\nm.opposite(0)")) == [1, 2, 4]
    found = {
        name: pair_uses(tree, {"END"} if name == "angulation.py" else ())
        for name, tree in package_trees().items()
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# -- the Python floor: pyproject.toml promises 3.10 ------------------------------

# Fraction's private constructors differ between versions: the _normalize
# keyword exists up to 3.11, _from_coprime_ints from 3.12 on.
PRIVATE_FRACTION_NAMES = {"_normalize", "_from_coprime_ints"}


def test_the_package_parses_as_python_3_10():
    with pytest.raises(SyntaxError):  # except* came with 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(ROOT.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def private_fraction_uses(tree):
    """Line numbers of attributes, names and keywords that are one of
    Fraction's private constructors."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_FRACTION_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in PRIVATE_FRACTION_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.keyword) and node.arg in PRIVATE_FRACTION_NAMES:
            found.append(node.value.lineno)
    return found


def test_no_private_fraction_constructor_in_the_package():
    assert private_fraction_uses(ast.parse("Fraction(1, 2, _normalize=False)")) == [1]
    assert private_fraction_uses(ast.parse("x = Fraction._from_coprime_ints(1, 2)")) == [1]
    found = {name: private_fraction_uses(tree) for name, tree in package_trees().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


# -- the surgeries decide a face's side of the level in one place ---------------


def grid_level_readers(tree):
    """Names of the top-level statements (a function or class by its name,
    any other as "<module>") that read an attribute ``levels`` or ``dl``."""
    return sorted({
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr in ("levels", "dl")
    })


def test_only_sides_reads_the_level_grid_in_the_deformations():
    example = "def f(ds):\n    return ds.grid.levels\nclass C:\n    x = g.dl\ny = g.dw\nz = [g.levels]\n"
    assert grid_level_readers(ast.parse(example)) == ["<module>", "C", "f"]
    assert grid_level_readers(package_trees()["deformations.py"]) == ["_sides"]


def empty_list_builders(tree):
    """Names of the top-level statements (as in ``grid_level_readers``) that
    build a list of empty lists, a ``[[] for ...]`` comprehension."""
    return sorted({
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.ListComp) and isinstance(node.elt, ast.List) and not node.elt.elts
    })


def test_only_incidence_builds_per_vertex_lists_in_the_balance():
    example = "def f(n):\n    return [[] for _ in range(n)]\ng = [[0] for _ in x]\nh = [[] for _ in x]\n"
    assert empty_list_builders(ast.parse(example)) == ["<module>", "f"]
    assert empty_list_builders(package_trees()["balance.py"]) == ["_incidence"]


# -- the loader reads ids through the writer's tables, never converting text ----


def int_callers(tree):
    """Names of the top-level statements (as in ``grid_level_readers``) that
    call ``int``."""
    return sorted({
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    })


def test_only_the_rational_parser_and_the_miss_classifier_call_int_in_serialization():
    example = "def f(t):\n    return int(t)\nclass C:\n    x = int\ny = s.int(2)\nz = [int(t) for t in w]\n"
    assert int_callers(ast.parse(example)) == ["<module>", "f"]
    assert int_callers(package_trees()["serialization.py"]) == ["_miss", "parse_fraction"]
