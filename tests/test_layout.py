"""Layout lint: every function, class and method of the package is used in
it, and every module uses what it imports.

A name defined in ``src/weylfrob`` (dunder methods aside) must occur as an
``ast.Name`` or ``ast.Attribute`` somewhere in the package outside its own
definition; code that only the tests reach belongs in the tests.  A name a
module imports must occur as an ``ast.Name`` in that module; ``__init__.py``
re-exports, and ``from __future__`` imports are exempt.  What ``__init__.py``
re-exports is exactly what its ``__all__`` lists.  The package is exact: it
holds no float or complex literal and calls no ``float(...)``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylfrob"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def used_names(tree: ast.AST) -> Counter:
    """Each Name id and Attribute attr in the tree, with its count."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def unused_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((used_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - used_names(node)[name] == 0:
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


def test_every_definition_is_used_in_the_package():
    assert unused_definitions() == []


def unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_every_import_is_used_in_its_module():
    assert unused_imports() == []


def exported_names():
    """(the public names ``__init__.py`` imports, the entries of its
    ``__all__``), read off its syntax tree."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    (listed,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]]
    return [n for n in imported if not n.startswith("_")], listed


def test_all_lists_exactly_the_names_init_imports():
    import weylfrob

    imported, listed = exported_names()
    assert len(listed) == len(set(listed)), "__all__ lists a name twice"
    assert sorted(listed) == sorted(imported)
    assert all(hasattr(weylfrob, name) for name in listed)


def inexact_numbers(root: Path = SRC):
    """Each float or complex literal and each call of ``float`` under root."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float")
            if literal or call:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_the_package_holds_no_float():
    assert inexact_numbers() == []


def test_the_float_lint_sees_literals_and_calls(tmp_path):
    (tmp_path / "m.py").write_text("x = 0.5\ny = float(2)\nz = 1j\nw = '0.5'\n")
    assert inexact_numbers(tmp_path) == ["m.py:1 0.5", "m.py:2 float(2)", "m.py:3 1j"]
