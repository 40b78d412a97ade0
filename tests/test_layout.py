"""Layout lint: every function, class and method of the package is used in it.

A name defined in ``src/weylfrob`` (dunder methods aside) must occur as an
``ast.Name`` or ``ast.Attribute`` somewhere in the package outside its own
definition; code that only the tests reach belongs in the tests.
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
