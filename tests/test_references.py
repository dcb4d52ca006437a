"""Every public module-level function and class of ncdef is used by ncdef.

A name that only tests reach is library code kept alive by its tests; it
goes, unless it is a paper concept kept on purpose and listed here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncdef"

KEPT_FOR_TESTS = {
    # the paper's equivalence of liftings; the benchmark's tracer also pins
    # the checker.multiply and checker.solve_sparse bindings it uses
    "equivalence_check": "equivalence of lifted complexes",
    # compares the hull's relations with a hand-derived set up to rescaling
    "match_up_to_rescaling": "acceptance check of the flagship relations",
}


def _referenced_names(node):
    """Names, attributes and imported names occurring under ``node``."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_every_public_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(KEPT_FOR_TESTS) <= defined
    uses = {}
    for tree in trees.values():
        for name in _referenced_names(tree):
            uses[name] = uses.get(name, 0) + 1
    unreferenced = []
    for filename, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in KEPT_FOR_TESTS:
                continue
            own = _referenced_names(node).count(node.name)
            if uses.get(node.name, 0) == own:
                unreferenced.append("%s:%s" % (filename, node.name))
    assert unreferenced == []
