"""Every public module-level function, class and method of ncdef is used by ncdef.

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
    # the paper's test-algebra deformation of a single Ext^1 class
    "test_algebra_deformation": "deformation over the test algebra",
    # the paper's beta table: coordinates of a monomial class over the basis
    "FiniteDimPointedAlgebra.expansion": "beta coefficients of a truncation",
}


def _referenced_names(node):
    """Names, attributes and imported names occurring under ``node``.

    Marking a function ``__test__ = False`` for pytest is not a use of it.
    """
    marked = {id(sub.value) for sub in ast.walk(node)
              if isinstance(sub, ast.Attribute) and sub.attr == "__test__"}
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and id(sub) not in marked:
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_methods(trees):
    """(filename, class, method) for every public method of a module-level class."""
    for filename, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield filename, cls, node


def test_every_public_definition_is_referenced_in_the_package():
    trees = _trees()
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {"%s.%s" % (cls.name, node.name)
                for _, cls, node in _public_methods(trees)}
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


def test_every_public_method_is_called_in_the_package():
    # methods are reached through attributes; a local variable of the same
    # name is not a use
    trees = _trees()
    uses = {}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute):
                uses[sub.attr] = uses.get(sub.attr, 0) + 1
    unreferenced = []
    for filename, cls, node in _public_methods(trees):
        qualified = "%s.%s" % (cls.name, node.name)
        if qualified in KEPT_FOR_TESTS:
            continue
        own = sum(1 for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and sub.attr == node.name)
        if uses.get(node.name, 0) == own:
            unreferenced.append("%s:%s" % (filename, qualified))
    assert unreferenced == []


def test_every_assigned_attribute_is_read():
    # a value stored on ``self`` that no code loads is state kept only to be
    # copied; loading an attribute just to store into one of its items is
    # not a read
    trees = _trees()
    read = set()
    for tree in trees.values():
        item_targets = {id(node.value) for node in ast.walk(tree)
                        if isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, (ast.Store, ast.Del))}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in item_targets}
    unread = set()
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self" and sub.attr not in read):
                        unread.add("%s:%s" % (filename, sub.attr))
    assert sorted(unread) == []
