"""The package exports and defines only what the engine itself uses.

Every name that ``discrimnet/__init__.py`` imports must be loaded, as a
bare name or as an attribute, by some other module of the package, and
so must every function, class and method the package defines (dunder
methods aside), outside its own body: a method that only forwards to a
namesake, or only calls itself, is not used. A name that only the tests
call is code the engine never runs; helpers the tests need live in the
tests. No module of the package imports another one's ``_private`` name.
"""

import ast
import os
from collections import Counter

import discrimnet

PACKAGE_DIR = os.path.dirname(os.path.abspath(discrimnet.__file__))


def parse(filename):
    with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as f:
        return ast.parse(f.read(), filename=filename)


def exported_names():
    return {
        alias.asname or alias.name
        for node in ast.walk(parse("__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def loaded_names(tree):
    """How many times each name is loaded, as a bare name or an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def test_every_export_is_used_inside_the_package():
    exported = exported_names()
    used = set()
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if filename.endswith(".py") and filename != "__init__.py":
            used.update(loaded_names(parse(filename)))
    unused = sorted(exported - used)
    assert not unused, f"exported but never used inside the package: {unused}"


def definitions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_is_used_inside_the_package():
    defined, used = [], Counter()
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if filename.endswith(".py"):
            tree = parse(filename)
            defined += definitions(tree)
            used += loaded_names(tree)
    # A definition counts as used only where its name is loaded outside its own body.
    unused = sorted(
        {node.name for node in defined if used[node.name] == loaded_names(node)[node.name]}
    )
    assert not unused, f"defined but never used inside the package: {unused}"


def test_no_module_imports_another_modules_private_name():
    private = sorted(
        f"{filename}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for filename in os.listdir(PACKAGE_DIR)
        if filename.endswith(".py")
        for node in ast.walk(parse(filename))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not private, f"private names imported across modules: {private}"
