"""`from pellcheck import *` fails outright if __all__ names anything the
package no longer defines, so every name in it must resolve; and every
name in it, and every public method and property of a class in it, must
be used by the package itself, not only by its tests."""

import ast
from pathlib import Path

import pellcheck

SRC = Path(pellcheck.__file__).parent

#: Public class members that the package itself does not use, each with the
#: reason it stays.
UNUSED_MEMBERS_KEPT = {
    "FactorCache.load": "perfbench/child.py wraps it; ROADMAP item 1b",
}


def _modules():
    """The parsed package modules, not counting __init__.py."""
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"]


def _definitions_and_uses():
    # a name in a docstring or a comment is no use
    defined, used = set(), set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                (defined if isinstance(node.ctx, ast.Store) else used).add(
                    node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_exported_name_resolves():
    assert pellcheck.__all__
    missing = [name for name in pellcheck.__all__
               if not hasattr(pellcheck, name)]
    assert missing == []


def test_every_exported_name_has_a_use_in_the_package():
    # a definition and at least one use in code, not counting __init__.py
    defined, used = _definitions_and_uses()
    unused = [name for name in pellcheck.__all__
              if name not in defined or name not in used]
    assert unused == []


def test_every_public_member_of_an_exported_class_has_a_use():
    # methods and properties by name; the fields of a record are data,
    # not members, and are not checked
    _, used = _definitions_and_uses()
    unused = {f"{cls.name}.{member.name}"
              for tree in _modules() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              and cls.name in pellcheck.__all__
              for member in cls.body
              if isinstance(member, ast.FunctionDef)
              and not member.name.startswith("_")
              and member.name not in used}
    assert unused == set(UNUSED_MEMBERS_KEPT)
