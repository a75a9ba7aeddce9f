"""`from pellcheck import *` fails outright if __all__ names anything the
package no longer defines, so every name in it must resolve; and every
name in it must be used by the package itself, not only by its tests."""

import ast
from pathlib import Path

import pellcheck


def test_every_exported_name_resolves():
    assert pellcheck.__all__
    missing = [name for name in pellcheck.__all__
               if not hasattr(pellcheck, name)]
    assert missing == []


def test_every_exported_name_has_a_use_in_the_package():
    # a definition and at least one use in code, not counting __init__.py;
    # a name in a docstring or a comment is no use
    defined, used = set(), set()
    src = Path(pellcheck.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                (defined if isinstance(node.ctx, ast.Store) else used).add(
                    node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [name for name in pellcheck.__all__
              if name not in defined or name not in used]
    assert unused == []
