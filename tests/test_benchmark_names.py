"""perfbench/child.py wraps pellcheck functions and methods by name before
any workload runs, so one name that no longer resolves stops every
benchmark run.  The file is read with ast rather than imported: importing
it calls sys.exit unless pellcheck comes from the checkout's own src/."""

import ast
import importlib
import os

import pytest

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "child.py")


def _table_keys(table: str) -> list[tuple[str, str]]:
    """The (owner, attribute) keys of the dict child.py assigns to table,
    each owner as its dotted source text, such as verifier.FactorCache."""
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == table):
            return [(ast.unparse(key.elts[0]), key.elts[1].value)
                    for key in node.value.keys]
    raise AssertionError(f"{CHILD} assigns no {table} table")


@pytest.mark.parametrize("table", ["FUNCTIONS", "METHODS"])
def test_perfbench_lookups_resolve(table):
    keys = _table_keys(table)
    assert keys
    for owner, attr in keys:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"pellcheck.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"
