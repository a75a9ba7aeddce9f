"""`from pellcheck import *` fails outright if __all__ names anything the
package no longer defines, so every name in it must resolve; and every
name in it must be used by the package itself, not only by its tests."""

import re
from pathlib import Path

import pellcheck


def test_every_exported_name_resolves():
    assert pellcheck.__all__
    missing = [name for name in pellcheck.__all__
               if not hasattr(pellcheck, name)]
    assert missing == []


def test_every_exported_name_has_a_use_in_the_package():
    # a definition and at least one use, not counting __init__.py
    src = Path(pellcheck.__file__).parent
    text = "\n".join(path.read_text() for path in sorted(src.glob("*.py"))
                     if path.name != "__init__.py")
    unused = [name for name in pellcheck.__all__
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unused == []
