"""`from pellcheck import *` fails outright if __all__ names anything the
package no longer defines, so every name in it must resolve."""

import pellcheck


def test_every_exported_name_resolves():
    assert pellcheck.__all__
    missing = [name for name in pellcheck.__all__
               if not hasattr(pellcheck, name)]
    assert missing == []
