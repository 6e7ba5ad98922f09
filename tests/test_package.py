import importlib
import pkgutil

import cavitykit


def test_every_exported_name_resolves():
    # a stale __all__ entry (a moved or deleted name) fails here, not at a
    # user's star import
    checked = 0
    for info in pkgutil.iter_modules(cavitykit.__path__, "cavitykit."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 0

