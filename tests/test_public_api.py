"""Every name a ccmorph module exports resolves.

The benchmark's tracer and library users look these names up by string, so
a rename that leaves ``__all__`` stale must fail here, not at run time.
"""

import importlib
import pkgutil

import pytest

import ccmorph

MODULES = ["ccmorph"] + [
    f"ccmorph.{m.name}" for m in pkgutil.iter_modules(ccmorph.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
