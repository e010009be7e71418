import importlib
import pkgutil

import sppa


def test_every_all_name_resolves():
    # a name left in __all__ after its definition was deleted breaks
    # `from module import *` and misdocuments the public surface
    missing = []
    for name in ["sppa"] + [f"sppa.{m.name}" for m in pkgutil.iter_modules(sppa.__path__)]:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"__all__ names without an attribute: {missing}"
