import importlib
import pkgutil

import equilat

# the modules that declare a public API; adding or deleting one is an edit here
PUBLIC_MODULES = {"census", "cover", "degree_bound", "parallelogram", "surface", "translation"}


def test_every_public_name_resolves():
    modules = [importlib.import_module(f"equilat.{m.name}")
               for m in pkgutil.iter_modules(equilat.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__.removeprefix("equilat.") for m in listed} == PUBLIC_MODULES
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
