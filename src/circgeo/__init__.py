"""circgeo: circulant 4D metrics, their curvature, and checks.

`import circgeo` loads nothing else.  The first lookup of any name but
`__version__` or another dunder (PEP 562 `__getattr__`), `dir(circgeo)`
included, imports `core`, `expr`, `tensor` and `verify` together and binds
the modules and every name in their `__all__`, which together make
`circgeo.__all__`.  So numpy is imported on first use, not by the import,
and later lookups are plain attribute reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LIBRARY = ("core", "expr", "tensor", "verify")


def __getattr__(name: str):
    if name == "__all__" or not name.startswith("__"):
        modules = [_import_module(f".{module}", __name__) for module in _LIBRARY]
        exports = {n: getattr(module, n) for module in modules for n in module.__all__}
        globals().update(exports, __all__=[*_LIBRARY, *exports])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
