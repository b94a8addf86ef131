"""Lazy package namespaces (PEP 562), the scientific-python SPEC 1 pattern.

Each package ``__init__`` maps its public names to the submodules that
define them and serves the map through the module-level ``__getattr__``
and ``__dir__`` that :func:`attach` returns.  ``import repro`` then
imports no submodule; the first access to a name imports the one module
that defines it and stores the value in the package's globals, so later
lookups, ``monkeypatch.setattr`` and ``from package import name`` see an
ordinary module attribute.  A submodule not named in the map (say
``repro.core.session``) still resolves as an attribute of its package,
as it would after an eager import.
"""

from __future__ import annotations

import importlib
import sys


def attach(package: str, submod_attrs: dict, submodules: tuple = ()):
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``submod_attrs`` maps a module name (absolute, or relative to
    ``package`` with a leading dot) to the public names it defines;
    ``submodules`` names submodules that are public themselves.
    ``__all__`` lists ``submodules`` and then the names in map order.
    """
    owner = {
        name: module for module, names in submod_attrs.items() for name in names
    }
    public = [*submodules, *owner]

    def __getattr__(name: str):
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
