"""Deferred imports: a module is loaded on its first attribute access.

``verify``, ``resources`` and ``export`` build, verify and count
circuits in pure Python, so the numeric modules bind numpy through
:func:`lazy_import` and those commands never pay for loading it.  The
package defers its own modules by plain imports instead: ``fdblock``
imports each public name on its first access, and ``cli`` imports
``analysis`` and ``resources`` inside the commands that call them.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, executed only when one of its attributes is read.

    An already imported module is returned as is, so every caller sees
    the one object in ``sys.modules``.  A module that cannot be found
    raises ModuleNotFoundError here, not at first use.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
