"""Load a compiled scipy module from its file, without its package.

Importing ``scipy.optimize._highspy._core`` or ``scipy.linalg._flapack`` by
name first runs the whole ``scipy.optimize`` or ``scipy.linalg`` package
``__init__``, which loads ``scipy.sparse`` and ``scipy.special`` among much
else, in every CLI process, for the two routines lpvsyn calls.

A loaded module is registered in ``sys.modules`` only.  A scipy package that
loads later does not bind it as an attribute: after ``import lpvsyn.cli;
import scipy.linalg``, the expression ``scipy.linalg._flapack`` raises
``AttributeError``, and ``scipy.optimize._highspy._core`` likewise.  Imports
find it all the same (``from scipy.linalg import _flapack`` falls back to
``sys.modules``), and so does scipy's own code.
"""
import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import scipy


def load_extension(name: str):
    """The compiled module ``name``, put in ``sys.modules`` under that name
    before it runs, so that a later import of its scipy package finds it
    there and never initialises it again (a pybind11 module initialised
    twice fails with "type already registered")."""
    if name in sys.modules:
        return sys.modules[name]
    stem = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:])
    for suffix in EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
            return module
    raise ImportError(f"no compiled module {name} under {stem.parent}", name=name)
