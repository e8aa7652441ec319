"""scipy's compiled routines, loaded without the scipy package ``__init__``s.

The package calls eight compiled scipy routines: LAPACK's ``dpotrf``,
``dpotrs`` and ``dtrtrs`` (extension ``scipy.linalg._flapack``), the ufuncs
``kve``, ``betainc``, ``betaincinv`` and ``erfinv``
(``scipy.special._ufuncs``) and L-BFGS-B's ``setulb``
(``scipy.optimize._lbfgsb``).  Imported through ``scipy.linalg``,
``scipy.special`` or ``scipy.optimize``, they would run those packages'
``__init__``s, which import scipy's array-API layer (and with it
``numpy.f2py``, ``numpy.ma`` and ``importlib.metadata``) and every solver:
most of the package's import time and peak memory, and nothing a fit uses.
:func:`extension` loads the extension modules from their files instead.
Their routines are the objects the scipy packages export, so every result
has the same bits either way.
"""

from __future__ import annotations

import importlib
import os
import sys
from functools import lru_cache
from types import ModuleType

import scipy

_SCIPY_DIR = os.path.dirname(scipy.__file__)


@lru_cache(maxsize=None)
def extension(package: str, name: str) -> ModuleType:
    """The extension module ``scipy.<package>.<name>``, loaded from its file
    in scipy's ``<package>`` folder without running the ``scipy.<package>``
    ``__init__``.

    For the load, a bare module that holds only the folder as its path
    stands in for the package.  So the import system finds the extension
    file, and any sibling extension that its init imports (``_ufuncs``
    imports several, which differ between scipy versions), where the
    package's own import would find them.  Afterwards the stand-in and every
    ``scipy.<package>.*`` entry that the load made leave ``sys.modules``, so
    a later ``import scipy.<package>`` runs as usual.  It gets the same
    routine objects: re-imported in one process, an extension module gives
    back the objects of its first load.

    Where the package is imported already, or the load raises (the file is
    missing, say), the module comes through the package.
    """
    parent = f"scipy.{package}"
    if parent not in sys.modules:
        before = set(sys.modules)
        stand_in = ModuleType(parent)
        stand_in.__path__ = [os.path.join(_SCIPY_DIR, package)]
        sys.modules[parent] = stand_in
        try:
            return importlib.import_module(f"{parent}.{name}")
        except Exception:  # the package route raises what it cannot load either
            pass
        finally:
            for made in set(sys.modules) - before:
                if made == parent or made.startswith(parent + "."):
                    del sys.modules[made]
    return importlib.import_module(f"{parent}.{name}")
