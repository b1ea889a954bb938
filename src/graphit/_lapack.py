"""The three LAPACK routines graphit calls, loaded from scipy without importing `scipy.linalg`.

`dpotrf`, `dpotrs` and `dtrtri` live in scipy's compiled wrapper
`scipy.linalg._flapack`. Importing the `scipy.linalg` package to reach it also
imports scipy's array-API layer, with `numpy.testing` and `numpy.f2py`: about
half of a cold start. So this module loads the extension file alone and
registers it under its own name; a later `import scipy.linalg` reuses it, and
both hand out the same function objects. It is the package's only scipy import.
"""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy

_NAME = "scipy.linalg._flapack"

_flapack = sys.modules.get(_NAME)
if _flapack is None:
    _directory = os.path.join(scipy.__path__[0], "linalg")
    _spec = FileFinder(_directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_NAME)
    if _spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no {_NAME} extension in {_directory}", name=_NAME)
    _flapack = sys.modules[_NAME] = module_from_spec(_spec)
    _spec.loader.exec_module(_flapack)

dpotrf, dpotrs, dtrtri = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri
