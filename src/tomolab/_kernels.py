"""scipy's compiled CSR kernels, loaded without the ``scipy.sparse`` package.

tomolab calls two routines of scipy's compiled extension
``scipy.sparse._sparsetools``: ``csr_matvec`` (``y += A x``) and
``csr_matvecs`` (``Y += A X`` for a C-ordered block of columns).  Importing
``scipy.sparse`` to reach them would run the package's ``__init__``, whose
array-API shim pulls in ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``:
about 200 ms and 15 MB of every process (numpy 2.4, scipy 1.17, on a
2-vCPU x86_64 host).  :func:`load_sparsetools` loads the extension file
from scipy's install directory instead, under the private name
``tomolab._sparsetools``.  Nothing is written into scipy's namespace, so a
later ``import scipy.sparse`` loads and binds its own copy as usual.

The kernels take ``indptr`` and ``indices`` of one integer dtype (int32 or
int64) and write the product into the output array in place.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType

_NAME = "tomolab._sparsetools"


def load_sparsetools() -> ModuleType:
    """The ``_sparsetools`` extension module, as ``tomolab._sparsetools``.

    The file is looked up next to scipy's ``__init__.py`` without importing
    scipy (resolving ``scipy.sparse._sparsetools`` by name would import its
    parent packages), trying each extension suffix of this interpreter.  A
    missing file raises ``ImportError`` naming the path.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("tomolab needs scipy, which is not installed")
    stem = os.path.join(os.path.dirname(spec.origin), "sparse", "_sparsetools")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem + suffix
        if os.path.isfile(path):
            break
    else:
        raise ImportError(
            f"scipy's compiled CSR kernels are missing: no {stem}{{suffix}} "
            f"for any suffix in {importlib.machinery.EXTENSION_SUFFIXES}"
        )
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
