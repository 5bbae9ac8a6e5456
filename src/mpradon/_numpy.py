"""numpy, executed on first attribute access.

The exact verdicts (``analyze``) never compute with numpy; only the
numerical evidence does.  The numeric modules bind ``np`` from here instead
of ``import numpy as np``, so importing them executes none of numpy, and
the first ``np.<name>`` anywhere loads it in full.  An already imported
numpy is used as it is.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """``sys.modules["numpy"]``, installed through ``LazyLoader`` if absent."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = lazy_numpy()
