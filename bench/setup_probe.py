"""Set-up cost of ``shortgp`` in a fresh interpreter.

Usage: python3 setup_probe.py <src-dir> <family>

Times the import of the package from ``<src-dir>`` plus its lazy set-up
before a first fit (the length-scale bound of ``family``), then a first,
cold Matern(3/2) bound on its own.  Prints one JSON object.
"""

import json
import sys
from time import perf_counter

MATERN_NU = 1.5

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import shortgp  # noqa: E402

t_import = perf_counter()
family = sys.argv[2]
shortgp.length_scale_bound(family, 0.99, 1.0, MATERN_NU if family == "matern" else None)
t_setup = perf_counter()
if family == "matern":
    matern_cold = t_setup - t_import
else:
    shortgp.length_scale_bound("matern", 0.99, 1.0, MATERN_NU)
    matern_cold = perf_counter() - t_setup
print(
    json.dumps(
        {
            "file": shortgp.__file__,
            "import_s": t_import - t0,
            "setup_s": t_setup - t0,
            "matern_cold_ms": matern_cold * 1e3,
        }
    )
)
