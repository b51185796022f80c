"""Process set-up shared by the benchmark scripts.

Call :func:`pin_blas` before anything imports numpy: BLAS reads its thread
count once, when it loads.  ``fractalheat`` pins the same variables in its
CLI; the benchmark forces them to one thread so that every run measures
the single-threaded BLAS users run, whatever the caller's environment says.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
REQUIRED = (
    "src/fractalheat/__init__.py",
    "configs/default-run.ini",
    "configs/quick-run.ini",
    "configs/gasket.ini",
)


class CheckoutError(RuntimeError):
    pass


def pin_blas() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas() must run before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def use_checkout_source(root: Path) -> None:
    """Import ``fractalheat`` from ``root/src`` and nowhere else."""
    missing = [rel for rel in REQUIRED if not (root / rel).is_file()]
    if missing:
        raise CheckoutError(f"{root} is not a fractalheat checkout: missing {missing}")
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fractalheat

    if Path(fractalheat.__file__).resolve().parent.parent != src:
        raise CheckoutError(f"fractalheat imported from {fractalheat.__file__}, not {src}")


def describe() -> dict:
    """Machine and library facts recorded next to every result."""
    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }
