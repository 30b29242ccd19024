"""Locate the checkout, make its `src/fsalign` importable, pin BLAS threads.

The benchmark measures the package in the checkout it sits in, never an
installed copy, so it refuses to run when `src/fsalign` is missing.

BLAS runs on one thread. With OpenBLAS's default of one thread per core, the
second thread busy-waits between the small matrix products this package
makes: it doubles the CPU the process uses, gains nothing in step time, and
on a two-core machine makes wall time swing by 15% from run to run. One
thread keeps every workload a closed loop in one process with no extra
threads.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(RuntimeError):
    """The checkout holds no `src/fsalign` to benchmark."""


def use_checkout():
    """Put the checkout's `src` first on the import path and check that
    `fsalign` resolves there. Call before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "fsalign", "__init__.py")):
        raise MissingPackage(f"no src/fsalign package under {ROOT}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fsalign

    where = os.path.dirname(os.path.abspath(fsalign.__file__))
    if where != os.path.join(SRC, "fsalign"):
        raise MissingPackage(f"fsalign imported from {where}, not from {SRC}")
