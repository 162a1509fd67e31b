"""Numerical laboratory for curvature-dimension bounds with negative
generalized dimension on one-dimensional metric measure spaces.

The package binds no names of its submodules: import each name from the
module that defines it (``from cdknlab.ikrw import ikrw``)."""

import os


def _thread_count(text):
    """CDKNLAB_THREADS as a thread count: an integer >= 1, else None."""
    return int(text) if text and text.isdecimal() and int(text) >= 1 else None


# CDKNLAB_THREADS caps the worker pools of the numeric backends.  Every
# submodule import runs this package first, so the variables are exported
# before any submodule imports numpy, which reads them once; any value but an
# integer >= 1 is not passed on (the CLI then exits 1).
_threads = _thread_count(os.environ.get("CDKNLAB_THREADS"))
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, str(_threads))

__version__ = "0.1.0"
