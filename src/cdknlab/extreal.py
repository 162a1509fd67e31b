"""Extended-real conventions.

Values in [0, +inf] are represented as IEEE doubles: ``math.inf`` already
gives the arithmetic closure the entropies and distortion coefficients need
(inf + x = inf, c * inf = inf for c > 0, total order).  The one place IEEE
semantics disagree with the measure-theoretic convention is 0 * inf, which
must be 0 (cells carrying no mass contribute nothing no matter how heavy the
reference measure is there); use :func:`mul0` for those products.
"""

import math

import numpy as np

INF = math.inf


def mul0(a, b):
    """Elementwise a*b with the convention 0 * inf = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a * b
    zero = (a == 0.0) | (b == 0.0)
    if np.ndim(out) == 0:
        return 0.0 if bool(zero) else float(out)
    out = np.where(zero, 0.0, out)
    return out

