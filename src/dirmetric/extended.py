"""Extended-real arithmetic helpers.

Distances in this package live in [0, inf].  Two points in different
weak components of a directed space sit at distance inf from each other,
and several operations (disjoint union, comparison of disconnected
spaces) have to subtract such values.  The convention throughout is

    |inf - inf| = 0        (two unreachable pairs agree)
    |inf - finite| = inf

which is what makes the comparison distances well defined on
disconnected spaces.  Plain float subtraction gives nan for inf - inf,
so every absolute difference of distance values goes through
ext_abs_diff below.
"""

from __future__ import annotations

import numpy as np

INFINITY: float = float("inf")


def ext_abs_diff(a, b):
    """|a - b| with the convention |inf - inf| = 0.

    Accepts scalars or arrays (broadcast like np.subtract); returns the
    same shape.  Finite-vs-inf differences come out inf as usual.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.abs(a - b)
    both = np.isinf(a) & np.isinf(b)
    if out.ndim == 0:
        return 0.0 if bool(both) else float(out)
    out[both] = 0.0
    return out
