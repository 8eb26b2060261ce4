"""Special functions from the standard library for inputs of at most
``STDLIB_MAX_POINTS`` elements, from ``scipy.special`` above that.

``ndtr`` and ``ndtri`` return what scipy's do. On a rating scale a loop over
``math`` and ``statistics`` takes microseconds, against ~0.3 s to import
scipy.special; both are imported on first use. The paths agree on 0, 1,
+-inf and NaN (the standard library keeps a NaN's sign bit); elsewhere ndtri
(AS241) is within 8 ulps and ndtr 1e-12 relative. The scalar ``log_odds`` is
log(p) - log1p(-p), the form the logistic families take with numpy.
"""

import math
from functools import cache

import numpy as np

STDLIB_MAX_POINTS = 64


@cache
def _inv_cdf():
    from statistics import NormalDist
    return NormalDist().inv_cdf


def _edge(p: float) -> float:
    """The value at a ``p`` outside (0, 1) of a quantile on [0, 1]."""
    return -math.inf if p == 0.0 else math.inf if p == 1.0 else p if p != p else math.nan


def normal_cdf(x: float) -> float:
    return x if x != x else 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_ppf(p: float) -> float:
    return _inv_cdf()(p) if 0.0 < p < 1.0 else _edge(p)


def log_odds(p: float) -> float:
    return math.log(p) - math.log1p(-p) if 0.0 < p < 1.0 else _edge(p)


def elementwise(f, x):
    """``f`` on each element of ``x``, shaped and typed as a numpy ufunc's output."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return out if out.ndim else out[()]


def _by_size(name: str, f):
    def special(x):
        x = np.asarray(x, dtype=float)
        if x.size > STDLIB_MAX_POINTS:
            import scipy.special
            return getattr(scipy.special, name)(x)
        return elementwise(f, x)

    return special


ndtr = _by_size("ndtr", normal_cdf)
ndtri = _by_size("ndtri", normal_ppf)
