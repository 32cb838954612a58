"""Shared helpers: a session-wide grid cache keyed by distribution spec, and
a fourth-order central difference for checking derivatives."""

from __future__ import annotations

import numpy as np
import pytest

from biscv import shape

_GRID_CACHE: dict = {}


def grid_for(d, n: int = shape.DEFAULT_GRID_POINTS,
             eps: float = shape.DEFAULT_EPS) -> shape.Grid:
    key = (d.spec_string(), n, eps)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = shape.make_grid(d, n, eps)
    return _GRID_CACHE[key]


@pytest.fixture(scope="session")
def grid_cache():
    return grid_for


_H_FACTOR = float(np.finfo(float).eps) ** 0.2


def central_difference(fn, x: float, scale: float = 1.0) -> float:
    """Fourth-order central difference approximation to fn'(x).

    The step is ``scale * max(1, |x|) * eps**(1/5)``, snapped to a value
    exactly representable relative to ``x``.  Exact (up to rounding) for
    polynomials of degree <= 4.
    """
    h = scale * max(1.0, abs(x)) * _H_FACTOR
    t = x + h
    h = t - x  # snap so x+h and x-h straddle x symmetrically in floats
    return (fn(x - 2.0 * h) - 8.0 * fn(x - h)
            + 8.0 * fn(x + h) - fn(x + 2.0 * h)) / (12.0 * h)
