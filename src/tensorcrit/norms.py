"""Lp norms, the signed power map, and the norm gradient.

The signed power map is phi_p(x)[j] = sgn(x_j) |x_j|^p with sgn(0) = 0,
and for 1 < p < inf the norm gradient is

    grad ||x||_p = phi_{p-1}(x) / ||x||_p^{p-1},

valid away from the origin.  The absolute values in phi matter: they keep
the sign of negative coordinates under even powers (phi_2((-2,)) = (-4,)).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["check_norm_param", "p_norm", "phi", "p_norm_gradient", "unit_normalize"]


def _is_a(x, kind):
    """isinstance(x, kind) for a numbers ABC, bool excepted: a cast would read True as 1 and "2" as 2."""
    return isinstance(x, kind) and not isinstance(x, bool)


def check_norm_param(p: float) -> float:
    """Validate a real 1 < p < inf and return p as a float."""
    if not (_is_a(p, numbers.Real) and p > 1.0 and math.isfinite(p)):
        raise ValueError(f"norm parameter must be a real number with 1 < p < inf, got {p!r}")
    return float(p)


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def _scaled_norm(arr: np.ndarray, p: float):
    """(||y||_p, y, e) for y = arr / 2^e, the exact scaling that brings max|y| into [2^-1/2, 2^1/2).

    The powers |y_j|^p then neither overflow nor underflow for p up to about
    2000.  Scaling by 2^e is exact, so at p = 2 the results are bit for bit
    those of the unscaled formulas wherever those stay in range.
    """
    e = math.frexp(float(np.max(np.abs(arr))) * math.sqrt(0.5))[1]
    y = np.ldexp(arr, -e)
    return float(np.sum(np.abs(y) ** p) ** (1.0 / p)), y, e


def p_norm(x, p: float) -> float:
    """(sum |x_j|^p)^(1/p); zero only for the zero vector."""
    p = check_norm_param(p)
    norm, _, e = _scaled_norm(_as_vector(x), p)
    return float(np.ldexp(norm, e))


def phi(x, p: float) -> np.ndarray:
    """Componentwise signed power sgn(x_j)|x_j|^p, any finite p >= 0."""
    # a NaN p fails p >= 0; an infinite one would map |x_j| > 1 to inf
    if not (_is_a(p, numbers.Real) and p >= 0 and math.isfinite(p)):
        raise ValueError(f"signed power map needs a real, finite p >= 0, got {p!r}")
    arr = _as_vector(x)
    return np.sign(arr) * np.abs(arr) ** p


def p_norm_gradient(x, p: float) -> np.ndarray:
    """Gradient of the p-norm at x != 0; satisfies x . grad = ||x||_p."""
    p = check_norm_param(p)
    arr = _as_vector(x)
    if not np.any(arr):
        raise ValueError("p-norm has no gradient at the origin")
    norm, y, _ = _scaled_norm(arr, p)  # the gradient is homogeneous of degree 0
    return phi(y, p - 1.0) / norm ** (p - 1.0)


def unit_normalize(x, p: float) -> np.ndarray:
    """x / ||x||_p for x != 0."""
    p = check_norm_param(p)
    arr = _as_vector(x)
    if not np.any(arr):
        raise ValueError("cannot normalize the zero vector")
    norm, y, _ = _scaled_norm(arr, p)
    return y / norm
