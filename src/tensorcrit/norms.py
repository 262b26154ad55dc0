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

from .errors import ShapeError

__all__ = ["check_norm_param", "p_norm", "phi", "p_norm_gradient", "unit_normalize"]


def _real(x, name, above=None, at_least=None) -> float:
    """x as a float: a finite real number, > above and >= at_least where given, else ValueError.

    The package's numeric arguments all take this check or _integer's, which test float or int
    before the slower ABC.  A bool, a string or None is not a number: a cast would read True as 1.
    """
    real = type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)
    try:
        v = float(x) if real else math.nan
    except OverflowError:  # an int beyond the largest float is out of range, like inf
        v = math.nan
    if not (math.isfinite(v) and (above is None or v > above) and (at_least is None or v >= at_least)):
        bound = f" > {above}" if above is not None else f" >= {at_least}" if at_least is not None else ""
        raise ValueError(f"{name} must be a finite real number{bound}, got {x!r}")
    return v


def _integer(x, name, low=None, high=None) -> int:
    """x as an int, in low..high where given, else ValueError."""
    if not ((type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool))
            and (low is None or x >= low) and (high is None or x <= high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise ValueError(f"{name} must be an integer{bound}, got {x!r}")
    return int(x)


def _as_vector(x, n=None, name="x") -> np.ndarray:
    """x as a 1-D float array of finite reals (no strings, bools or complex), of length n where given."""
    # numpy reads a bool among numbers as one ([True, 0.5] as [1.0, 0.5]), so a list's entries are checked first
    if isinstance(x, (list, tuple)) and any(isinstance(e, (bool, np.bool_)) for e in x):
        raise ValueError(f"{name} must hold real numbers, got a bool entry")
    arr = np.asarray(x)
    try:
        arr = arr.astype(float, copy=False) if arr.dtype.kind in "iufO" else None
    except (TypeError, OverflowError):
        arr = None
    if arr is None:
        raise ValueError(f"{name} must hold real numbers, got dtype {np.asarray(x).dtype}")
    if arr.ndim != 1 or n is not None and arr.size != n:
        length = "" if n is None else f" with length {n}"
        raise ShapeError(f"{name} must be 1-D{length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def check_norm_param(p: float) -> float:
    """Validate a real 1 < p < inf and return p as a float."""
    return _real(p, "norm parameter p", above=1)


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
    # an infinite p would map |x_j| > 1 to inf
    p = _real(p, "power p", at_least=0)
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
