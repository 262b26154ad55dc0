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


def _is_real(x) -> bool:
    """x is a real number; a bool is not (numpy's bool is no numbers.Real either)."""
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _real(x, name, above=None, at_least=None) -> float:
    """x as a float: a finite real number, > above and >= at_least where given, else ValueError.

    The package's numeric arguments all take this check or _integer's, which test float or int
    before the slower ABC.  A bool, a string or None is not a number: a cast would read True as 1.
    """
    try:
        v = float(x) if _is_real(x) else math.nan
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


def _real_array(x, name) -> np.ndarray:
    """x as a float array of finite reals, of any shape, else ValueError.

    Every entry, at any depth, must be a real number: a bool, a string, None, a complex number
    or a container is refused, never parsed or cast (numpy alone reads [True, 0.5] as
    [1.0, 0.5] and "1.5" as 1.5).  A float or int ndarray is taken as it is.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        arr = x.astype(float, copy=False)
    else:
        arr = np.array(x, dtype=object)
        bad = [e for e in arr.flat if not _is_real(e)]
        if bad:
            raise ValueError(f"{name} must hold real numbers, got a {type(bad[0]).__name__} entry")
        try:
            arr = arr.astype(float)
        except OverflowError:  # an int beyond the largest float
            raise ValueError(f"{name} must hold real numbers, got an int beyond binary64") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _in_range(out, what):
    """out, computed from finite inputs; a non-finite entry means a step overflowed: ValueError.

    In sums and products an inf only ever turns into an inf or a NaN, so
    testing the result finds every overflow on the way to it.
    """
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} overflows the float range")
    return out


def _as_vector(x, n=None, name="x") -> np.ndarray:
    """x as a 1-D float array of finite reals (see _real_array), of length n where given."""
    arr = _real_array(x, name)
    if arr.ndim != 1 or n is not None and arr.size != n:
        length = "" if n is None else f" with length {n}"
        raise ShapeError(f"{name} must be 1-D{length}, got shape {arr.shape}")
    return arr


# The largest norm parameter.  _scaled_norm brings max|y| into [2^-1/2, 2^1/2), so up to here its
# largest power |y_j|^p lies within 2^+-500 and no sum over a vector that fits in memory overflows
# or underflows; from p ~ 2044 on it leaves the normal range.
MAX_NORM_PARAM = 1000.0


def check_norm_param(p: float) -> float:
    """Validate a real 1 < p <= MAX_NORM_PARAM and return p as a float."""
    v = _real(p, "norm parameter p", above=1)
    if v > MAX_NORM_PARAM:
        raise ValueError(f"norm parameter p must be at most {MAX_NORM_PARAM:g}, got {p!r}")
    return v


def _scaled_norm(arr: np.ndarray, p: float):
    """(||y||_p, y, e) for y = arr / 2^e, the exact scaling that brings max|y| into [2^-1/2, 2^1/2).

    The powers |y_j|^p then neither overflow nor underflow for p up to
    MAX_NORM_PARAM.  Scaling by 2^e is exact, so at p = 2 the results are bit for bit
    those of the unscaled formulas wherever those stay in range.
    """
    e = math.frexp(float(np.max(np.abs(arr))) * math.sqrt(0.5))[1]
    y = np.ldexp(arr, -e)
    return float(np.sum(np.abs(y) ** p) ** (1.0 / p)), y, e


def p_norm(x, p: float) -> float:
    """(sum |x_j|^p)^(1/p); zero only for the zero vector.

    A norm beyond the largest float is a ValueError, as phi's powers are.
    """
    p = check_norm_param(p)
    norm, _, e = _scaled_norm(_as_vector(x), p)
    try:
        return math.ldexp(norm, e)
    except OverflowError:
        raise ValueError(f"the {p:g}-norm of x overflows the float range") from None


def phi(x, p: float) -> np.ndarray:
    """Componentwise signed power sgn(x_j)|x_j|^p, any finite p >= 0.

    A power beyond the largest float is a ValueError; one below the smallest is 0.
    """
    # an infinite p would map |x_j| > 1 to inf
    p = _real(p, "power p", at_least=0)
    arr = _as_vector(x)
    with np.errstate(over="ignore"):
        out = np.sign(arr) * np.abs(arr) ** p
    return _in_range(out, f"the signed power |x_j|^{p:g} of an entry of x")


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
