import numpy as np
import pytest
from hypothesis import settings

from tensorcrit import DenseTensor, evaluate

# Every property test draws the same examples on every run: no random seed, no example
# database and no deadline.  A test's own settings give only its max_examples.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def cubic():
    """Order-3 tensor on R^2 whose polynomial is x^3 + y^3."""
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = 1.0
    return DenseTensor(data)


def fd_mode_gradient(tensor, vectors, mode, step=1e-5):
    """Central finite differences of evaluate in the given mode's slot."""
    base = [np.array(v, dtype=float) for v in vectors]
    n = tensor.shape[mode - 1]
    out = np.empty(n)
    for j in range(n):
        plus = [v.copy() for v in base]
        minus = [v.copy() for v in base]
        plus[mode - 1][j] += step
        minus[mode - 1][j] -= step
        out[j] = (evaluate(tensor, plus) - evaluate(tensor, minus)) / (2 * step)
    return out


def geodesic_second_derivative(tensor, v, w, step=1e-4):
    """(f o c)''(0) for the great circle c(t) = cos(t) v + sin(t) w."""
    k = tensor.order
    f0 = evaluate(tensor, [v] * k)
    fp = evaluate(tensor, [np.cos(step) * v + np.sin(step) * w] * k)
    fm = evaluate(tensor, [np.cos(step) * v - np.sin(step) * w] * k)
    return (fp - 2 * f0 + fm) / step**2


def tangent_basis(v):
    """Orthonormal basis of the hyperplane orthogonal to the unit vector v."""
    _, _, vt = np.linalg.svd(np.asarray(v, dtype=float)[None, :])
    return vt[1:]


def match_pair(pairs, value, vector=None, value_tol=1e-8, overlap_tol=1e-8):
    """Pairs whose value (and vector direction, up to sign) matches."""
    found = []
    for pt in pairs:
        if abs(pt.value - value) > value_tol:
            continue
        if vector is not None and abs(abs(pt.vector @ vector) - 1.0) > overlap_tol:
            continue
        found.append(pt)
    return found
