"""Independent ground-truth generators for the acceptance tests.

These deliberately avoid the solver's code paths: eigenvalues come from
hand-rolled cyclic Jacobi rotations, singular values from the Gram
matrix, and the n=2 critical sets from sign-change bracketing plus
bisection on the circle.  Only the elementary contraction primitives
(evaluate, sym_gradient) are shared with the rest of the package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import evaluate, is_symmetric, sym_gradient
from .errors import DegenerateTensorError, ShapeError

__all__ = [
    "CriticalPoint",
    "CriticalSet",
    "jacobi_eigen",
    "svd_small",
    "circle_critical_points",
    "sphere_grid_search",
]


class CriticalPoint(NamedTuple):
    vector: np.ndarray
    value: float
    index: int


class CriticalSet(NamedTuple):
    points: tuple
    complete: bool
    resolution: float


def _batch_grad(data, V):
    """First-mode gradient of the form at each row of V, in all other modes.

    Contracts the last mode, then the others one at a time, so the order of
    the tensor is not limited by a table of einsum labels.
    """
    n = V.shape[1]
    G = V @ data.reshape(-1, n).T
    for _ in range(data.ndim - 2):
        G = np.einsum("Zxn,Zn->Zx", G.reshape(len(G), G.shape[1] // n, n), V)
    return G


def jacobi_eigen(A):
    """Eigendecomposition of a small symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues ascending, matrix of column eigenvectors).  Sweeps
    stop when the off-diagonal Frobenius mass is at most 1e-14 times the
    matrix scale.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > 32:
        raise ValueError("jacobi_eigen is meant for n <= 32")
    scale = float(np.linalg.norm(A))
    if float(np.max(np.abs(A - A.T))) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    a = (A + A.T) / 2
    V = np.eye(n)
    if scale == 0.0:
        return np.zeros(n), V

    def offdiag(m):
        return math.sqrt(max(float(np.sum(m * m)) - float(np.sum(np.diag(m) ** 2)), 0.0))

    for _sweep in range(40):
        if offdiag(a) <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                sgn = 1.0 if tau >= 0 else -1.0
                t = sgn / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def svd_small(A):
    """Singular values (descending) and vectors via the Gram matrix.

    Uses jacobi_eigen on A^T A; left vectors are A v / sigma, completed by
    Gram-Schmidt when sigma is numerically zero.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"need a matrix, got shape {A.shape}")
    m, n = A.shape
    if max(m, n) > 32:
        raise ValueError("svd_small is meant for m, n <= 32")
    G = A.T @ A
    w, V = jacobi_eigen((G + G.T) / 2)
    order = np.argsort(w, kind="stable")[::-1]
    r = min(m, n)
    w = w[order][:r]
    V = V[:, order][:, :r]
    sigma = np.sqrt(np.maximum(w, 0.0))
    U = np.zeros((m, r))
    for j in range(r):
        if sigma[j] > 1e-12:
            U[:, j] = A @ V[:, j] / sigma[j]
        else:
            # complete the left basis deterministically
            best = None
            best_norm = -1.0
            for e in range(m):
                cand = np.zeros(m)
                cand[e] = 1.0
                cand -= U[:, :j] @ (U[:, :j].T @ cand)
                nn = float(np.linalg.norm(cand))
                if nn > best_norm:
                    best, best_norm = cand, nn
            U[:, j] = best / best_norm
    return sigma, U, V


# ---------------------------------------------------------------------------
# complete critical sets on the circle (n = 2)
# ---------------------------------------------------------------------------


def _require_symmetric_on(tensor, n):
    if tensor.shape != (n,) * tensor.order or tensor.order < 2:
        raise ShapeError(f"need a square order>=2 tensor on R^{n}, got shape {tensor.shape}")
    if not is_symmetric(tensor):
        raise ValueError("tensor must be symmetric")


def _grid_restriction(data, thetas):
    """Values and derivative of theta -> f(v(theta),...) on the whole grid."""
    k = data.ndim
    V = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    G = _batch_grad(data, V)
    values = np.sum(G * V, axis=1)
    tangent = np.stack([-V[:, 1], V[:, 0]], axis=1)
    dg = k * np.sum(G * tangent, axis=1)
    return values, dg


def _restriction(tensor, theta):
    v = np.array([math.cos(theta), math.sin(theta)])
    return evaluate(tensor, [v] * tensor.order)


def _restriction_derivative(tensor, theta):
    v = np.array([math.cos(theta), math.sin(theta)])
    g = sym_gradient(tensor, v)
    return tensor.order * float(g @ np.array([-v[1], v[0]]))


def _bisect_root(tensor, a, b, tol):
    fa = _restriction_derivative(tensor, a)
    fb = _restriction_derivative(tensor, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        return None
    mid = 0.5 * (a + b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = _restriction_derivative(tensor, mid)
        if abs(fm) <= tol or (b - a) <= 1e-15:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return mid


def _check_resolution(resolution, finest):
    """Raise ValueError unless finest <= resolution < inf.

    ``finest`` is the resolution whose first grid has 2^20 points; a finer
    one would start the search beyond its largest grid.
    """
    if not finest <= resolution < math.inf:
        raise ValueError(
            f"resolution must be finite and at least {finest:.3g} "
            f"(a first grid of at most 2^20 points), got {resolution!r}"
        )


def _circle_scan(tensor, gridsize):
    """One pass at a fixed grid; None means an unclassifiable point was hit."""
    h = 2.0 * math.pi / gridsize
    thetas = (np.arange(gridsize) + 0.5) * h
    values, dg = _grid_restriction(tensor.data, thetas)
    dscale = float(np.max(np.abs(dg)))
    if dscale <= 1e-13 * max(1.0, float(np.max(np.abs(values)))):
        raise DegenerateTensorError(
            "the restriction to the circle is constant; every point is critical"
        )
    tol = 1e-13 * max(1.0, dscale)
    roots = []
    for i in range(gridsize):
        j = (i + 1) % gridsize
        a = thetas[i]
        b = thetas[i] + h
        if dg[i] == 0.0:
            roots.append(a)
            continue
        if dg[j] == 0.0:
            continue  # captured as the node of the next interval
        if (dg[i] > 0) != (dg[j] > 0):
            root = _bisect_root(tensor, a, b, tol)
            if root is not None:
                roots.append(root % (2.0 * math.pi))
    if not roots:
        return None
    roots = sorted(roots)
    merged = [roots[0]]
    for r in roots[1:]:
        if r - merged[-1] > 1e-9:
            merged.append(r)
    if len(merged) > 1 and (merged[0] + 2.0 * math.pi) - merged[-1] <= 1e-9:
        merged.pop()
    fd = 1e-5
    points = []
    for theta in merged:
        v = np.array([math.cos(theta), math.sin(theta)])
        value = evaluate(tensor, [v] * tensor.order)
        second = (
            _restriction(tensor, theta + fd)
            - 2.0 * value
            + _restriction(tensor, theta - fd)
        ) / fd**2
        if abs(second) <= 1e-7 * max(1.0, dscale):
            return None  # flat second derivative: refine or give up
        points.append(CriticalPoint(vector=v, value=float(value), index=1 if second < 0 else 0))
    return points


def circle_critical_points(tensor, resolution=2e-3):
    """Complete critical set of a symmetric tensor on R^2.

    Parametrizes the circle, brackets every sign change of the derivative
    on a uniform grid, and bisects.  Completeness is certified a
    posteriori: the minima and maxima must balance (index parity on the
    circle); a failure doubles the grid, up to 2^20 points.  A resolution
    that is not finite and positive, or finer than 2*pi / 2^20, raises
    ValueError.
    """
    _require_symmetric_on(tensor, 2)
    _check_resolution(resolution, 2.0 * math.pi / 2**20)
    gridsize = max(4096, int(math.ceil(2.0 * math.pi / resolution)))
    while gridsize <= 2**20:
        points = _circle_scan(tensor, gridsize)
        if points is not None:
            c0 = sum(1 for pt in points if pt.index == 0)
            c1 = sum(1 for pt in points if pt.index == 1)
            if c0 == c1 and c0 >= 1:
                return CriticalSet(
                    points=tuple(points),
                    complete=True,
                    resolution=2.0 * math.pi / gridsize,
                )
        gridsize *= 2
    raise DegenerateTensorError(
        "no balanced critical set found after maximal grid refinement; the "
        "tensor is degenerate or pathological on the circle"
    )


# ---------------------------------------------------------------------------
# heuristic high-recall search on the 2-sphere (n = 3)
# ---------------------------------------------------------------------------


def _fibonacci_sphere(count):
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    th = golden * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def _polish_on_sphere(data, V0, tol, iters=25):
    """Newton with a finite-difference Jacobian on the stationarity system."""
    k = data.ndim
    n = V0.shape[1]
    V = V0.copy()
    lam = np.sum(_batch_grad(data, V) * V, axis=1)

    def state(V, lam):
        G = _batch_grad(data, V)
        R = G - lam[:, None] * V
        c = (np.sum(V * V, axis=1) - 1.0) / 2.0
        F = np.concatenate([R, c[:, None]], axis=1)
        return F, np.linalg.norm(F, axis=1)

    F, Fn = state(V, lam)
    h = 1e-6
    for _ in range(iters):
        active = np.flatnonzero(Fn > 0.1 * tol)
        if active.size == 0:
            break
        Va = V[active]
        lama = lam[active]
        JG = np.empty((active.size, n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            JG[:, :, j] = (_batch_grad(data, Va + e) - _batch_grad(data, Va - e)) / (2 * h)
        K = np.zeros((active.size, n + 1, n + 1))
        K[:, :n, :n] = JG
        K[:, np.arange(n), np.arange(n)] -= lama[:, None]
        K[:, :n, n] = -Va
        K[:, n, :n] = Va
        try:
            dz = np.linalg.solve(K, -F[active][..., None])[..., 0]
        except np.linalg.LinAlgError:
            dz = -np.squeeze(np.linalg.pinv(K) @ F[active][..., None], axis=-1)
        dz[~np.all(np.isfinite(dz), axis=1)] = 0.0
        alpha = np.ones(active.size)
        done = np.zeros(active.size, dtype=bool)
        for _bt in range(20):
            todo = np.flatnonzero(~done)
            if todo.size == 0:
                break
            Vt = Va[todo] + alpha[todo, None] * dz[todo, :n]
            lamt = lama[todo] + alpha[todo] * dz[todo, n]
            Ft, Fnt = state(Vt, lamt)
            ok = np.isfinite(Fnt) & (Fnt <= (1 - 1e-4 * alpha[todo]) * Fn[active][todo])
            hit = todo[ok]
            rows = active[hit]
            V[rows] = Vt[ok]
            lam[rows] = lamt[ok]
            F[rows] = Ft[ok]
            Fn[rows] = Fnt[ok]
            done[hit] = True
            alpha[todo[~ok]] *= 0.5
    return V, lam


def _geodesic_index(tensor, v, value, step=1e-4):
    """(index, nondegenerate) from finite differences along tangent geodesics."""
    n = v.size
    k = tensor.order
    seed = np.zeros(n)
    seed[int(np.argmin(np.abs(v)))] = 1.0
    w1 = seed - (seed @ v) * v
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(v, w1)

    def second(w):
        plus = evaluate(tensor, [math.cos(step) * v + math.sin(step) * w] * k)
        minus = evaluate(tensor, [math.cos(step) * v - math.sin(step) * w] * k)
        return (plus - 2.0 * value + minus) / step**2

    h11 = second(w1)
    h22 = second(w2)
    h12 = second((w1 + w2) / math.sqrt(2.0)) - (h11 + h22) / 2.0
    mean = (h11 + h22) / 2.0
    spread = math.sqrt(max(((h11 - h22) / 2.0) ** 2 + h12 * h12, 0.0))
    eigs = (mean - spread, mean + spread)
    eps = 1e-4 * max(1.0, abs(eigs[0]), abs(eigs[1]))
    index = sum(1 for e in eigs if e < -eps)
    nondeg = all(abs(e) > eps for e in eigs)
    return index, nondeg


def sphere_grid_search(tensor, resolution=0.15, tol=1e-10):
    """Heuristic critical-point sweep on S^2 for symmetric tensors on R^3.

    Seeds a Newton polish from every node of a spherical Fibonacci grid.
    Recall is only heuristic, so ``complete`` is always False; the set is
    meant to cross-check the main solver.  A resolution that is not finite
    and positive, or finer than sqrt(4*pi / 2^20) (more than 2^20 nodes),
    raises ValueError.
    """
    _require_symmetric_on(tensor, 3)
    _check_resolution(resolution, math.sqrt(4.0 * math.pi / 2**20))
    count = max(int(math.ceil(4.0 * math.pi / resolution**2)), 200)
    nodes = _fibonacci_sphere(count)
    data = tensor.data
    V, lam = _polish_on_sphere(data, nodes, tol)
    nrm = np.linalg.norm(V, axis=1)
    good = np.isfinite(nrm) & (nrm > 1e-300)
    V = V[good] / nrm[good, None]
    G = _batch_grad(data, V)
    lam = np.sum(G * V, axis=1)
    resid = np.linalg.norm(G - lam[:, None] * V, axis=1)
    keep = np.flatnonzero(np.isfinite(resid) & (resid <= tol))
    reps = []
    for i in keep:
        if reps and float(np.min(np.linalg.norm(np.array(reps) - V[i], axis=1))) <= 1e-6:
            continue
        reps.append(V[i])
    k = tensor.order
    cap = 2 * (3 if k == 2 else ((k - 1) ** 3 - 1) // (k - 2))
    if len(reps) > cap:
        raise DegenerateTensorError(
            f"{len(reps)} isolated-looking stationary points on the sphere exceed "
            f"the generic bound {cap}; the tensor is degenerate"
        )
    points = []
    degenerate = 0
    for v in reps:
        value = evaluate(tensor, [v] * k)
        index, nondeg = _geodesic_index(tensor, v, value)
        if not nondeg:
            degenerate += 1
        points.append(CriticalPoint(vector=v, value=float(value), index=index))
    if points and 2 * degenerate > len(points):
        raise DegenerateTensorError(
            "most stationary points on the sphere classify as degenerate"
        )
    points.sort(key=lambda pt: (-pt.value, tuple(pt.vector.tolist())))
    return CriticalSet(points=tuple(points), complete=False, resolution=resolution)
