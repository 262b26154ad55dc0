"""Independent ground-truth generators for the acceptance tests.

These deliberately avoid the solver's code paths: eigenvalues come from
hand-rolled cyclic Jacobi rotations, singular values from the Gram
matrix, and the n=2 critical sets from sign-change bracketing plus
bisection on the circle, every evaluation batched through one grid
evaluator.  Only ``evaluate`` and ``is_symmetric`` are shared with the
rest of the package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import evaluate, is_symmetric
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
    """Values and derivative of theta -> f(v(theta),...) at every theta."""
    k = data.ndim
    V = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    G = _batch_grad(data, V)
    values = np.sum(G * V, axis=1)
    tangent = np.stack([-V[:, 1], V[:, 0]], axis=1)
    dg = k * np.sum(G * tangent, axis=1)
    return values, dg


def _hidden_root(data, thetas, dg, h, tol):
    """Whether dg may touch or cross zero between two nodes of its sign.

    A double root, or two roots in one cell, leaves no sign change on the
    grid.  Every node where |dg| is a local minimum and both neighbours
    share its sign gets a golden-section search for the bottom of sign*dg
    over its two cells; all nodes step together, one batch per step.
    """
    s, m = np.sign(dg), np.abs(dg)
    same = (np.roll(s, 1) == s) & (np.roll(s, -1) == s)
    nodes = np.flatnonzero(same & (m <= np.roll(m, 1)) & (m <= np.roll(m, -1)))
    s, lo, hi = s[nodes], thetas[nodes] - h, thetas[nodes] + h
    g = (math.sqrt(5.0) - 1.0) / 2.0
    # within ~1e-8 of its bottom sign*dg is flat to rounding; finer steps add nothing
    while nodes.size and np.max(hi - lo) > 1e-9:
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        _, dcd = _grid_restriction(data, np.concatenate([c, d]))
        fc, fd = np.split(np.tile(s, 2) * dcd, 2)
        if np.any(np.minimum(fc, fd) <= tol):
            return True
        left = fc < fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
    return False


def _bisect(data, a, b, sign_a, tol):
    """Roots of dg in the brackets [a, b], all bisected together."""
    live = np.ones(a.size, dtype=bool)
    while live.any():
        mid = 0.5 * (a + b)
        _, fm = _grid_restriction(data, mid)
        live &= (np.abs(fm) > tol) & (b - a > 1e-15)
        up = live & (np.sign(fm) == sign_a)
        a = np.where(up, mid, a)
        b = np.where(live & ~up, mid, b)
    return 0.5 * (a + b)


def _circle_scan(data, gridsize):
    """One pass at a fixed grid; None means an unclassifiable point was hit."""
    h = 2.0 * math.pi / gridsize
    thetas = (np.arange(gridsize) + 0.5) * h
    values, dg = _grid_restriction(data, thetas)
    dscale = float(np.max(np.abs(dg)))
    if dscale <= 1e-13 * float(np.max(np.abs(values))):
        raise DegenerateTensorError(
            "the restriction to the circle is constant; every point is critical"
        )
    tol = 1e-13 * dscale
    if _hidden_root(data, thetas, dg, h, tol):
        return None  # a double root or a pair inside one cell: refine
    s = np.sign(dg)
    brackets = np.flatnonzero((s != 0) & (np.roll(s, -1) == -s))
    roots = np.sort(np.concatenate([
        thetas[s == 0],
        _bisect(data, thetas[brackets], thetas[brackets] + h, s[brackets], tol) % (2.0 * math.pi),
    ]))
    if roots.size == 0:
        return None
    roots = roots[np.diff(roots, prepend=-1.0) > 1e-9]
    if roots.size > 1 and (roots[0] + 2.0 * math.pi) - roots[-1] <= 1e-9:
        roots = roots[:-1]
    fd = 1e-5
    f, _ = _grid_restriction(data, np.concatenate([roots, roots + fd, roots - fd]))
    value, plus, minus = np.split(f, 3)
    second = (plus - 2.0 * value + minus) / fd**2
    if np.any(np.abs(second) <= 1e-7 * dscale):
        return None  # flat second derivative: refine or give up
    return [
        CriticalPoint(vector=np.array([math.cos(t), math.sin(t)]), value=float(v), index=int(d2 < 0))
        for t, v, d2 in zip(roots, value, second)
    ]


def circle_critical_points(tensor):
    """Complete critical set of a symmetric tensor on R^2.

    Parametrizes the circle, brackets every sign change of the derivative
    on a uniform grid of 4096 nodes, and bisects.  A node where the
    derivative comes near zero without changing sign is searched for a
    double root or a pair of roots inside one cell.  Completeness is
    certified a posteriori: the minima and maxima must balance (index
    parity on the circle).  A hidden root, a flat point or an unbalanced
    set doubles the grid, up to 2^20 nodes; beyond that the tensor is
    reported degenerate.  Every threshold is relative to the tensor's own
    scale.  ``resolution`` in the result is the spacing of the grid that
    certified the set.
    """
    _require_symmetric_on(tensor, 2)
    gridsize = 4096
    while gridsize <= 2**20:
        points = _circle_scan(tensor.data, gridsize)
        if points is not None:
            maxima = sum(pt.index for pt in points)
            if maxima >= 1 and 2 * maxima == len(points):
                return CriticalSet(tuple(points), complete=True, resolution=2.0 * math.pi / gridsize)
        gridsize *= 2
    raise DegenerateTensorError(
        "no balanced critical set found after maximal grid refinement; the "
        "tensor is degenerate or pathological on the circle"
    )


# ---------------------------------------------------------------------------
# heuristic high-recall search on the 2-sphere (n = 3)
# ---------------------------------------------------------------------------

_SPHERE_RESOLUTION = 0.15  # Fibonacci-grid spacing
_SPHERE_TOL = 1e-10  # stationarity residual a kept point must reach


def _fibonacci_sphere(count):
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    th = golden * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def _polish_on_sphere(data, V0, iters=25):
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
        active = np.flatnonzero(Fn > 0.1 * _SPHERE_TOL)
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


def sphere_grid_search(tensor):
    """Heuristic critical-point sweep on S^2 for symmetric tensors on R^3.

    Seeds a Newton polish from every node of a spherical Fibonacci grid of
    spacing 0.15 (559 nodes) and keeps the points whose stationarity
    residual is at most 1e-10.  Recall is only heuristic, so ``complete``
    is always False; the set is meant to cross-check the main solver.
    """
    _require_symmetric_on(tensor, 3)
    nodes = _fibonacci_sphere(int(math.ceil(4.0 * math.pi / _SPHERE_RESOLUTION**2)))
    data = tensor.data
    V, lam = _polish_on_sphere(data, nodes)
    nrm = np.linalg.norm(V, axis=1)
    good = np.isfinite(nrm) & (nrm > 1e-300)
    V = V[good] / nrm[good, None]
    G = _batch_grad(data, V)
    lam = np.sum(G * V, axis=1)
    resid = np.linalg.norm(G - lam[:, None] * V, axis=1)
    keep = np.flatnonzero(np.isfinite(resid) & (resid <= _SPHERE_TOL))
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
    return CriticalSet(points=tuple(points), complete=False, resolution=_SPHERE_RESOLUTION)
