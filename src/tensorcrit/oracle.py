"""Independent ground-truth generators for the acceptance tests.

These deliberately avoid the solver's code paths: eigenvalues come from
hand-rolled cyclic Jacobi rotations, singular values from the Gram
matrix, and the n=2 critical sets from the real roots of one binary
form, the derivative of the form along the circle.  Only ``evaluate``
and ``is_symmetric`` are shared with the rest of the package.
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


def _binary_form(data):
    """Coefficient a[m] of x^(k-m) y^m: the sum of the entries whose index holds m ones."""
    return np.bincount(np.indices(data.shape).sum(0).ravel(), weights=data.ravel())


def _turn(c):
    """x d/dy - y d/dx of the binary form c: its derivative d/dt along the circle."""
    m = np.arange(len(c))
    return (m + 1) * np.append(c[1:], 0.0) - (len(c) - m) * np.append(0.0, c[:-1])


def _on_circle(c, t):
    """The binary form c at (cos t, sin t), for every angle in t."""
    m = np.arange(len(c))
    return (np.cos(t)[:, None] ** (len(c) - 1 - m) * np.sin(t)[:, None] ** m) @ c


def circle_critical_points(tensor):
    """Complete critical set of a symmetric tensor on R^2.

    On v = (cos t, sin t) the form is a binary form f of degree k, and so is
    its derivative along the circle, h = x df/dy - y df/dx.  The critical
    points are +-v for each real root direction of h, at most k of them:
    ``np.roots`` in the chart tan t, three Newton steps, and the index from
    the exact second derivative.  The tensor is reported degenerate when
    the restriction is constant, when a root is multiple (second derivative
    below 1e-6 of the scale of h, two points closer than 1e-9, or a root
    Newton cannot polish) or when minima and maxima do not balance.  The
    thresholds are relative to the form's scale, so 2^j T gives the same
    points; ``resolution`` is the smallest angle between neighbouring points.
    """
    _require_symmetric_on(tensor, 2)
    # work on T / 2^e, exact, so that the sums of entries cannot overflow
    e = math.frexp(float(np.max(np.abs(tensor.data))))[1]
    a = _binary_form(np.ldexp(tensor.data, -e))
    h = _turn(a)
    h2 = _turn(h)
    hscale = float(np.max(np.abs(h)))
    if hscale <= 1e-13 * float(np.max(np.abs(a))):
        raise DegenerateTensorError(
            "the restriction to the circle is constant; every point is critical"
        )
    # h(cos t, sin t) = cos(t)^k h(1, tan t): a chart root u gives t = arctan u, and
    # the chart loses degree exactly when (0, 1) is a root.  A double root may come
    # back as a complex pair near the axis; it is kept and caught as multiple below.
    u = np.roots(h[::-1])
    t = np.arctan(u.real[np.abs(u.imag) <= 1e-7 * (1.0 + np.abs(u))])
    if h[-1] == 0.0:
        t = np.append(t, 0.5 * math.pi)
    for _ in range(3):
        d2 = _on_circle(h2, t)
        t = t - np.divide(_on_circle(h, t), d2, out=np.zeros_like(t), where=d2 != 0.0)
    t = np.sort(np.concatenate([t, t + math.pi]) % (2.0 * math.pi))
    gaps = np.diff(t, append=t[:1] + 2.0 * math.pi)
    second = _on_circle(h2, t)
    # rounding moves an angle by about k eps hscale / |f''|, about 1e-9 at this bound
    if (
        np.any(np.abs(second) <= 1e-6 * hscale)
        or np.any(gaps <= 1e-9)
        or not np.all(np.abs(_on_circle(h, t)) <= 1e-9 * hscale)
    ):
        raise DegenerateTensorError("the derivative along the circle has a multiple root")
    if t.size == 0 or 2 * np.sum(second < 0) != t.size:
        raise DegenerateTensorError("the minima and maxima on the circle do not balance")
    points = tuple(
        CriticalPoint(vector=np.array([math.cos(s), math.sin(s)]), value=float(v), index=int(d < 0))
        for s, v, d in zip(t, np.ldexp(_on_circle(a, t), e), second)
    )
    return CriticalSet(points, complete=True, resolution=float(np.min(gaps)))


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
