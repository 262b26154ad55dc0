"""Independent ground-truth generators for the acceptance tests.

These deliberately avoid the solver's code paths: eigenvalues come from
hand-rolled cyclic Jacobi rotations, singular values from the Gram
matrix, the n=2 critical sets from the real roots of one binary form and
the n>=3 ones from a diagonal-start homotopy.  Only ``is_symmetric`` is
shared with the rest of the package.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .core import is_symmetric
from .errors import DegenerateTensorError, ShapeError

__all__ = [
    "CriticalPoint",
    "CriticalSet",
    "jacobi_eigen",
    "svd_small",
    "circle_critical_points",
    "sphere_critical_points",
]


class CriticalPoint(NamedTuple):
    vector: np.ndarray
    value: float
    index: int


class CriticalSet(NamedTuple):
    points: tuple
    complete: bool
    resolution: float


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
# complete critical sets on the sphere (n >= 3): a diagonal-start homotopy
# ---------------------------------------------------------------------------


def _contract(data, X, m):
    """data contracted with each row of X in all but its first m modes: (rows,) + (n,) * m."""
    out = np.broadcast_to(data.reshape(1, -1), (len(X), data.size))
    for _ in range(data.ndim - m):
        out = np.einsum("rin,rn->ri", out.reshape(len(X), -1, X.shape[1]), X)
    return out.reshape((len(X),) + data.shape[:m])


def _system(data, d, a, Z, t):
    """F = [A(t) x^(k-1) - lam x ; a.x - 1] at rows z = (x, lam), its z-Jacobian and dF/dt."""
    k, (r, n) = data.ndim, Z[:, :-1].shape
    X, lam, s = Z[:, :-1], Z[:, -1:], t[:, None]
    Tm = _contract(data, X, 2)
    Tv = np.einsum("rij,rj->ri", Tm, X)
    Dv = d * X ** (k - 1)  # A(t) = (1 - t) diag(d) + t data, diag(d) in closed form
    F = np.concatenate([(1 - s) * Dv + s * Tv - lam * X, X @ a[:, None] - 1], axis=1)
    J = np.zeros((r, n + 1, n + 1), dtype=complex)
    J[:, :n, :n] = (k - 1) * s[..., None] * Tm
    J[:, range(n), range(n)] += (k - 1) * (1 - s) * d * X ** (k - 2) - lam
    J[:, :n, n] = -X
    J[:, n, :n] = a
    return F, J, np.concatenate([Tv - Dv, np.zeros((r, 1))], axis=1)


def _starts(d, a, k):
    """Each eigenvector class of diag(d) as a row (x, lam) in the chart a.x = 1.

    On a support S with least element i: x_i = 1, lam = d_i, x_j^(k-2) = d_i / d_j for
    each choice of roots.  A matrix (k = 2) has only the n singletons.
    """
    n = len(d)
    rows = []
    for size in range(1, n + 1 if k > 2 else 2):
        for i, *rest in itertools.combinations(range(n), size):
            for w in itertools.product(range(k - 2), repeat=len(rest)):
                z = np.zeros(n + 1, dtype=complex)
                z[i], z[n] = 1.0, d[i]
                z[rest] = np.exp((np.log(d[i] / d[rest]) + 2j * np.pi * np.array(w)) / (k - 2))
                rows.append(z)
    Z = np.array(rows)
    return Z / (Z[:, :n] @ a)[:, None] ** np.append(np.ones(n), k - 2)


def _track(data, d, a, Z):
    """Carry every row z from t = 0 to 1 in one batch, each with its own step.

    RK4 on dz/dt = -J^-1 dF/dt, three Newton corrections, a retry at half length.
    """
    t = np.zeros(len(Z))
    dt = np.full(len(Z), 0.05)

    def velocity(z, s):
        _, J, Ft = _system(data, d, a, z, s)
        return -np.linalg.solve(J, Ft[..., None])[..., 0]

    while np.any(t < 1):
        live = np.flatnonzero(t < 1)
        z, s = Z[live], t[live]
        # the last step lands on t = 1 exactly: 1 - t near eps would stall the control
        last = s + dt[live] >= 1
        h = np.where(last, 1 - s, dt[live])
        K = [velocity(z, s)]
        for c in (0.5, 0.5, 1.0):
            K.append(velocity(z + c * h[:, None] * K[-1], s + c * h))
        z = z + h[:, None] / 6 * (K[0] + 2 * K[1] + 2 * K[2] + K[3])
        s = np.where(last, 1.0, s + h)
        steps = []
        for _ in range(3):
            F, J, _ = _system(data, d, a, z, s)
            delta = np.linalg.solve(J, F[..., None])[..., 0]
            z = z - delta
            steps.append(np.linalg.norm(delta, axis=1))
        u = 1 + np.linalg.norm(z, axis=1)
        # a second correction at roundoff (a near-straight path) cannot halve
        ok = (steps[2] <= 1e-9 * u) & ((steps[2] <= steps[1] / 2) | (steps[1] <= 1e-12 * u))
        Z[live[ok]], t[live[ok]] = z[ok], s[ok]
        dt[live] = np.where(ok, np.minimum(2 * dt[live], 0.2), dt[live] / 2)
        if np.any(dt < 1e-10):
            raise DegenerateTensorError("a homotopy path stalled: its step fell below 1e-10")
    return Z


def sphere_critical_points(tensor):
    """Complete critical set of a symmetric tensor on R^n, n >= 3.

    Tracks A(t) x^(k-1) = lam x with A(t) = (1 - t) diag(d) + t T / 2^e (Chen, Han & Zhou,
    SIMAX 2016) from the eigenpairs of a fixed random complex d, one path per complex
    eigenvector class: ((k-1)^n - 1)/(k-2), or n for a matrix (Cartwright & Sturmfels, LAA
    2013); more than 1000 raise ValueError.  The tensor is degenerate when a path stalls,
    an endpoint is singular (sigma_min <= 1e-8 sigma_max at unit x) or two paths end in one
    class.  The points are +-v for each real endpoint; the index is the number of negative
    eigenvalues, minus one, of [[(k-1) T v^(k-2) - f(v) I, v], [v^T, 0]] (Haynsworth
    inertia).  ``resolution`` is the smallest angle between two points.
    """
    n, k = tensor.shape[0], tensor.order
    if n < 3:
        raise ShapeError(f"need n >= 3, got shape {tensor.shape}; on R^2 use circle_critical_points")
    _require_symmetric_on(tensor, n)
    count = n if k == 2 else ((k - 1) ** n - 1) // (k - 2)
    if count > 1000:  # refused before any work, as jacobi_eigen refuses n > 32
        raise ValueError(f"{count} eigenvector classes; the homotopy tracks at most 1000")
    # T / 2^e is exact and of the start system's scale
    data = np.ldexp(tensor.data, -math.frexp(float(np.max(np.abs(tensor.data))))[1])
    rng = np.random.default_rng(2016)  # one fixed start system: every call is reproducible
    d, a = rng.uniform(1.0, 2.0, (2, n)) * np.exp(2j * np.pi * rng.uniform(size=(2, n)))
    try:
        Z = _track(data, d, a, _starts(d, a, k))
    except np.linalg.LinAlgError as exc:
        raise DegenerateTensorError("a homotopy path met a singular Jacobian") from exc
    # the chart can be far from x (|z| ~ 1e4): judge the endpoints at unit x
    r = np.linalg.norm(Z[:, :n], axis=1)
    U = Z[:, :n] / r[:, None]
    _, J, _ = _system(data, d, a, np.column_stack([U, Z[:, n] / r ** (k - 2)]), np.ones(len(U)))
    J[:, n, :n] = U.conj()
    sigma = np.linalg.svd(J, compute_uv=False)
    if np.any(sigma[:, -1] <= 1e-8 * sigma[:, 0]):
        raise DegenerateTensorError("a homotopy endpoint is singular; the critical set is not finite")
    if np.sum(np.abs(U.conj() @ U.T) >= 1 - 1e-12) > len(U):
        raise DegenerateTensorError("two homotopy paths end in the same eigenvector class")
    Y = U / U[np.arange(len(U)), np.argmax(np.abs(U), axis=1), None]
    V = Y.real[np.max(np.abs(Y.imag), axis=1) <= 1e-8]
    V /= np.linalg.norm(V, axis=1)[:, None]
    V = np.concatenate([V, -V])
    values = _contract(tensor.data, V, 0)
    B = np.zeros((len(V), n + 1, n + 1))
    B[:, :n, :n] = (k - 1) * _contract(tensor.data, V, 2) - values[:, None, None] * np.eye(n)
    B[:, :n, n] = B[:, n, :n] = V
    index = np.sum(np.linalg.eigvalsh(B) < 0, axis=1) - 1
    gaps = np.linalg.norm(V[:, None] - V[None], axis=2)[np.triu_indices(len(V), 1)]
    order = np.lexsort((*V.T[::-1], -values))
    points = tuple(CriticalPoint(V[i], float(values[i]), int(index[i])) for i in order)
    return CriticalSet(points, complete=True, resolution=float(2 * np.arcsin(np.min(gaps) / 2)))
