"""Stationary-point solvers for tensor eigenpairs and singular tuples.

An eigenpair (v, lam) of a square order-k tensor in mode i satisfies

    mode_gradient(T, (v, ..., v), i) = lam * phi_{p-1}(v),   ||v||_p = 1,

which makes lam the value f(v, ..., v) of the associated form (contract
the left side with v).  A singular tuple (v_1, ..., v_k, sigma) satisfies
the analogous equation in every mode simultaneously on the product of
unit spheres.  No closed-form enumeration exists for k > 2, so the
solvers run a multi-start search: projected gradient ascent/descent with
a renormalization retraction to seed extrema, damped Newton on the full
Lagrangian stationarity system to polish (and to reach saddles from raw
starts), then residual-based acceptance and deduplication.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _require_square,
    _require_symmetric,
    is_symmetric,
    mode_gradient,
    sym_hessian,
)
from .errors import DegenerateTensorError, ShapeError
from .norms import check_norm_param, phi

__all__ = [
    "SolverConfig",
    "EigenPair",
    "SingularTuple",
    "residual_eigen",
    "symmetric_eigenpairs",
    "mode_eigenpairs",
    "generalized_eigenpairs",
    "singular_tuples",
    "classify_index",
    "dedupe",
]

log = logging.getLogger(__name__)

# einsum labels for the tensor's modes; "Z" labels the batch of search points.
_LETTERS = string.ascii_letters[:-1]


def _check_order(k):
    if k > len(_LETTERS):
        raise ShapeError(f"tensor order {k} exceeds the supported maximum {len(_LETTERS)}")


@dataclass(frozen=True)
class SolverConfig:
    """Search effort, tolerances, and step control.

    Backtracking: Newton steps are damped by halving until the residual
    norm drops by the Armijo fraction ``armijo_slope * alpha``, up to
    ``max_backtracks`` halvings; ascent steps grow by ``step_grow`` after
    an improvement and shrink by ``step_shrink`` otherwise, starting from
    ``initial_step``.
    """

    restarts: int = 200
    max_iterations: int = 500
    gradient_tolerance: float = 1e-10
    dedupe_tolerance: float = 1e-6
    seed: int = 0
    p: float = 2.0
    initial_step: float = 0.25
    step_grow: float = 1.3
    step_shrink: float = 0.4
    armijo_slope: float = 1e-4
    max_backtracks: int = 25

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("gradient_tolerance", "dedupe_tolerance", "initial_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        check_norm_param(self.p)


@dataclass(frozen=True)
class EigenPair:
    """Unit vector and multiplier; mode 0 marks the symmetric solver."""

    vector: np.ndarray
    value: float
    mode: int
    residual: float
    index: int | None = None
    nondegenerate: bool | None = None
    near_zero_coords: bool = False

    def __post_init__(self):
        vec = np.array(self.vector, dtype=float)
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True)
class SingularTuple:
    """One unit vector per mode with the common multiplier sigma >= 0.

    ``critical_value`` is the value of the form at the tuple as found,
    before the sign canonicalization that makes sigma nonnegative.
    ``degenerate`` flags sigma indistinguishable from zero at the tensor's
    scale.
    """

    vectors: tuple
    sigma: float
    residual: float
    critical_value: float
    mode_multipliers: tuple
    degenerate: bool = False

    def __post_init__(self):
        vecs = []
        for v in self.vectors:
            arr = np.array(v, dtype=float)
            arr.flags.writeable = False
            vecs.append(arr)
        object.__setattr__(self, "vectors", tuple(vecs))
        object.__setattr__(self, "mode_multipliers", tuple(float(s) for s in self.mode_multipliers))


# ---------------------------------------------------------------------------
# batched primitives (rows = independent search points)
# ---------------------------------------------------------------------------


def _batch_eval(data, vs):
    k = data.ndim
    sub = _LETTERS[:k] + "," + ",".join("Z" + _LETTERS[i] for i in range(k)) + "->Z"
    return np.einsum(sub, data, *vs)


def _batch_mode_grad(data, vs, i0):
    k = data.ndim
    ops = [vs[r] for r in range(k) if r != i0]
    sub = (
        _LETTERS[:k]
        + ","
        + ",".join("Z" + _LETTERS[r] for r in range(k) if r != i0)
        + "->Z"
        + _LETTERS[i0]
    )
    return np.einsum(sub, data, *ops)


def _batch_pair_jac(data, vs, i0, r0):
    """d(mode-i0 gradient)/d(vector in slot r0), one matrix per row."""
    k = data.ndim
    rest = [m for m in range(k) if m not in (i0, r0)]
    if not rest:
        mat = data if i0 < r0 else data.T
        return np.broadcast_to(mat, (vs[0].shape[0],) + mat.shape)
    sub = (
        _LETTERS[:k]
        + ","
        + ",".join("Z" + _LETTERS[m] for m in rest)
        + "->Z"
        + _LETTERS[i0]
        + _LETTERS[r0]
    )
    return np.einsum(sub, data, *[vs[m] for m in rest])


def _phi_rows(V, q):
    return np.sign(V) * np.abs(V) ** q


def _phi_slope_rows(V, p):
    """Diagonal of d(phi_{p-1})/dv; clamped near zero when p < 2."""
    if p == 2.0:
        return np.ones_like(V)
    a = np.abs(V)
    if p < 2.0:
        a = np.maximum(a, 1e-8)
    return (p - 1.0) * a ** (p - 2.0)


def _p_norm_rows(V, p):
    return np.sum(np.abs(V) ** p, axis=1) ** (1.0 / p)


def _normalize_rows(V, p):
    return V / _p_norm_rows(V, p)[:, None]


def _random_starts(seed, restarts, dims, p):
    """One unit start tuple per restart; stream r is derived from (seed, r)."""
    seed_u = int(seed) & 0xFFFFFFFFFFFFFFFF
    out = [np.empty((restarts, n)) for n in dims]
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed_u, r]))
        for i, n in enumerate(dims):
            v = rng.standard_normal(n)
            while not np.any(v):
                v = rng.standard_normal(n)
            out[i][r] = v
    return [_normalize_rows(V, p) for V in out]


def _leaders(X, tol):
    """Greedy cluster leaders among the finite rows of X, in row order.

    Rows come in priority order.  The first free row leads a cluster that
    takes every later row within Euclidean distance tol of it, and the next
    free row leads the next cluster.  Non-finite rows are never leaders.
    """
    free = np.all(np.isfinite(X), axis=1)
    leaders = []
    while free.any():
        i = int(np.argmax(free))
        leaders.append(i)
        free[i] = False
        free[i + 1 :] &= np.linalg.norm(X[i + 1 :] - X[i], axis=1) > tol
    return np.array(leaders, dtype=int)


# ---------------------------------------------------------------------------
# damped Newton on a batch of square systems
# ---------------------------------------------------------------------------


def _damped_newton(z0, state_fn, jac_fn, config, iters, target):
    z = z0.copy()
    F, Fn = state_fn(z)
    stalled = ~np.isfinite(Fn)
    for _ in range(iters):
        active = np.flatnonzero((Fn > target) & ~stalled)
        if active.size == 0:
            break
        za = z[active]
        J = jac_fn(za)
        try:
            dz = np.linalg.solve(J, -F[active][..., None])[..., 0]
        except np.linalg.LinAlgError:
            dz = -np.squeeze(np.linalg.pinv(J) @ F[active][..., None], axis=-1)
        bad = ~np.all(np.isfinite(dz), axis=1)
        dz[bad] = 0.0
        alpha = np.ones(active.size)
        improved = np.zeros(active.size, dtype=bool)
        best_z = za.copy()
        best_F = F[active].copy()
        best_Fn = Fn[active].copy()
        for _bt in range(config.max_backtracks):
            todo = np.flatnonzero(~improved & ~bad)
            if todo.size == 0:
                break
            zt = za[todo] + alpha[todo, None] * dz[todo]
            Ft, Fnt = state_fn(zt)
            ok = np.isfinite(Fnt) & (Fnt <= (1.0 - config.armijo_slope * alpha[todo]) * Fn[active][todo])
            hit = todo[ok]
            best_z[hit] = zt[ok]
            best_F[hit] = Ft[ok]
            best_Fn[hit] = Fnt[ok]
            improved[hit] = True
            alpha[todo[~ok]] *= 0.5
        stalled[active[~improved]] = True
        z[active] = best_z
        F[active] = best_F
        Fn[active] = best_Fn
    return z


def _eigen_state_fn(data, i0, p):
    k = data.ndim
    n = data.shape[0]

    def state(z):
        V = z[:, :n]
        lam = z[:, n]
        with np.errstate(all="ignore"):
            G = _batch_mode_grad(data, [V] * k, i0)
            R = G - lam[:, None] * _phi_rows(V, p - 1.0)
            c = (np.sum(np.abs(V) ** p, axis=1) - 1.0) / p
            F = np.concatenate([R, c[:, None]], axis=1)
            return F, np.linalg.norm(F, axis=1)

    return state


def _eigen_jac_fn(data, i0, p, symmetric):
    k = data.ndim
    n = data.shape[0]
    diag = np.arange(n)

    def jac(z):
        V = z[:, :n]
        lam = z[:, n]
        with np.errstate(all="ignore"):
            if symmetric and k > 2:
                J = (k - 1) * _batch_pair_jac(data, [V] * k, i0, (i0 + 1) % k)
            else:
                J = sum(
                    _batch_pair_jac(data, [V] * k, i0, r) for r in range(k) if r != i0
                )
            J = np.array(J, dtype=float)
            J[:, diag, diag] -= lam[:, None] * _phi_slope_rows(V, p)
            Phi = _phi_rows(V, p - 1.0)
            K = np.zeros((V.shape[0], n + 1, n + 1))
            K[:, :n, :n] = J
            K[:, :n, n] = -Phi
            K[:, n, :n] = Phi
            return K

    return jac


def _polish_eigen(data, V0, i0, p, config, symmetric):
    if V0.shape[0] == 0:
        return V0, np.empty(0)
    k = data.ndim
    lam0 = _batch_eval(data, [V0] * k)
    z0 = np.concatenate([V0, lam0[:, None]], axis=1)
    z = _damped_newton(
        z0,
        _eigen_state_fn(data, i0, p),
        _eigen_jac_fn(data, i0, p, symmetric),
        config,
        iters=min(60, config.max_iterations),
        target=0.05 * config.gradient_tolerance,
    )
    n = data.shape[0]
    return z[:, :n], z[:, n]


def _accept_eigen(data, V, i0, p, gtol):
    """Renormalize, set the multiplier to the form value, filter by residual."""
    if V.shape[0] == 0:
        return np.empty((0, data.shape[0])), np.empty(0), np.empty(0)
    k = data.ndim
    with np.errstate(all="ignore"):
        nrm = _p_norm_rows(V, p)
        good = np.isfinite(nrm) & (nrm > 1e-300)
        V = V[good] / nrm[good, None]
        lam = _batch_eval(data, [V] * k)
        G = _batch_mode_grad(data, [V] * k, i0)
        resid = np.linalg.norm(G - lam[:, None] * _phi_rows(V, p - 1.0), axis=1)
    keep = np.isfinite(resid) & (resid <= gtol)
    return V[keep], lam[keep], resid[keep]


def _ascend(data, V0, p, sign, config, symmetric):
    """Projected gradient on the unit p-sphere, maximizing sign * f."""
    k = data.ndim
    V = V0.copy()
    step = np.full(V.shape[0], config.initial_step)
    f = sign * _batch_eval(data, [V] * k)
    for _ in range(min(60, config.max_iterations)):
        if symmetric:
            G = k * _batch_mode_grad(data, [V] * k, 0)
        else:
            G = sum(_batch_mode_grad(data, [V] * k, i) for i in range(k))
        W = V + sign * step[:, None] * G
        nrm = _p_norm_rows(W, p)
        ok = np.isfinite(nrm) & (nrm > 1e-300)
        W[ok] /= nrm[ok, None]
        W[~ok] = V[~ok]
        fW = sign * _batch_eval(data, [W] * k)
        better = fW > f + 1e-15
        V[better] = W[better]
        f[better] = fW[better]
        step[better] = np.minimum(step[better] * config.step_grow, 10.0)
        step[~better] *= config.step_shrink
        if np.all(step < 1e-12):
            break
    return V


def _stationary_candidates(tensor, i0, p, config, symmetric):
    """Accepted (vector, value, residual) triples from the multi-start search."""
    data = tensor.data
    n = tensor.shape[0]
    (V0,) = _random_starts(config.seed, config.restarts, (n,), p)
    chunks = []
    for sign in (1.0, -1.0):
        ends = _ascend(data, V0, p, sign, config, symmetric)
        reps = ends[_leaders(ends, 1e-3)]
        Vp, _ = _polish_eigen(data, reps, i0, p, config, symmetric)
        chunks.append(_accept_eigen(data, Vp, i0, p, config.gradient_tolerance))
    Vd, _ = _polish_eigen(data, V0, i0, p, config, symmetric)
    chunks.append(_accept_eigen(data, Vd, i0, p, config.gradient_tolerance))
    V = np.concatenate([c[0] for c in chunks])
    # antipodal completion: -v is stationary with multiplier (-1)^k lam
    V = np.concatenate([V, -V])
    return _accept_eigen(data, V, i0, p, config.gradient_tolerance)


def _max_isolated_points(n, k):
    """Twice the generic count of isolated eigenpairs (antipodes included)."""
    pairs = n if k == 2 else ((k - 1) ** n - 1) // (k - 2)
    return 2 * pairs


def _keys(points):
    """One row per point: its vectors concatenated."""
    return np.array(
        [np.concatenate((pt.vector,) if isinstance(pt, EigenPair) else pt.vectors) for pt in points]
    )


def _check_isolated(points, limit, cap, too_many):
    """Raise DegenerateTensorError unless the deduplicated points look isolated.

    More than ``cap`` points (None: no cap) raise with the message
    ``too_many``.  More than ``limit`` points that each have another point
    within 1e-2 look like samples of a continuum.
    """
    if cap is not None and len(points) > cap:
        raise DegenerateTensorError(too_many)
    if len(points) <= limit:
        return
    keys = _keys(points)
    crowd = 0
    for i in range(len(keys)):
        d = np.linalg.norm(keys - keys[i], axis=1)
        d[i] = np.inf
        crowd += float(d.min()) <= 1e-2
        if crowd > limit:
            noun = "stationary points" if isinstance(points[0], EigenPair) else "singular tuples"
            raise DegenerateTensorError(
                f"deduplicated {noun} crowd each other; the critical set looks like a continuum"
            )


def dedupe(points, tol):
    """Greedy clustering at Euclidean distance tol on concatenated vectors.

    Keeps the lowest-residual representative of each cluster, in input
    order; antipodal points are never merged (their distance is 2 on unit
    spheres).  Points with non-finite vectors are dropped.
    """
    if not points:
        return []
    keys = _keys(points)
    order = np.array(
        sorted(range(len(points)), key=lambda i: (points[i].residual, tuple(keys[i].tolist())))
    )
    return [points[i] for i in np.sort(order[_leaders(keys[order], tol)])]


def residual_eigen(tensor, v, value, mode, p=2.0):
    """Stationarity defect ||mode_gradient - value * phi_{p-1}(v)||_2 at a unit v."""
    _require_square(tensor)
    p = check_norm_param(p)
    vec = np.asarray(v, dtype=float)
    nrm = float(np.sum(np.abs(vec) ** p) ** (1.0 / p))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"v must be a unit vector in the p-norm, got ||v||_p = {nrm}")
    k = tensor.order
    grad = mode_gradient(tensor, [vec] * k, mode)
    return float(np.linalg.norm(grad - value * phi(vec, p - 1.0)))


def classify_index(tensor, v, value, residual_tolerance=1e-8):
    """Morse data of a symmetric eigenpair under the 2-norm.

    Restricts the second variation of f(x, ..., x) at v to the tangent
    space of the sphere: H_R = B^T (hessian - k * value * I) B for an
    orthonormal tangent basis B.  Returns (index, nondegenerate) where
    index counts the eigenvalues of H_R below the degeneracy threshold
    1e-8 * max(1, ||H_R||).
    """
    _require_symmetric(tensor)
    n = tensor.shape[0]
    if n < 2:
        raise ShapeError("index classification needs dimension >= 2")
    vec = np.asarray(v, dtype=float)
    r = residual_eigen(tensor, vec, value, 1, 2.0)
    if r > residual_tolerance:
        raise ValueError(
            f"(v, value) is not stationary enough to classify: residual {r:.3e} "
            f"exceeds {residual_tolerance:.3e}"
        )
    H = sym_hessian(tensor, vec) - tensor.order * value * np.eye(n)
    _, _, vt = np.linalg.svd(vec[None, :])
    B = vt[1:].T
    HR = B.T @ H @ B
    HR = (HR + HR.T) / 2
    eig = np.linalg.eigvalsh(HR)
    eps = 1e-8 * max(1.0, float(np.max(np.abs(eig))))
    index = int(np.sum(eig < -eps))
    nondegenerate = bool(np.all(np.abs(eig) > eps))
    return index, nondegenerate


def _sorted_pairs(pairs):
    return sorted(pairs, key=lambda pt: (-pt.value, tuple(pt.vector.tolist())))


def _eigen_run(tensor, mode, config):
    """Eigenpairs in ``mode`` under config.p; mode 0 is the symmetric problem.

    The symmetric problem under the 2-norm also gets Morse data.  Modes
    1..k use the symmetric Jacobian iff the tensor is symmetric.
    """
    k = tensor.order
    _require_square(tensor)
    if not 0 <= mode <= k:
        raise ValueError(f"mode must be in 0..{k} (0: symmetric), got {mode}")
    if mode == 0:
        _require_symmetric(tensor)
    symmetric = mode == 0 or is_symmetric(tensor)
    n = tensor.shape[0]
    if k < 2:
        raise ShapeError("eigenpair solvers need tensor order >= 2")
    if n < 2:
        raise ShapeError("eigenpair solvers need dimension >= 2")
    _check_order(k)
    p = check_norm_param(config.p)
    V, lam, resid = _stationary_candidates(tensor, max(mode - 1, 0), p, config, symmetric)
    flag_zero = p != 2.0
    pairs = [
        EigenPair(
            vector=V[i],
            value=float(lam[i]),
            mode=mode,
            residual=float(resid[i]),
            near_zero_coords=bool(flag_zero and np.min(np.abs(V[i])) < 1e-6),
        )
        for i in range(V.shape[0])
    ]
    # For p != 2 the stationarity field can vanish to order k-1 across an
    # isolated solution (diagonal tensors with p = k), so everything inside a
    # radius ~ tol^(1/(k-1)) ball passes the residual test; widen the merge
    # radius to that scale to report one point per solution.
    merge_tol = config.dedupe_tolerance
    if p != 2.0:
        merge_tol = max(merge_tol, 10.0 * config.gradient_tolerance ** (1.0 / (k - 1)))
    pairs = dedupe(pairs, merge_tol)
    _check_isolated(
        pairs, 3 * n, _max_isolated_points(n, k) if p == 2.0 else None,
        f"{len(pairs)} stationary points survive deduplication, more than any "
        f"tensor with isolated critical points can have; the critical set looks like a continuum",
    )
    if mode == 0 and p == 2.0:
        classified = []
        degenerate = 0
        for pt in pairs:
            idx, nondeg = classify_index(
                tensor, pt.vector, pt.value,
                residual_tolerance=max(1e-8, 10 * config.gradient_tolerance),
            )
            if not nondeg:
                degenerate += 1
            classified.append(replace(pt, index=idx, nondegenerate=nondeg))
        if classified and 2 * degenerate > len(classified):
            raise DegenerateTensorError(
                f"{degenerate} of {len(classified)} stationary points are "
                f"degenerate critical points; the tensor is degenerate"
            )
        pairs = classified
    if not pairs:
        log.info(
            "no stationary points found at this effort (restarts=%d); "
            "the spectrum may be empty over the reals",
            config.restarts,
        )
    return _sorted_pairs(pairs)


def symmetric_eigenpairs(tensor, config=None):
    """All eigenpairs of a symmetric tensor found by the multi-start search.

    Pairs are sorted by descending value; v and -v count separately.  Each
    pair carries its Morse index and nondegeneracy flag.  Raises
    DegenerateTensorError when the critical set is not a finite set of
    nondegenerate points (e.g. the identity matrix).
    """
    config = config or SolverConfig()
    if config.p != 2.0:
        raise ValueError(
            "symmetric eigenpairs use the 2-norm; use generalized_eigenpairs "
            "for other norm parameters"
        )
    return _eigen_run(tensor, 0, config)


def mode_eigenpairs(tensor, mode, config=None):
    """Mode-i eigenpairs of a square (not necessarily symmetric) tensor.

    Mode 0 is the symmetric problem and returns what symmetric_eigenpairs
    returns.
    """
    config = config or SolverConfig()
    if config.p != 2.0:
        raise ValueError("mode_eigenpairs uses the 2-norm; see generalized_eigenpairs")
    return _eigen_run(tensor, mode, config)


def generalized_eigenpairs(tensor, mode, config=None):
    """Mode-i eigenpairs under the p-norm from the config (1 < p < inf).

    ``mode`` is 0..k.  Mode 0 is the symmetric problem: the tensor must be
    symmetric, and with p = 2 the pairs carry Morse data exactly as from
    symmetric_eigenpairs.  With p = 2, modes 1..k reproduce mode_eigenpairs
    exactly.  Pairs whose vectors have near-zero coordinates are flagged
    when p != 2, since the p-norm is not twice differentiable there for
    p < 2.
    """
    return _eigen_run(tensor, mode, config or SolverConfig())


# ---------------------------------------------------------------------------
# singular tuples
# ---------------------------------------------------------------------------


def _singular_layout(dims):
    off = np.concatenate([[0], np.cumsum(dims)])
    return off, int(off[-1])


def _split(z, dims, off):
    return [z[:, off[i] : off[i + 1]] for i in range(len(dims))]


def _singular_state_fn(data, p):
    dims = data.shape
    k = data.ndim
    off, total = _singular_layout(dims)

    def state(z):
        Ws = _split(z, dims, off)
        s = z[:, total : total + k]
        with np.errstate(all="ignore"):
            blocks = []
            cons = []
            for i in range(k):
                G = _batch_mode_grad(data, Ws, i)
                blocks.append(G - s[:, i : i + 1] * _phi_rows(Ws[i], p - 1.0))
                cons.append((np.sum(np.abs(Ws[i]) ** p, axis=1) - 1.0) / p)
            F = np.concatenate(blocks + [np.stack(cons, axis=1)], axis=1)
            return F, np.linalg.norm(F, axis=1)

    return state


def _singular_jac_fn(data, p):
    dims = data.shape
    k = data.ndim
    off, total = _singular_layout(dims)
    size = total + k

    def jac(z):
        Ws = _split(z, dims, off)
        s = z[:, total : total + k]
        m = z.shape[0]
        K = np.zeros((m, size, size))
        with np.errstate(all="ignore"):
            for i in range(k):
                ri = slice(off[i], off[i + 1])
                for j in range(k):
                    cj = slice(off[j], off[j + 1])
                    if j == i:
                        d = -s[:, i : i + 1] * _phi_slope_rows(Ws[i], p)
                        K[:, ri, cj] = d[:, :, None] * np.eye(dims[i])
                    else:
                        K[:, ri, cj] = _batch_pair_jac(data, Ws, i, j)
                Phi = _phi_rows(Ws[i], p - 1.0)
                K[:, ri, total + i] = -Phi
                K[:, total + i, ri] = Phi
        return K

    return jac


def _alternating_ascent(data, Ws0, p, config):
    """Cyclic best-response updates; each solves its single-mode stationarity."""
    k = data.ndim
    Ws = [W.copy() for W in Ws0]
    q = 1.0 / (p - 1.0)
    for _ in range(min(40, config.max_iterations)):
        for i in range(k):
            G = _batch_mode_grad(data, Ws, i)
            with np.errstate(all="ignore"):
                U = _phi_rows(G, q)
                nrm = _p_norm_rows(U, p)
            ok = np.isfinite(nrm) & (nrm > 1e-300)
            Ws[i][ok] = U[ok] / nrm[ok, None]
    return Ws


def _accept_singular(data, Ws, p, gtol, scale):
    k = data.ndim
    out = []
    m = Ws[0].shape[0]
    with np.errstate(all="ignore"):
        nrms = [_p_norm_rows(W, p) for W in Ws]
        good = np.ones(m, dtype=bool)
        for nrm in nrms:
            good &= np.isfinite(nrm) & (nrm > 1e-300)
        Ws = [W[good] / nrm[good, None] for W, nrm in zip(Ws, nrms)]
        raw = _batch_eval(data, Ws)
        # canonical sign: flip the first vector wherever the value is negative
        flip = raw < 0
        Ws[0] = np.where(flip[:, None], -Ws[0], Ws[0])
        sigma = _batch_eval(data, Ws)
        grads = [_batch_mode_grad(data, Ws, i) for i in range(k)]
        phis = [_phi_rows(W, p - 1.0) for W in Ws]
        resid = np.stack(
            [np.linalg.norm(g - sigma[:, None] * f, axis=1) for g, f in zip(grads, phis)],
            axis=1,
        ).max(axis=1)
        mults = np.stack(
            [
                np.sum(g * f, axis=1) / np.sum(f * f, axis=1)
                for g, f in zip(grads, phis)
            ],
            axis=1,
        )
    keep = np.isfinite(resid) & (resid <= gtol)
    for i in np.flatnonzero(keep):
        out.append(
            SingularTuple(
                vectors=tuple(W[i] for W in Ws),
                sigma=float(sigma[i]),
                residual=float(resid[i]),
                critical_value=float(raw[i]),
                mode_multipliers=tuple(mults[i]),
                degenerate=bool(abs(sigma[i]) <= 1e-8 * scale),
            )
        )
    return out


def singular_tuples(tensor, config=None):
    """Singular tuples of a (possibly rectangular) tensor, sigma descending.

    Alternating maximization seeds the large-sigma tuples; damped Newton
    from the raw random starts reaches the saddle tuples.  Every accepted
    tuple satisfies all k mode equations with the common multiplier
    sigma = f(v_1, ..., v_k) within the gradient tolerance.
    """
    config = config or SolverConfig()
    k = tensor.order
    if k < 2:
        raise ValueError("singular tuples need tensor order >= 2")
    _check_order(k)
    p = check_norm_param(config.p)
    data = tensor.data
    dims = tensor.shape
    off, total = _singular_layout(dims)
    scale = float(np.linalg.norm(data.reshape(-1)))
    Ws0 = _random_starts(config.seed, config.restarts, dims, p)
    state = _singular_state_fn(data, p)
    jacf = _singular_jac_fn(data, p)

    def polish(Ws):
        if Ws[0].shape[0] == 0:
            return []
        s0 = np.repeat(_batch_eval(data, Ws)[:, None], k, axis=1)
        z0 = np.concatenate(list(Ws) + [s0], axis=1)
        z = _damped_newton(
            z0, state, jacf, config,
            iters=min(60, config.max_iterations),
            target=0.05 * config.gradient_tolerance,
        )
        return _accept_singular(
            data, _split(z, dims, off), p, config.gradient_tolerance, scale
        )

    ends = _alternating_ascent(data, Ws0, p, config)
    cat = np.concatenate(ends, axis=1)
    reps = cat[_leaders(cat, 1e-3)]
    found = polish(_split(reps, dims, off)) + polish(Ws0)
    found = dedupe(found, config.dedupe_tolerance)
    _check_isolated(
        found, 3 * total, 3 * total if all(t.degenerate for t in found) else None,
        "every surviving tuple has a vanishing singular value and the set is "
        "large; the tensor looks identically degenerate",
    )
    if not found:
        log.info(
            "no singular tuples found at this effort (restarts=%d)", config.restarts
        )
    return sorted(
        found,
        key=lambda t: (-t.sigma, tuple(np.concatenate(t.vectors).tolist())),
    )
