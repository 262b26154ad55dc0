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

import functools
import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _check_vectors,
    _require_square,
    _require_symmetric,
    is_symmetric,
    mode_gradient,
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

# Effort caps and step control of the search.  Newton steps are damped as
# _damped_newton describes, with the Armijo fraction _ARMIJO_SLOPE * alpha.
# Ascent steps start at _INITIAL_STEP, grow by _STEP_GROW after an improvement
# and shrink by _STEP_SHRINK otherwise.  Points closer than _DEDUPE_TOLERANCE
# count as one.
_NEWTON_ITERATIONS = 60
_ASCENT_ITERATIONS = 60
_ALTERNATING_SWEEPS = 40
_DEDUPE_TOLERANCE = 1e-6
_INITIAL_STEP = 0.25
_STEP_GROW = 1.3
_STEP_SHRINK = 0.4
_ARMIJO_SLOPE = 1e-4
_MAX_BACKTRACKS = 25


@dataclass(frozen=True)
class SolverConfig:
    """The settings a caller chooses: search effort, acceptance tolerance, norm.

    The search runs from ``restarts`` random starts drawn from ``seed``, and
    accepts a point whose stationarity residual is at most
    ``gradient_tolerance`` under the p-norm constraint.  Step control and
    iteration caps are the module constants above.
    """

    restarts: int = 200
    gradient_tolerance: float = 1e-10
    seed: int = 0
    p: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.restarts, numbers.Integral) and self.restarts >= 1):
            raise ValueError("restarts must be an integer >= 1")
        if not 0 < self.gradient_tolerance < np.inf:
            raise ValueError("gradient_tolerance must be finite and > 0")
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


def _batch_contract(data, vs, keep):
    """Contract data with vs[m] in every mode m not in ``keep``, one row per point.

    Returns shape (rows,) + the dims of the kept modes, in ``keep`` order.
    The modes are contracted one at a time, each by a two-operand einsum
    over the leading axis (the kept modes are moved last), so the work is
    about rows * size(data) multiply-adds instead of a joint pass over every
    index with k products.  Each output row depends only on the same rows of
    vs, bit for bit, whatever the number of rows: the line search and the
    ascent's carried gradients rely on this.
    """
    dims = data.shape
    rest = [m for m in range(data.ndim) if m not in keep]
    D = np.transpose(data, rest + list(keep))
    out = np.einsum("nX,Zn->ZX", D.reshape(dims[rest[0]], -1), vs[rest[0]])
    for m in rest[1:]:
        out = np.einsum("Znx,Zn->Zx", out.reshape(len(out), dims[m], out.shape[1] // dims[m]), vs[m])
    return out.reshape((len(out),) + tuple(dims[m] for m in keep))


def _contract_axis(T, v, before):
    """Contract, row by row, the axis of length v.shape[1] that follows ``before`` entries.

    T is the flat tensor itself (no row axis) or one flat tensor per row, in
    C order; both reshapes are views, so the tensor is never copied.  Like
    _batch_contract, each output row depends only on the same row of v.
    """
    n = v.shape[1]
    if T.ndim == 1:
        return np.einsum("anb,Zn->Zab", T.reshape(before, n, -1), v)
    after = math.prod(T.shape[1:]) // (before * n)
    return np.einsum("Zanb,Zn->Zab", T.reshape(len(T), before, n, after), v)


def _grad_tree(T, vs, dims, lo, hi, before, out):
    """Set out[m], for m in lo..hi-1, to T contracted in every mode of lo..hi-1 but m.

    T holds, after ``before`` kept entries, the tensor over modes lo..hi-1.
    Contracting the leading half of the modes gives the tensor over the
    trailing half and vice versa; each half recurses, so only the first
    contraction on each side touches all of T.
    """
    if hi - lo == 1:
        out[lo] = T
        return
    mid = (lo + hi) // 2
    L = T
    for m in range(lo, mid):
        L = _contract_axis(L, vs[m], before)
    _grad_tree(L, vs, dims, mid, hi, before, out)
    R = T
    for m in reversed(range(mid, hi)):
        R = _contract_axis(R, vs[m], before * math.prod(dims[lo:m]))
    _grad_tree(R, vs, dims, lo, mid, before, out)


def _batch_mode_grads(data, vs):
    """All k mode gradients, [_batch_mode_grad(data, vs, i) for i in range(k)], from one tree.

    Two contractions touch the whole tensor, whatever k.  The summation order
    differs from _batch_contract's, so the results agree to rounding, and
    rows stay independent bit for bit.
    """
    dims = data.shape
    out = [None] * len(dims)
    _grad_tree(data.reshape(-1), vs, dims, 0, len(dims), 1, out)
    return [g.reshape(len(g), n) for g, n in zip(out, dims)]


def _batch_pair_jacs(data, vs):
    """Every unordered pair block {(i, j): _batch_pair_jac(data, vs, i, j)}, i < j.

    The (j, i) block is the swapaxes of the (i, j) one.  The blocks (i, .)
    come from the tensor contracted in modes 0..i-1, which extends the one
    for i - 1 by a single contraction, through the gradient tree over modes
    i+1..k-1 with mode i kept in front.  Three contractions touch the whole
    tensor, whatever k >= 3; a matrix's one block is a broadcast view of it.
    """
    dims = data.shape
    k = len(dims)
    rows = len(vs[0])
    out = {}
    P = data.reshape(-1)
    for i in range(k - 1):
        if i:
            P = _contract_axis(P, vs[i - 1], 1)
        leaves = [None] * k
        _grad_tree(P, vs, dims, i + 1, k, dims[i], leaves)
        for j in range(i + 1, k):
            shape = (rows, dims[i], dims[j])
            B = leaves[j]
            out[i, j] = np.broadcast_to(B.reshape(shape[1:]), shape) if B.ndim == 1 else B.reshape(shape)
    return out


def _dot_rows(A, B):
    return np.einsum("Za,Za->Z", A, B)


def _batch_eval(data, vs):
    """Form value per row, as <mode-0 gradient, vs[0]>."""
    return _dot_rows(_batch_contract(data, vs, (0,)), vs[0])


def _batch_mode_grad(data, vs, i0):
    return _batch_contract(data, vs, (i0,))


def _batch_pair_jac(data, vs, i0, r0):
    """d(mode-i0 gradient)/d(vector in slot r0), one matrix per row."""
    if data.ndim == 2:
        mat = data if i0 < r0 else data.T
        return np.broadcast_to(mat, (vs[0].shape[0],) + mat.shape)
    return _batch_contract(data, vs, (i0, r0))


def _phi_rows(V, q):
    if q == 1.0:
        return V
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
    """One unit start tuple per restart; stream r is derived from (seed, r).

    Returns a fresh list of read-only arrays that are shared with every
    other call with the same arguments.
    """
    return list(_start_table(int(seed) & 0xFFFFFFFFFFFFFFFF, int(restarts), tuple(dims), float(p)))


@functools.lru_cache(maxsize=64)
def _start_table(seed_u, restarts, dims, p):
    out = [np.empty((restarts, n)) for n in dims]
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed_u, r]))
        for i, n in enumerate(dims):
            v = rng.standard_normal(n)
            while not np.any(v):
                v = rng.standard_normal(n)
            out[i][r] = v
    starts = tuple(_normalize_rows(V, p) for V in out)
    for V in starts:
        V.flags.writeable = False
    return starts


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


def _min_norm_steps(J, F):
    """The minimum-norm dz with J dz = -F, for every row."""
    return -(np.linalg.pinv(J) @ F[..., None])[..., 0]


def _newton_steps(J, F):
    """dz with J dz = -F per row; a row whose own J is singular takes the pinv step.

    The batched solve raises if any J is exactly singular.  The rows whose
    LU factorization meets a zero pivot are exactly those where slogdet has
    sign 0, so those rows take the pinv step and the others are solved
    apart from them: a singular row changes no other row's step.
    """
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(J)[0] == 0
    dz = np.empty_like(F)
    ok = ~singular
    dz[ok] = np.linalg.solve(J[ok], -F[ok][..., None])[..., 0]
    dz[singular] = _min_norm_steps(J[singular], F[singular])
    return dz


def _damped_newton(z0, state_fn, jac_fn, gtol, steps=_newton_steps):
    """Damped Newton on the square systems F(z) = 0, one per row of z0.

    At most _NEWTON_ITERATIONS iterations; a row is done when its residual
    norm is at most 0.05 * gtol.

    Each row takes the longest step alpha * dz, alpha in 2^0, 2^-1, ...,
    2^-(_MAX_BACKTRACKS-1), that passes the Armijo test; a row with no such
    alpha, or a non-finite Newton step, stalls.  The step lengths are tried
    in doubling blocks (2^0; 2^-1..2^-2; 2^-3..2^-6; ...), one state_fn call
    per block on every row still searching, so an iteration makes at most
    ceil(log2(_MAX_BACKTRACKS + 1)) calls.  The alphas are exact powers of
    two and state_fn works row by row, so the outcome is bit-identical to
    trying the halvings one at a time.  ``steps(J, F)`` gives the Newton
    steps of the active rows: _newton_steps, or _min_norm_steps where a
    solution set may be positive-dimensional.
    """
    target = 0.05 * gtol
    z = z0.copy()
    F, Fn = state_fn(z)
    calls, trial_rows, newton_iters = 1, 0, 0
    stalled = ~np.isfinite(Fn)
    for _ in range(_NEWTON_ITERATIONS):
        active = np.flatnonzero((Fn > target) & ~stalled)
        if active.size == 0:
            break
        newton_iters += 1
        za = z[active]
        Fa = Fn[active]
        dz = steps(jac_fn(za), F[active])
        searching = np.flatnonzero(np.all(np.isfinite(dz), axis=1))
        stalled[active] = True  # until one of its step lengths passes
        first = 0
        while searching.size and first < _MAX_BACKTRACKS:
            last = min(2 * first + 1, _MAX_BACKTRACKS)
            alphas = np.ldexp(1.0, -np.arange(first, last))
            zt = za[searching, None] + alphas[:, None] * dz[searching, None]
            Ft, Fnt = state_fn(zt.reshape(-1, za.shape[1]))
            calls += 1
            trial_rows += Fnt.size
            Ft = Ft.reshape(zt.shape[:2] + Ft.shape[1:])
            Fnt = Fnt.reshape(zt.shape[:2])
            ok = np.isfinite(Fnt) & (Fnt <= (1.0 - _ARMIJO_SLOPE * alphas) * Fa[searching, None])
            hit = ok.any(axis=1)
            longest = np.argmax(ok[hit], axis=1)
            rows = active[searching[hit]]
            z[rows] = zt[hit, longest]
            F[rows] = Ft[hit, longest]
            Fn[rows] = Fnt[hit, longest]
            stalled[rows] = False
            searching = searching[~hit]
            first = last
    log.debug(
        "damped Newton: %d iterations, %d state calls, %d step-length rows; "
        "%d of %d rows converged, %d stalled",
        newton_iters, calls, trial_rows, np.count_nonzero(Fn <= target), Fn.size,
        np.count_nonzero(stalled),
    )
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


def _polish_eigen(data, V0, i0, p, gtol, symmetric):
    if V0.shape[0] == 0:
        return V0
    k = data.ndim
    lam0 = _batch_eval(data, [V0] * k)
    z0 = np.concatenate([V0, lam0[:, None]], axis=1)
    z = _damped_newton(
        z0,
        _eigen_state_fn(data, i0, p),
        _eigen_jac_fn(data, i0, p, symmetric),
        gtol,
    )
    return z[:, : data.shape[0]]


def _accept_eigen(data, V, i0, p, gtol):
    """Renormalize, set the multiplier to the form value, filter by residual."""
    if V.shape[0] == 0:
        return np.empty((0, data.shape[0])), np.empty(0), np.empty(0)
    k = data.ndim
    with np.errstate(all="ignore"):
        nrm = _p_norm_rows(V, p)
        good = np.isfinite(nrm) & (nrm > 1e-300)
        V = V[good] / nrm[good, None]
        G = _batch_mode_grad(data, [V] * k, i0)
        lam = _dot_rows(G, V)  # f(v, ..., v) = <g_i, v> in every mode i
        resid = np.linalg.norm(G - lam[:, None] * _phi_rows(V, p - 1.0), axis=1)
    keep = np.isfinite(resid) & (resid <= gtol)
    return V[keep], lam[keep], resid[keep]


def _ascend(data, V0, p, sign, symmetric):
    """Projected gradient on the unit p-sphere, maximizing sign * f.

    f at a point is <g_0, v>, from the mode-0 gradient the next step needs
    anyway; an accepted trial point carries its gradient into the next
    iteration.  So an iteration costs one contraction when symmetric and k
    otherwise, and the kernel's row independence makes the carried
    gradient bit-identical to a fresh one.
    """
    k = data.ndim

    def gradient_and_value(V):
        if symmetric:
            g0 = _batch_mode_grad(data, [V] * k, 0)
            return k * g0, sign * _dot_rows(g0, V)
        grads = [_batch_mode_grad(data, [V] * k, i) for i in range(k)]
        return sum(grads), sign * _dot_rows(grads[0], V)

    V = V0.copy()
    step = np.full(V.shape[0], _INITIAL_STEP)
    G, f = gradient_and_value(V)
    for iterations in range(1, _ASCENT_ITERATIONS + 1):
        W = V + sign * step[:, None] * G
        nrm = _p_norm_rows(W, p)
        ok = np.isfinite(nrm) & (nrm > 1e-300)
        W[ok] /= nrm[ok, None]
        W[~ok] = V[~ok]
        GW, fW = gradient_and_value(W)
        better = fW > f + 1e-15
        V[better] = W[better]
        f[better] = fW[better]
        G[better] = GW[better]
        step[better] = np.minimum(step[better] * _STEP_GROW, 10.0)
        step[~better] *= _STEP_SHRINK
        if np.all(step < 1e-12):
            break
    log.debug(
        "projected ascent: %d iterations, %d rows improved in the last, "
        "%d of %d rows with step >= 1e-12",
        iterations, np.count_nonzero(better), np.count_nonzero(step >= 1e-12), V.shape[0],
    )
    return V


def _stationary_candidates(tensor, i0, p, config, symmetric):
    """Accepted (vector, value, residual) triples from the multi-start search."""
    data = tensor.data
    n = tensor.shape[0]
    gtol = config.gradient_tolerance
    (V0,) = _random_starts(config.seed, config.restarts, (n,), p)
    chunks = []
    for sign in (1.0, -1.0):
        ends = _ascend(data, V0, p, sign, symmetric)
        reps = ends[_leaders(ends, 1e-3)]
        Vp = _polish_eigen(data, reps, i0, p, gtol, symmetric)
        chunks.append(_accept_eigen(data, Vp, i0, p, gtol))
    Vd = _polish_eigen(data, V0, i0, p, gtol, symmetric)
    chunks.append(_accept_eigen(data, Vd, i0, p, gtol))
    V = np.concatenate([c[0] for c in chunks])
    # antipodal completion: -v is stationary with multiplier (-1)^k lam
    V = np.concatenate([V, -V])
    return _accept_eigen(data, V, i0, p, gtol)


def _check_continuum(z, state_fn, jac_fn, merge_tol, gtol, noun):
    """Raise DegenerateTensorError if the rows of z lie on a positive-dimensional set.

    Local dimension test (Bates, Hauenstein, Peterson & Sommese, SINUM 2009)
    on rows z = (point, multipliers), critical value last.  A row whose bordered
    Jacobian has sigma_min <= sqrt(gtol) * sigma_max is stepped h = max(1e-3,
    10 * merge_tol) along its null vector and corrected by damped Newton with
    minimum-norm steps, which move across a continuum rather than along it; a
    stationary result with the same value at a distance in (merge_tol, 2h]
    witnesses a continuum.  Newton returns to isolated degenerate points.
    """
    J = jac_fn(z)
    with np.errstate(all="ignore"):
        s = np.linalg.svd(J, compute_uv=False)
        rel = s[:, -1] / s[:, 0]
    flagged = np.flatnonzero(rel <= np.sqrt(gtol))
    witness = []
    if flagged.size:
        h = max(1e-3, 10.0 * merge_tol)
        z0 = z[flagged]
        z1 = _damped_newton(
            z0 + h * np.linalg.svd(J[flagged])[2][:, -1], state_fn, jac_fn, gtol, steps=_min_norm_steps
        )
        dist = np.linalg.norm(z1 - z0, axis=1)
        same = (state_fn(z1)[1] <= gtol) & (np.abs(z1[:, -1] - z0[:, -1]) <= gtol)
        witness = np.flatnonzero(same & (dist > merge_tol) & (dist <= 2.0 * h))
    log.debug(
        "continuum check: %d points, %d flagged, %d witnesses, smallest relative sigma_min %.3g",
        len(z), flagged.size, len(witness), np.min(rel, initial=np.inf),
    )
    if len(witness):
        value, d = z0[witness[0], -1], dist[witness[0]]
        raise DegenerateTensorError(
            f"continuum witness: the {noun} with critical value {value:.6g} continues to another "
            f"at distance {d:.3g} with the same value; the critical set is positive-dimensional"
        )


def dedupe(points, tol):
    """Greedy clustering at Euclidean distance tol on concatenated vectors.

    Keeps the lowest-residual representative of each cluster, in input
    order; antipodal points are never merged (their distance is 2 on unit
    spheres).  Points with non-finite vectors are dropped.
    """
    if not points:
        return []
    keys = np.array(
        [np.concatenate((pt.vector,) if isinstance(pt, EigenPair) else pt.vectors) for pt in points]
    )
    order = np.array(
        sorted(range(len(points)), key=lambda i: (points[i].residual, tuple(keys[i].tolist())))
    )
    return [points[i] for i in np.sort(order[_leaders(keys[order], tol)])]


def _check_unit(vec, p):
    nrm = float(np.sum(np.abs(vec) ** p) ** (1.0 / p))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"v must be a unit vector in the p-norm, got ||v||_p = {nrm}")


def _check_eigen_args(tensor, mode):
    """A square tensor and a mode in 0..k; mode 0 (symmetric) needs a symmetric tensor."""
    _require_square(tensor)
    k = tensor.order
    if not 0 <= mode <= k:
        raise ValueError(f"mode must be in 0..{k} (0: symmetric), got {mode}")
    if mode == 0:
        _require_symmetric(tensor)


def residual_eigen(tensor, v, value, mode, p=2.0):
    """Stationarity defect ||mode_gradient - value * phi_{p-1}(v)||_2 at a unit v.

    Mode 0 is the symmetric problem (gradient in mode 1, symmetric tensor).
    """
    _check_eigen_args(tensor, mode)
    p = check_norm_param(p)
    vec = np.asarray(v, dtype=float)
    _check_unit(vec, p)
    k = tensor.order
    grad = mode_gradient(tensor, [vec] * k, max(mode, 1))
    return float(np.linalg.norm(grad - value * phi(vec, p - 1.0)))


def _morse_rows(data, V, values, residual_tolerance):
    """classify_index of the eigenpairs (V[i], values[i]), as two arrays.

    Raises ValueError for the first row whose stationarity residual
    exceeds residual_tolerance.
    """
    k = data.ndim
    n = data.shape[0]
    resid = np.linalg.norm(_batch_mode_grad(data, [V] * k, 0) - values[:, None] * V, axis=1)
    over = np.flatnonzero(resid > residual_tolerance)
    if over.size:
        raise ValueError(
            f"(v, value) is not stationary enough to classify: residual {resid[over[0]]:.3e} "
            f"exceeds {residual_tolerance:.3e}"
        )
    H = k * (k - 1) * _batch_pair_jac(data, [V] * k, 0, 1)
    H = (H + np.swapaxes(H, 1, 2)) / 2 - k * values[:, None, None] * np.eye(n)
    _, _, vt = np.linalg.svd(V[:, None, :])
    Bt = vt[:, 1:]  # rows: an orthonormal basis of the tangent space
    HR = Bt @ H @ np.swapaxes(Bt, 1, 2)
    HR = (HR + np.swapaxes(HR, 1, 2)) / 2
    eig = np.linalg.eigvalsh(HR)
    eps = 1e-8 * np.maximum(1.0, np.max(np.abs(eig), axis=1))[:, None]
    return np.sum(eig < -eps, axis=1), np.all(np.abs(eig) > eps, axis=1)


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
    vec = _check_vectors(tensor, [v] * tensor.order)[0]
    _check_unit(vec, 2.0)
    index, nondegenerate = _morse_rows(
        tensor.data, vec[None, :], np.array([float(value)]), residual_tolerance
    )
    return int(index[0]), bool(nondegenerate[0])


def _eigen_run(tensor, mode, config):
    """Eigenpairs in ``mode`` under config.p; mode 0 is the symmetric problem.

    The symmetric problem under the 2-norm also gets Morse data.  Modes
    1..k use the symmetric Jacobian iff the tensor is symmetric.
    """
    k = tensor.order
    _check_eigen_args(tensor, mode)
    symmetric = mode == 0 or is_symmetric(tensor)
    n = tensor.shape[0]
    if k < 2:
        raise ShapeError("eigenpair solvers need tensor order >= 2")
    if n < 2:
        raise ShapeError("eigenpair solvers need dimension >= 2")
    p = check_norm_param(config.p)
    i0 = max(mode - 1, 0)
    V, lam, resid = _stationary_candidates(tensor, i0, p, config, symmetric)
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
    merge_tol = _DEDUPE_TOLERANCE
    if p != 2.0:
        merge_tol = max(merge_tol, 10.0 * config.gradient_tolerance ** (1.0 / (k - 1)))
    pairs = dedupe(pairs, merge_tol)
    cap = 2 * (n if k == 2 else ((k - 1) ** n - 1) // (k - 2))  # antipodes included
    if p == 2.0 and len(pairs) > cap:
        raise DegenerateTensorError(
            f"count cap: {len(pairs)} stationary points survive deduplication, more than the "
            f"{cap} of the Cartwright-Sturmfels count (antipodes included); the set is not finite"
        )
    if not pairs:
        log.info(
            "no stationary points found at this effort (restarts=%d); "
            "the spectrum may be empty over the reals",
            config.restarts,
        )
        return []
    z = np.array([np.append(pt.vector, pt.value) for pt in pairs])
    state, jac = _eigen_state_fn(tensor.data, i0, p), _eigen_jac_fn(tensor.data, i0, p, symmetric)
    _check_continuum(z, state, jac, merge_tol, config.gradient_tolerance, "stationary point")
    if mode == 0 and p == 2.0:
        tol = max(1e-8, 10 * config.gradient_tolerance)
        index, nondeg = _morse_rows(tensor.data, z[:, :n], z[:, n], tol)
        pairs = [
            replace(pt, index=int(i), nondegenerate=bool(d))
            for pt, i, d in zip(pairs, index, nondeg)
        ]
    return sorted(pairs, key=lambda pt: (-pt.value, tuple(pt.vector.tolist())))


def symmetric_eigenpairs(tensor, config=None):
    """All eigenpairs of a symmetric tensor found by the multi-start search.

    Pairs are sorted by descending value; v and -v count separately.  Each
    pair carries its Morse index and nondegeneracy flag.  A positive-
    dimensional critical set (e.g. the identity matrix) raises
    DegenerateTensorError at any effort; isolated degenerate points are
    returned, nondegenerate=False where the Morse test resolves them.
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
    off, total = _singular_layout(dims)

    def state(z):
        W = z[:, :total]
        s = np.repeat(z[:, total:], dims, axis=1)  # each multiplier over its block
        with np.errstate(all="ignore"):
            G = np.concatenate(_batch_mode_grads(data, _split(z, dims, off)), axis=1)
            cons = (np.add.reduceat(np.abs(W) ** p, off[:-1], axis=1) - 1.0) / p
            F = np.concatenate([G - s * _phi_rows(W, p - 1.0), cons], axis=1)
            return F, np.linalg.norm(F, axis=1)

    return state


def _singular_jac_fn(data, p):
    dims = data.shape
    off, total = _singular_layout(dims)
    size = total + len(dims)
    diag = np.arange(total)
    border = total + np.repeat(np.arange(len(dims)), dims)  # the multiplier column of each row

    def jac(z):
        W = z[:, :total]
        K = np.zeros((z.shape[0], size, size))
        with np.errstate(all="ignore"):
            for (i, j), B in _batch_pair_jacs(data, _split(z, dims, off)).items():
                ri, rj = slice(off[i], off[i + 1]), slice(off[j], off[j + 1])
                K[:, ri, rj] = B
                K[:, rj, ri] = np.swapaxes(B, 1, 2)
            K[:, diag, diag] = -np.repeat(z[:, total:], dims, axis=1) * _phi_slope_rows(W, p)
            Phi = _phi_rows(W, p - 1.0)
            K[:, diag, border] = -Phi
            K[:, border, diag] = Phi
        return K

    return jac


def _alternating_ascent(data, Ws0, p):
    """Cyclic best-response updates; each solves its single-mode stationarity."""
    k = data.ndim
    Ws = [W.copy() for W in Ws0]
    q = 1.0 / (p - 1.0)
    for _ in range(_ALTERNATING_SWEEPS):
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
        g0 = _batch_mode_grad(data, Ws, 0)  # does not involve Ws[0]
        raw = _dot_rows(g0, Ws[0])
        # canonical sign: flip the first vector wherever the value is negative;
        # that negates the value exactly
        flip = raw < 0
        Ws[0] = np.where(flip[:, None], -Ws[0], Ws[0])
        sigma = np.where(flip, -raw, raw)
        grads = [g0] + [_batch_mode_grad(data, Ws, i) for i in range(1, k)]
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
    sigma = f(v_1, ..., v_k) within the gradient tolerance.  A positive-
    dimensional critical set (e.g. np.ones((2, 3))) raises
    DegenerateTensorError at any effort; isolated sigma = 0 tuples are
    returned with degenerate=True.
    """
    config = config or SolverConfig()
    k = tensor.order
    if k < 2:
        raise ValueError("singular tuples need tensor order >= 2")
    p = check_norm_param(config.p)
    data = tensor.data
    dims = tensor.shape
    off, _ = _singular_layout(dims)
    scale = float(np.linalg.norm(data.reshape(-1)))
    Ws0 = _random_starts(config.seed, config.restarts, dims, p)
    state = _singular_state_fn(data, p)
    jacf = _singular_jac_fn(data, p)

    def polish(Ws):
        if Ws[0].shape[0] == 0:
            return []
        s0 = np.repeat(_batch_eval(data, Ws)[:, None], k, axis=1)
        z0 = np.concatenate(list(Ws) + [s0], axis=1)
        z = _damped_newton(z0, state, jacf, config.gradient_tolerance)
        return _accept_singular(
            data, _split(z, dims, off), p, config.gradient_tolerance, scale
        )

    ends = _alternating_ascent(data, Ws0, p)
    cat = np.concatenate(ends, axis=1)
    reps = cat[_leaders(cat, 1e-3)]
    found = polish(_split(reps, dims, off)) + polish(Ws0)
    found = dedupe(found, _DEDUPE_TOLERANCE)
    if not found:
        log.info("no singular tuples found at this effort (restarts=%d)", config.restarts)
        return []
    z = np.array([np.append(np.concatenate(t.vectors), [t.sigma] * k) for t in found])
    _check_continuum(z, state, jacf, _DEDUPE_TOLERANCE, config.gradient_tolerance, "singular tuple")
    return sorted(found, key=lambda t: (-t.sigma, tuple(np.concatenate(t.vectors).tolist())))
