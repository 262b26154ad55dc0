"""Stationary-point solvers for tensor eigenpairs and singular tuples.

Both are critical points of the tensor's form f on unit p-spheres, and one
bordered Lagrange system serves both: g_i(w) = s_i * phi_{p-1}(w_i) and
||w_i||_p = 1 on every sphere i, where contracting g_i with w_i makes each
multiplier s_i the value f(w).  A singular tuple solves it on the product of
the spheres of T's k modes, with g_i = mode_gradient(T, (w_1, ..., w_k), i);
a mode-i eigenpair (v, lam) is its one-sphere case, g = mode_gradient(T,
(v, ..., v), i).  No closed-form enumeration exists for k > 2, so one
driver, _search, runs both multi-start searches, each stage once over all
its rows: an ascent from the first _ASCENT_STARTS starts (eigenpairs:
projected gradient with a sign per row; tuples: alternating best responses),
which seeds the extrema, one damped Newton from the ascent's endpoints and all
the raw starts (which reach saddles), one residual-based acceptance, the
sign group (each eigenpair's antipode; sigma >= 0 for a tuple),
deduplication, the count cap and the continuum check.  A mode
problem on a non-symmetric tensor has no form whose critical points are its
pairs, so it has no ascent and polishes its raw starts alone.

One floating-point rule holds in every solver call.  Each public entry
(_eigen_run, which serves the three eigen solvers, singular_tuples,
residual_eigen, classify_index and dedupe) runs under one
np.errstate(all="ignore"), and nothing inside sets its own: there an
overflow or an invalid operation gives a value the code already tests for.
A non-finite trial fails the Armijo test, _unit_rows returns an ok mask,
acceptance keeps only finite residuals, and _row_dist redoes the rows whose
squares overflow.  errstate changes no arithmetic, and np.linalg still
raises LinAlgError.  As core and norms do, the search raises a ValueError
where the bordered Jacobian or the second variation at a found point leaves
the float range, before an SVD or eigensolver meets it, and residual_eigen
and classify_index, which take finite arguments, where a defect or second
variation they compute does.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _orbit_ids,
    _orbit_mean,
    _require_square,
    _require_symmetric,
    is_symmetric,
    max_asymmetry,
    mode_gradient,
)
from .errors import DegenerateTensorError, ShapeError
from .norms import _as_vector, _in_range, _integer, _real, _scaled_norm, check_norm_param, p_norm, phi

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
# _damped_newton describes, with the Armijo fraction _ARMIJO_SLOPE * alpha, over
# the _MAX_BACKTRACKS step lengths 2^0..2^-24; the tables below hold them and
# what both line searches read of them.  After the full step both stack the
# same two batches: 2^-1..2^-15, then 2^-16..2^-24 on the rows still failing.
# About one row in ten whose full step fails needs a step below 2^-15 (near
# singular Jacobians), so those steps get a call of their own rather than nine
# more trial rows on every such row; dropping them loses critical points.  At
# p = 2 and order k <= 4 the residual is a polynomial along each Newton step,
# and each row first tries the one step length read off that polynomial.
# A row retires after _CREEP_ITERATIONS consecutive accepted steps of length at
# most _CREEP_STEP, or at a multiple of _RANK_CHECK_ITERATIONS below the cap
# when its step there lowered the residual by less than 10 % at a Jacobian of
# relative sigma_min <= sqrt(eps) at any scale (_rank_deficient): Newton
# is at best linear at such singular roots.  A check on every iteration would
# cost every solve numpy calls, and in the first iterations rows that go on to
# converge can look singular.
# An ascent climbs from the first _ASCENT_STARTS starts only: gradient flow
# reaches the extrema it seeds from almost every start, and Newton polishes
# every endpoint and every start.  The endpoints only seed Newton, so each
# ascent runs a fixed _ASCENT_ITERATIONS projected-gradient iterations
# (_ALTERNATING_SWEEPS sweeps for singular tuples): on fresh tensors 60
# iterations found no more oracle points than 15 and 10 lost extrema 15 found,
# while 40 sweeps found no larger sigma than 10.  Ascent steps start at
# _INITIAL_STEP, grow by _STEP_GROW after an improvement and shrink by
# _STEP_SHRINK otherwise, so no trial step exceeds 0.25 * 1.3^14.  Points closer than
# _DEDUPE_TOLERANCE count as one.
_NEWTON_ITERATIONS = 60
_ASCENT_ITERATIONS = 15
_ASCENT_STARTS = 64
_ALTERNATING_SWEEPS = 10
_DEDUPE_TOLERANCE = 1e-6
_INITIAL_STEP = 0.25
_STEP_GROW = 1.3
_STEP_SHRINK = 0.4
_ARMIJO_SLOPE = 1e-4
_MAX_BACKTRACKS = 25
_CREEP_STEP = 2.0**-6
_CREEP_ITERATIONS = 5
_RANK_CHECK_ITERATIONS = 20

# the step lengths, their Armijo factors and which of them creep; the batches
# stacked after the full step, as indices into _ALPHAS; and, by ray degree d,
# alpha^i (row i <= d) and alpha^(i + j) (row (d + 1) i + j) at 2^-(d-1)..2^-24,
# the step lengths the ray polynomial rules on
_ALPHAS = np.ldexp(1.0, -np.arange(_MAX_BACKTRACKS))
_ARMIJO, _CREEPS = 1.0 - _ARMIJO_SLOPE * _ALPHAS, _ALPHAS <= _CREEP_STEP
_BATCHES = [t[None] for t in np.split(np.arange(1, _MAX_BACKTRACKS), [15])]
_POWERS = {d: np.ldexp(1.0, -np.outer(np.arange(d + 1), np.arange(d - 1, _MAX_BACKTRACKS))) for d in (2, 3)}
_GRAM_POWERS = {d: (P[:, None] * P).reshape(-1, P.shape[1]) for d, P in _POWERS.items()}
for _table in (_ALPHAS, _ARMIJO, _CREEPS, *_BATCHES, *_POWERS.values(), *_GRAM_POWERS.values()):
    _table.flags.writeable = False


@dataclass(frozen=True)
class SolverConfig:
    """The settings a caller chooses: search effort, acceptance tolerance, norm.

    The search runs from ``restarts`` random starts drawn from ``seed``, and
    accepts a point whose stationarity residual is at most
    ``gradient_tolerance`` under the p-norm constraint.  The bound is
    absolute: residuals are in the tensor's units, so c * T needs c times
    the tolerance to accept the same points.  Step control and iteration
    caps are the module constants above.
    """

    restarts: int = 200
    gradient_tolerance: float = 1e-10
    seed: int = 0
    p: float = 2.0

    def __post_init__(self):
        # stored as plain int and float: a huge int tolerance would overflow only in the search
        for name, value in {
            "restarts": _integer(self.restarts, "restarts", 1),
            "seed": _integer(self.seed, "seed"),
            "gradient_tolerance": _real(self.gradient_tolerance, "gradient_tolerance", above=0),
            "p": check_norm_param(self.p),
        }.items():
            object.__setattr__(self, name, value)


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


def _contract_axis(T, v, before):
    """Contract, row by row, the axis of length v.shape[1] that follows ``before`` entries.

    T is the flat tensor itself (no row axis) or one flat tensor per row, in
    C order; both reshapes are views, so the tensor is never copied.  It is
    the solver's one contraction over tensor entries.  Each output row
    depends only on the same row of v, bit for bit, whatever the number of
    rows: the line search and the ascent's carried gradients rely on this.
    """
    n = v.shape[1]
    if T.ndim == 1:
        return np.einsum("anb,Zn->Zab", T.reshape(before, n, -1), v)
    after = math.prod(T.shape[1:]) // (before * n)
    return np.einsum("Zanb,Zn->Zab", T.reshape(len(T), before, n, after), v)


def _contract_leading(D, vs):
    """D contracted with vs[0], vs[1], ... in its leading modes, one row per point.

    Returns shape (rows,) + the dims of the modes left.  With no vectors it
    is D itself as one row, which broadcasts against any number of rows.
    """
    T = D.reshape(-1)
    for v in vs:
        T = _contract_axis(T, v, 1)
    return T.reshape((-1,) + D.shape[len(vs) :])


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
    """All k mode gradients, data contracted with vs in every mode but i, from one tree.

    Two contractions touch the whole tensor, whatever k; rows stay
    independent bit for bit.
    """
    dims = data.shape
    out = [None] * len(dims)
    _grad_tree(data.reshape(-1), vs, dims, 0, len(dims), 1, out)
    return [g.reshape(len(g), n) for g, n in zip(out, dims)]


def _batch_pair_jacs(data, vs):
    """Every block {(i, j): data contracted with vs in every mode but i and j}, i < j.

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


def _row_dist(D):
    """np.linalg.norm(D, axis=1) without its wrapper, bit for bit, where that is finite.

    A finite row whose sum of squares overflows (|D| beyond about 1.3e154)
    is redone on D / 2^e, as in _unit_rows, so its norm is finite too.
    """
    d = np.sqrt(np.add.reduce(D * D, axis=1))
    if np.logical_or.reduce(np.isinf(d)):
        redo = np.isinf(d) & np.logical_and.reduce(np.isfinite(D), axis=1)
        e = np.frexp(np.max(np.abs(D[redo]), axis=1))[1]
        Y = np.ldexp(D[redo], -e[:, None])
        d[redo] = np.ldexp(np.sqrt(np.add.reduce(Y * Y, axis=1)), e)
    return d


def _phi_rows(V, q):
    if q == 1.0:
        return V
    return np.sign(V) * np.abs(V) ** q


def _phi_slope_rows(V, p):
    """Diagonal of d(phi_{p-1})/dv for p != 2 (at p = 2 it is all ones); clamped near zero when p < 2."""
    a = np.abs(V)
    if p < 2.0:
        a = np.maximum(a, 1e-8)
    return (p - 1.0) * a ** (p - 2.0)


def _unit_rows(V, p):
    """(U, ok): the rows of V scaled to unit p-norm, and which were neither zero nor non-finite.

    A row whose sum of |v|^p is not a finite normal number is redone on v / 2^e
    as in norms._scaled_norm; every other row is bit for bit v / ||v||_p.
    """
    s = np.add.reduce(np.abs(V) ** p, axis=1)
    ok = np.isfinite(s) & (s >= np.finfo(float).tiny)
    U = V / (s ** (1.0 / p))[:, None]
    if not np.logical_and.reduce(ok):
        redo = ~ok
        e = np.frexp(np.max(np.abs(V[redo]), axis=1) * math.sqrt(0.5))[1]
        Y = np.ldexp(V[redo], -e[:, None])
        s[redo] = np.add.reduce(np.abs(Y) ** p, axis=1)
        U[redo] = Y / (s[redo] ** (1.0 / p))[:, None]
        ok = np.isfinite(s) & (s > 0)
    return U, ok


def _random_starts(seed, restarts, dims, p):
    """One unit start tuple per restart, as one array of rows per mode.

    Row r is the r-th draw of sum(dims) normals from one stream of seed,
    split per mode and normalized, so it is the same for every restarts > r.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF))
    X = rng.standard_normal((restarts, sum(dims)))
    return [_unit_rows(V, p)[0] for V in np.split(X, np.cumsum(dims)[:-1], axis=1)]


def _leaders(X, tol):
    """Greedy cluster leaders among the finite rows of X, in row order.

    Rows come in priority order.  The first free row leads a cluster that
    takes every later row j with np.linalg.norm(X[j] - X[i]) <= tol from its
    leader i, and the next free row leads the next cluster.  Non-finite rows
    are never leaders, so a caller need not filter them out.

    In rounds over runs: the live rows are sorted by one coordinate and cut
    into runs wherever two neighbours differ by more than reach there.  Twice
    tol covers the rounding of the norm, and sqrt(tiny) the squared
    differences that underflow to zero, so no row is within tol of a row of
    another run.  The lowest-index live row of a run therefore leads (every
    earlier row of its run is settled, and no other run can take it), and it
    takes every live row of its run within tol.  That is the sequential
    greedy exactly, chains and ties at tol included.  Each round re-cuts the
    runs still alive by the next coordinate, so clusters that share one
    coordinate fall apart in another; each round is one pass over the live rows.
    """
    reach = 2.0 * tol + np.sqrt(np.finfo(float).tiny)
    # logical_and over the columns of the transposed mask: a fraction of np.all(..., axis=1)
    live = np.flatnonzero(np.logical_and.reduce(np.isfinite(X).T))
    run = np.zeros(len(live), dtype=int)
    found = [np.empty(0, dtype=int)]
    c = 0
    while live.size:
        # take, not fancy indexing: a fraction of the cost on a few hundred rows
        x = X[:, c].take(live)
        order = np.lexsort((x, run))
        live, x, run = live.take(order), x.take(order), run.take(order)
        first = np.concatenate(([True], (run[1:] != run[:-1]) | (x[1:] - x[:-1] > reach)))
        leads = np.minimum.reduceat(live, np.flatnonzero(first))
        found.append(leads)
        run = np.cumsum(first) - 1
        D = X.take(live, axis=0)
        D -= X.take(leads[run], axis=0)
        left = _row_dist(D) > tol
        live, run = live[left], run[left]
        c = (c + 1) % X.shape[1]
    return np.sort(np.concatenate(found))


def _lex_order(primary, keys):
    """The row order by ascending primary, ties broken by the columns of keys in turn.

    NaN sorts last; the sort is stable, so rows equal in all of it keep their order.
    """
    return np.lexsort(np.vstack([keys.T[::-1], primary]))


def _dedupe_rows(keys, resid, tol):
    """The rows dedupe keeps, as indices in input order: one per greedy cluster.

    The rows are ordered by ascending residual (NaN last), ties broken by
    their key columns, and _leaders clusters them at distance tol in that
    order.  _leaders skips the rows with a non-finite key, and the stable
    sort keeps the relative order of the others, so those rows change nothing
    about which rows are kept.
    """
    order = _lex_order(resid, keys)
    return np.sort(order[_leaders(keys[order], tol)])


# ---------------------------------------------------------------------------
# damped Newton on a batch of square systems
# ---------------------------------------------------------------------------


def _scaled_gram(J):
    """(e, Js, G): each row's J scaled exactly by 2^-e, e the exponent of its max|J|, and G = Js Js^T.

    For a finite J the scaling makes every |Js| < 1, so G cannot overflow,
    and its trace is at least 1/4 unless J is zero; entries of J far below
    max|J| may underflow.
    """
    e = np.frexp(np.maximum.reduce(np.abs(J), axis=(1, 2)))[1]
    Js = np.ldexp(J, -e[:, None, None])
    return e, Js, Js @ np.swapaxes(Js, 1, 2)


def _regularized_steps(J, F):
    """dz = J^T y with (J J^T + mu I) y = -F, mu = eps * trace(J J^T), for every row.

    Each row's J and F are first scaled by the power of two of its max|J|,
    which is exact, so the step is the same at any scale of the row.  The
    scaled Gram matrix comes from _scaled_gram, which also serves the
    continuum check: one batched Cholesky of those matrices certifies its
    regular points, and only a batch that it cannot clear takes an SVD.
    dz lies in J's row space, as the minimum-norm step does, and where F
    lies in J's range it differs from that step by about mu / sigma^2 along
    each singular value sigma of J: one batched product and one batched
    solve, no SVD.  A zero J takes dz = 0.  A row whose J is not finite, or
    whose scaled F overflows, gets a non-finite step, which the line search
    refuses.
    """
    e, Js, G = _scaled_gram(J)
    Fs, Jt = np.ldexp(F, -e[:, None]), np.swapaxes(Js, 1, 2)
    trace = np.trace(G, axis1=1, axis2=2)
    mu = np.where(trace > 0, np.finfo(float).eps * trace, 1.0)  # any mu > 0 serves a zero J
    G.reshape(len(G), -1)[:, :: G.shape[1] + 1] += mu[:, None]  # the diagonal, in place
    return (Jt @ np.linalg.solve(G, -Fs[..., None]))[..., 0]


def _newton_steps(J, F, split=False):
    """(dz, singular): dz with J dz = -F per row, and the rows whose own J is exactly singular.

    One batched solve serves every row unless it raises, which it does when
    any J is exactly singular; ``split`` skips it, once a polish has met such
    a batch.  The rows whose LU factorization meets a zero pivot are exactly
    those where slogdet has sign 0, so those rows take _regularized_steps and
    the others are solved apart from them, by the same call: a singular row
    changes no other row's step.  singular is None where the one solve
    served.  The log of a zero determinant is -inf and may be NaN next to
    huge entries; only the sign is read.
    """
    if not split:
        try:
            return np.linalg.solve(J, -F[..., None])[..., 0], None
        except np.linalg.LinAlgError:
            pass
    singular = np.linalg.slogdet(J)[0] == 0
    dz = np.empty_like(F)
    ok = ~singular
    dz[ok] = np.linalg.solve(J[ok], -F[ok][..., None])[..., 0]
    if singular.any():
        dz[singular] = _regularized_steps(J[singular], F[singular])
    return dz, singular


def _rank_deficient(J):
    """Per row: is J numerically rank-deficient, sigma_min <= sqrt(eps) * sigma_max, at any scale?

    J is equilibrated twice, each row or column scaled by the power of two of
    its largest entry, which is exact: rows then columns, and columns then
    rows.  A row is flagged only when both are rank-deficient.  The first
    cancels any scaling of J's rows and the second any scaling of its
    columns, so neither makes a regular J look singular; a bordered Jacobian
    mixes the tensor's units with unit border rows, and unscaled a 1e160 * T
    row alone would look singular.  A row with a non-finite entry is not
    flagged.
    """
    flagged = np.isfinite(J).all(axis=(1, 2))
    scaled = []
    for axes in ((2, 1), (1, 2)):
        E = J[flagged]
        for axis in axes:
            E = np.ldexp(E, -np.frexp(np.abs(E).max(axis=axis, initial=0.0, keepdims=True))[1])
        scaled.append(E)
    s = np.linalg.svd(np.stack(scaled), compute_uv=False)
    flagged[flagged] = np.all(s[..., -1] <= np.sqrt(np.finfo(float).eps) * s[..., 0], axis=0)
    return flagged


def _ray_excess(C, J, limit):
    """(excess, margin): ||F(alpha)||^2 - limit^2 for F(alpha) = sum_i C[i] alpha^i, and its rounding.

    C[i] holds the coefficients of degree i of the rows of F, one row per
    search row, at the step lengths of _POWERS[len(C) - 1]; J holds the rows'
    Jacobians and limit[r, t] the bound at alpha_t.  ||F(alpha)||^2 is the Gram
    matrix of the coefficients summed against the powers.  margin bounds how
    far the excess may be from that of the state at z + alpha * dz:
    err * (2 b + err), with b = sum_i ||C_i|| alpha^i >= ||F(alpha)|| and err,
    a bound on the rounding of ||F(alpha)||, the sum of
      - the state's rounding, which is absolute near a solution: 4 eps times
        the row's largest Jacobian entry times its width (its longest sum);
      - the polynomial's: 1e-12 of b;
      - that of the coefficients above C_1, which come from states of size
        up to sum_i ||C_i||: 64 eps of that, times alpha^2.
    A polynomial that overflows gives NaN.
    """
    powers, gram_powers, eps = _POWERS[len(C) - 1], _GRAM_POWERS[len(C) - 1], np.finfo(float).eps
    G = np.einsum("izs,jzs->zij", C, C).reshape(C.shape[1], len(gram_powers))
    norms = np.sqrt(G[:, :: len(powers) + 1])  # the diagonal of each Gram matrix
    bound = norms @ powers
    err = 4.0 * eps * C.shape[2] * np.maximum.reduce(np.abs(J), axis=(1, 2))[:, None] + 1e-12 * bound
    err += 64.0 * eps * np.add.reduce(norms, axis=1)[:, None] * powers[2]
    excess = G @ gram_powers - np.square(limit)
    return excess, err * (2.0 * bound + err)


def _damped_newton(z0, state_fn, jac_fn, gtol, degree=None):
    """Damped Newton on the square systems F(z) = 0, one per row of z0.

    At most _NEWTON_ITERATIONS iterations; a row is done when its residual
    norm is at most 0.05 * gtol.  A row whose last _CREEP_ITERATIONS
    accepted steps all had alpha <= _CREEP_STEP retires at its last accepted
    point: such a row is not making good progress (the MINPACK hybrd test),
    and rows that still converge take longer steps.  At every
    _RANK_CHECK_ITERATIONS-th iteration below the cap (20 and 40), a row
    whose accepted step lowered its residual norm by less than 10 % retires
    too, at its new point, if the Jacobian of that iteration is
    rank-deficient (_rank_deficient): Newton converges at best linearly at a
    singular root (Griewank & Osborne, SINUM 1983), and such a row, on a
    positive-dimensional set, may take long steps to the cap.  On
    382 seeded solves, no slow row that went on to converge had a relative
    sigma_min below 5e-5 from iteration 10 on; before that some did (1e-15
    at iteration 8), which is one reason the check waits.

    Each row takes the longest step alpha * dz, alpha in 2^0, 2^-1, ...,
    2^-(_MAX_BACKTRACKS-1), that passes the Armijo test; a row with no such
    alpha stalls.  Every active norm is finite, so a non-finite trial norm,
    as every trial of a non-finite Newton step gives, fails each test.  The
    full step z + dz goes first, on every active row, checked by one
    comparison per row; each later state_fn call is on the rows for which
    no longer step passed.  Then both line searches stack the batches of
    _BATCHES: 2^-1..2^-15 on the rows still failing, and 2^-16..2^-24 on the
    rows failing those.  The alphas are exact powers of two, 1.0 * dz is
    dz, and state_fn works row by row, so the outcome is bit-identical to
    trying the halvings one at a time.

    ``degree`` d (2 or 3) says that every row of F is a polynomial of degree
    d along the ray z + alpha * dz.  Its coefficients are F(z), J dz (from
    the Jacobian as built, so that they hold for any steps) and the rest,
    from the full step's F(z + dz) and, at d = 3, F(z + dz / 2), which the
    full step's call evaluates beside it (a row whose full step fails takes
    1/2 where that passes).  An alpha is ruled out where ||F(alpha)||
    exceeds the Armijo bound by more than its rounding (_ray_excess).  Each
    row then tries, in one call, the longest alpha not ruled out, with the
    real test on the bits the scan would build; a row ruled out at every
    alpha stalls with no call.  The rows that fail the real test get the
    two batches, from 2^-(d-1) on.  The outcome is the scan's wherever the
    rounding bound holds.

    The Newton steps of the active rows come from _newton_steps: a row whose
    Jacobian is exactly singular takes the regularized row-space step
    (_regularized_steps), every other row the solve of J dz = -F.  Once a
    batch has had such a row, the later iterations skip the batched solve,
    which would only raise, and go straight to the split.  The DEBUG line
    counts the row-steps that took the singular-row step.

    Rows only ever leave the active set, so its points, residuals, norms and
    creep counts are carried compacted from one iteration to the next; a row
    is written back to the full arrays when it leaves (converged, stalled or
    retired) and the rest once at the end.
    """
    target = 0.05 * gtol
    z = z0.copy()
    width = z.shape[1]
    F, Fn = state_fn(z)
    calls, trial_rows, newton_iters, regularized = 1, 0, 0, 0
    split = False  # set once a batch had an exactly singular row
    creep = np.zeros(len(z), dtype=int)  # consecutive accepted steps with alpha <= _CREEP_STEP
    rows = np.flatnonzero((Fn > target) & np.isfinite(Fn))  # the active rows; the rest never move
    za, Fa, fa, ca = z[rows], F[rows], Fn[rows], creep[rows]
    lead = 1 if degree is None else degree - 1  # 1/2 too at d = 3: the polynomial needs the state there
    batches = [_BATCHES[0][:, lead - 1 :], _BATCHES[1]]

    def tries(searching, t):
        """Row searching[r] tries _ALPHAS[t[r]], or every _ALPHAS[t[0, :]] longest first, in one state call.

        It takes the first that passes the Armijo test; returns the rows none passed.
        """
        nonlocal calls, trial_rows
        if not searching.size:
            return searching
        zs, dzs, fs = za.take(searching, 0), dz.take(searching, 0), fa.take(searching)
        if t.ndim == 1:  # one step length per row: its test is the pick
            zt = zs + _ALPHAS[t][:, None] * dzs
            Ft, Fnt = state_fn(zt)
            pick = hit = Fnt <= _ARMIJO[t] * fs
            crept = _CREEPS[t]
        else:
            m = t.shape[1]
            zt = (zs[:, None] + _ALPHAS[t][..., None] * dzs[:, None]).reshape(-1, width)
            Ft, Fnt = state_fn(zt)
            ok = Fnt.reshape(-1, m) <= _ARMIJO[t] * fs[:, None]
            pick = np.arange(0, Fnt.size, m) + ok.argmax(axis=1)  # the first passing step length, or 0
            hit = ok.reshape(-1)[pick]
            pick, crept = pick[hit], (ok & _CREEPS[t]).reshape(-1)
        calls += 1
        trial_rows += Fnt.size
        took = searching[hit]
        za[took], Fa[took], fa[took] = zt[pick], Ft[pick], Fnt[pick]
        ca[took] = np.where(crept[pick], ca[took] + 1, 0)
        moved[took] = True
        return searching[~hit]

    for _ in range(_NEWTON_ITERATIONS):
        if rows.size == 0:
            break
        newton_iters += 1
        check = newton_iters % _RANK_CHECK_ITERATIONS == 0 and newton_iters < _NEWTON_ITERATIONS
        if check:
            f0 = fa.copy()
        J = jac_fn(za)
        dz, singular = _newton_steps(J, Fa, split)
        if singular is not None:
            split, regularized = True, regularized + np.count_nonzero(singular)
        if lead == 1:  # 1.0 * dz is exact, so the full step is za + dz
            zt = za + dz
            Ft, Fnt = state_fn(zt)
            moved = Fnt <= _ARMIJO[0] * fa
            np.copyto(za, zt, where=moved[:, None])
            np.copyto(Fa, Ft, where=moved[:, None])
            np.copyto(fa, Fnt, where=moved)
            Ft = Ft[None]
        else:  # and 1/2, longest first
            zt = za + _ALPHAS[:lead, None, None] * dz
            Ft, Fnt = state_fn(zt.reshape(-1, width))
            Ft, Fnt = Ft.reshape(lead, rows.size, -1), Fnt.reshape(lead, rows.size)
            moved = np.zeros(rows.size, dtype=bool)
            for a in range(lead):
                took = ~moved & (Fnt[a] <= _ARMIJO[a] * fa)
                np.copyto(za, zt[a], where=took[:, None])
                np.copyto(Fa, Ft[a], where=took[:, None])
                np.copyto(fa, Fnt[a], where=took)
                moved |= took
        calls += 1
        trial_rows += Fnt.size
        ca[moved] = 0  # neither 1 nor 1/2 creeps
        searching = np.flatnonzero(~moved)
        if degree is not None and searching.size:
            s = searching
            Js, C = J.take(s, 0), np.empty((degree + 1, s.size, width))
            # a row that overflows gives a NaN polynomial
            F0 = Fa.take(s, 0, out=C[0])
            F1 = np.einsum("zij,zj->zi", Js, dz.take(s, 0), out=C[1])
            R = np.subtract(Ft[0].take(s, 0), F0, out=C[degree])
            R -= F1  # F2 + ... + Fd
            if degree == 3:
                F2 = np.multiply(8.0, Ft[1].take(s, 0) - F0 - 0.5 * F1, out=C[2])
                F2 -= R
                R -= F2
            excess, margin = _ray_excess(C, Js, _ARMIJO[lead:] * fa.take(s)[:, None])
            fails = excess > margin  # sure to fail the Armijo test; NaN (an overflow) is not sure
            first = fails.argmin(axis=1)  # the longest alpha not ruled out, or 0 where every one is
            pick = (first > 0) | ~fails[:, 0]  # a row ruled out at every alpha stalls
            searching = tries(s[pick], lead + first[pick])
        for t in batches:
            searching = tries(searching, t)
        keep = moved & (fa > target) & (ca < _CREEP_ITERATIONS)
        if check:
            slow = np.flatnonzero(keep & (fa > 0.9 * f0))
            stuck = slow[_rank_deficient(J.take(slow, 0))] if slow.size else slow
            ca[stuck], keep[stuck] = _CREEP_ITERATIONS, False  # counted as retired
        if not keep.all():
            out = ~keep
            left = rows[out]
            z[left], Fn[left], creep[left] = za[out], fa[out], ca[out]
            rows, za, Fa, fa, ca = rows[keep], za[keep], Fa[keep], fa[keep], ca[keep]
    z[rows], Fn[rows], creep[rows] = za, fa, ca
    converged = np.count_nonzero(Fn <= target)
    retired = np.count_nonzero((Fn > target) & (creep >= _CREEP_ITERATIONS))
    log.debug(
        "damped Newton: %d iterations, %d state calls, %d step-length rows, %d singular-row steps; "
        "%d of %d rows converged, %d stalled, %d retired",
        newton_iters, calls, trial_rows, regularized, converged, Fn.size,
        Fn.size - converged - retired - rows.size, retired,  # a row still active at the cap is none of these
    )
    return z


def _column_slices(dims):
    """The columns of each mode's vector in a search row (w_1, ..., w_k, multipliers)."""
    off = np.cumsum((0,) + tuple(dims)).tolist()
    return [slice(a, b) for a, b in zip(off, off[1:])]


def _lagrange_fns(dims, p, grads, blocks):
    """State and bordered Jacobian of the Lagrange system on a product of unit p-spheres.

    A row z = (w_1, ..., w_k, s_1, ..., s_k) solves it when every
    g_i(w) = s_i * phi_{p-1}(w_i) and ||w_i||_p = 1.  ``grads(ws)`` gives the
    g_i of the rows; ``blocks(ws)`` gives the pairs ((i, j), dg_i/dw_j) of
    blocks that are not identically zero.  A singular tuple solves it on the
    k spheres of a tensor's modes, an eigenpair on the one sphere (k = 1).
    """
    cols = _column_slices(dims)
    starts = np.array([c.start for c in cols])
    total = cols[-1].stop
    size = total + len(dims)
    diag = np.arange(total)
    border = total + np.repeat(np.arange(len(dims)), dims)  # the multiplier column of each row
    # the flat positions of (diag, diag), (diag, border) and (border, diag) in a size x size block
    on_diag, on_border, under_border = diag * (size + 1), diag * size + border, border * size + diag

    def state(z):
        W = z[:, :total]
        F = np.empty((len(z), size))
        Phi = _phi_rows(W, p - 1.0)
        for i, (c, g) in enumerate(zip(cols, grads([z[:, c] for c in cols]))):
            np.subtract(g, z[:, total + i, None] * Phi[:, c], out=F[:, c])  # g_i - s_i * phi(w_i)
        np.divide(np.add.reduceat(np.abs(W) ** p, starts, axis=1) - 1.0, p, out=F[:, total:])
        return F, _row_dist(F)

    def jac(z):
        W, S = z[:, :total], z[:, border]
        K = np.zeros((len(z), size, size))
        Kf = K.reshape(len(z), size * size)  # a view; reshape(len(z), -1) fails on zero rows
        for (i, j), B in blocks([z[:, c] for c in cols]):
            K[:, cols[i], cols[j]] = B
        # at p = 2 phi_1 has slope 1, and s * 1.0 is s exactly
        Kf[:, on_diag] -= S if p == 2.0 else S * _phi_slope_rows(W, p)
        Phi = _phi_rows(W, p - 1.0)
        Kf[:, on_border] = -Phi
        Kf[:, under_border] = Phi
        return K

    return state, jac


def _accept(grads, Ws, p, gtol):
    """Renormalize each row's vectors, take the value <g_1, w_1>, keep the stationary rows.

    A row is stationary when max_i ||g_i - value * phi_{p-1}(w_i)|| <= gtol.
    Returns the kept rows' vectors, values, those residuals and the per-mode
    multipliers <g_i, phi(w_i)> / <phi(w_i), phi(w_i)>.
    """
    units = [_unit_rows(W, p) for W in Ws]
    good = np.all([ok for _, ok in units], axis=0)
    Ws = [U[good] for U, _ in units]
    terms = list(zip(grads(Ws), [_phi_rows(W, p - 1.0) for W in Ws]))
    value = _dot_rows(terms[0][0], Ws[0])  # f(w_1, ..., w_k) = <g_i, w_i> in every mode
    resid = np.max([_row_dist(g - value[:, None] * f) for g, f in terms], axis=0)
    mults = np.stack([np.sum(g * f, axis=1) / np.sum(f * f, axis=1) for g, f in terms], 1)
    keep = np.isfinite(resid) & (resid <= gtol)
    return [W[keep] for W in Ws], value[keep], resid[keep], mults[keep]


def _ascend(S, V0, p, sign):
    """Projected gradient on the unit p-sphere, maximizing sign[r] * f on row r.

    S is symmetric (an eigen solve climbs only then), so with g = S
    contracted with v in its leading k-1 modes, f(v) = S(v, ..., v) is
    <g, v> and its gradient is k * g: one contraction chain per iteration.
    ``sign`` holds +1 or -1 per row.  An accepted trial point carries its
    gradient into the next iteration, and row independence makes that
    bit-identical to a fresh one.  The rows that improved take their trial
    point, value and gradient in place, and every step size grows or
    shrinks in one pass; a trial point that does not normalize (a zero or
    non-finite row) is the row's current point.
    """
    k = S.ndim

    def gradient_and_value(V):
        g = _contract_leading(S, [V] * (k - 1))
        return k * g, sign * _dot_rows(g, V)

    V = V0.copy()
    step = np.full(V.shape[0], _INITIAL_STEP)
    G, f = gradient_and_value(V)
    for _ in range(_ASCENT_ITERATIONS):
        W, ok = _unit_rows(V + (sign * step)[:, None] * G, p)
        if not ok.all():
            W[~ok] = V[~ok]
        GW, fW = gradient_and_value(W)
        better = fW > f + 1e-15
        mask = better[:, None]
        np.copyto(V, W, where=mask)
        np.copyto(f, fW, where=better)
        np.copyto(G, GW, where=mask)
        step *= np.where(better, _STEP_GROW, _STEP_SHRINK)
    log.debug(
        "projected ascent: %d iterations, %d rows improved in the last, "
        "%d of %d rows with step >= 1e-6",
        _ASCENT_ITERATIONS, np.count_nonzero(better), np.count_nonzero(step >= 1e-6), V.shape[0],
    )
    return V


def _certified_regular(J, gtol):
    """True when no row's J can have sigma_min <= sqrt(gtol) * sigma_max; False where that is not sure.

    One batched Cholesky of A = G - c I, c = (gtol + 64 n eps) * trace(G),
    with G = Js Js^T from _scaled_gram (scaled exactly, so it cannot
    overflow) and n the size of J.  Success bounds the smallest eigenvalue of
    the exact Gram matrix below by c less the rounding of three steps, each
    a small multiple of n eps * trace(G) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed.): the product, within gamma_n |Js| |Js^T|
    entrywise (section 3.5), so within gamma_n trace(G) in the 2-norm; the
    factor R, with R^T R = A + dA and |dA| <= gamma_{n+1} |R^T| |R| (section
    10.1), so ||dA|| <= gamma_{n+1} trace(A + dA); and the trace, c and the
    subtraction, a few eps * trace(G).  As sigma_max^2 <= trace(G), the exact
    relative sigma_min then exceeds sqrt(gtol + 60 n eps), at least 30 n eps
    above sqrt(gtol) wherever that bound is below 1 (above it no Cholesky
    succeeds); the gap covers the SVD's own rounding of its singular values,
    a small multiple of n eps sigma_max.  So the SVD rule would flag no row
    of a certified batch.  One row that is flagged or too close to call
    fails the batch, and so does a mixed-scale row whose smallest singular
    values underflow once scaled.
    """
    G = _scaled_gram(J)[2]
    n = G.shape[1]
    c = (gtol + 64.0 * n * np.finfo(float).eps) * np.trace(G, axis1=1, axis2=2)
    G.reshape(len(G), -1)[:, :: n + 1] -= c[:, None]  # the diagonal, in place
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_continuum(z, J, state_fn, jac_fn, degree, merge_tol, gtol, noun):
    """Raise DegenerateTensorError if the rows of z lie on a positive-dimensional set.

    Local dimension test (Bates, Hauenstein, Peterson & Sommese, SINUM 2009)
    on rows z = (point, multipliers), critical value last, with Jacobians J.
    Regular points are cleared all at once by one batched Cholesky
    (_certified_regular); only a batch that it cannot clear takes a batched
    SVD.  A row with sigma_min <= sqrt(gtol) * sigma_max is stepped
    h = max(1e-3, 10 * merge_tol) along its null vector and corrected by the
    polish's damped Newton (``degree`` as there).  A row whose Jacobian is
    exactly singular takes the regularized step, which lies in J's row space
    and so moves across a continuum rather than along it; every other row
    takes the full solve, which, unlike the regularization, does not damp the
    directions of tiny singular values along which Newton gets back to an
    isolated multiple root.  A stationary result with the same value at a
    distance in (merge_tol, 2h] witnesses a continuum.
    The error names the first witness in flagged order, so the flagged rows
    are tried in batches of 1, 2, 4, ... rows, in order, up to the first
    batch with a witness; rows are independent, so each comes out as it
    would in one batch of all of them.  The DEBUG line gives the smallest
    relative sigma_min where the SVD ran.
    """
    # a degenerate set flags most of its points, so its first point alone cheaply fails most such batches
    if _certified_regular(J[:1], gtol) and _certified_regular(J, gtol):
        flagged, detail = np.empty(0, dtype=int), ", certified regular by Cholesky"
    else:
        s = np.linalg.svd(J, compute_uv=False)
        rel = s[:, -1] / s[:, 0]
        flagged = np.flatnonzero(rel <= np.sqrt(gtol))
        detail = ", smallest relative sigma_min %.3g" % np.min(rel, initial=np.inf)
    h = max(1e-3, 10.0 * merge_tol)
    witness, start, size = [], 0, 1
    while start < flagged.size and not len(witness):
        rows = flagged[start : start + size]
        start, size = start + size, 2 * size
        z0 = z[rows]
        z1 = _damped_newton(z0 + h * np.linalg.svd(J[rows])[2][:, -1], state_fn, jac_fn, gtol, degree)
        dist = _row_dist(z1 - z0)
        same = (state_fn(z1)[1] <= gtol) & (np.abs(z1[:, -1] - z0[:, -1]) <= gtol)
        witness = np.flatnonzero(same & (dist > merge_tol) & (dist <= 2.0 * h))
    log.debug("continuum check: %d points, %d flagged, %d witnesses%s", len(z), flagged.size, len(witness), detail)
    if len(witness):
        value, d = z0[witness[0], -1], dist[witness[0]]
        raise DegenerateTensorError(
            f"continuum witness: the {noun} with critical value {value:.6g} continues to another "
            f"at distance {d:.3g} with the same value; the critical set is positive-dimensional"
        )


@np.errstate(all="ignore")
def dedupe(points, tol):
    """Greedy clustering at Euclidean distance tol on concatenated vectors.

    Keeps the lowest-residual representative of each cluster, in input
    order; among equal residuals the smaller vector (compared entry by entry)
    wins, and a NaN residual ranks last.  Antipodal points are never merged
    (their distance is 2 on unit spheres).  Points with non-finite vectors
    are dropped before ranking, so they never change which point is kept.
    """
    tol = _real(tol, "tol", at_least=0)
    if not points:
        return []
    keys = np.array(
        [np.concatenate((pt.vector,) if isinstance(pt, EigenPair) else pt.vectors) for pt in points]
    )
    resid = np.array([pt.residual for pt in points], dtype=float)
    return [points[i] for i in _dedupe_rows(keys, resid, tol)]


def _check_unit(vec, p):
    nrm = p_norm(vec, p)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"v must be a unit vector in the p-norm, got ||v||_p = {nrm}")


def _check_eigen_args(tensor, mode):
    """The integer mode in 0..k of a square tensor; mode 0 (symmetric) needs a symmetric tensor."""
    _require_square(tensor)
    mode = _integer(mode, "mode", 0, tensor.order)
    if mode == 0:
        _require_symmetric(tensor)
    return mode


@np.errstate(all="ignore")
def residual_eigen(tensor, v, value, mode, p=2.0):
    """Stationarity defect ||mode_gradient - value * phi_{p-1}(v)||_2 at a unit v.

    Mode 0 is the symmetric problem (gradient in mode 1, symmetric tensor).
    """
    mode = _check_eigen_args(tensor, mode)
    p = check_norm_param(p)
    vec = _as_vector(v, tensor.shape[0], "v")
    _check_unit(vec, p)
    value = _real(value, "value")
    grad = mode_gradient(tensor, [vec] * tensor.order, max(mode, 1))
    return p_norm(_in_range(grad - value * phi(vec, p - 1.0), "the stationarity defect"), 2.0)


def _morse_rows(H, V):
    """classify_index's (index, nondegenerate) of the unit eigenvectors V, as two arrays.

    H[r] is k times the bordered Jacobian's vector block at (V[r], value); an
    H that leaves the float range is a ValueError.
    """
    _in_range(H, "the second variation")
    P = np.eye(V.shape[1]) - V[:, :, None] * V[:, None, :]
    PHP = P @ H @ P
    eig = np.linalg.eigvalsh((PHP + np.swapaxes(PHP, 1, 2)) / 2)
    eps = 1e-8 * np.maximum(1.0, np.max(np.abs(eig), axis=1))[:, None]
    return np.sum(eig < -eps, axis=1), np.sum(np.abs(eig) <= eps, axis=1) == 1


@np.errstate(all="ignore")
def classify_index(tensor, v, value, residual_tolerance=1e-8):
    """Morse data (index, nondegenerate) of a symmetric eigenpair under the 2-norm.

    P = I - v v^T projects the second variation of f(x, ..., x) at v, H =
    k (k - 1) T(v, ..., v, ., .) - k * value * I, on the sphere's tangent
    space.  index counts the eigenvalues of P H P below -eps, eps = 1e-8 *
    max(1, ||P H P||_2), and the pair is nondegenerate when only the zero
    along v lies within eps: the solver's rule for every pair it finds.
    Raises ValueError when ||T(v, ..., v, .) - value * v|| > residual_tolerance.
    """
    _require_symmetric(tensor)
    k, n = tensor.order, tensor.shape[0]
    if k < 2:
        raise ShapeError("index classification needs tensor order >= 2")
    if n < 2:
        raise ShapeError("index classification needs dimension >= 2")
    vec = _as_vector(v, n, "v")
    _check_unit(vec, 2.0)
    value = _real(value, "value")
    residual_tolerance = _real(residual_tolerance, "residual_tolerance", at_least=0)
    C = _contract_leading(tensor.data, [vec[None, :]] * (k - 2))[0]  # T(v, ..., v, ., .)
    resid = p_norm(_in_range(vec @ C - value * vec, "the stationarity defect"), 2.0)
    if resid > residual_tolerance:
        raise ValueError(
            f"(v, value) is not stationary enough to classify: residual {resid:.3e} "
            f"exceeds {residual_tolerance:.3e}"
        )
    index, nondegenerate = _morse_rows(k * ((k - 1) * C.T - value * np.eye(n))[None], vec[None, :])
    return int(index[0]), bool(nondegenerate[0])


def _eigen_parts(D):
    """(dims, degree, grads, blocks) of the last-mode eigenproblem of D, on one sphere."""
    k = D.ndim

    def grads(Ws):
        return [_contract_leading(D, Ws * (k - 1))]

    def blocks(Ws):
        # D is symmetric in its leading k-1 modes, so dg/dv is k-1 times D contracted in k-2
        return [((0, 0), np.swapaxes((k - 1) * _contract_leading(D, Ws * (k - 2)), 1, 2))]

    return D.shape[:1], k - 1, grads, blocks


def _tuple_parts(data):
    """(dims, degree, grads, blocks) of the singular tuples of data: one sphere per mode."""

    def blocks(Ws):
        for (i, j), B in _batch_pair_jacs(data, Ws).items():
            yield (i, j), B
            yield (j, i), np.swapaxes(B, 1, 2)

    return data.shape, data.ndim - 1, lambda Ws: _batch_mode_grads(data, Ws), blocks


def _ray_degree(degree, p):
    """The system's degree along a Newton ray at p = 2, max(degree, 2); None above 3 or at p != 2."""
    return max(degree, 2) if p == 2.0 and degree <= 3 else None


def _search(config, system, ascend, act, merge_tol, cap, noun):
    """The multi-start search on the product of the unit p-spheres of a system.

    ``system`` is _eigen_parts' or _tuple_parts' (dims, degree, grads, blocks):
    the spheres, the degree of the g_i in w, and what _lagrange_fns takes.

    ``ascend`` takes the first _ASCENT_STARTS starts, one array of rows per
    sphere, to endpoints; Newton polishes every endpoint, then every start.
    The starts are prefix-stable, so above _ASCENT_STARTS restarts the
    endpoints do not depend on the restart count.
    ``act(Ws, value, resid, mults)`` applies the sign group to the accepted
    rows and also returns ``found``, each row's value as accepted.  Returns
    (Ws, value, resid, mults, found, J), J the bordered Jacobians, of the rows
    kept by dedupe at merge_tol, value descending; more than ``cap`` of them
    (None: no cap), or a continuum, raises DegenerateTensorError naming a ``noun``,
    and a kept row whose J leaves the float range a ValueError.
    """
    dims, degree, grads, blocks = system
    p, gtol = config.p, config.gradient_tolerance
    state, jac = _lagrange_fns(dims, p, grads, blocks)
    d = _ray_degree(degree, p)
    starts = _random_starts(config.seed, config.restarts, dims, p)
    ends = ascend([S[:_ASCENT_STARTS] for S in starts])
    Ws = [np.concatenate([E, W]) for E, W in zip(ends, starts)]
    # every multiplier starts at the value f(w) = <g_k, w_k>
    s0 = np.repeat(_dot_rows(grads(Ws)[-1], Ws[-1])[:, None], len(dims), axis=1)
    z = _damped_newton(np.concatenate(Ws + [s0], axis=1), state, jac, gtol, d)
    accepted = _accept(grads, [z[:, c] for c in _column_slices(dims)], p, gtol)
    Ws, value, resid, mults, found = act(*accepted)
    keys = np.concatenate(Ws, axis=1)
    kept = _dedupe_rows(keys, resid, merge_tol)
    if cap is not None and len(kept) > cap:
        raise DegenerateTensorError(
            f"count cap: {len(kept)} {noun}s survive deduplication, more than the "
            f"{cap} of the Cartwright-Sturmfels count (antipodes included); either the set is not "
            "finite or Newton split a multiple root"
        )
    z = np.concatenate([keys[kept], np.repeat(value[kept, None], len(dims), axis=1)], axis=1)
    J = _in_range(jac(z), f"the bordered Jacobian at a {noun}")
    if kept.size:
        _check_continuum(z, J, state, jac, d, merge_tol, gtol, noun)
    else:
        log.info("no %ss found at this effort (restarts=%d)", noun, config.restarts)
    order = _lex_order(-value[kept], keys[kept])
    kept = kept[order]
    return [W[kept] for W in Ws], value[kept], resid[kept], mults[kept], found[kept], J[order]


@np.errstate(all="ignore")
def _eigen_run(tensor, mode, config):
    """Eigenpairs in ``mode`` under config.p; mode 0 is the symmetric problem.

    The symmetric problem under the 2-norm also gets Morse data, from the
    search's Jacobians.  The mode-i problem sees T only through T(v, ..., v,
    .), so it runs on the mode-last copy averaged over its leading k-1 modes,
    the basis-free object; an exactly symmetric tensor is its own average.
    Only a tensor that passes is_symmetric makes the pairs the critical
    points of f(v) = T(v, ..., v), so only then does the ascent run.
    """
    k = tensor.order
    mode = _check_eigen_args(tensor, mode)
    n = tensor.shape[0]
    if k < 2:
        raise ShapeError("eigenpair solvers need tensor order >= 2")
    if n < 2:
        raise ShapeError("eigenpair solvers need dimension >= 2")
    p = config.p
    # the mode-i eigenpairs of T are the last-mode eigenpairs of T with mode i moved last
    D = np.ascontiguousarray(np.moveaxis(tensor.data, max(mode - 1, 0), -1))
    # D(v, ..., v, .) does not change when D is averaged over its leading k-1 modes, and
    # every stage runs on that average
    if max_asymmetry(tensor) != 0.0:
        D = _orbit_mean(D, _orbit_ids(D.shape, k - 1))

    def ascend(starts):
        if not is_symmetric(tensor):  # no endpoints: Newton polishes the raw starts alone
            return [starts[0][:0]]
        # the first m rows maximize f and the last m minimize it
        return [_ascend(D, np.concatenate(starts * 2), p, np.repeat([1.0, -1.0], len(starts[0])))]

    def act(Ws, lam, resid, mults):
        # antipodal completion: -v is stationary with v's residual and multiplier (-1)^k lam,
        # exactly, since negating v negates g (k - 1 times) and phi_{p-1}(v)
        lam, mults = (np.concatenate([x, (-1.0) ** k * x]) for x in (lam, mults))
        return [np.concatenate([Ws[0], -Ws[0]])], lam, np.tile(resid, 2), mults, lam

    # For p != 2 the stationarity field can vanish to order k-1 across an
    # isolated solution (diagonal tensors with p = k), so everything inside a
    # radius ~ tol^(1/(k-1)) ball passes the residual test; widen the merge
    # radius to that scale to report one point per solution.
    merge_tol, cap = _DEDUPE_TOLERANCE, None
    if p != 2.0:
        merge_tol = max(merge_tol, 10.0 * config.gradient_tolerance ** (1.0 / (k - 1)))
    else:  # the Cartwright-Sturmfels count, antipodes included
        cap = 2 * (n if k == 2 else ((k - 1) ** n - 1) // (k - 2))
    (V,), lam, resid, _, _, J = _search(
        config, _eigen_parts(D), ascend, act, merge_tol, cap, "stationary point"
    )
    index = nondeg = [None] * len(V)
    if mode == 0 and p == 2.0:
        index, nondeg = (a.tolist() for a in _morse_rows(k * J[:, :n, :n], V))
    return [
        EigenPair(
            vector=v, value=float(value), mode=mode, residual=float(r), index=i, nondegenerate=nd,
            near_zero_coords=bool(p != 2.0 and np.min(np.abs(v)) < 1e-6),
        )
        for v, value, r, i, nd in zip(V, lam, resid, index, nondeg)
    ]


def _config(config):
    """config, or the default SolverConfig() where it is None; anything else is a ValueError."""
    if config is None:
        return SolverConfig()
    if not isinstance(config, SolverConfig):
        raise ValueError(f"config must be a SolverConfig or None, got {config!r}")
    return config


def symmetric_eigenpairs(tensor, config=None):
    """All eigenpairs of a symmetric tensor found by the multi-start search.

    Pairs are sorted by descending value; v and -v count separately.  Each
    pair carries its Morse index and nondegeneracy flag.  A positive-
    dimensional critical set (e.g. the identity matrix) raises
    DegenerateTensorError at any effort; isolated degenerate points are
    returned, nondegenerate=False where the Morse test resolves them.
    """
    config = _config(config)
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
    config = _config(config)
    if config.p != 2.0:
        raise ValueError("mode_eigenpairs uses the 2-norm; see generalized_eigenpairs")
    return _eigen_run(tensor, mode, config)


def generalized_eigenpairs(tensor, mode, config=None):
    """Mode-i eigenpairs under the p-norm from the config (1 < p <= norms.MAX_NORM_PARAM, 1000).

    ``mode`` is 0..k.  Mode 0 is the symmetric problem: the tensor must be
    symmetric, and with p = 2 the pairs carry Morse data exactly as from
    symmetric_eigenpairs.  With p = 2, modes 1..k reproduce mode_eigenpairs
    exactly.  Pairs whose vectors have near-zero coordinates are flagged
    when p != 2, since the p-norm is not twice differentiable there for
    p < 2.
    """
    return _eigen_run(tensor, mode, _config(config))


# ---------------------------------------------------------------------------
# singular tuples
# ---------------------------------------------------------------------------


def _alternating_ascent(data, Ws0, p):
    """Cyclic best-response updates; each solves its single-mode stationarity."""
    k = data.ndim
    Ds = [np.ascontiguousarray(np.moveaxis(data, i, -1)) for i in range(k)]  # mode i last
    Ws = [W.copy() for W in Ws0]
    q = 1.0 / (p - 1.0)
    for _ in range(_ALTERNATING_SWEEPS):
        before = np.concatenate(Ws, axis=1)
        for i in range(k):
            G = _contract_leading(Ds[i], Ws[:i] + Ws[i + 1 :])
            U, ok = _unit_rows(_phi_rows(G, q), p)
            Ws[i][ok] = U[ok]
    moved = _row_dist(np.concatenate(Ws, axis=1) - before)
    log.debug(
        "alternating ascent: %d sweeps, largest move %.3g in the last, %d rows",
        _ALTERNATING_SWEEPS, np.max(moved), len(moved),
    )
    return Ws


@np.errstate(all="ignore")
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
    config = _config(config)
    if tensor.order < 2:
        raise ShapeError("singular tuples need tensor order >= 2")
    data = tensor.data
    # ||T|| = scale * 2^e, in range at any scale of T
    scale, _, e = _scaled_norm(data.reshape(-1), 2.0)

    def act(Ws, raw, resid, mults):
        # canonical sign: negating w_1 where the value is negative negates the value, the
        # multipliers and every gradient but the first exactly, so no residual changes
        sign = np.where(raw < 0, -1.0, 1.0)
        return [sign[:, None] * Ws[0]] + Ws[1:], sign * raw, resid, sign[:, None] * mults, raw

    Ws, sigma, resid, mults, raw, _ = _search(
        config, _tuple_parts(data), lambda starts: _alternating_ascent(data, starts, config.p),
        act, _DEDUPE_TOLERANCE, None, "singular tuple",
    )
    degenerate = np.ldexp(np.abs(sigma), -e) <= 1e-8 * scale
    return [
        SingularTuple(
            vectors=tuple(W[i] for W in Ws), sigma=float(sigma[i]), residual=float(resid[i]),
            critical_value=float(raw[i]), mode_multipliers=tuple(mults[i]),
            degenerate=bool(degenerate[i]),
        )
        for i in range(len(sigma))
    ]
