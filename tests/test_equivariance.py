"""Basis-free checks: the solvers' outputs move with the tensor.

The paper defines eigenpairs and singular tuples without a basis.  So under
the 2-norm the pairs of T.(Q, ..., Q), for an orthogonal Q, are the (Qv, lam)
of the pairs (v, lam) of T, with the same Morse indices; the tuples of
T.(Q_1, ..., Q_k) are the (Q_1 v_1, ..., Q_k v_k, sigma); and permuting T's
modes permutes each tuple's vectors.  Gaussian starts are rotation-invariant
only in distribution, so the transformed solve is an independent search and
a mismatch means that one of the two sets is incomplete.  The cases here
are complete at the effort they use; 6^3 and 4x5x6 are not at test effort.
The sphere oracle returns complete sets, so its rotation cases take 6^3 too.
"""

import numpy as np
import pytest

from tensorcrit import (
    DenseTensor,
    SolverConfig,
    random_tensor,
    singular_tuples,
    sphere_critical_points,
    symmetric_eigenpairs,
)

TOL = 1e-7


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _transform(data, Qs):
    """T.(Q_1, ..., Q_k): mode m of T multiplied by Q_m."""
    for m, Q in enumerate(Qs):
        data = np.moveaxis(np.tensordot(Q, data, axes=(1, m)), 0, m)
    return data


def _match(dist):
    """The column within TOL of each row; asserts that rows and columns pair off one to one."""
    close = dist <= TOL
    assert close.shape[0] == close.shape[1], f"{close.shape[0]} points against {close.shape[1]}"
    assert np.all(close.sum(axis=1) == 1) and np.all(close.sum(axis=0) == 1)
    return np.argmax(close, axis=1)


def _class_distance(A, B):
    """Max-norm distance between tuples (v_1, ..., v_k, sigma), each vector up to its sign."""
    d = np.abs(A[-1][:, None] - B[-1][None])
    for X, Y in zip(A[:-1], B[:-1]):
        same = np.max(np.abs(X[:, None] - Y[None]), axis=2)
        flipped = np.max(np.abs(X[:, None] + Y[None]), axis=2)
        d = np.maximum(d, np.minimum(same, flipped))
    return d


def _classes(tuples, order=None):
    """One tuple per sign class, as the arrays (v_1, ..., v_k, sigma) of their rows.

    ``order`` lists the modes in the order to return their vectors.
    """
    assert tuples, "no tuples found"
    order = range(len(tuples[0].vectors)) if order is None else order
    rows = [np.array([t.vectors[m] for t in tuples]) for m in order]
    rows.append(np.array([t.sigma for t in tuples]))
    d = _class_distance(rows, rows)
    keep = []
    for i in range(len(tuples)):
        if not any(d[i, j] <= TOL for j in keep):
            keep.append(i)
    return [R[keep] for R in rows]


@pytest.mark.parametrize(
    "shape, seed", [((3, 3, 3), 70), ((3, 3, 3), 71), ((4, 4, 4), 72), ((4, 4, 4), 73), ((3, 3, 3, 3), 74)]
)
def test_symmetric_pairs_rotate_with_the_tensor(shape, seed):
    T = random_tensor(shape, seed, symmetric=True)
    Q = _orthogonal(np.random.default_rng(seed), shape[0])
    cfg = SolverConfig(restarts=800, seed=seed)
    pairs = symmetric_eigenpairs(T, cfg)
    turned = symmetric_eigenpairs(DenseTensor(_transform(T.data, [Q] * len(shape))), cfg)
    assert pairs and turned
    A = np.array([np.append(Q @ pt.vector, pt.value) for pt in pairs])
    B = np.array([np.append(pt.vector, pt.value) for pt in turned])
    match = _match(np.max(np.abs(A[:, None] - B[None]), axis=2))
    assert [pt.index for pt in pairs] == [turned[j].index for j in match]
    assert all(pt.nondegenerate for pt in pairs + turned)


@pytest.mark.parametrize(
    "shape, seed",
    [((3, 3, 3), 84), ((4, 4, 4), 85), ((6, 6, 6), 86), ((3, 3, 3, 3), 87), ((4, 4, 4, 4), 88)],
)
def test_sphere_oracle_rotates_with_the_tensor(shape, seed):
    T = random_tensor(shape, seed, symmetric=True)
    Q = _orthogonal(np.random.default_rng(seed), shape[0])
    points = sphere_critical_points(T).points
    turned = sphere_critical_points(DenseTensor(_transform(T.data, [Q] * len(shape)))).points
    A = np.array([np.append(Q @ pt.vector, pt.value) for pt in points])
    B = np.array([np.append(pt.vector, pt.value) for pt in turned])
    match = _match(np.max(np.abs(A[:, None] - B[None]), axis=2))
    assert [pt.index for pt in points] == [turned[j].index for j in match]


@pytest.mark.parametrize(
    "shape, restarts, seed",
    [
        ((3, 3, 3), 800, 75),
        ((3, 3, 3), 800, 76),
        ((3, 4, 5), 800, 77),
        ((3, 4, 5), 800, 78),
        ((3, 4), 200, 79),
        ((3, 4), 200, 80),
    ],
)
def test_singular_tuples_rotate_with_the_tensor(shape, restarts, seed):
    T = random_tensor(shape, seed)
    rng = np.random.default_rng(seed)
    Qs = [_orthogonal(rng, n) for n in shape]
    cfg = SolverConfig(restarts=restarts, seed=seed)
    A = _classes(singular_tuples(T, cfg))
    B = _classes(singular_tuples(DenseTensor(_transform(T.data, Qs)), cfg))
    _match(_class_distance([V @ Q.T for V, Q in zip(A, Qs)] + A[-1:], B))


@pytest.mark.parametrize(
    "shape, perm, seed", [((3, 4, 5), (2, 0, 1), 81), ((3, 4, 5), (1, 0, 2), 82), ((3, 3, 3), (1, 2, 0), 83)]
)
def test_permuting_modes_permutes_tuple_vectors(shape, perm, seed):
    T = random_tensor(shape, seed)
    cfg = SolverConfig(restarts=800, seed=seed)
    A = _classes(singular_tuples(T, cfg))
    # mode m of the transpose is mode perm[m] of T, so its tuples list T's vectors in that order
    back = np.argsort(perm)
    B = _classes(singular_tuples(DenseTensor(np.transpose(T.data, perm)), cfg), order=back)
    _match(_class_distance(A, B))
