from dataclasses import replace

import numpy as np
import pytest

from tensorcrit import (
    AsymmetricTensorError,
    DegenerateTensorError,
    DenseTensor,
    EigenPair,
    ShapeError,
    SolverConfig,
    classify_index,
    dedupe,
    evaluate,
    generalized_eigenpairs,
    jacobi_eigen,
    mode_eigenpairs,
    random_tensor,
    residual_eigen,
    singular_tuples,
    svd_small,
    symmetric_eigenpairs,
    symmetrize,
)
from tensorcrit.solver import _check_isolated, _leaders
from conftest import geodesic_second_derivative, match_pair, tangent_basis

CFG = SolverConfig(restarts=40, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_pair_vector_is_read_only():
    p = EigenPair(vector=np.array([1.0, 0.0]), value=1.0, mode=0, residual=0.0)
    with pytest.raises(ValueError):
        p.vector[0] = 2.0


# --- residual_eigen -------------------------------------------------------


def test_residual_matrix_eigenpair():
    T = DenseTensor(np.diag([1.0, 2.0]))
    assert residual_eigen(T, [1.0, 0.0], 1.0, 1) == 0.0


def test_residual_cubic_mixed_point(cubic):
    v = np.array([2 ** -0.5, 2 ** -0.5])
    assert residual_eigen(cubic, v, 2 ** -0.5, 1) <= 1e-12


def test_residual_generic_point_positive(cubic):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    lam = evaluate(cubic, [v] * 3)
    assert residual_eigen(cubic, v, lam, 1) > 1e-3


def test_residual_requires_unit_vector():
    T = DenseTensor(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        residual_eigen(T, [2.0, 0.0], 1.0, 1)


# --- symmetric eigenpairs -------------------------------------------------


def test_symmetric_matrix_pairs():
    T = DenseTensor(np.diag([1.0, 2.0]))
    pairs = symmetric_eigenpairs(T, CFG)
    assert sorted(round(p.value, 12) for p in pairs) == [1.0, 1.0, 2.0, 2.0]
    e1, e2 = np.eye(2)
    assert len(match_pair(pairs, 1.0, e1)) == 2  # +e1 and -e1
    assert len(match_pair(pairs, 2.0, e2)) == 2
    assert [p.value for p in pairs] == sorted((p.value for p in pairs), reverse=True)


def test_symmetric_cubic_full_set(cubic):
    pairs = symmetric_eigenpairs(cubic, CFG)
    assert len(pairs) == 6
    values = sorted(round(p.value, 9) for p in pairs)
    r = round(2 ** -0.5, 9)
    assert values == [-1.0, -1.0, -r, r, 1.0, 1.0]
    thetas = [float(np.arctan2(p.vector[1], p.vector[0])) for p in pairs]
    for want in (0, np.pi / 4, np.pi / 2, np.pi, 5 * np.pi / 4, 3 * np.pi / 2):
        dists = [
            abs((th - want + np.pi) % (2 * np.pi) - np.pi) for th in thetas
        ]
        assert min(dists) < 1e-9


def test_symmetric_identity_is_degenerate():
    with pytest.raises(DegenerateTensorError):
        symmetric_eigenpairs(DenseTensor(np.eye(2)), CFG)


def test_symmetric_rejects_asymmetric_input():
    T = DenseTensor([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(AsymmetricTensorError, match="symmetrize"):
        symmetric_eigenpairs(T, CFG)


def test_symmetric_requires_p_two(cubic):
    with pytest.raises(ValueError):
        symmetric_eigenpairs(cubic, SolverConfig(restarts=4, p=3.0))


def test_accepted_pairs_satisfy_contracts(cubic):
    pairs = symmetric_eigenpairs(cubic, CFG)
    for p in pairs:
        assert abs(np.linalg.norm(p.vector) - 1) <= 1e-12
        assert p.residual <= CFG.gradient_tolerance
        value = evaluate(cubic, [p.vector] * 3)
        assert abs(p.value - value) <= 1e-10 * (abs(value) + 1)
        assert p.index is not None and p.nondegenerate is True


# --- mode eigenpairs ------------------------------------------------------


def test_mode_pairs_triangular_matrix():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    m1 = mode_eigenpairs(DenseTensor(A), 1, CFG)
    m2 = mode_eigenpairs(DenseTensor(A), 2, CFG)
    assert sorted(set(round(p.value, 9) for p in m1)) == [2.0, 3.0]
    assert sorted(set(round(p.value, 9) for p in m2)) == [2.0, 3.0]
    # right eigenvectors of A: (1,0) for 2, (1,1)/sqrt(2) for 3
    assert match_pair(m1, 2.0, np.array([1.0, 0.0]))
    assert match_pair(m1, 3.0, np.array([1.0, 1.0]) / np.sqrt(2))
    # mode 2 pairs are right eigenvectors of A^T: (1,-1)/sqrt(2) for 2, (0,1) for 3
    assert match_pair(m2, 2.0, np.array([1.0, -1.0]) / np.sqrt(2))
    assert match_pair(m2, 3.0, np.array([0.0, 1.0]))


def test_mode_pairs_on_symmetric_match_symmetric_solver():
    T = random_tensor((3, 3, 3), 17, symmetric=True)
    sym = symmetric_eigenpairs(T, CFG)
    for mode in (1, 2, 3):
        pairs = mode_eigenpairs(T, mode, CFG)
        assert len(pairs) == len(sym)
        for p, q in zip(pairs, sym):
            assert abs(p.value - q.value) <= 1e-9
            assert np.linalg.norm(p.vector - q.vector) <= 1e-6


def test_mode_pairs_rotation_matrix_empty():
    pairs = mode_eigenpairs(DenseTensor([[0.0, 1.0], [-1.0, 0.0]]), 1, CFG)
    assert pairs == []


def test_mode_out_of_range():
    with pytest.raises(ValueError):
        mode_eigenpairs(DenseTensor(np.eye(2)), 3, CFG)
    with pytest.raises(ValueError):
        generalized_eigenpairs(DenseTensor(np.eye(2)), -1, CFG)


# --- one eigen body: mode 0 is the symmetric problem ------------------------


def _same_pairs(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.vector, y.vector)
        assert (x.value, x.mode, x.residual, x.index, x.nondegenerate, x.near_zero_coords) == (
            y.value, y.mode, y.residual, y.index, y.nondegenerate, y.near_zero_coords
        )


@pytest.mark.parametrize("shape, seed", [((3, 3, 3), 17), ((2, 2, 2, 2), 3), ((4, 4), 8)])
def test_mode_zero_is_the_symmetric_solver(shape, seed):
    # mode_eigenpairs accepts mode 0 too, as generalized_eigenpairs does
    T = random_tensor(shape, seed, symmetric=True)
    sym = symmetric_eigenpairs(T, CFG)
    assert sym and all(p.mode == 0 and p.index is not None for p in sym)
    _same_pairs(generalized_eigenpairs(T, 0, CFG), sym)
    _same_pairs(mode_eigenpairs(T, 0, CFG), sym)


def test_mode_zero_rejects_asymmetric_input():
    T = random_tensor((3, 3, 3), 6)
    for p in (2.0, 1.5):
        with pytest.raises(AsymmetricTensorError):
            generalized_eigenpairs(T, 0, SolverConfig(restarts=4, p=p))
    with pytest.raises(AsymmetricTensorError):
        mode_eigenpairs(T, 0, CFG)


def test_mode_zero_p_norm_pairs_are_unclassified():
    T = random_tensor((3, 3, 3), 5, symmetric=True)
    cfg = SolverConfig(restarts=24, p=1.5)
    pairs = generalized_eigenpairs(T, 0, cfg)
    assert pairs and all(p.mode == 0 and p.index is None for p in pairs)
    # mode 1 of a symmetric tensor is the same problem; only the mode label differs
    ones = generalized_eigenpairs(T, 1, cfg)
    _same_pairs([replace(p, mode=0) for p in ones], pairs)


# --- generalized (p-norm) eigenpairs --------------------------------------


def test_generalized_p2_reduces_to_mode():
    T = random_tensor((3, 3), 23)
    a = mode_eigenpairs(T, 1, CFG)
    b = generalized_eigenpairs(T, 1, CFG)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.value == y.value
        assert np.array_equal(x.vector, y.vector)


def test_generalized_diagonal_p_equals_k():
    d = np.zeros((3, 3, 3))
    for j, val in enumerate([1.0, 2.0, 3.0]):
        d[j, j, j] = val
    cfg = SolverConfig(restarts=80, seed=5, p=3.0)
    pairs = generalized_eigenpairs(DenseTensor(d), 1, cfg)
    for j, val in enumerate([1.0, 2.0, 3.0]):
        e = np.zeros(3)
        e[j] = 1.0
        hits = [
            p
            for p in pairs
            if abs(p.value - val) <= 1e-8 and np.linalg.norm(np.abs(p.vector) - e) < 1e-4
        ]
        assert hits, f"basis vector {j} not recovered"
        assert all(p.near_zero_coords for p in hits)


def test_generalized_cubic_p3_mixed_point_is_stationary(cubic):
    # the equal-weight direction solves the p=3 stationarity with lam = 1
    v = np.array([2 ** (-1 / 3), 2 ** (-1 / 3)])
    assert residual_eigen(cubic, v, 1.0, 1, 3.0) <= 1e-10
    # and the full arc it belongs to is a continuum, which the solver reports
    with pytest.raises(DegenerateTensorError):
        generalized_eigenpairs(cubic, 1, SolverConfig(restarts=40, seed=2, p=3.0))


# --- classify_index -------------------------------------------------------


def test_classify_matrix_indices():
    T = DenseTensor(np.diag([1.0, 2.0]))
    assert classify_index(T, np.array([1.0, 0.0]), 1.0) == (0, True)
    assert classify_index(T, np.array([-1.0, 0.0]), 1.0) == (0, True)
    assert classify_index(T, np.array([0.0, 1.0]), 2.0) == (1, True)


def test_classify_cubic_basis_point(cubic):
    index, nondeg = classify_index(cubic, np.array([1.0, 0.0]), 1.0)
    assert (index, nondeg) == (1, True)
    # geodesic second derivative along the single tangent direction is -k f
    w = np.array([0.0, 1.0])
    assert geodesic_second_derivative(cubic, np.array([1.0, 0.0]), w) == pytest.approx(
        -3.0, abs=1e-6
    )


def test_classify_identity_degenerate():
    T = DenseTensor(np.eye(3))
    rng = np.random.default_rng(1)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    index, nondeg = classify_index(T, v, 1.0)
    assert nondeg is False
    assert index == 0


def test_classify_rejects_nonstationary(cubic):
    v = np.array([0.6, 0.8])
    with pytest.raises(ValueError):
        classify_index(cubic, v, evaluate(cubic, [v] * 3))


# --- dedupe ---------------------------------------------------------------


def _pair(vec, residual=1e-12, value=1.0):
    return EigenPair(vector=np.asarray(vec, float), value=value, mode=0, residual=residual)


def test_dedupe_merges_perturbed_copies():
    a = _pair([1.0, 0.0], residual=1e-12)
    b = _pair([1.0, 1e-9], residual=1e-11)
    out = dedupe([a, b], 1e-6)
    assert len(out) == 1
    assert out[0] is a  # lowest residual survives


def test_dedupe_keeps_antipodes():
    out = dedupe([_pair([1.0, 0.0]), _pair([-1.0, 0.0])], 1e-6)
    assert len(out) == 2


def test_dedupe_empty():
    assert dedupe([], 1e-6) == []


# Brute-force copies of the per-point greedy loops that _leaders and
# _check_isolated replaced; the new code must make the same decisions.


def _ref_coarse_unique(V, tol):
    reps = []
    for row in V:
        if not np.all(np.isfinite(row)):
            continue
        if reps and float(np.min(np.linalg.norm(np.array(reps) - row, axis=1))) <= tol:
            continue
        reps.append(row)
    return np.array(reps) if reps else np.empty((0, V.shape[1]))


def _ref_dedupe(points, tol):
    keys = [np.concatenate([p.vector]) for p in points]
    order = sorted(range(len(points)), key=lambda i: (points[i].residual, tuple(keys[i].tolist())))
    kept = []
    mat = None
    for i in order:
        if mat is not None and float(np.min(np.linalg.norm(mat - keys[i], axis=1))) <= tol:
            continue
        kept.append(i)
        mat = keys[i][None, :] if mat is None else np.vstack([mat, keys[i]])
    return [points[i] for i in sorted(kept)]


def _ref_crowded(vectors, limit, tol=1e-2):
    mat = np.array(vectors)
    crowd = 0
    for i in range(len(mat)):
        d = np.linalg.norm(mat - mat[i], axis=1)
        d[i] = np.inf
        if float(d.min()) <= tol:
            crowd += 1
            if crowd > limit:
                return True
    return False


def _cloud(seed, m, n, spread):
    """Unit points around a few centres, their antipodes, and exact copies."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((max(1, m // 8), n))
    X = centres[rng.integers(len(centres), size=m)] + spread * rng.standard_normal((m, n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    X[m // 3 : m // 2] = -X[: m // 2 - m // 3]
    X[-3:] = X[:3]
    return X


def _crowds(X, limit):
    try:
        _check_isolated([_pair(x) for x in X], limit, None, "")
    except DegenerateTensorError:
        return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_clusterer_matches_greedy_loops(seed):
    n = 2 + seed % 4
    for spread, tol in ((1e-3, 1e-3), (1e-7, 1e-6), (1e-2, 1e-2), (0.3, 0.5)):
        X = _cloud(seed, 120, n, spread)
        assert np.array_equal(X[_leaders(X, tol)], _ref_coarse_unique(X, tol))
        rng = np.random.default_rng(seed)
        pts = [_pair(x, residual=float(r)) for x, r in zip(X, rng.integers(0, 4, len(X)) * 1e-12)]
        assert [id(p) for p in dedupe(pts, tol)] == [id(p) for p in _ref_dedupe(pts, tol)]
        for limit in (0, 3, 30, 119):
            assert _crowds(X, limit) == _ref_crowded(X, limit)


def test_clusterer_skips_nonfinite_rows():
    X = _cloud(1, 40, 3, 1e-3)
    X[[0, 5, 17]] = [np.nan, np.inf, -np.inf]
    X[9, 1] = np.nan
    got = X[_leaders(X, 1e-3)]
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, _ref_coarse_unique(X, 1e-3))
    assert _leaders(np.full((3, 2), np.nan), 1.0).shape == (0,)


def test_clusterer_exact_tie_at_tol_merges():
    X = np.array([[0.6, 0.8], [0.8, 0.6], [-0.6, 0.8], [0.6, -0.8]])
    tol = float(np.linalg.norm(X[1] - X[0]))
    below = float(np.nextafter(tol, 0.0))
    assert _leaders(X, tol).tolist() == [0, 2, 3]
    assert _leaders(X, below).tolist() == [0, 1, 2, 3]
    for t in (tol, below):
        assert np.array_equal(X[_leaders(X, t)], _ref_coarse_unique(X, t))
    X = _cloud(2, 60, 3, 0.05)
    for j in (1, 7, 30):
        tol = float(np.linalg.norm(X[j] - X[0]))
        assert np.array_equal(X[_leaders(X, tol)], _ref_coarse_unique(X, tol))
    # pairs exactly 1e-2 apart are crowded: 2 * 5 crowded points exceed limit 9
    X = np.array([[float(c), y] for c in range(5) for y in (0.0, 0.01)])
    assert _crowds(X, 9) and _ref_crowded(X, 9)
    assert not _crowds(X, 10)


def test_clusterer_keeps_antipodes():
    X = _cloud(3, 50, 4, 0.0)
    X = np.concatenate([X, -X])
    lead = X[_leaders(X, 1e-6)]
    assert len(lead) % 2 == 0
    assert np.array_equal(lead, _ref_coarse_unique(X, 1e-6))


def test_clusterer_unmergeable_set_without_square_temporaries():
    # 400 distinct points on S^2, as the degenerate continua yield at 200 restarts
    import tracemalloc

    X = _cloud(4, 400, 3, 1.0)[:-3]
    X = X[np.argsort(X[:, 0])]
    assert len(_leaders(X, 1e-6)) == len(X) == len(_ref_coarse_unique(X, 1e-6))
    pts = [_pair(x) for x in X]
    assert len(dedupe(pts, 1e-6)) == len(X)
    for limit in (9, 200):
        assert _crowds(X, limit) == _ref_crowded(X, limit)
    m = 800
    X = _cloud(5, m, 3, 1.0)
    tracemalloc.start()
    _leaders(X, 1e-6)
    assert not _crowds(X, m - 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < m * m * 8 / 4  # an m x m float64 array would be 5 MB


# --- cross-cutting solver invariants ---------------------------------------


def test_matrix_reduction_against_jacobi():
    for seed in range(10):
        T = symmetrize(random_tensor((4, 4), 100 + seed))
        pairs = symmetric_eigenpairs(T, SolverConfig(restarts=24, seed=seed))
        w, V = jacobi_eigen(T.data)
        got = sorted(set(round(p.value, 8) for p in pairs))
        want = sorted(set(round(x, 8) for x in w))
        assert got == want
        for j in range(4):
            assert match_pair(pairs, w[j], V[:, j], value_tol=1e-8, overlap_tol=1e-8)


def test_antipodal_partner_is_stationary():
    for k, seed in ((3, 0), (4, 1)):
        T = random_tensor((3,) * k, 200 + seed, symmetric=True)
        pairs = symmetric_eigenpairs(T, SolverConfig(restarts=24, seed=seed))
        for p in pairs:
            mirrored = (-1) ** k * p.value
            assert residual_eigen(T, -p.vector, mirrored, 1) <= CFG.gradient_tolerance


def test_scale_equivariance():
    T = random_tensor((3, 3, 3), 31, symmetric=True)
    cfg = SolverConfig(restarts=32, seed=4)
    base = symmetric_eigenpairs(T, cfg)
    scaled = symmetric_eigenpairs(DenseTensor(2.0 * T.data), cfg)
    assert len(base) == len(scaled)
    for p, q in zip(base, scaled):
        assert q.value == pytest.approx(2.0 * p.value, abs=1e-9)
        assert np.linalg.norm(p.vector - q.vector) <= cfg.dedupe_tolerance
    assert np.linalg.norm(base[0].vector - scaled[0].vector) <= 1e-9


def test_solver_deterministic():
    T = random_tensor((3, 3, 3), 37, symmetric=True)
    cfg = SolverConfig(restarts=24, seed=9)
    a = symmetric_eigenpairs(T, cfg)
    b = symmetric_eigenpairs(T, cfg)
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert p.value == q.value and np.array_equal(p.vector, q.vector)


def test_geodesic_signs_match_restricted_hessian():
    from tensorcrit.core import sym_hessian

    T = random_tensor((3, 3, 3), 41, symmetric=True)
    pairs = symmetric_eigenpairs(T, SolverConfig(restarts=32, seed=2))
    rng = np.random.default_rng(8)
    k = T.order
    for p in pairs:
        H = sym_hessian(T, p.vector) - k * p.value * np.eye(3)
        for _ in range(2):
            w = rng.standard_normal(3)
            w -= (w @ p.vector) * p.vector
            w /= np.linalg.norm(w)
            quad = float(w @ H @ w)
            fd = geodesic_second_derivative(T, p.vector, w)
            if abs(quad) > 1e-4 and abs(fd) > 1e-4:
                assert np.sign(quad) == np.sign(fd)


# --- singular tuples -------------------------------------------------------


def test_singular_diag_matrix():
    T = DenseTensor(np.diag([3.0, 1.0]))
    tuples = singular_tuples(T, CFG)
    sigmas = sorted(set(round(t.sigma, 9) for t in tuples))
    assert sigmas == [1.0, 3.0]
    top = tuples[0]
    assert abs(abs(top.vectors[0][0]) - 1) <= 1e-9
    assert abs(abs(top.vectors[1][0]) - 1) <= 1e-9
    s = np.sign(top.vectors[0][0]) * np.sign(top.vectors[1][0])
    assert s == 1.0  # simultaneous sign makes sigma positive


def test_singular_rank_one_matrix():
    T = DenseTensor(np.ones((2, 2)))
    tuples = singular_tuples(T, CFG)
    sigmas = sorted(set(round(t.sigma, 9) for t in tuples))
    assert sigmas == [0.0, 2.0]
    for t in tuples:
        assert t.degenerate == (t.sigma <= 1e-6)


def test_singular_tuple_contracts():
    T = random_tensor((2, 3, 2), 51)
    tuples = singular_tuples(T, CFG)
    assert tuples
    scale = float(np.linalg.norm(T.entries))
    for t in tuples:
        for v in t.vectors:
            assert abs(np.linalg.norm(v) - 1) <= 1e-12
        value = evaluate(T, list(t.vectors))
        assert abs(t.sigma - value) <= 1e-10 * (scale + 1)
        assert abs(abs(t.critical_value) - t.sigma) <= 1e-12 * (scale + 1)
        for s in t.mode_multipliers:
            assert abs(s - t.sigma) <= 1e-10 * (scale + 1)


def test_symmetric_eigenpair_gives_singular_tuple(cubic):
    pairs = symmetric_eigenpairs(cubic, CFG)
    from tensorcrit.core import mode_gradient

    for p in pairs:
        if p.value < 0:
            continue
        for mode in (1, 2, 3):
            grad = mode_gradient(cubic, [p.vector] * 3, mode)
            assert np.linalg.norm(grad - p.value * p.vector) <= 1e-9


def test_singular_rejects_order_one():
    with pytest.raises(ValueError):
        singular_tuples(DenseTensor(np.ones(3)), CFG)


def test_singular_order_above_ten():
    T = random_tensor((2,) * 11, 1)
    tuples = singular_tuples(T, SolverConfig(restarts=4))
    assert tuples
    for t in tuples:
        assert t.residual <= CFG.gradient_tolerance


def test_order_beyond_einsum_labels_is_shape_error():
    with pytest.raises(ShapeError, match="order 52"):
        singular_tuples(DenseTensor(np.ones((1,) * 52)), CFG)


def test_singular_matches_svd_oracle():
    for seed in range(5):
        T = random_tensor((3, 4), 300 + seed)
        tuples = singular_tuples(T, SolverConfig(restarts=24, seed=seed))
        s, U, V = svd_small(T.data)
        for j in range(3):
            if s[j] <= 1e-8:
                continue
            hits = [t for t in tuples if abs(t.sigma - s[j]) <= 1e-8]
            assert hits
            t = hits[0]
            du = float(t.vectors[0] @ U[:, j])
            dv = float(t.vectors[1] @ V[:, j])
            assert abs(abs(du) - 1) <= 1e-8 and abs(abs(dv) - 1) <= 1e-8
            assert du * dv > 0
