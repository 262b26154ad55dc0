import dataclasses
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tensorcrit import (
    AsymmetricTensorError,
    DegenerateTensorError,
    DenseTensor,
    EigenPair,
    SolverConfig,
    classify_index,
    dedupe,
    evaluate,
    generalized_eigenpairs,
    jacobi_eigen,
    mode_eigenpairs,
    mode_gradient,
    random_tensor,
    residual_eigen,
    singular_tuples,
    svd_small,
    sym_hessian,
    symmetric_eigenpairs,
    symmetrize,
)
from tensorcrit import solver
from tensorcrit.solver import _leaders
from conftest import geodesic_second_derivative, match_pair, tangent_basis

CFG = SolverConfig(restarts=40, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p=1.0)


# step control, effort caps and the dedupe radius are solver constants now
REMOVED_FIELDS = {
    "max_iterations": 500,
    "dedupe_tolerance": 1e-6,
    "initial_step": 0.25,
    "step_grow": 1.3,
    "step_shrink": 0.4,
    "armijo_slope": 1e-4,
    "max_backtracks": 25,
}


def test_config_has_exactly_the_four_settable_fields():
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    assert names == ["restarts", "gradient_tolerance", "seed", "p"]
    for field, old_default in REMOVED_FIELDS.items():
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: old_default})


@pytest.mark.parametrize(
    "field, value",
    [
        ("gradient_tolerance", math.nan),
        ("gradient_tolerance", math.inf),
        ("dedupe_tolerance", math.nan),
        ("dedupe_tolerance", math.inf),
        ("initial_step", math.nan),
        ("initial_step", math.inf),
        ("max_backtracks", -3),
        ("max_backtracks", 2.5),
        ("restarts", 2.5),
        ("restarts", math.nan),
        ("max_iterations", 3.5),
        ("armijo_slope", math.nan),
        ("armijo_slope", -1e-4),
        ("armijo_slope", 1.0),
        ("step_shrink", math.nan),
        ("step_shrink", 0.0),
        ("step_shrink", 1.0),
        ("step_grow", math.nan),
        ("step_grow", math.inf),
        ("step_grow", 0.5),
    ],
)
def test_config_rejects_nonfinite_and_out_of_range(field, value):
    # each of these used to be accepted and end in an empty or false result,
    # or in a TypeError from deep inside the search; a removed field is
    # refused whatever its value
    with pytest.raises(TypeError if field in REMOVED_FIELDS else ValueError, match=field):
        SolverConfig(**{field: value})


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


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_residual_accepts_mode_zero_pairs(p):
    # mode 0 is the symmetric problem, as in generalized_eigenpairs
    T = random_tensor((3, 3, 3), 8, symmetric=True)
    pairs = generalized_eigenpairs(T, 0, SolverConfig(restarts=40, seed=1, p=p))
    assert pairs and all(pt.mode == 0 for pt in pairs)
    for pt in pairs:
        r = residual_eigen(T, pt.vector, pt.value, pt.mode, p)
        assert r <= SolverConfig().gradient_tolerance
        assert r == residual_eigen(T, pt.vector, pt.value, 1, p)


def test_residual_mode_range_and_symmetry():
    T = DenseTensor([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(AsymmetricTensorError):
        residual_eigen(T, [1.0, 0.0], 0.0, 0)
    for mode in (-1, 3):
        with pytest.raises(ValueError, match=r"mode must be in 0\.\.2"):
            residual_eigen(T, [1.0, 0.0], 0.0, mode)


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


# --- degeneracy verdicts ---------------------------------------------------
# A positive-dimensional critical set raises at every effort; isolated
# degenerate points are returned.


def _diag(values, k):
    n = len(values)
    data = np.zeros((n,) * k)
    data[(np.arange(n),) * k] = values
    return DenseTensor(data)


def _eye_x_eye():
    eye = np.eye(3)
    return symmetrize(DenseTensor(np.einsum("ij,kl->ijkl", eye, eye)))


CONTINUA = {
    "svd-ones-2x3": lambda cfg: singular_tuples(DenseTensor(np.ones((2, 3))), cfg),
    "svd-ones-2x2x2": lambda cfg: singular_tuples(DenseTensor(np.ones((2, 2, 2))), cfg),
    "eye-3": lambda cfg: symmetric_eigenpairs(DenseTensor(np.eye(3)), cfg),
    "zeros-3x3x3": lambda cfg: symmetric_eigenpairs(DenseTensor(np.zeros((3, 3, 3))), cfg),
    "sym-eye-x-eye": lambda cfg: symmetric_eigenpairs(_eye_x_eye(), cfg),
    "diag-111-p4": lambda cfg: generalized_eigenpairs(
        _diag([1.0] * 3, 4), 1, replace(cfg, p=4.0)
    ),
}
EFFORTS = [24, 100, 200, 800]


def _continuum_lines(caplog):
    return [
        r.getMessage() for r in caplog.records if r.getMessage().startswith("continuum check")
    ]


def _counts(line):
    return [int(x) for x in re.findall(r"(\d+) (?:points|flagged|witnesses)", line)]


@pytest.mark.parametrize("restarts", EFFORTS)
@pytest.mark.parametrize("case", sorted(CONTINUA))
def test_continuum_raises_at_every_effort(case, restarts):
    with pytest.raises(DegenerateTensorError):
        CONTINUA[case](SolverConfig(restarts=restarts))


def test_count_cap_names_the_cartwright_sturmfels_count():
    with pytest.raises(DegenerateTensorError) as err:
        symmetric_eigenpairs(DenseTensor(np.eye(3)), SolverConfig(restarts=24))
    assert re.fullmatch(
        r"count cap: 48 stationary points survive deduplication, more than the 6 of the "
        r"Cartwright-Sturmfels count \(antipodes included\); the set is not finite",
        str(err.value),
    )


@pytest.mark.parametrize(
    "case, noun, distance",
    # the step is h = max(1e-3, 10 * merge radius); for p = k = 4 the merge
    # radius widens to 10 * gtol^(1/3)
    [
        ("svd-ones-2x3", "singular tuple", 1e-3),
        ("diag-111-p4", "stationary point", 100 * 1e-10 ** (1 / 3)),
    ],
)
def test_continuum_witness_names_value_and_distance(case, noun, distance, caplog):
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        with pytest.raises(DegenerateTensorError) as err:
            CONTINUA[case](SolverConfig(restarts=24))
    msg = str(err.value)
    m = re.fullmatch(
        rf"continuum witness: the {noun} with critical value (\S+) continues to another at "
        r"distance (\S+) with the same value; the critical set is positive-dimensional",
        msg,
    )
    assert m, msg
    assert float(m.group(2)) == pytest.approx(distance, rel=0.01)
    (line,) = _continuum_lines(caplog)
    points, flagged, witnesses = _counts(line)
    assert points >= flagged >= witnesses >= 1


@pytest.mark.parametrize("restarts", EFFORTS)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_isolated_multiple_roots_are_returned(k, restarts, caplog):
    # p = k makes every basis vector of a diagonal tensor a root of multiplicity
    # k - 1: the Jacobian certificate flags each one, but no witness exists
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        pairs = generalized_eigenpairs(
            _diag([1.0, 2.0, 3.0], k), 1, SolverConfig(restarts=restarts, p=float(k))
        )
    assert len(pairs) == 6  # +-e_j, one pair each
    for j, val in enumerate([1.0, 2.0, 3.0]):
        e = np.eye(3)[j]
        assert any(
            abs(pt.value - val) <= 1e-8 and np.linalg.norm(np.abs(pt.vector) - e) < 1e-3
            for pt in pairs
        ), f"basis vector {j} not recovered"
    (line,) = _continuum_lines(caplog)
    points, flagged, witnesses = _counts(line)
    assert points == len(pairs) and flagged == len(pairs) and witnesses == 0


@pytest.mark.parametrize("restarts", EFFORTS)
def test_rank_one_matrix_zero_sigma_tuples_are_returned(restarts):
    tuples = singular_tuples(DenseTensor(np.ones((2, 2))), SolverConfig(restarts=restarts))
    assert sorted({round(t.sigma, 9) for t in tuples}) == [0.0, 2.0]
    assert all(t.degenerate == (t.sigma <= 1e-6) for t in tuples)


@pytest.mark.parametrize("seed", range(3))
def test_random_tensors_are_never_counts(seed, caplog):
    S = random_tensor((3, 3, 3), 1000 + seed, symmetric=True)
    A = random_tensor((3, 3, 3), 500 + seed)
    B = random_tensor((2, 2, 2, 2), 500 + seed)
    cfg = SolverConfig(restarts=60, seed=seed)
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        found = [
            symmetric_eigenpairs(S, cfg),
            mode_eigenpairs(A, 2, cfg),
            mode_eigenpairs(B, 2, cfg),
            generalized_eigenpairs(A, 1, replace(cfg, p=1.5)),
            generalized_eigenpairs(B, 1, replace(cfg, p=3.0)),
            singular_tuples(random_tensor((3, 4, 5), 700 + seed), cfg),
            singular_tuples(random_tensor((2, 3, 4), 700 + seed), replace(cfg, p=3.0)),
        ]
    lines = _continuum_lines(caplog)
    assert len(lines) == sum(1 for points in found if points) >= 5  # one check per nonempty set
    for line in lines:
        points, flagged, witnesses = _counts(line)
        assert points > 0 and flagged == 0 and witnesses == 0
        assert float(line.rsplit(" ", 1)[1]) > SolverConfig().gradient_tolerance ** 0.5


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


def _ref_classify(tensor, v, value):
    """The per-pair classification the batched helper replaced, on core's primitives."""
    k = tensor.order
    n = tensor.shape[0]
    H = sym_hessian(tensor, v) - k * value * np.eye(n)
    B = tangent_basis(v).T
    HR = B.T @ H @ B
    eig = np.linalg.eigvalsh((HR + HR.T) / 2)
    eps = 1e-8 * max(1.0, float(np.max(np.abs(eig))))
    return int(np.sum(eig < -eps)), bool(np.all(np.abs(eig) > eps))


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6), (4, 4, 4, 4)])
def test_batched_classification_matches_per_pair_reference(shape, monkeypatch):
    def per_pair_call(*args, **kwargs):
        raise AssertionError("the solver classifies all pairs in one batch")

    monkeypatch.setattr(solver, "classify_index", per_pair_call)
    for seed in range(2):
        T = random_tensor(shape, 60 + seed, symmetric=True)
        pairs = symmetric_eigenpairs(T, SolverConfig(restarts=60, seed=seed))
        assert pairs
        V = np.array([pt.vector for pt in pairs])
        lam = np.array([pt.value for pt in pairs])
        index, nondeg = solver._morse_rows(T.data, V, lam, 1e-8)
        for pt, i, d in zip(pairs, index, nondeg):
            assert (pt.index, pt.nondegenerate) == (i, d) == _ref_classify(T, pt.vector, pt.value)


def test_batched_classification_of_degenerate_points():
    T = DenseTensor(np.eye(3))
    V = np.random.default_rng(4).standard_normal((9, 3))
    V /= np.linalg.norm(V, axis=1)[:, None]
    index, nondeg = solver._morse_rows(T.data, V, np.ones(9), 1e-8)
    assert [(int(i), bool(d)) for i, d in zip(index, nondeg)] == [_ref_classify(T, v, 1.0) for v in V]
    assert not nondeg.any()


def test_batched_classification_rejects_nonstationary_row(cubic):
    good = np.array([[1.0, 0.0], [0.0, 1.0]])
    bad = np.array([0.6, 0.8])
    V = np.array([good[0], bad, good[1]])
    lam = np.array([1.0, evaluate(cubic, [bad] * 3), 1.0])
    with pytest.raises(ValueError) as batched:
        solver._morse_rows(cubic.data, V, lam, 1e-8)
    with pytest.raises(ValueError) as single:
        classify_index(cubic, bad, lam[1])
    assert str(batched.value) == str(single.value)
    assert str(single.value).startswith("(v, value) is not stationary enough to classify: residual ")


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


# Brute-force copies of the per-point greedy loops that _leaders replaced;
# the new code must make the same decisions.


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


def _cloud(seed, m, n, spread):
    """Unit points around a few centres, their antipodes, and exact copies."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((max(1, m // 8), n))
    X = centres[rng.integers(len(centres), size=m)] + spread * rng.standard_normal((m, n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    X[m // 3 : m // 2] = -X[: m // 2 - m // 3]
    X[-3:] = X[:3]
    return X


@pytest.mark.parametrize("seed", range(8))
def test_clusterer_matches_greedy_loops(seed):
    n = 2 + seed % 4
    for spread, tol in ((1e-3, 1e-3), (1e-7, 1e-6), (1e-2, 1e-2), (0.3, 0.5)):
        X = _cloud(seed, 120, n, spread)
        assert np.array_equal(X[_leaders(X, tol)], _ref_coarse_unique(X, tol))
        rng = np.random.default_rng(seed)
        pts = [_pair(x, residual=float(r)) for x, r in zip(X, rng.integers(0, 4, len(X)) * 1e-12)]
        assert [id(p) for p in dedupe(pts, tol)] == [id(p) for p in _ref_dedupe(pts, tol)]


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
    m = 800
    X = _cloud(5, m, 3, 1.0)
    tracemalloc.start()
    _leaders(X, 1e-6)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < m * m * 8 / 4  # an m x m float64 array would be 5 MB


# --- damped Newton line search ---------------------------------------------
# Brute-force copy of the sequential-halving loop that the blocked line search
# replaced; the new code must return the same bits.


def _ref_damped_newton(z0, state_fn, jac_fn, gtol):
    target = 0.05 * gtol
    z = z0.copy()
    F, Fn = state_fn(z)
    stalled = ~np.isfinite(Fn)
    for _ in range(solver._NEWTON_ITERATIONS):
        active = np.flatnonzero((Fn > target) & ~stalled)
        if active.size == 0:
            break
        za = z[active]
        J = jac_fn(za)
        dz = np.empty_like(F[active])
        for r, b in enumerate(F[active]):
            try:
                dz[r] = np.linalg.solve(J[r], -b)
            except np.linalg.LinAlgError:  # only this row's system is singular
                dz[r] = -(np.linalg.pinv(J[r]) @ b)
        bad = ~np.all(np.isfinite(dz), axis=1)
        dz[bad] = 0.0
        alpha = np.ones(active.size)
        improved = np.zeros(active.size, dtype=bool)
        best_z = za.copy()
        best_F = F[active].copy()
        best_Fn = Fn[active].copy()
        for _bt in range(solver._MAX_BACKTRACKS):
            todo = np.flatnonzero(~improved & ~bad)
            if todo.size == 0:
                break
            zt = za[todo] + alpha[todo, None] * dz[todo]
            Ft, Fnt = state_fn(zt)
            ok = np.isfinite(Fnt) & (Fnt <= (1.0 - solver._ARMIJO_SLOPE * alpha[todo]) * Fn[active][todo])
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


BACKTRACKS = [0, 1, 2, 3, 7, 8, 25, 26]  # both sides of every block edge


def _newton_systems(shape, p, seed):
    """(z0, state_fn, jac_fn) as the solver's polish builds them, on raw starts."""
    out = []
    if len(set(shape)) == 1:
        T = random_tensor(shape, seed)
        S = random_tensor(shape, seed, symmetric=True)
        for data, i0, sym in ((S.data, 0, True), (T.data, 1, False)):
            (V,) = solver._random_starts(seed, 24, shape[:1], p)
            lam = solver._batch_eval(data, [V] * len(shape))
            out.append((
                np.concatenate([V, lam[:, None]], axis=1),
                solver._eigen_state_fn(data, i0, p),
                solver._eigen_jac_fn(data, i0, p, sym),
            ))
    data = random_tensor(shape, seed).data
    Ws = solver._random_starts(seed, 24, shape, p)
    s0 = np.repeat(solver._batch_eval(data, Ws)[:, None], len(shape), axis=1)
    out.append((
        np.concatenate(Ws + [s0], axis=1),
        solver._singular_state_fn(data, p),
        solver._singular_jac_fn(data, p),
    ))
    return out


@pytest.mark.parametrize("p", [2.0, 1.5, 3.0])
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4, 4), (4, 5, 6), (2, 3, 4, 3)])
def test_line_search_matches_sequential_halving(shape, p, monkeypatch):
    for max_backtracks in (25,) if len(shape) == 4 else (2, 25):
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", max_backtracks)
        for z0, state, jac in _newton_systems(shape, p, seed=len(shape) + int(2 * p)):
            args = (state, jac, CFG.gradient_tolerance)
            got = solver._damped_newton(z0, *args)
            assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()


@pytest.mark.parametrize("max_backtracks", BACKTRACKS)
def test_line_search_matches_sequential_halving_at_block_edges(max_backtracks, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_BACKTRACKS", max_backtracks)
    for z0, state, jac in _newton_systems((3, 3, 3), 2.0, seed=11) + _newton_systems((2, 3, 4), 3.0, seed=12):
        args = (state, jac, CFG.gradient_tolerance)
        assert solver._damped_newton(z0, *args).tobytes() == _ref_damped_newton(z0, *args).tobytes()


def _toy_state(z):
    """F = x - 1/2 inside |x| <= 2, inf up to 1e3 and NaN beyond; z[:, 2] is inert."""
    X = z[:, :2]
    F = np.where(np.abs(X) > 2.0, np.where(np.abs(X) > 1e3, np.nan, np.inf), X - 0.5)
    F = np.concatenate([F, np.zeros((len(z), 1))], axis=1)
    return F, np.linalg.norm(F, axis=1)


def _toy_jac(z):
    """diag(s, s, 1) with s = z[:, 2]: the Newton step is -(x - 1/2) / s."""
    J = np.zeros((len(z), 3, 3))
    J[:, 0, 0] = J[:, 1, 1] = z[:, 2]
    J[:, 2, 2] = 1.0
    return J


def _toy_rows(singular):
    rng = np.random.default_rng(5)
    rows = [
        [0.5, 0.5, 1.0],  # converged at entry
        [2.5, 0.0, 1.0],  # non-finite residual at entry
        [1e4, 0.3, 1.0],  # NaN residual at entry
        [1.0, 0.2, 1e-320],  # Newton step overflows to inf
        [1.5, -1.0, -1.0],  # the step points uphill: every halving fails
        [0.6, 0.5, -0.3],
    ]
    # s << 1 overshoots into the non-finite region, so the accepted alpha
    # falls in every block, down to about 2^-19 for s = 1e-6
    for s in (1.0, 0.7, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6):
        for x in rng.uniform(-1.9, 1.9, size=(3, 2)):
            rows.append([x[0], x[1], s])
    if singular:
        rows.append([1.2, 0.1, 0.0])  # a singular Jacobian sends the batch to pinv
    return np.array(rows)


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("max_backtracks", BACKTRACKS)
def test_line_search_edge_rows_match_sequential_halving(max_backtracks, singular, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_BACKTRACKS", max_backtracks)
    z0 = _toy_rows(singular)
    args = (_toy_state, _toy_jac, CFG.gradient_tolerance)
    got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
    assert np.array_equal(got[:6], z0[:6])  # converged, non-finite, bad step, uphill
    moved = np.any(got[6:39] != z0[6:39], axis=1)
    assert moved.all() if max_backtracks >= 20 else not moved.all()


def test_singular_jacobian_row_leaves_other_rows_alone():
    # a zero first vector zeroes that row's constraint row of the Jacobian
    data = random_tensor((3, 3, 3), 2).data
    Ws = solver._random_starts(3, 20, (3, 3, 3), 2.0)
    s0 = np.repeat(solver._batch_eval(data, Ws)[:, None], 3, axis=1)
    z0 = np.concatenate(Ws + [s0], axis=1)
    bad = z0[:1].copy()
    bad[:, :3] = 0.0
    state, jac = solver._singular_state_fn(data, 2.0), solver._singular_jac_fn(data, 2.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac(bad), np.ones((1, 12, 1)))
    alone = solver._damped_newton(z0, state, jac, CFG.gradient_tolerance)
    mixed = solver._damped_newton(np.concatenate([z0[:7], bad, z0[7:]]), state, jac, CFG.gradient_tolerance)
    assert np.delete(mixed, 7, axis=0).tobytes() == alone.tobytes()


def test_line_search_state_calls_per_newton_iteration(monkeypatch):
    counts = {"state": 0, "jac": 0, "newton": 0}

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counted_factory(factory, key):
        return lambda *args: counted(factory(*args), key)

    monkeypatch.setattr(solver, "_singular_state_fn", counted_factory(solver._singular_state_fn, "state"))
    monkeypatch.setattr(solver, "_singular_jac_fn", counted_factory(solver._singular_jac_fn, "jac"))
    monkeypatch.setattr(solver, "_damped_newton", counted(solver._damped_newton, "newton"))
    singular_tuples(random_tensor((4, 5, 6), 5))
    blocks = math.ceil(math.log2(solver._MAX_BACKTRACKS + 1))
    assert blocks == 5
    # one Jacobian per Newton iteration; one initial state call per polish
    assert counts["newton"] == 2 and counts["jac"] > 0
    assert counts["state"] <= blocks * counts["jac"] + counts["newton"]


def test_newton_effort_is_logged_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        singular_tuples(random_tensor((3, 4, 5), 2), CFG)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("damped Newton")]
    assert len(lines) == 2  # ascent representatives, then the raw starts
    for line in lines:
        iters, calls, trials, converged, rows, stalled = map(int, re.findall(r"\d+", line))
        assert 1 <= calls <= 5 * iters + 1
        assert calls - 1 <= trials
        assert converged + stalled <= rows
    assert rows == CFG.restarts and converged > 0


# --- batch kernels ---------------------------------------------------------

KERNEL_SHAPES = [(3, 4), (5, 5), (3, 3, 3), (4, 5, 6), (4, 4, 4, 4), (2, 3, 4, 3), (3, 2, 3, 2, 2)]


def _kernel_outputs(data, vs):
    """Every batch primitive, under every choice of kept modes."""
    k = data.ndim
    out = {"eval": solver._batch_eval(data, vs)}
    for i, g in enumerate(solver._batch_mode_grads(data, vs)):
        out[("grads", i)] = g
    for (i, r), B in solver._batch_pair_jacs(data, vs).items():
        out[("pairs", i, r)] = B
    for i in range(k):
        out[("grad", i)] = solver._batch_mode_grad(data, vs, i)
        for r in range(k):
            if r != i:
                out[("pair", i, r)] = solver._batch_pair_jac(data, vs, i, r)
    return out


def _split_rows(z, shape):
    """Rows as the solver holds them: column blocks of one search-state matrix."""
    off = np.concatenate([[0], np.cumsum(shape)])
    return [z[:, off[i] : off[i + 1]] for i in range(len(shape))]


def _row_blocks(shape, rows, seed):
    z = np.random.default_rng(seed).standard_normal((rows, sum(shape) + len(shape)))
    return z, _split_rows(z, shape)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_batch_kernels_are_row_independent(shape):
    data = random_tensor(shape, len(shape)).data
    z, vs = _row_blocks(shape, 1600, seed=sum(shape))
    full = _kernel_outputs(data, vs)
    rng = np.random.default_rng(9)
    for size in (1, 2, 3, 5, 8, 17, 64, 333, 1600):
        idx = rng.choice(1600, size, replace=False)  # shuffled order
        contiguous = [np.ascontiguousarray(v[idx]) for v in vs]
        for rows in (contiguous, _split_rows(z[idx], shape)):
            got = _kernel_outputs(data, rows)
            for key, value in full.items():
                assert got[key].tobytes() == np.ascontiguousarray(value[idx]).tobytes(), (key, size)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_batch_kernels_match_core_contractions(shape):
    T = random_tensor(shape, 3)
    k = len(shape)
    _, vs = _row_blocks(shape, 6, seed=5)
    out = _kernel_outputs(T.data, vs)
    scale = float(np.max(np.abs(T.data)))
    for z in range(6):
        row = [v[z] for v in vs]
        assert out["eval"][z] == pytest.approx(evaluate(T, row), rel=1e-12, abs=1e-12 * scale)
        for i in range(k):
            np.testing.assert_allclose(
                out[("grad", i)][z], mode_gradient(T, row, i + 1), rtol=1e-12, atol=1e-12 * scale
            )
    # the shared trees sum in another order than the one-mode kernel
    pairs = [key for key in out if key[0] == "pairs"]
    assert len(pairs) == k * (k - 1) // 2
    for key in [("grads", i) for i in range(k)] + pairs:
        ref = out[("grad",) + key[1:]] if key[0] == "grads" else out[("pair",) + key[1:]]
        np.testing.assert_allclose(out[key], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        if key[0] == "pairs":
            swapped = np.swapaxes(out[("pair", key[2], key[1])], 1, 2)
            np.testing.assert_allclose(out[key], swapped, rtol=1e-12, atol=1e-12 * np.max(np.abs(swapped)))
    if len(set(shape)) == 1:
        S = random_tensor(shape, 4, symmetric=True)
        V = vs[0]
        H = k * (k - 1) * solver._batch_pair_jac(S.data, [V] * k, 0, 1)
        for z in range(6):
            np.testing.assert_allclose(
                (H[z] + H[z].T) / 2, sym_hessian(S, V[z]), rtol=1e-12, atol=1e-12 * scale * k * k
            )


@pytest.mark.parametrize("shape", [(4, 5, 6), (2, 3, 4, 3)])
def test_singular_system_contracts_the_whole_tensor_twice_per_state_call(shape, monkeypatch):
    data = random_tensor(shape, 1).data
    z, _ = _row_blocks(shape, 5, seed=2)
    state, jac = solver._singular_state_fn(data, 2.0), solver._singular_jac_fn(data, 2.0)
    calls = []
    einsum = np.einsum

    def counted(subscripts, *operands, **kwargs):
        calls.append(any(np.shares_memory(op, data) for op in operands))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    state(z)
    assert sum(calls) == 2
    calls.clear()
    jac(z)
    assert sum(calls) == 3


def test_random_starts_are_memoized_read_only():
    args = (7, 30, (3, 4, 5), 3.0)
    first = solver._random_starts(*args)
    again = solver._random_starts(*args)
    assert again is not first and all(a is b for a, b in zip(first, again))
    fresh = solver._start_table.__wrapped__(7, 30, (3, 4, 5), 3.0)
    for V, W in zip(first, fresh):
        assert not V.flags.writeable
        assert V.tobytes() == W.tobytes()
        with pytest.raises(ValueError):
            V[0, 0] = 1.0


def test_matrix_pair_jacobian_is_a_broadcast_view():
    M = random_tensor((3, 4), 8).data
    _, vs = _row_blocks((3, 4), 5, seed=1)
    J = solver._batch_pair_jac(M, vs, 0, 1)
    Jt = solver._batch_pair_jac(M, vs, 1, 0)
    assert J.shape == (5, 3, 4) and Jt.shape == (5, 4, 3)
    assert np.shares_memory(J, M) and np.shares_memory(Jt, M)
    assert all(np.array_equal(J[z], M) and np.array_equal(Jt[z], M.T) for z in range(5))


def _ref_ascend(data, V0, p, sign, symmetric):
    """The ascent before it carried gradients: a fresh gradient and value every iteration."""
    k = data.ndim
    V = V0.copy()
    step = np.full(V.shape[0], solver._INITIAL_STEP)
    f = sign * solver._batch_eval(data, [V] * k)
    for _ in range(solver._ASCENT_ITERATIONS):
        if symmetric:
            G = k * solver._batch_mode_grad(data, [V] * k, 0)
        else:
            G = sum(solver._batch_mode_grad(data, [V] * k, i) for i in range(k))
        W = V + sign * step[:, None] * G
        nrm = solver._p_norm_rows(W, p)
        ok = np.isfinite(nrm) & (nrm > 1e-300)
        W[ok] /= nrm[ok, None]
        W[~ok] = V[~ok]
        fW = sign * solver._batch_eval(data, [W] * k)
        better = fW > f + 1e-15
        V[better] = W[better]
        f[better] = fW[better]
        step[better] = np.minimum(step[better] * solver._STEP_GROW, 10.0)
        step[~better] *= solver._STEP_SHRINK
        if np.all(step < 1e-12):
            break
    return V


def _ascent_runs(monkeypatch, caplog, data, p, symmetric):
    """(start, sign, result, contractions, iterations) of one ascent per sign."""
    calls = []
    contract = solver._batch_contract
    monkeypatch.setattr(solver, "_batch_contract", lambda *a: calls.append(1) or contract(*a))
    (V0,) = solver._random_starts(3, 50, data.shape[:1], p)
    out = []
    for sign in (1.0, -1.0):
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
            V = solver._ascend(data, V0, p, sign, symmetric)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("projected ascent")]
        iters, improved, moving, rows = map(int, re.findall(r"\d+", line)[:4])
        assert improved <= rows and moving <= rows and rows == 50
        out.append((V0, sign, V, len(calls), iters))
    return out


@pytest.mark.parametrize("shape, p", [((3, 3, 3), 2.0), ((4, 4, 4, 4), 2.0), ((5, 5, 5), 3.0)])
def test_ascent_makes_one_contraction_per_iteration(shape, p, monkeypatch, caplog):
    k = len(shape)
    S = random_tensor(shape, 6, symmetric=True).data
    for V0, sign, V, contractions, iters in _ascent_runs(monkeypatch, caplog, S, p, True):
        assert 1 <= iters <= 60 and contractions <= iters + 1
        assert V.tobytes() == _ref_ascend(S, V0, p, sign, True).tobytes()
    T = random_tensor(shape, 6).data
    for V0, sign, V, contractions, iters in _ascent_runs(monkeypatch, caplog, T, p, False):
        assert contractions <= k * (iters + 1)
        assert V.tobytes() == _ref_ascend(T, V0, p, sign, False).tobytes()


@pytest.mark.parametrize("shape", [(4, 5, 6), (3, 3, 3), (2, 3, 4, 3), (3, 4), (5, 6)])
def test_singular_sign_flip_negates_the_value_exactly(shape):
    data = random_tensor(shape, 7).data
    Ws = solver._random_starts(3, 200, shape, 2.0)
    raw = solver._batch_eval(data, Ws)
    flip = raw < 0
    assert flip.any() and not flip.all()
    Ws[0] = np.where(flip[:, None], -Ws[0], Ws[0])
    assert np.where(flip, -raw, raw).tobytes() == solver._batch_eval(data, Ws).tobytes()


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
        assert np.linalg.norm(p.vector - q.vector) <= solver._DEDUPE_TOLERANCE
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


def test_singular_order_fifty_two():
    tuples = singular_tuples(DenseTensor(np.ones((1,) * 52)), SolverConfig(restarts=40))
    assert len(tuples) == 40
    assert all(t.residual == 0.0 and t.sigma == 1.0 for t in tuples)


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
