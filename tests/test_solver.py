import ast
import dataclasses
import inspect
import logging
import math
import pathlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mode_gradient,
    p_norm,
    random_tensor,
    residual_eigen,
    singular_tuples,
    svd_small,
    sym_hessian,
    symmetric_eigenpairs,
    symmetrize,
)
from tensorcrit import solver
from tensorcrit.core import _orbit_ids, _orbit_mean, is_symmetric, max_asymmetry
from tensorcrit.oracle import sphere_critical_points
from tensorcrit.solver import _leaders
from conftest import geodesic_second_derivative, match_pair, tangent_basis

CFG = SolverConfig(restarts=40, seed=0)


def solver_policy():
    """The floating-point policy of a public solver call: numpy's warnings off.

    The solver's public entries set it and its internals set none of their
    own, so a test that calls an internal directly with rows that overflow
    sets it around that call.  That the entries warn nothing is checked in
    tests/test_contract.py, on inputs at the float limit.
    """
    return np.errstate(all="ignore")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p=1.0)


def test_config_stores_plain_numbers():
    # a tolerance of 10**400 was stored as that int and overflowed only in the search
    with pytest.raises(ValueError, match="gradient_tolerance must be a finite real number > 0"):
        SolverConfig(gradient_tolerance=10**400)
    config = SolverConfig(restarts=np.int64(3), seed=np.int64(-2), gradient_tolerance=np.float32(0.5), p=3)
    assert [type(getattr(config, f)) for f in ("restarts", "seed", "gradient_tolerance", "p")] == [int, int, float, float]
    assert (config.restarts, config.seed, config.gradient_tolerance, config.p) == (3, -2, 0.5, 3.0)


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


def test_config_accepts_numpy_integers():
    cfg = SolverConfig(restarts=np.int64(24), seed=np.int32(-3), p=np.int64(2))
    assert (cfg.restarts, cfg.seed) == (24, -3)
    # p is stored as the float the norm check returns, so it reports and compares as one
    assert type(cfg.p) is float and dataclasses.asdict(cfg)["p"] == 2.0
    assert symmetric_eigenpairs(random_tensor((3, 3, 3), 2, symmetric=True), cfg)


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
        ("gradient_tolerance", True),
        ("gradient_tolerance", "1e-3"),
        ("p", "3"),
        ("dedupe_tolerance", math.nan),
        ("dedupe_tolerance", math.inf),
        ("initial_step", math.nan),
        ("initial_step", math.inf),
        ("max_backtracks", -3),
        ("max_backtracks", 2.5),
        ("restarts", 2.5),
        ("restarts", math.nan),
        ("restarts", True),
        ("seed", 1.5),
        ("seed", "3"),
        ("seed", None),
        ("seed", True),
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
    # in a TypeError from deep inside the search, or in a run with another
    # value (seed 1.5 ran as 1, restarts=True as 1); a removed field is
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


def test_residual_at_1e300_is_finite():
    # the defect's squares pass the largest float; the norm did overflow to inf, with a warning
    T = DenseTensor(np.diag([1e300, 2e300]))
    assert residual_eigen(T, [0.6, 0.8], 1e300, 1) == pytest.approx(8e299, rel=1e-15)
    assert residual_eigen(T, [1.0, 0.0], 0.0, 1) == 1e300


def test_residual_requires_unit_vector():
    T = DenseTensor(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        residual_eigen(T, [2.0, 0.0], 1.0, 1)


# True was read as 1, and "1" and None raised TypeError
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "1", None])
def test_residual_rejects_nonfinite_value(value):
    # nan came back as the residual, and inf as nan with a RuntimeWarning
    T = DenseTensor(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="value must be a finite real number"):
        residual_eigen(T, [1.0, 0.0], value, 1)
    with pytest.raises(ValueError, match="value must be a finite real number"):
        classify_index(T, [1.0, 0.0], value)
    if not isinstance(value, float):  # residual_tolerance takes inf and nan as it takes value
        with pytest.raises(ValueError, match="residual_tolerance must be a finite real number"):
            classify_index(T, [1.0, 0.0], 1.0, residual_tolerance=value)


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
        with pytest.raises(ValueError, match=re.escape(f"mode must be an integer in 0..2, got {mode}")):
            residual_eigen(T, [1.0, 0.0], 0.0, mode)
    # a bool used to run as mode 1; 1.5 and "1" failed with a TypeError
    for mode in (1.5, True, "1"):
        with pytest.raises(ValueError, match="mode must be an integer"):
            residual_eigen(T, [1.0, 0.0], 0.0, mode)
        with pytest.raises(ValueError, match="mode must be an integer"):
            generalized_eigenpairs(random_tensor((2, 2, 2), 1), mode, CFG)
    assert residual_eigen(T, [1.0, 0.0], 0.0, np.int64(1)) == residual_eigen(T, [1.0, 0.0], 0.0, 1)


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


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize(
    "shape, mode, perm",
    [((3, 3, 3), 2, (2, 1, 0)), ((3, 3, 3), 3, (1, 0, 2)), ((3, 3, 3, 3), 1, (0, 3, 1, 2)), ((3, 3, 3, 3), 4, (2, 0, 1, 3))],
)
def test_mode_pairs_do_not_see_the_order_of_the_contracted_modes(shape, mode, perm, p):
    # the paper defines a mode-i pair through T(v, ..., v, .) alone, which is blind
    # to how the other k-1 modes are ordered; perm keeps mode i in place
    assert perm[mode - 1] == mode - 1
    T = random_tensor(shape, 60 + mode)
    U = DenseTensor(np.transpose(T.data, perm))
    cfg = SolverConfig(restarts=60, p=p)
    a, b = generalized_eigenpairs(T, mode, cfg), generalized_eigenpairs(U, mode, cfg)
    assert len(a) == len(b) > 0
    # v and -v share a value when k is even, so match as sets rather than in sorted order
    za = np.array([np.append(pt.vector, pt.value) for pt in a])
    zb = np.array([np.append(pt.vector, pt.value) for pt in b])
    dist = np.max(np.abs(za[:, None] - zb[None]), axis=2)
    assert np.all(dist.min(axis=1) <= 1e-12) and np.all(dist.min(axis=0) <= 1e-12)


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
        r"Cartwright-Sturmfels count \(antipodes included\); either the set is not finite or "
        r"Newton split a multiple root",
        str(err.value),
    )


@pytest.mark.parametrize(
    "case, noun, distance",
    # the step is h = max(1e-3, 10 * merge radius); for p = k = 4 the merge
    # radius widens to 10 * gtol^(1/3), so h = 0.0464.  The diagonal's witness
    # lands off h: its Newton is the polish's, whose first steps there meet an
    # exactly singular Jacobian and take the regularized row-space step
    [
        ("svd-ones-2x3", "singular tuple", 1e-3),
        ("diag-111-p4", "stationary point", 0.0508),
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


def test_continuum_witness_takes_the_polish_steps(caplog):
    # one Newton step rule: where the witness meets an exactly singular Jacobian it
    # takes the polish's regularized row-space step, which its DEBUG line counts
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        with pytest.raises(DegenerateTensorError, match="continuum witness"):
            CONTINUA["diag-111-p4"](SolverConfig(restarts=24))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("damped Newton")]
    _, witness = lines  # the polish, then the witness's one batch
    assert int(re.search(r"(\d+) singular-row steps", witness).group(1)) >= 1


def test_continuum_check_stops_at_its_first_witness(caplog):
    # 312 of the diagonal's points are flagged and 309 are witnesses; the first
    # flagged one is an isolated root, so the witness Newton tries it, then the
    # next two, and names the first witness as a run over all 312 did
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        with pytest.raises(DegenerateTensorError) as err:
            generalized_eigenpairs(_diag([1.0, 1.0, 1.0], 3), 1, SolverConfig(p=3.0))
    assert str(err.value) == (
        "continuum witness: the stationary point with critical value -1 continues to another at "
        "distance 0.001 with the same value; the critical set is positive-dimensional"
    )
    lines = [r.getMessage() for r in caplog.records]
    check = next(i for i, line in enumerate(lines) if line.startswith("continuum check"))
    assert _counts(lines[check])[:2] == [312, 312]
    # the Newton runs after the search's own: one per batch of flagged rows
    witness_runs = [line for line in lines[:check] if line.startswith("damped Newton")][1:]
    rows = [int(re.search(r"of (\d+) rows", line).group(1)) for line in witness_runs]
    assert rows == [1, 2]


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
        # the smallest relative sigma_min is printed only where the Cholesky certificate did not clear the batch
        if not line.endswith("certified regular by Cholesky"):
            assert float(line.rsplit(" ", 1)[1]) > SolverConfig().gradient_tolerance ** 0.5


def _svd_flags(J, gtol):
    """The continuum check's flag rule, row by row: relative sigma_min <= sqrt(gtol)."""
    s = np.linalg.svd(J, compute_uv=False)
    return s[:, -1] / s[:, 0] <= np.sqrt(gtol)


def _planted(n, rel, rng):
    """A random n x n J = U diag(s) V^T with s from 1 down to rel, log-spaced."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * np.geomspace(1.0, rel, n)) @ V.T


def _bordered(n, rng):
    """A bordered Jacobian of the Lagrange system's shape: a 1e300 vector block, unit border rows."""
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    J = np.zeros((n + 1, n + 1))
    J[:n, :n] = 1e300 * rng.standard_normal((n, n))
    J[:n, n], J[n, :n] = -v, v
    return J


@pytest.mark.parametrize("gtol", [1e-4, 1e-10, 1e-14, 1e-16, 1e-30])
def test_the_cholesky_certificate_never_clears_a_flagged_batch(gtol):
    # planted relative sigma_min just below, at and just above sqrt(gtol), and well above it; a
    # batch is one planted row among regular ones, so the planted row alone decides the batch
    rng = np.random.default_rng(41)
    tau, flagged = math.sqrt(gtol), 0
    for n in (3, 4, 7, 18, 40):
        regular = np.stack([_planted(n, 0.5, rng) for _ in range(3)])
        for rel in (tau * (1 - 1e-3), tau, tau * (1 + 1e-3), 10 * tau, 1e3 * tau):
            if rel >= 1.0:
                continue
            for e in (0, 900, -900):
                J = np.ldexp(np.concatenate([regular, _planted(n, rel, rng)[None]]), e)
                if _svd_flags(J, gtol).any():
                    flagged += 1
                    assert not solver._certified_regular(J, gtol), (n, rel / tau, e)
        J = np.stack([_bordered(n, rng) for _ in range(4)])
        assert _svd_flags(J, gtol).all() and not solver._certified_regular(J, gtol)
    assert flagged >= 15  # at least the planted rows below sqrt(gtol)


def test_the_cholesky_certificate_clears_well_conditioned_batches():
    rng = np.random.default_rng(42)
    for n in (3, 18, 40):
        for e in (0, 900, -900):
            J = np.ldexp(np.stack([_planted(n, 1e-3, rng) for _ in range(50)]), e)
            assert solver._certified_regular(J, 1e-10)


def test_generic_points_are_cleared_without_an_svd(monkeypatch):
    # a margin too wide would send every batch to the SVD with every other test still green
    svd, check, calls = np.linalg.svd, solver._check_continuum, []

    def counted_check(*args):
        with pytest.MonkeyPatch.context() as inside:
            inside.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
            return check(*args)

    monkeypatch.setattr(solver, "_check_continuum", counted_check)
    assert singular_tuples(random_tensor((3, 4, 5), 500))
    assert not calls
    with pytest.raises(DegenerateTensorError) as err:
        generalized_eigenpairs(_diag([1.0, 1.0, 1.0], 3), 1, SolverConfig(p=3.0))
    assert len(calls) >= 2  # the flag rule's SVD and the first witness batch's null vector
    assert str(err.value) == (
        "continuum witness: the stationary point with critical value -1 continues to another at "
        "distance 0.001 with the same value; the critical set is positive-dimensional"
    )


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
    with pytest.raises(ValueError) as err:
        classify_index(cubic, v, evaluate(cubic, [v] * 3))
    assert str(err.value).startswith("(v, value) is not stationary enough to classify: residual ")
    # a NaN value or tolerance passed the guard: e1 came out as (2, True) or (0, False)
    T = random_tensor((3, 3, 3), 1, symmetric=True)
    e1 = np.array([1.0, 0.0, 0.0])
    for value, tol in [(5.0, math.nan), (math.nan, 1e-8), (math.inf, 1e-8), (5.0, math.inf), (5.0, -1e-8)]:
        with pytest.raises(ValueError, match="value|residual_tolerance"):
            classify_index(T, e1, value, residual_tolerance=tol)


def test_classify_rejects_order_one():
    # numpy used to raise its AxisError, an IndexError, from the Hessian transpose
    with pytest.raises(ShapeError, match="order >= 2"):
        classify_index(DenseTensor([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], 1.0)


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


def _second_variations(tensor, V, values):
    """k times the bordered Jacobian's vector block at each (v, value), from core's Hessian."""
    k, n = tensor.order, tensor.shape[0]
    return np.array([sym_hessian(tensor, v) - k * lam * np.eye(n) for v, lam in zip(V, values)])


def _solve_with_morse_inputs(T, cfg, monkeypatch):
    """The pairs of a symmetric solve and the (H, V) the solve handed _morse_rows."""

    def per_pair_call(*args, **kwargs):
        raise AssertionError("the solver classifies all pairs in one batch")

    seen = []
    morse_rows = solver._morse_rows
    monkeypatch.setattr(solver, "classify_index", per_pair_call)
    monkeypatch.setattr(solver, "_morse_rows", lambda H, V: seen.append((H, V)) or morse_rows(H, V))
    pairs = symmetric_eigenpairs(T, cfg)
    ((H, V),) = seen
    return pairs, H, V


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6), (4, 4, 4, 4)])
def test_batched_classification_matches_per_pair_reference(shape, monkeypatch):
    for seed in range(2):
        T = random_tensor(shape, 60 + seed, symmetric=True)
        pairs, H, V = _solve_with_morse_inputs(T, SolverConfig(restarts=60, seed=seed), monkeypatch)
        assert pairs and V.tobytes() == np.array([pt.vector for pt in pairs]).tobytes()
        lam = np.array([pt.value for pt in pairs])
        np.testing.assert_allclose(H, _second_variations(T, V, lam), rtol=0, atol=1e-12 * np.max(np.abs(H)))
        index, nondeg = solver._morse_rows(_second_variations(T, V, lam), V)
        for pt, i, d in zip(pairs, index, nondeg):
            assert (pt.index, pt.nondegenerate) == (i, d) == _ref_classify(T, pt.vector, pt.value)


@pytest.mark.parametrize("c", [1e-3, 1e3, 1e5])
def test_classification_of_scaled_tensors(c, monkeypatch):
    # bordered-Hessian inertia gives the right index, but its two border eigenvalues multiply
    # to -1, so at large values one of them falls under the threshold and every pair of
    # 1e5 * T reads as degenerate; the tangent projection is scale-free
    T = DenseTensor(c * random_tensor((4, 4, 4), 5, symmetric=True).data)
    pairs, _, _ = _solve_with_morse_inputs(T, SolverConfig(gradient_tolerance=1e-10 * c), monkeypatch)
    assert len(pairs) >= 14 and all(pt.nondegenerate for pt in pairs)
    for pt in pairs:
        assert (pt.index, pt.nondegenerate) == _ref_classify(T, pt.vector, pt.value)
        assert (pt.index, pt.nondegenerate) == classify_index(T, pt.vector, pt.value, 1e-9 * c)


def test_classification_in_a_solve_contracts_nothing(monkeypatch):
    # the Morse data come from the Jacobian the search already built: no contraction,
    # SVD or Jacobian of its own, and one Jacobian per solve outside the Newton runs
    calls = []
    morse_rows, lagrange, newton = solver._morse_rows, solver._lagrange_fns, solver._damped_newton
    in_newton = []

    def guarded(H, V):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "einsum", lambda *args, **kwargs: calls.append("einsum"))
            mp.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append("svd"))
            return morse_rows(H, V)

    def counted_fns(*args):
        state, jac = lagrange(*args)

        def counted_jac(z):
            if not in_newton:
                calls.append("jac")
            return jac(z)

        return state, counted_jac

    def flagged_newton(*args, **kwargs):
        in_newton.append(True)
        try:
            return newton(*args, **kwargs)
        finally:
            in_newton.pop()

    monkeypatch.setattr(solver, "_morse_rows", guarded)
    monkeypatch.setattr(solver, "_lagrange_fns", counted_fns)
    monkeypatch.setattr(solver, "_damped_newton", flagged_newton)
    pairs = symmetric_eigenpairs(random_tensor((4, 4, 4), 3, symmetric=True), CFG)
    assert pairs and all(pt.index is not None for pt in pairs)
    assert calls == ["jac"]


def test_batched_classification_rejects_nonstationary_row(cubic, monkeypatch):
    # the batch is classified without a residual check of its own: a row the Newton
    # runs leave nonstationary must be dropped at acceptance, before _morse_rows sees it
    bad = np.array([0.6, 0.8])
    lam = evaluate(cubic, [bad] * 3)
    newton = solver._damped_newton
    injected = []

    def with_bad_row(z0, *args, **kwargs):
        z = newton(z0, *args, **kwargs)
        if not injected:  # the search's Newton run; the continuum check may run its own
            injected.append(True)
            z = np.concatenate([z, [[*bad, lam]]])
        return z

    monkeypatch.setattr(solver, "_damped_newton", with_bad_row)
    pairs, _, V = _solve_with_morse_inputs(cubic, CFG, monkeypatch)
    assert injected and pairs
    assert np.min(np.linalg.norm(V - bad, axis=1)) > 1e-3
    assert all(pt.residual <= CFG.gradient_tolerance for pt in pairs)
    with pytest.raises(ValueError) as single:
        classify_index(cubic, bad, lam)
    assert str(single.value).startswith("(v, value) is not stationary enough to classify: residual ")


def test_batched_classification_of_degenerate_points():
    T = DenseTensor(np.eye(3))
    V = np.random.default_rng(4).standard_normal((9, 3))
    V /= np.linalg.norm(V, axis=1)[:, None]
    index, nondeg = solver._morse_rows(_second_variations(T, V, np.ones(9)), V)
    assert [(int(i), bool(d)) for i, d in zip(index, nondeg)] == [_ref_classify(T, v, 1.0) for v in V]
    assert not nondeg.any()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_unit_check_names_the_true_norm(scale):
    # the plain sum of squares overflowed to a RuntimeWarning at 1e200 and read 0.0 at 1e-200
    T = random_tensor((3, 3, 3), 1, symmetric=True)
    v = [scale, 0.0, 0.0]
    for check in (lambda: residual_eigen(T, v, 1.0, 1), lambda: classify_index(T, v, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"||v||_p = {scale}")):
            check()


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


def test_dedupe_choice_ignores_nonfinite_points():
    # equal residuals: the smaller vector wins, whatever non-finite point sits between them
    a, b = _pair([1.0, 0.0]), _pair([1.0, 1e-9])
    for bad in ([np.nan, 0.0], [1.0, np.inf]):
        assert [pt is a for pt in dedupe([b, _pair(bad), a], 1e-6)] == [True]
    assert [pt is a for pt in dedupe([b, a], 1e-6)] == [True]


def test_dedupe_ranks_a_nan_residual_last():
    c = _pair([1.0, 0.0], residual=2e-12)
    e = _pair([1.0, 1e-9], residual=math.nan)
    d = _pair([1.0, 2e-9], residual=1e-12)
    assert [pt is d for pt in dedupe([c, e, d], 1e-6)] == [True]
    # alone in its cluster, a NaN-residual point is still kept
    lone = _pair([0.0, 1.0], residual=math.nan)
    assert [pt is lone for pt in dedupe([c, lone, d], 1e-6)] == [True, False]


@pytest.mark.parametrize("tol", [math.nan, -1e-6, -math.inf, math.inf, True, "0.1", None])
def test_dedupe_rejects_a_radius_that_is_not_finite_and_nonnegative(tol):
    # a NaN radius used to merge every point into one, a negative one to keep exact
    # duplicates; True was read as 1, and "0.1" and None raised TypeError
    pairs = symmetric_eigenpairs(random_tensor((3, 3, 3), 1, symmetric=True), CFG)
    with pytest.raises(ValueError, match="tol"):
        dedupe(pairs + pairs, tol)
    assert len(dedupe(pairs + pairs, 0.0)) == len(pairs) > 1


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
    # non-finite points are dropped before ranking, and NaN residuals rank last
    keys = [np.concatenate([p.vector]) for p in points]
    finite = [i for i in range(len(points)) if np.all(np.isfinite(keys[i]))]

    def rank(i):
        r = points[i].residual
        return (math.isnan(r), 0.0 if math.isnan(r) else r, tuple(keys[i].tolist()))

    order = sorted(finite, key=rank)
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
    # the last is the solver's shape: hundreds of rows in tight clusters, so that a
    # block's leaders take most later rows in one pass
    for spread, tol, m in ((1e-3, 1e-3, 120), (1e-7, 1e-6, 120), (1e-2, 1e-2, 120), (0.3, 0.5, 120), (1e-12, 1e-6, 650)):
        X = _cloud(seed, m, n, spread)
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


def test_clusterer_memory_stays_linear_on_a_crowded_first_coordinate():
    # 4000 rows in 6 near-identical clusters at +-e_j; four of them share the
    # first coordinate 0, so one flat list of every candidate pair would hold
    # millions of pairs
    import tracemalloc

    m, n = 4000, 3
    rng = np.random.default_rng(6)
    X = np.concatenate([np.eye(n), -np.eye(n)])[rng.integers(2 * n, size=m)]
    X += 1e-9 * rng.standard_normal((m, n))
    tracemalloc.start()
    lead = _leaders(X, 1e-6)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(X[lead], _ref_coarse_unique(X, 1e-6)) and len(lead) == 2 * n
    cluster = m // (2 * n)
    assert peak < cluster * cluster  # bytes: one m x m float64 array would be 128 MB


def _assert_clusters_as_greedy_loops(X, tol, seed=0):
    assert np.array_equal(X[_leaders(X, tol)], _ref_coarse_unique(X, tol))
    resid = np.random.default_rng(seed).integers(0, 4, len(X)) * 1e-12
    pts = [_pair(x, residual=float(r)) for x, r in zip(X, resid)]
    assert [id(p) for p in dedupe(pts, tol)] == [id(p) for p in _ref_dedupe(pts, tol)]


def test_clusterer_on_a_great_circle_sharing_the_first_coordinate():
    # 1000 clusters whose rows all have first coordinate 0: the runs of the
    # first coordinate hold them all, and the later coordinates split them
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2.0 * math.pi, 1000)
    centres = np.stack([np.zeros_like(t), np.cos(t), np.sin(t)], axis=1)
    X = centres[rng.integers(1000, size=4000)]
    X[:, 1:] += 1e-8 * rng.standard_normal((4000, 2))
    _assert_clusters_as_greedy_loops(X, 1e-6)


def test_clusterer_on_rows_equal_but_in_the_last_coordinate():
    rng = np.random.default_rng(12)
    tol = 1e-6
    X = np.tile(rng.standard_normal(4), (2000, 1))
    X[:, -1] += rng.permutation(2000) * 0.7 * tol + rng.uniform(0.0, 0.1 * tol, 2000)
    assert len(np.unique(X, axis=0)) == 2000
    _assert_clusters_as_greedy_loops(X, tol)


def test_clusterer_on_the_diagonal_p3_continuum(monkeypatch):
    # the 3x3x3 diagonal's mode-1 pairs under the 3-norm fill curves, so dedupe
    # gets hundreds of rows at the widened radius 10 * gtol^(1/2) = 1e-4
    calls = []
    dedupe_rows = solver._dedupe_rows
    monkeypatch.setattr(solver, "_dedupe_rows", lambda *a: calls.append(a) or dedupe_rows(*a))
    with pytest.raises(DegenerateTensorError, match="continuum witness"):
        generalized_eigenpairs(_diag([1.0, 1.0, 1.0], 3), 1, SolverConfig(p=3.0))
    ((keys, resid, tol),) = calls
    assert tol == pytest.approx(1e-4) and len(keys) > 600
    order = solver._lex_order(resid, keys)
    assert len(_leaders(keys[order], tol)) > 300
    _assert_clusters_as_greedy_loops(keys[order], tol)
    pts = [_pair(x, residual=float(r)) for x, r in zip(keys, resid)]
    assert [id(p) for p in dedupe(pts, tol)] == [id(p) for p in _ref_dedupe(pts, tol)]


@pytest.mark.parametrize("shuffle", [False, True])
def test_clusterer_on_a_chain(shuffle):
    # rows 0.9 tol apart on a line: in chain order every leader takes only its
    # successor, the most sequential input the greedy has
    rng = np.random.default_rng(13)
    tol = 1e-6
    u = rng.standard_normal(3)
    X = np.arange(600)[:, None] * (0.9 * tol) * (u / np.linalg.norm(u))
    if shuffle:
        X = X[rng.permutation(600)]
    lead = _leaders(X, tol)
    if not shuffle:
        assert lead.tolist() == list(range(0, 600, 2))
    _assert_clusters_as_greedy_loops(X, tol)


def test_clusterer_merges_differences_that_square_to_zero():
    # 1e-170 squared underflows, so these rows are at distance 0 even at tol 0
    X = np.array([[1e-170, 0.0], [2e-170, 0.0], [1.0, 0.0], [1.0, 3e-170]])
    assert _leaders(X, 0.0).tolist() == [0, 2]
    _assert_clusters_as_greedy_loops(X, 0.0)


def test_clusterer_on_one_coordinate():
    rng = np.random.default_rng(14)
    X = rng.choice(rng.uniform(-1.0, 1.0, 40), size=(500, 1)) + 1e-4 * rng.standard_normal((500, 1))
    for tol in (0.0, 1e-4, 1e-3, 0.3):
        _assert_clusters_as_greedy_loops(X, tol)


@st.composite
def _hard_clouds(draw):
    """Rows in priority order with a radius: copies, antipodes, +-e_j, chains and exact ties."""
    m = draw(st.integers(0, 600))
    n = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.3]))
    spread = draw(st.sampled_from([0.0, 0.3, 1.0, 3.0])) * tol / math.sqrt(n)
    # +-e_j with j > 0 all have first coordinate 0
    centres = np.concatenate([np.eye(n), -np.eye(n), rng.standard_normal((3, n))])
    X = centres[rng.integers(len(centres), size=m)] + spread * rng.standard_normal((m, n))
    if m and draw(st.booleans()):
        # a chain of rows spaced near tol along one direction, in priority order
        length = int(rng.integers(1, m + 1))
        first = int(rng.integers(0, m - length + 1))
        u = rng.standard_normal(n)
        gaps = tol * (1.0 + rng.choice([-1e-12, 0.0, 1e-12], size=length))
        X[first : first + length] = centres[0] + np.cumsum(gaps)[:, None] * u / np.linalg.norm(u)
    if m:
        X[rng.integers(m, size=m // 5)] = X[rng.integers(m, size=m // 5)]  # exact copies
        X[rng.integers(m, size=m // 8)] = -X[rng.integers(m, size=m // 8)]  # antipodes
    if m >= 2 and draw(st.booleans()):
        i, j = rng.integers(m, size=2)
        tol = float(np.linalg.norm(X[j] - X[i]))  # a tie at exactly tol
    if m and draw(st.booleans()):
        X[rng.integers(m, size=3), rng.integers(n, size=3)] = [np.nan, np.inf, -np.inf]
    resid = rng.integers(0, 4, size=m) * 1e-12
    resid[rng.random(m) < 0.05] = np.nan
    return X, tol, resid


@settings(max_examples=80)
@given(_hard_clouds())
def test_clusterer_property_matches_greedy_loops(cloud):
    X, tol, resid = cloud
    assert np.array_equal(X[_leaders(X, tol)], _ref_coarse_unique(X, tol))
    pts = [_pair(x, residual=float(r)) for x, r in zip(X, resid)]
    assert [id(p) for p in dedupe(pts, tol)] == [id(p) for p in _ref_dedupe(pts, tol)]


# --- damped Newton line search ---------------------------------------------
# Brute-force copy of the sequential-halving loop that the batched line
# search replaced, with the same retirement of creeping rows and of slow rows
# at a rank-deficient Jacobian; the new code must return the same bits.  Its
# Newton steps are scaled by ``scale``.


def _ref_rank_deficient(J):
    """sigma_min <= sqrt(eps) * sigma_max of one matrix, both with its rows then its columns and
    with its columns then its rows scaled entry by entry."""
    if not np.all(np.isfinite(J)):
        return False
    for rows_first in (True, False):
        E = J.copy()
        for lines in (E, E.T) if rows_first else (E.T, E):  # E.T is a view: its lines are E's columns
            for line in lines:
                e = math.frexp(max(abs(float(x)) for x in line))[1]
                line[:] = [math.ldexp(float(x), -e) for x in line]
        s = np.linalg.svd(E, compute_uv=False)
        if s[-1] > math.sqrt(np.finfo(float).eps) * s[0]:
            return False
    return True


def _ref_regularized_step(J, b):
    """J^T y with (J J^T + mu I) y = b, mu = eps * trace(J J^T) (1 at J = 0), on J and b over 2^e.

    2^e is the power of two of max|J|: J / 2^e has its largest entry in [1/2, 1).
    """
    e = math.frexp(float(np.max(np.abs(J))))[1]
    J, b = np.ldexp(J, -e), np.ldexp(b, -e)
    G = J @ J.T
    G[np.diag_indices(len(G))] += np.finfo(float).eps * np.trace(G) if np.any(J) else 1.0
    return J.T @ np.linalg.solve(G, b)


def _ref_damped_newton(z0, state_fn, jac_fn, gtol, scale=1.0):
    target = 0.05 * gtol
    z = z0.copy()
    F, Fn = state_fn(z)
    stalled = ~np.isfinite(Fn)
    creep = np.zeros(len(z), dtype=int)
    for it in range(1, solver._NEWTON_ITERATIONS + 1):
        active = np.flatnonzero((Fn > target) & ~stalled & (creep < solver._CREEP_ITERATIONS))
        if active.size == 0:
            break
        za = z[active]
        J = jac_fn(za)
        dz = np.empty_like(F[active])
        for r, b in enumerate(F[active]):
            try:
                dz[r] = scale * np.linalg.solve(J[r], -b)
            except np.linalg.LinAlgError:  # only this row's system is singular
                dz[r] = scale * _ref_regularized_step(J[r], -b)
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
        for r in np.flatnonzero(improved):
            creep[active[r]] = creep[active[r]] + 1 if alpha[r] <= solver._CREEP_STEP else 0
            # at every 20th iteration below the cap, a slow step at a rank-deficient Jacobian retires
            check = it % solver._RANK_CHECK_ITERATIONS == 0 and it < solver._NEWTON_ITERATIONS
            slow = target < best_Fn[r] and best_Fn[r] > 0.9 * Fn[active[r]]
            if check and slow and creep[active[r]] < solver._CREEP_ITERATIONS and _ref_rank_deficient(J[r]):
                creep[active[r]] = solver._CREEP_ITERATIONS
        z[active] = best_z
        F[active] = best_F
        Fn[active] = best_Fn
    return z


# exponents e of a scale 2^e on the Newton steps, which is exact, so a row whose
# longest passing step was 2^-j needs 2^-(j + e): the steps as they are (0); rows
# moved deeper into the first batch (1, 2, 3, 7, 8), across the edge between the
# two batches (15, 16, 17) and beyond the floor of 2^-24 (25, 26)
SCALE_EXPONENTS = [0, 1, 2, 3, 7, 8, 15, 16, 17, 25, 26]


def _scaled_steps(e, steps=solver._newton_steps):
    """_newton_steps with its steps times 2^e."""

    def scaled(J, F, split):
        dz, singular = steps(J, F, split)
        return 2.0**e * dz, singular

    return scaled


def _leading_mean(D):
    """D averaged over its leading k-1 modes, on which the solver runs a mode-last eigenproblem."""
    return _orbit_mean(D, _orbit_ids(D.shape, D.ndim - 1))


def _newton_system(parts, p):
    """(state_fn, jac_fn, degree) as _search builds them from a solver's system."""
    dims, degree, grads, blocks = parts
    return solver._lagrange_fns(dims, p, grads, blocks) + (solver._ray_degree(degree, p),)


def _raw_rows(parts, p, seed, restarts=24):
    """(z0, state_fn, jac_fn, degree) of a solver's system on raw starts, seeded as _search seeds them."""
    dims, _, grads, _ = parts
    Ws = solver._random_starts(seed, restarts, dims, p)
    s0 = np.repeat(solver._dot_rows(grads(Ws)[-1], Ws[-1])[:, None], len(dims), axis=1)
    return (np.concatenate(Ws + [s0], axis=1),) + _newton_system(parts, p)


def _newton_systems(shape, p, seed, restarts=24):
    """_raw_rows of the systems of random tensors of shape: symmetric, mode-2 eigen (if square), tuples."""
    T = random_tensor(shape, seed).data
    parts = [solver._tuple_parts(T)]
    if len(set(shape)) == 1:
        S = random_tensor(shape, seed, symmetric=True).data
        parts[:0] = [solver._eigen_parts(S), solver._eigen_parts(_leading_mean(np.moveaxis(T, 1, -1)))]
    return [_raw_rows(q, p, seed, restarts) for q in parts]


# the degree of the Lagrange system along a Newton ray, by order k and p: at p = 2
# it is max(k - 1, 2), which the line search reads up to 3; elsewhere it scans
RAY_DEGREES = {2.0: [2, 2, 3, None], 1.5: [None] * 4, 3.0: [None] * 4}


@pytest.mark.parametrize("p", sorted(RAY_DEGREES))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_solvers_hand_newton_the_ray_degree(k, p, monkeypatch):
    newton, degrees = solver._damped_newton, []

    def recorded_newton(z0, state_fn, jac_fn, gtol, degree=None, **kwargs):
        degrees.append(degree)
        return newton(z0, state_fn, jac_fn, gtol, degree, **kwargs)

    monkeypatch.setattr(solver, "_damped_newton", recorded_newton)
    T = random_tensor((2,) * k, 4)
    generalized_eigenpairs(T, k, SolverConfig(restarts=2, p=p))
    singular_tuples(T, SolverConfig(restarts=2, p=p))
    # the polish, and the continuum check's Newton where it runs
    assert len(degrees) >= 2 and set(degrees) == {RAY_DEGREES[p][k - 2]}


def _ref_bordered_jacobian(dims, p, blocks, z):
    """The bordered Jacobian of _lagrange_fns at the rows z, assembled one entry at a time.

    Entry (a, b) of block (i, j) is dg_i/dw_j; each vector entry c of sphere i
    has s_i * phi'_{p-1}(w_c) taken off the diagonal, -phi_{p-1}(w_c) in the
    multiplier column of sphere i and phi_{p-1}(w_c) in its multiplier row.
    """
    k, total = len(dims), sum(dims)
    off = np.cumsum((0,) + tuple(dims))
    W = z[:, :total]
    with np.errstate(all="ignore"):
        # phi_1 is the identity; below p = 2 the slope (p-1) |w|^(p-2) is clamped at |w| = 1e-8
        phi = W if p == 2.0 else np.sign(W) * np.abs(W) ** (p - 1.0)
        mag = np.maximum(np.abs(W), 1e-8) if p < 2.0 else np.abs(W)
        slope = np.ones_like(W) if p == 2.0 else (p - 1.0) * mag ** (p - 2.0)
        found = list(blocks([z[:, off[i] : off[i + 1]] for i in range(k)]))
        K = np.zeros((len(z), total + k, total + k))
        for r in range(len(z)):
            for (i, j), B in found:
                for a in range(dims[i]):
                    for b in range(dims[j]):
                        K[r, off[i] + a, off[j] + b] = B[r, a, b]
            for i in range(k):
                s = z[r, total + i]
                for c in range(off[i], off[i + 1]):
                    K[r, c, c] -= s * slope[r, c]
                    K[r, c, total + i] = -phi[r, c]
                    K[r, total + i, c] = phi[r, c]
    return K


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 5), (2, 3, 4, 3)])
def test_bordered_jacobian_matches_an_entry_by_entry_assembly(shape, p):
    if len(set(shape)) == 1:  # one sphere: the symmetric eigenproblem
        dims, _, grads, blocks = solver._eigen_parts(random_tensor(shape, 21, symmetric=True).data)
    else:
        dims, _, grads, blocks = solver._tuple_parts(random_tensor(shape, 21).data)
    state, jac = solver._lagrange_fns(dims, p, grads, blocks)
    k, total = len(dims), sum(dims)
    z = np.random.default_rng(22).standard_normal((6, total + k))
    z[1, [0, total - 1]] = 0.0  # zero vector entries, and a negative zero
    z[1, 1] = -0.0
    z[2, total] = 0.0  # a zero multiplier
    z[3, total:] = -0.0
    for rows in (z, z[:0]):  # the zero-row call _search makes when dedupe keeps no point
        got = jac(rows)
        assert got.shape == (len(rows), total + k, total + k)
        assert got.tobytes() == _ref_bordered_jacobian(dims, p, blocks, rows).tobytes()


@pytest.mark.parametrize("p", [2.0, 1.5, 3.0])
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4, 4), (4, 5, 6), (2, 3, 4, 3)])
def test_line_search_matches_sequential_halving(shape, p):
    # at p = 2 the step lengths come from the polynomial (degree 2 at k = 3, 3 at k = 4)
    for z0, state, jac, degree in _newton_systems(shape, p, seed=len(shape) + int(2 * p)):
        args = (state, jac, CFG.gradient_tolerance)
        got = solver._damped_newton(z0, *args, degree)
        assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()


@pytest.mark.parametrize("e", SCALE_EXPONENTS)
def test_line_search_matches_sequential_halving_at_block_edges(e, monkeypatch):
    monkeypatch.setattr(solver, "_newton_steps", _scaled_steps(e))
    systems = _newton_systems((3, 3, 3), 2.0, seed=11) + _newton_systems((2, 3, 4), 3.0, seed=12)
    for z0, state, jac, degree in systems + _newton_systems((2, 2, 2, 2), 2.0, seed=13):
        args = (state, jac, CFG.gradient_tolerance)
        got = solver._damped_newton(z0, *args, degree)
        assert got.tobytes() == _ref_damped_newton(z0, *args, 2.0**e).tobytes()


@pytest.mark.parametrize("shape, seed", [((3, 3), 1), ((3, 3, 3), 3), ((2, 2, 2, 2), 4)])
def test_line_search_matches_sequential_halving_where_squares_overflow(shape, seed):
    # residual rows of 1e160 square past the largest float: the polynomial is NaN
    # there and rules no step length out, so each row tries the longest for real
    z0, state, jac, degree = _raw_rows(solver._tuple_parts(1e160 * random_tensor(shape, seed).data), 2.0, seed)
    args = (state, jac, 1e152)
    with solver_policy():
        assert solver._damped_newton(z0, *args, degree).tobytes() == _ref_damped_newton(z0, *args).tobytes()


@st.composite
def _polynomial_systems(draw):
    """(z0, state, jac, degree, gtol) of a p = 2 system on raw starts: order 2-4, dimensions 1-4, scale 2^e.

    The system is a symmetric eigenproblem, a mode eigenproblem of a
    non-symmetric tensor or its singular tuples.  The tolerance is drawn apart
    from the scale, so some targets lie below the state's rounding: there the
    rounding bound decides which step lengths are ruled out.
    """
    k, e, seed = draw(st.integers(2, 4)), draw(st.integers(-20, 20)), draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["symmetric", "mode", "tuples"]))
    if kind == "tuples":
        shape = tuple(draw(st.integers(1, 4)) for _ in range(k))
        parts = solver._tuple_parts(2.0**e * random_tensor(shape, seed).data)
    else:
        T = random_tensor((draw(st.integers(1, 4)),) * k, seed, symmetric=kind == "symmetric").data
        if kind == "mode":
            T = _leading_mean(np.moveaxis(T, draw(st.integers(0, k - 1)), -1))
        parts = solver._eigen_parts(2.0**e * T)
    z0, state, jac, degree = _raw_rows(parts, 2.0, seed, draw(st.integers(1, 16)))
    return z0, state, jac, degree, 2.0 ** (e - draw(st.integers(0, 24))) * CFG.gradient_tolerance


@settings(max_examples=120)
@given(_polynomial_systems())
def test_polynomial_line_search_matches_the_scan(system):
    # every pick, fallback and stall the polynomial decides gives the scan's bytes
    z0, state, jac, degree, gtol = system
    assert degree in (2, 3)
    got = solver._damped_newton(z0, state, jac, gtol, degree)
    assert got.tobytes() == solver._damped_newton(z0, state, jac, gtol).tobytes()


def _longest_step(state, jac, z):
    """The index of the longest step length the scan takes from row z in one iteration, or -1."""
    F, Fn = state(z[None])
    dz = solver._newton_steps(jac(z[None]), F)[0][0]
    alphas = np.ldexp(1.0, -np.arange(solver._MAX_BACKTRACKS))
    ok = state(z + alphas[:, None] * dz)[1] <= (1.0 - solver._ARMIJO_SLOPE * alphas) * Fn[0]
    return int(np.argmax(ok)) if ok.any() else -1


def _boundary_rows(state, jac, pairs):
    """Two rows a rounding error apart on the segment between two rows whose longest steps differ.

    Bisection keeps the longest steps at the ends different, so one Armijo
    decision of the first iteration flips between the two rows it ends on.
    """
    out = []
    for za, zb in pairs:
        lo, hi, t_lo = 0.0, 1.0, _longest_step(state, jac, za)
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if _longest_step(state, jac, (1.0 - mid) * za + mid * zb) == t_lo:
                lo = mid
            else:
                hi = mid
        out += [(1.0 - lo) * za + lo * zb, (1.0 - hi) * za + hi * zb]
    return np.array(out)


def _one_iteration_calls(z0, state, jac, degree, monkeypatch):
    """The row counts of the state calls of one Newton iteration from z0."""
    sizes = []

    def counted(z):
        sizes.append(len(z))
        return state(z)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_NEWTON_ITERATIONS", 1)
        solver._damped_newton(z0, counted, jac, CFG.gradient_tolerance, degree)
    return sizes


@pytest.mark.parametrize("shape, seed", [((3, 3, 3), 11), ((3, 3, 3, 3), 12)])
def test_polynomial_line_search_at_the_armijo_boundary(shape, seed, monkeypatch):
    # rows on both sides of an Armijo decision that only rounding settles: the
    # polynomial cannot rule that step length out, so on the side where it
    # fails the real test the fallback stacks the first batch, 2^-(d-1)..2^-15
    z0, state, jac, degree = _newton_systems(shape, 2.0, seed)[0]
    t = [_longest_step(state, jac, z) for z in z0]
    # neighbouring rows whose full steps fail and whose longest steps differ
    pairs = [(z0[r], z0[r + 1]) for r in range(len(z0) - 1) if 1 <= min(t[r], t[r + 1]) < max(t[r], t[r + 1])]
    rows = _boundary_rows(state, jac, pairs[:3])
    assert len(rows) == 6
    args = (state, jac, CFG.gradient_tolerance)
    assert solver._damped_newton(rows, *args, degree).tobytes() == _ref_damped_newton(rows, *args).tobytes()
    fallbacks = 0
    for a, b in zip(rows[::2], rows[1::2]):
        assert _longest_step(state, jac, a) != _longest_step(state, jac, b)
        for r in (a[None], b[None]):
            assert solver._damped_newton(r, *args, degree).tobytes() == _ref_damped_newton(r, *args).tobytes()
            # the entry state, the full step (and 1/2 at d = 3), the pick and the fallback's
            # first batch; no row here needs the second
            sizes = _one_iteration_calls(r, state, jac, degree, monkeypatch)
            assert sizes[:2] == [1, degree - 1] and sizes[2:3] in ([], [1])
            assert sizes[3:] in ([], [17 - degree])
            fallbacks += len(sizes) == 4
    # at d = 3 a flip at 1/2 is settled by the call there
    assert fallbacks == 3 if degree == 2 else fallbacks >= 1


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 3, 3, 3)])
def test_polynomial_line_search_near_convergence(shape, monkeypatch):
    # residuals within 10x the target on a tensor scaled by 2^16, whose state
    # rounds at about the target: full steps fail, the rounding bound decides
    # which step lengths are ruled out, and picks that fail the real test fall back
    T = random_tensor(shape, 31, symmetric=True)
    state, jac, degree = _newton_system(solver._eigen_parts(2.0**16 * T.data), 2.0)
    rng = np.random.default_rng(5)
    z0 = np.array([
        np.concatenate([pt.vector + 10.0**e * rng.standard_normal(len(pt.vector)), [2.0**16 * pt.value]])
        for pt in symmetric_eigenpairs(T) for e in np.linspace(-17, -14, 7)
    ])
    Fn = state(z0)[1]
    target = 0.05 * CFG.gradient_tolerance
    z0 = z0[(Fn > target) & (Fn <= 10 * target)]
    assert len(z0) >= 20
    args = (state, jac, CFG.gradient_tolerance)
    assert solver._damped_newton(z0, *args, degree).tobytes() == _ref_damped_newton(z0, *args).tobytes()
    # the entry state, the full step (and 1/2 at d = 3), the picks, the first batch
    # (2^-1..2^-15 at d = 2, 2^-2..2^-15 at d = 3) on the rest, and 2^-16..2^-24 on
    # the rows that stall
    sizes = _one_iteration_calls(z0, state, jac, degree, monkeypatch)
    assert len(sizes) == 5 and sizes[1] == (degree - 1) * len(z0)
    assert sizes[3] % (17 - degree) == 0 and sizes[4] % 9 == 0


def test_polynomial_fallback_reaches_the_second_batch(monkeypatch):
    # first vectors scaled to 1e-160 and 1e-150 leave the bordered Jacobian singular to
    # working precision: one row's Newton step is non-finite and the other's of size
    # 1e299, so the ray polynomial is NaN on both and rules nothing out.  Each tries the
    # pick, then 2^-1..2^-15, then 2^-16..2^-24, passes none and stays where it is
    T = random_tensor((3, 3, 3), 3, symmetric=True)
    z0, state, jac, degree = _raw_rows(solver._eigen_parts(T.data), 2.0, 3, 4)
    z0[0, :3] *= 1e-160
    z0[1, :3] *= 1e-150
    args = (state, jac, CFG.gradient_tolerance)
    with solver_policy():
        got = solver._damped_newton(z0, *args, degree)
        assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
        assert _one_iteration_calls(z0, state, jac, degree, monkeypatch) == [4, 4, 3, 2 * 15, 2 * 9]
    assert np.array_equal(got[:2], z0[:2])


@pytest.mark.parametrize(
    "solve, tensor, config, polynomial",
    [
        (symmetric_eigenpairs, random_tensor((3, 3, 3), 7, symmetric=True), CFG, True),
        (singular_tuples, random_tensor((2, 3, 2, 2), 7), CFG, True),
        (symmetric_eigenpairs, random_tensor((2,) * 5, 7, symmetric=True), CFG, False),
        (singular_tuples, random_tensor((2, 2, 2, 2, 2), 7), CFG, False),
        (lambda T, c: generalized_eigenpairs(T, 1, c), random_tensor((3, 3, 3), 7), replace(CFG, p=3.0), False),
        (singular_tuples, random_tensor((3, 4), 7), replace(CFG, p=1.5), False),
    ],
)
def test_line_search_reads_a_polynomial_at_p_two_up_to_order_four(solve, tensor, config, polynomial, monkeypatch):
    # at p != 2 the system is not polynomial, and at k >= 5 its degree is above 3: both scan
    calls = []
    ray_excess = solver._ray_excess
    monkeypatch.setattr(solver, "_ray_excess", lambda *args: calls.append(len(args[0])) or ray_excess(*args))
    solve(tensor, config)
    assert bool(calls) == polynomial


def _ray_coefficients(state, jac, z, degree):
    """The coefficients of F along each row's Newton ray, from their definition; also J and dz."""
    F0, J = state(z)[0], jac(z)
    dz = solver._newton_steps(J, F0)[0]
    F1 = np.einsum("zij,zj->zi", J, dz)
    R = state(z + dz)[0] - F0 - F1
    if degree == 2:
        return np.stack([F0, F1, R]), J, dz
    F2 = 8.0 * (state(z + 0.5 * dz)[0] - F0 - 0.5 * F1) - R
    return np.stack([F0, F1, F2, R - F2]), J, dz


@pytest.mark.parametrize(
    "shape, seed, singular", [((3, 3, 3), 6, True), ((3, 4, 5), 7, False), ((2, 2, 2, 2), 8, False), ((2, 3, 4, 3), 9, False)]
)
def test_newton_reads_the_ray_polynomial_of_its_searching_rows(shape, seed, singular, monkeypatch):
    # the coefficients of the first iteration are F(z), J dz and the rest, on the rows
    # whose full step failed; J dz, not -F(z), also where a singular J takes the singular-row step
    z0, state, jac, degree = _newton_systems(shape, 2.0, seed)[-1]
    if singular:
        z0[-1, : shape[0]] = 0.0  # a zero first vector: its sphere's constraint row of J is zero
    seen = []
    ray_excess = solver._ray_excess
    monkeypatch.setattr(solver, "_ray_excess", lambda *args: seen.append(args) or ray_excess(*args))
    _one_iteration_calls(z0, state, jac, degree, monkeypatch)
    ((C, J, limit),) = seen
    powers = solver._POWERS[degree]
    F, Fn = state(z0)
    dz = solver._newton_steps(jac(z0), F)[0]
    searching = ~(state(z0 + dz)[1] <= (1.0 - solver._ARMIJO_SLOPE) * Fn)
    if degree == 3:  # a row whose full step fails takes 1/2 where that passes
        searching &= ~(state(z0 + 0.5 * dz)[1] <= (1.0 - 0.5 * solver._ARMIJO_SLOPE) * Fn)
    assert (searching[-1] or not singular) and C.shape[1] == np.count_nonzero(searching) >= 5
    want, J_want, _ = _ray_coefficients(state, jac, z0[searching], degree)
    assert C.tobytes() == want.tobytes() and J.tobytes() == J_want.tobytes()
    assert np.array_equal(limit, (1.0 - solver._ARMIJO_SLOPE * powers[1]) * Fn[searching, None])


@pytest.mark.parametrize("shape, seed", [((3, 3, 3), 1), ((4, 4, 4, 4), 2), ((3, 3, 3, 3), 3), ((4, 5, 6), 4), ((2, 3, 4, 3), 5)])
def test_ray_polynomial_bounds_its_own_rounding(shape, seed):
    # on every row a Newton run from raw starts visits (the symmetric eigenproblem of
    # a square shape), ||F(alpha)||^2 read off the polynomial is within the margin of
    # the real state's at every step length; near singular Jacobians (steps of 1e4 and
    # more) need the margin of C_2 and C_3
    z0, state, jac, degree = _newton_systems(shape, 2.0, seed, restarts=200)[0]
    seen = []
    solver._damped_newton(z0, state, lambda z: seen.append(z) or jac(z), CFG.gradient_tolerance, degree)
    z = np.concatenate(seen)
    C, J, dz = _ray_coefficients(state, jac, z, degree)
    alphas = np.ldexp(1.0, -np.arange(degree - 1, solver._MAX_BACKTRACKS))
    real = state((z[:, None] + alphas[:, None] * dz[:, None]).reshape(-1, z.shape[1]))[1].reshape(len(z), -1)
    excess, margin = solver._ray_excess(C, J, real)
    assert len(z) > 100 and np.isfinite(excess).all()
    assert np.all(np.abs(excess) <= margin)
    # tight enough to matter: away from the rounding floor, 0.9 of the norm is far beyond it
    far = real > 1e-6
    assert far.mean() > 0.25 and np.all((solver._ray_excess(C, J, 0.9 * real)[0] > margin)[far])


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


def _longest_step_row(e):
    """A _toy_state row whose longest passing alpha is 2^e.

    From x = 3/2, alpha / s = 4/3 passes and alpha / s = 8/3 fails.
    """
    return [1.5, 0.5, 3 * 2.0 ** (e - 2)]


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
    # ranges over the step lengths, down to 2^-20 for s = 1e-6
    for s in (1.0, 0.7, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6):
        for x in rng.uniform(-1.9, 1.9, size=(3, 2)):
            rows.append([x[0], x[1], s])
    # each end of the full step and of the two batches, and one step length beyond the floor
    rows += [_longest_step_row(e) for e in (0, -1, -15, -16, -24, -25)]
    if singular:
        rows.append([1.2, 0.1, 0.0])  # a singular Jacobian sends the batch to the split
    return np.array(rows)


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("e", SCALE_EXPONENTS)
def test_line_search_edge_rows_match_sequential_halving(e, singular, monkeypatch):
    monkeypatch.setattr(solver, "_newton_steps", _scaled_steps(e))
    z0 = _toy_rows(singular)
    args = (_toy_state, _toy_jac, CFG.gradient_tolerance)
    got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args, 2.0**e).tobytes()
    assert np.array_equal(got[:6], z0[:6])  # converged, non-finite, bad step, uphill
    # the random rows take steps down to 2^-20, so all of them move up to e = 4 and
    # none beyond the floor
    moved = np.any(got[6:39] != z0[6:39], axis=1)
    assert moved.all() if e <= 4 else not moved.all() and moved.any() == (e < solver._MAX_BACKTRACKS)


def test_line_search_floor_is_two_to_the_minus_24():
    z0 = _toy_rows(singular=False)
    args = (_toy_state, _toy_jac, CFG.gradient_tolerance)
    got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
    # longest passing step lengths 2^-15, 2^-16 and 2^-24 move; 2^-25 does not
    assert np.all(got[-4:-1, 0] != z0[-4:-1, 0]) and np.array_equal(got[-1], z0[-1])


def _creep_state(z):
    """F = (x - 1/2, 0); z[:, 1] only picks the Jacobian."""
    F = np.stack([z[:, 0] - 0.5, np.zeros(len(z))], axis=1)
    return F, np.linalg.norm(F, axis=1)


def _creep_jac(z):
    """diag(s, 1) with s = z[:, 1], or, where z[:, 1] < 0, s by bands of r = |x - 1/2|.

    A step of length alpha multiplies x - 1/2 by 1 - alpha / s.  With s = 0.01
    the longest that passes the Armijo test is alpha = 2^-6 (factor -0.5625),
    a creeping step; s = 2 takes alpha = 1 and halves r, and s = 1 lands on
    1/2.  From r = 1 the bands give four creeping steps, a full one, four
    creeping steps, a full one and the last step: 11 iterations.
    """
    r = np.abs(z[:, 0] - 0.5)
    band = np.select([r <= 0.003, r <= 0.006, r <= 0.06, r <= 0.12], [1.0, 2.0, 0.01, 2.0], 0.01)
    J = np.zeros((len(z), 2, 2))
    J[:, 0, 0] = np.where(z[:, 1] < 0, band, z[:, 1])
    J[:, 1, 1] = 1.0
    return J


def _newton_counts(caplog, first=False):
    """The eight numbers of the one damped-Newton DEBUG line in caplog, or of the first (the polish's).

    They are, in order: iterations, state calls, step-length rows, singular-row steps,
    converged rows, rows, stalled rows and retired rows.
    """
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("damped Newton")]
    (line,) = lines[:1] if first else lines
    return list(map(int, re.findall(r"\d+", line)))


def _logged_newton(z0, caplog):
    """_damped_newton on the creep system, with the numbers of its DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        z = solver._damped_newton(z0, _creep_state, _creep_jac, CFG.gradient_tolerance)
    return z, _newton_counts(caplog)


def test_creeping_rows_retire_and_leave_other_rows_alone(caplog):
    assert (solver._CREEP_STEP, solver._CREEP_ITERATIONS) == (2.0**-6, 5)
    # only alpha = 2^-6 passes: the row retires after five steps, at the fifth point
    creeping = np.array([[1.5, 0.01]])
    z, (iters, _, _, _, converged, _, stalled, retired) = _logged_newton(creeping, caplog)
    assert (iters, converged, stalled, retired) == (5, 0, 0, 1)
    want = creeping.copy()
    for _ in range(5):
        want = want + 2.0**-6 * solver._newton_steps(_creep_jac(want), _creep_state(want)[0])[0]
    assert z.tobytes() == want.tobytes()
    # four creeping steps and a full one, twice: the count restarts and the row converges
    banded = np.array([[1.5, -1.0]])
    z, (iters, _, _, _, converged, _, stalled, retired) = _logged_newton(banded, caplog)
    assert (iters, converged, stalled, retired) == (11, 1, 0, 0)
    # s = 0.7 takes full steps and s = 0.3 half steps, so both outlive the creeping row
    others = np.array([[0.5, 1.0], [1.5, -1.0], [-0.4, 0.7], [1.9, 0.7], [1.2, 0.3], [-1.0, 0.3]])
    alone, counts = _logged_newton(others, caplog)
    assert counts[0] > 5 and counts[-1] == 0
    mixed = np.concatenate([others[:3], creeping, others[3:]])
    got, counts = _logged_newton(mixed, caplog)
    assert counts[-1] == 1
    assert np.delete(got, 3, axis=0).tobytes() == alone.tobytes()
    assert got.tobytes() == _ref_damped_newton(mixed, _creep_state, _creep_jac, CFG.gradient_tolerance).tobytes()


def test_slow_rows_at_a_rank_deficient_jacobian_retire(caplog, monkeypatch):
    # the 3x3x3 diagonal's mode-1 pairs under the 3-norm fill curves: on these 48 raw
    # starts two rows creep along them with long steps, and the rank test retires
    # one at iteration 20, where the polish ends
    z0, state, jac, degree = _raw_rows(solver._eigen_parts(_diag([1.0, 1.0, 1.0], 3).data), 3.0, 0, 48)
    args = (state, jac, CFG.gradient_tolerance, degree)
    want = _ref_damped_newton(z0, *args[:3])
    runs = []
    for every in (solver._RANK_CHECK_ITERATIONS, solver._NEWTON_ITERATIONS):  # with the rank test, then without
        monkeypatch.setattr(solver, "_RANK_CHECK_ITERATIONS", every)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
            runs.append((solver._damped_newton(z0, *args), _newton_counts(caplog)))
    (got, counts), (unchecked, unchecked_counts) = runs
    assert got.tobytes() == want.tobytes()
    iters, *_, converged, rows, stalled, retired = counts
    assert iters <= 21 and retired > 0
    # without it the polish runs to the cap, and the same rows converge to the same bits
    assert unchecked_counts[0] == solver._NEWTON_ITERATIONS and unchecked_counts[4] == converged
    done = state(got)[1] <= 0.05 * CFG.gradient_tolerance
    assert got[done].tobytes() == unchecked[done].tobytes() and got.tobytes() != unchecked.tobytes()


def _rate_state(z):
    """F = (x, 0, 0) on rows z = (x, q, s): the residual is |x|."""
    F = np.zeros_like(z)
    F[:, 0] = z[:, 0]
    return F, np.abs(z[:, 0])


def _rate_jac(z):
    """diag(1/q, 1, s): the Newton step takes x to (1 - q) x, and s = 0 makes J singular."""
    J = np.zeros((len(z), 3, 3))
    J[:, 0, 0], J[:, 1, 1], J[:, 2, 2] = 1.0 / z[:, 1], 1.0, z[:, 2]
    return J


def test_rank_test_retires_only_slow_rows_at_singular_jacobians(caplog):
    z0 = np.array([
        [1.0, 0.3, 0.0],  # singular, but each step lowers the residual by 30 %: not slow
        [1.0, 0.05, 0.0],  # singular and 5 % a step: retires at iteration 20
        [1.0, 0.05, 1.0],  # 5 % a step at a regular Jacobian
    ])
    args = (_rate_state, _rate_jac, CFG.gradient_tolerance)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
    # the other two rows are still above the target at the cap
    iters, _, _, singular, converged, _, stalled, retired = _newton_counts(caplog)
    assert (iters, converged, stalled, retired) == (solver._NEWTON_ITERATIONS, 0, 0, 1)
    # the two rows with s = 0 take the singular-row step, until iteration 20 and to the cap
    assert singular == solver._RANK_CHECK_ITERATIONS + solver._NEWTON_ITERATIONS
    want = z0[1:2]
    for _ in range(solver._RANK_CHECK_ITERATIONS):
        want = want + solver._newton_steps(_rate_jac(want), _rate_state(want)[0])[0]
    assert got[1:2].tobytes() == want.tobytes()


def test_rank_test_reads_the_same_at_any_row_and_column_scale():
    rng = np.random.default_rng(3)
    singular = rng.integers(-4, 5, size=(8, 5, 5)).astype(float)
    singular[:, :, -1] = singular[:, :, 0] + singular[:, :, 1]  # exactly singular
    T = random_tensor((3, 3, 3), 1001, symmetric=True)
    pairs = symmetric_eigenpairs(T, CFG)
    assert pairs and all(pt.nondegenerate for pt in pairs)
    dims, _, grads, blocks = solver._eigen_parts(T.data)
    _, jac = solver._lagrange_fns(dims, 2.0, grads, blocks)
    regular = jac(np.array([np.append(pt.vector, pt.value) for pt in pairs]))
    for J, want in ((singular, True), (regular, False)):
        assert solver._rank_deficient(J).tolist() == [want] * len(J)
        for e in (900, -900):
            # each row, or each column, scaled by 2^e or left as it is
            scales = np.where(rng.random((len(J), J.shape[-1])) < 0.5, e, 0)
            for scaled in (np.ldexp(J, scales[:, :, None]), np.ldexp(J, scales[:, None, :])):
                assert solver._rank_deficient(scaled).tolist() == [want] * len(J)
    # a Jacobian with a non-finite entry is never flagged
    singular[0, 0, 0] = np.inf
    assert solver._rank_deficient(singular[:2]).tolist() == [False, True]


def test_rows_leave_the_active_set_by_every_route_in_one_batch(caplog):
    # Newton carries only its active rows; here each row leaves it by another route
    z0 = np.array([
        [1.5, 0.5, 1.0],  # the full step lands on 1/2: converged
        [1.5, 0.5, 0.5],  # the full step overshoots to -1/2; 2^-1, in the second call, lands on 1/2
        [1.5, 0.5, 2.0**-16],  # only 2^-16, in the third call, passes, and lands on 1/2
        [1.0, 0.2, 1e-320],  # the Newton step overflows: every trial is non-finite, stalled
        [1.5, -1.0, -1.0],  # the step points uphill: no step length passes, stalled
        [1.5, 0.5, 0.01],  # 2^-6 passes five times, in the second call: retired
    ])
    args = (_toy_state, _toy_jac, CFG.gradient_tolerance)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
    assert np.all(got[:3, :2] == 0.5) and np.array_equal(got[3:5], z0[3:5])
    assert got[5, 0] - 0.5 == pytest.approx(-(0.5625**5), rel=1e-12)  # five steps, each scaling by -0.5625
    # iteration 1: the full step on the 6 rows, 2^-1..2^-15 on the 5 it failed,
    # 2^-16..2^-24 on the 3 still failing; iterations 2-5: the creeping row alone, in two
    # calls; each left row is tried no more
    iters, calls, trials, singular, converged, rows, stalled, retired = _newton_counts(caplog)
    assert (iters, calls, trials, singular) == (5, 1 + 3 + 4 * 2, 6 + 5 * 15 + 3 * 9 + 4 * (1 + 15), 0)
    assert (converged, rows, stalled, retired) == (3, 6, 2, 1)
    # a row's result does not depend on the rows that left the batch before it
    for r in range(len(z0)):
        assert solver._damped_newton(z0[r : r + 1], *args).tobytes() == got[r].tobytes()


def test_batch_whose_every_newton_step_is_non_finite_moves_no_row(caplog):
    z0 = np.array([
        [0.5, 0.5, 1.0],  # converged at entry: never active
        [1.0, 0.2, 1e-320],  # each active row's Newton step overflows
        [-1.0, 0.3, 1e-315],
        [1.5, 0.5, 1e-310],
    ])
    args = (_toy_state, _toy_jac, CFG.gradient_tolerance)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
    assert np.array_equal(got, z0)
    # one iteration: the entry state, then each of the three active rows tries all 25
    # step lengths in three calls, fails every Armijo test on a non-finite norm and stalls
    assert _newton_counts(caplog) == [1, 4, 75, 0, 1, 4, 3, 0]


def _toy_jac_flat_near_one(z):
    """diag(j, j, 1) with j = 1e-320 within 1/4 of x = 1, else 2: the step there overflows."""
    J = np.zeros((len(z), 3, 3))
    J[:, 0, 0] = J[:, 1, 1] = np.where(np.abs(z[:, 0] - 1.0) < 0.25, 1e-320, 2.0)
    J[:, 2, 2] = 1.0
    return J


def test_row_that_moved_stalls_on_a_non_finite_step_where_it_got_to(caplog):
    z0 = np.array([
        [1.5, 0.5, 1.0],  # the full step lands on x = 1, where the next step overflows
        [-1.5, 0.5, 1.0],  # halves its distance to 1/2 every iteration and converges
    ])
    args = (_toy_state, _toy_jac_flat_near_one, CFG.gradient_tolerance)
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        got = solver._damped_newton(z0, *args)
    assert got.tobytes() == _ref_damped_newton(z0, *args).tobytes()
    assert got[0].tolist() == [1.0, 0.5, 1.0]
    assert abs(got[1, 0] - 0.5) <= 0.05 * CFG.gradient_tolerance
    converged, rows, stalled, retired = _newton_counts(caplog)[4:]
    assert (converged, rows, stalled, retired) == (1, 2, 1, 0)


def test_singular_jacobian_row_leaves_other_rows_alone():
    # a zero first vector zeroes that row's constraint row of the Jacobian
    z0, state, jac, degree = _raw_rows(solver._tuple_parts(random_tensor((3, 3, 3), 2).data), 2.0, 3, 20)
    bad = z0[:1].copy()
    bad[:, :3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac(bad), np.ones((1, 12, 1)))
    alone = solver._damped_newton(z0, state, jac, CFG.gradient_tolerance, degree)
    mixed = solver._damped_newton(np.concatenate([z0[:7], bad, z0[7:]]), state, jac, CFG.gradient_tolerance, degree)
    assert np.delete(mixed, 7, axis=0).tobytes() == alone.tobytes()


def _singular_jacobians(rng, rows, n):
    """Integer n x n Jacobians, each with a zero row, whose last column is the sum of the first two.

    The zero row gives LU an exact zero pivot (slogdet's sign 0), as a zero
    coordinate of a p = 3 eigenvector does in its Lagrange system's
    Jacobian; the columns give the unit null vector returned beside them.
    """
    J = rng.integers(-4, 5, size=(rows, n, n)).astype(float)
    J[np.arange(rows), np.arange(rows) % n] = 0.0
    J[:, :, -1] = J[:, :, 0] + J[:, :, 1]
    null = np.zeros(n)
    null[[0, 1, -1]] = [1.0, 1.0, -1.0]
    return J, null / np.sqrt(3.0)


@pytest.mark.parametrize("n", [3, 4, 12, 18])
def test_singular_row_steps_stay_in_the_row_space_row_by_row(n):
    rng = np.random.default_rng(n)
    J, null = _singular_jacobians(rng, 40, n)
    F = rng.standard_normal((40, n))
    with np.errstate(divide="ignore"):
        assert np.all(np.linalg.slogdet(J)[0] == 0)  # each takes the singular-row step
    dz, singular = solver._newton_steps(J, F)
    assert singular.all() and dz.tobytes() == solver._regularized_steps(J, F).tobytes()
    # a stack of rows gives each row's bits alone, also beside regular rows
    for r in range(len(J)):
        assert solver._regularized_steps(J[r : r + 1], F[r : r + 1]).tobytes() == dz[r].tobytes()
    regular = rng.standard_normal((3, n, n))
    mixed = np.concatenate([J[:5], regular, J[5:]])
    got, singular = solver._newton_steps(mixed, np.concatenate([F[:5], F[:3], F[5:]]))
    assert singular.tolist() == [True] * 5 + [False] * 3 + [True] * 35
    assert np.delete(got, [5, 6, 7], axis=0).tobytes() == dz.tobytes()
    assert got[5:8].tobytes() == np.linalg.solve(regular, -F[:3, :, None])[..., 0].tobytes()
    # J^T y never moves along the null vector: on a continuum, across it and not along it
    assert np.all(np.abs(dz @ null) <= 1e-12 * np.linalg.norm(dz, axis=1))


def test_singular_row_step_is_the_minimum_norm_step_up_to_its_regularization():
    # along each singular value sigma the step is sigma / (sigma^2 + mu) where pinv's is
    # 1 / sigma: they differ by about mu / sigma^2, mu = eps * sum(sigma^2)
    rng = np.random.default_rng(7)
    for n, rank in [(4, 3), (6, 4), (12, 9), (18, 17)]:
        U, V = (np.linalg.qr(rng.standard_normal((2, n, n)))[0][i] for i in range(2))
        sigma = np.zeros(n)
        sigma[:rank] = np.geomspace(1.0, 1e-4, rank)
        J = (U * sigma) @ V.T
        F = J @ rng.standard_normal(n)  # in J's range
        got = solver._regularized_steps(J[None], F[None])[0]
        want = -np.linalg.pinv(J) @ F  # the minimum-norm step
        bias = np.finfo(float).eps * np.sum(sigma**2) / sigma[rank - 1] ** 2
        assert np.linalg.norm(got - want) <= 1.1 * bias * np.linalg.norm(want)
        assert bias <= 4e-8  # nonzero singular values down to 1e-4 sigma_max


def test_singular_row_steps_read_the_same_at_any_scale():
    rng = np.random.default_rng(3)
    J, _ = _singular_jacobians(rng, 4, 5)
    F = rng.standard_normal((4, 5))
    # every 2^j, j in -900..900, in one stack: rows are independent bit for bit
    j = np.repeat(np.arange(-900, 901), len(J))
    scaled_J, scaled_F = np.ldexp(np.tile(J, (1801, 1, 1)), j[:, None, None]), np.ldexp(np.tile(F, (1801, 1)), j[:, None])
    dz = solver._regularized_steps(scaled_J, scaled_F)
    assert dz.tobytes() == np.tile(solver._regularized_steps(J, F), (1801, 1)).tobytes()


def test_singular_row_step_of_a_zero_or_non_finite_jacobian():
    F = np.array([[1.0, -2.0, 3.0], [1e300, 0.0, -1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dz, singular = solver._newton_steps(np.zeros((2, 3, 3)), F)
    assert singular.all() and np.all(dz == 0.0)
    # a singular J with an inf or NaN entry takes a non-finite step, which the line
    # search refuses (np.linalg.pinv on such a J did not return: numpy 2.4, OpenBLAS)
    J = np.zeros((2, 3, 3))
    J[0, 0, 0], J[1, 0, 0], J[1, 2, 2] = np.inf, np.nan, 1.0
    with solver_policy():
        dz, singular = solver._newton_steps(J, F)
    assert singular.all() and not np.isfinite(dz).any()


def test_a_polish_that_met_a_singular_batch_makes_no_failing_solve_again(monkeypatch):
    # the batched solve would raise on every later batch that still holds a singular
    # row; once one has, each batch goes straight to the split, which solves the
    # regular rows with the same call, so the bits are the row-by-row reference's
    z0, state, jac, degree = _raw_rows(solver._eigen_parts(_diag([1.0, 1.0, 1.0], 3).data), 3.0, 0, 48)
    args = (state, jac, CFG.gradient_tolerance, degree)
    solve, failed = np.linalg.solve, []

    def counted(*a):
        try:
            return solve(*a)
        except np.linalg.LinAlgError:
            failed.append(len(a[0]))
            raise

    monkeypatch.setattr(np.linalg, "solve", counted)
    got = solver._damped_newton(z0, *args)
    assert len(failed) == 1
    assert got.tobytes() == _ref_damped_newton(z0, *args[:3]).tobytes()


def test_singular_jacobians_next_to_huge_entries_warn_nothing():
    # slogdet, which picks the rows for the singular-row step, divides by zero on such
    # Jacobians; the test suite turns every warning into an error
    tuples = singular_tuples(DenseTensor([[1e-300, -1e300], [1e300, 5e-324]]), SolverConfig(restarts=16, seed=81))
    assert all(np.isfinite(t.sigma) for t in tuples)


@pytest.mark.parametrize(
    "solve, tensor",
    [
        (symmetric_eigenpairs, random_tensor((3,) * 4, 1, symmetric=True)),
        (singular_tuples, random_tensor((2, 3, 2, 2), 1)),
    ],
)
def test_polynomial_line_search_at_1e300_warns_nothing(solve, tensor):
    # the coefficients of the ray polynomial overflow there; the prediction is NaN
    # and rules nothing out, and no warning reaches the caller
    points = solve(DenseTensor(1e300 * tensor.data), SolverConfig(restarts=24, seed=5))
    assert all(np.isfinite(pt.residual) for pt in points)


def test_line_search_state_calls_per_newton_iteration(monkeypatch):
    counts = {"state": 0, "jac": 0, "newton": 0}

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counted_fns(*args, lagrange=solver._lagrange_fns):
        state, jac = lagrange(*args)
        return counted(state, "state"), counted(jac, "jac")

    monkeypatch.setattr(solver, "_lagrange_fns", counted_fns)
    monkeypatch.setattr(solver, "_damped_newton", counted(solver._damped_newton, "newton"))
    singular_tuples(random_tensor((4, 5, 6), 5))
    # one polish; one Jacobian per Newton iteration, at most four state calls in one
    # (the full step, the pick and two batches) and at most three on average here,
    # and one initial state call
    assert counts["newton"] == 1 and counts["jac"] > 0
    assert counts["state"] <= 3 * counts["jac"] + counts["newton"]


def test_newton_effort_is_logged_at_debug(caplog, monkeypatch):
    T = random_tensor((3, 4, 5), 2)
    climb, newton = solver._alternating_ascent, solver._damped_newton
    ends, z0s = [], []

    def recorded_climb(*args):
        Ws = climb(*args)
        ends.append(np.concatenate(Ws, axis=1))
        return Ws

    def recorded_newton(z0, *args, **kwargs):
        z0s.append(z0)
        return newton(z0, *args, **kwargs)

    monkeypatch.setattr(solver, "_alternating_ascent", recorded_climb)
    monkeypatch.setattr(solver, "_damped_newton", recorded_newton)
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        singular_tuples(T, CFG)
    iters, calls, trials, singular, converged, rows, stalled, retired = _newton_counts(caplog)
    assert 1 <= calls <= 3 * iters + 1 and singular == 0
    assert calls - 1 <= trials
    assert converged + stalled + retired <= rows
    # one polish: every endpoint of the ascent from the first starts, then all the raw starts
    ((E,), (z0,)) = ends, z0s
    assert rows == len(z0) and converged > 0
    _assert_newton_input(z0, E, CFG.restarts, 1)


def _continuum_of_diag_p3(tensor):
    """The 3x3x3 diagonal's mode-1 solve under the 3-norm, which raises on its continuum."""
    with pytest.raises(DegenerateTensorError, match="continuum witness"):
        generalized_eigenpairs(tensor, 1, SolverConfig(p=3.0))


@pytest.mark.parametrize(
    "solve, tensor",
    [
        (singular_tuples, random_tensor((4, 5, 6), 5)),
        (symmetric_eigenpairs, random_tensor((2, 2, 2, 2), 15, symmetric=True)),
        (_continuum_of_diag_p3, _diag([1.0, 1.0, 1.0], 3)),
    ],
)
def test_newton_tail_ends_under_the_iteration_cap(solve, tensor, caplog):
    # these polishes took 60 and 51 iterations before creeping rows retired, and the
    # diagonal's 60 before slow rows at rank-deficient Jacobians retired, at iteration 20
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        solve(tensor)
    iters, *_, retired = _newton_counts(caplog, first=True)
    most = 21 if solve is _continuum_of_diag_p3 else solver._NEWTON_ITERATIONS // 2
    assert iters <= most and retired > 0


# --- batch kernels ---------------------------------------------------------

KERNEL_SHAPES = [(3, 4), (5, 5), (3, 3, 3), (4, 5, 6), (4, 4, 4, 4), (2, 3, 4, 3), (3, 2, 3, 2, 2)]


def _kept_last(data, vs, keep):
    """The mode-last chain: data with the ``keep`` modes moved last, contracted in the rest."""
    rest = [m for m in range(data.ndim) if m not in keep]
    D = np.ascontiguousarray(np.moveaxis(data, keep, range(-len(keep), 0)))
    out = solver._contract_leading(D, [vs[m] for m in rest])
    return np.broadcast_to(out, (len(vs[0]),) + out.shape[1:])


def _kernel_outputs(data, vs):
    """Every batch kernel: the mode-last chain for each kept mode and pair, and both trees."""
    k = data.ndim
    out = {"eval": solver._dot_rows(solver._contract_leading(data, vs[:-1]), vs[-1])}  # f per row
    for i, g in enumerate(solver._batch_mode_grads(data, vs)):
        out[("grads", i)] = g
    for (i, r), B in solver._batch_pair_jacs(data, vs).items():
        out[("pairs", i, r)] = B
    for i in range(k):
        out[("grad", i)] = _kept_last(data, vs, [i])
        for r in range(k):
            if r != i:
                out[("pair", i, r)] = _kept_last(data, vs, [i, r])
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
    # the shared trees sum in another order than the mode-last chain
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
        H = k * (k - 1) * solver._contract_leading(S.data, [V] * (k - 2))
        H = np.broadcast_to(H, (6,) + H.shape[1:])
        for z in range(6):
            np.testing.assert_allclose(
                (H[z] + H[z].T) / 2, sym_hessian(S, V[z]), rtol=1e-12, atol=1e-12 * scale * k * k
            )


def _whole_tensor_contractions(monkeypatch, data):
    """A list that gains one entry per einsum call with an operand sharing memory with data."""
    calls = []
    einsum = np.einsum

    def counted(subscripts, *operands, **kwargs):
        if any(np.shares_memory(op, data) for op in operands):
            calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return calls


@pytest.mark.parametrize("shape", [(4, 5, 6), (2, 3, 4, 3)])
def test_singular_system_contracts_the_whole_tensor_twice_per_state_call(shape, monkeypatch):
    data = random_tensor(shape, 1).data
    z, _ = _row_blocks(shape, 5, seed=2)
    state, jac, _ = _newton_system(solver._tuple_parts(data), 2.0)
    calls = _whole_tensor_contractions(monkeypatch, data)
    state(z)
    assert len(calls) == 2
    calls.clear()
    jac(z)
    assert len(calls) == 3


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4, 4), (3, 3, 3, 3, 3)])
def test_eigen_system_contracts_the_whole_tensor_once_per_jacobian(shape):
    # symmetric or not: the solver hands the Jacobian a tensor symmetric in its leading modes
    n = shape[0]
    z = np.random.default_rng(2).standard_normal((5, n + 1))
    for data in (_leading_mean(random_tensor(shape, 1).data), random_tensor(shape, 1, symmetric=True).data):
        state, jac, _ = _newton_system(solver._eigen_parts(data), 2.0)
        with pytest.MonkeyPatch.context() as mp:
            calls = _whole_tensor_contractions(mp, data)
            state(z)
            assert len(calls) == 1
            calls.clear()
            jac(z)
            assert len(calls) == 1


@pytest.mark.parametrize("dims", [(3,), (4, 5, 6), (2, 3, 4, 3)])
@pytest.mark.parametrize("seed, p", [(7, 3.0), (-1, 2.0)])
def test_random_starts_are_prefix_stable(dims, seed, p):
    # restart r is the same row whatever the restart count, so a larger count extends the search
    short = solver._random_starts(seed, 37, dims, p)
    long = solver._random_starts(seed, 200, dims, p)
    assert len(short) == len(long) == len(dims)
    for V, W, n in zip(short, long, dims):
        assert V.shape == (37, n) and W.shape == (200, n)
        assert V.tobytes() == W[:37].tobytes()
        np.testing.assert_allclose(np.sum(np.abs(W) ** p, axis=1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("p", [200.0, 600.0, 1000.0])
def test_random_starts_are_unit_rows_at_large_p(p):
    # the plain sum of |v|^p overflowed or underflowed: 3 of 200 rows were zero or NaN at
    # p = 600 and 26 at p = 1000
    with solver_policy():
        (V,) = solver._random_starts(0, 200, (3,), p)
    assert np.all(np.isfinite(V)) and np.all(np.any(V != 0, axis=1))
    np.testing.assert_allclose([p_norm(v, p) for v in V], 1.0, rtol=1e-12)


def test_unit_rows_keep_in_range_rows_bit_for_bit():
    V = np.random.default_rng(5).standard_normal((40, 4))
    V[:5] *= 1e200
    V[5:10] *= 1e-200
    V[10] = 0.0
    V[11, 2] = np.nan
    V[12, 0] = np.inf
    bad = np.arange(40) >= 10
    bad[13:] = False
    for p in (1.5, 2.0, 3.0, 200.0):
        with solver_policy():
            U, ok = solver._unit_rows(V, p)
            s = np.sum(np.abs(V) ** p, axis=1)
        assert np.array_equal(ok, ~bad)
        np.testing.assert_allclose([p_norm(u, p) for u in U[ok]], 1.0, rtol=1e-12)
        plain = np.isfinite(s) & (s >= np.finfo(float).tiny)
        assert plain[13:].all()
        assert U[plain].tobytes() == (V[plain] / (s[plain] ** (1.0 / p))[:, None]).tobytes()


def test_symmetric_solve_at_large_p_warns_nothing():
    # the ascent's plain p-norm raised "overflow encountered in power" under warnings as errors
    pairs = generalized_eigenpairs(random_tensor((4, 4, 4), 1, symmetric=True), 0, SolverConfig(p=200.0))
    assert pairs
    for pt in pairs:
        assert abs(p_norm(pt.vector, 200.0) - 1.0) <= 1e-12


def test_matrix_pair_jacobian_is_a_broadcast_view():
    M = random_tensor((3, 4), 8).data
    _, vs = _row_blocks((3, 4), 5, seed=1)
    J = solver._batch_pair_jacs(M, vs)[0, 1]
    Jt = np.swapaxes(J, 1, 2)
    lead = solver._contract_leading(M, [])  # the eigen Jacobian of a matrix
    assert J.shape == (5, 3, 4) and Jt.shape == (5, 4, 3) and lead.shape == (1, 3, 4)
    assert np.shares_memory(J, M) and np.shares_memory(Jt, M) and np.shares_memory(lead, M)
    assert all(np.array_equal(J[z], M) and np.array_equal(Jt[z], M.T) for z in range(5))
    assert np.array_equal(lead[0], M)


def _ref_ascend(S, V0, p, sign):
    """The ascent before it carried gradients or stacked signs: one sign, a fresh gradient every iteration.

    It still caps the step at 10, which no trial step of _ASCENT_ITERATIONS iterations reaches.
    """
    k = S.ndim

    def gradient(V):
        return k * solver._contract_leading(S, [V] * (k - 1))

    def value(V):
        return sign * solver._dot_rows(solver._contract_leading(S, [V] * (k - 1)), V)

    V = V0.copy()
    step = np.full(V.shape[0], solver._INITIAL_STEP)
    f = value(V)
    for _ in range(solver._ASCENT_ITERATIONS):
        G = gradient(V)
        W = V + sign * step[:, None] * G
        nrm = np.sum(np.abs(W) ** p, axis=1) ** (1.0 / p)
        ok = np.isfinite(nrm) & (nrm > 1e-300)
        W[ok] /= nrm[ok, None]
        W[~ok] = V[~ok]
        fW = value(W)
        better = fW > f + 1e-15
        V[better] = W[better]
        f[better] = fW[better]
        step[better] = np.minimum(step[better] * solver._STEP_GROW, 10.0)
        step[~better] *= solver._STEP_SHRINK
    return V


def _signed_ascent(caplog, S, p):
    """(starts V0, result, whole-tensor contractions, iterations) of one ascent over [V0; V0], signs +1 then -1."""
    (V0,) = solver._random_starts(3, 50, S.shape[:1], p)
    caplog.clear()
    with pytest.MonkeyPatch.context() as mp, caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        calls = _whole_tensor_contractions(mp, S)
        V = solver._ascend(S, np.concatenate([V0, V0]), p, np.repeat([1.0, -1.0], 50))
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("projected ascent")]
    iters, improved, moving, rows = map(int, re.findall(r"\d+", line)[:4])
    assert improved <= rows and moving <= rows and rows == 100
    return V0, V, len(calls), iters


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4, 4), (5, 5, 5), (6, 6, 6), (2, 2, 2, 2, 2), (4, 4, 4)])
def test_ascent_makes_one_contraction_per_iteration(shape, p, caplog):
    # one signed ascent equals one ascent per sign, bit for bit
    for S in (random_tensor(shape, 6, symmetric=True).data, symmetrize(random_tensor(shape, 6)).data):
        V0, V, contractions, iters = _signed_ascent(caplog, S, p)
        assert iters == solver._ASCENT_ITERATIONS and contractions == iters + 1
        ref = np.concatenate([_ref_ascend(S, V0, p, 1.0), _ref_ascend(S, V0, p, -1.0)])
        assert V.tobytes() == ref.tobytes()


def test_ascent_keeps_rows_that_do_not_normalize():
    # a zero row's trial point is zero: it stays put while the other rows climb, in place
    S = random_tensor((3, 3, 3), 2, symmetric=True).data
    (V0,) = solver._random_starts(4, 6, (3,), 2.0)
    V0[[1, 4]] = 0.0
    sign = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    with solver_policy():
        V = solver._ascend(S, V0, 2.0, sign)
    ref = np.concatenate([_ref_ascend(S, V0[:3], 2.0, 1.0), _ref_ascend(S, V0[3:], 2.0, -1.0)])
    assert V.tobytes() == ref.tobytes()
    assert not V[[1, 4]].any() and np.all(V[[0, 2, 3, 5]] != V0[[0, 2, 3, 5]])


def _alternating_line(caplog, data, starts, p):
    """(endpoints, sweeps, the largest move of the last sweep as logged, rows) of one logged alternating ascent."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        ends = solver._alternating_ascent(data, starts, p)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("alternating ascent")]
    pattern = r"alternating ascent: (\d+) sweeps, largest move (\S+) in the last, (\d+) rows"
    m = re.fullmatch(pattern, line)
    return ends, int(m[1]), m[2], int(m[3])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("shape", [(4, 5, 6), (3, 3, 3), (2, 3, 4, 3), (5, 6)])
def test_alternating_ascent_logs_its_last_sweep(shape, p, caplog, monkeypatch):
    data = random_tensor(shape, 8).data
    starts = solver._random_starts(3, 50, shape, p)
    ends, sweeps, largest, rows = _alternating_line(caplog, data, starts, p)
    assert (sweeps, rows) == (solver._ALTERNATING_SWEEPS, 50)
    # the largest move is the farthest any tuple lies from where it was one sweep fewer
    monkeypatch.setattr(solver, "_ALTERNATING_SWEEPS", sweeps - 1)
    before, *_ = _alternating_line(caplog, data, starts, p)
    step = np.linalg.norm(np.concatenate(ends, axis=1) - np.concatenate(before, axis=1), axis=1)
    assert largest == f"{np.max(step):.3g}"


def _eigen_stages(T, monkeypatch, caplog):
    """Of a mode-2 solve: (rows, whole-tensor contractions, endpoints, iterations) per ascent, start rows per Newton."""
    ascend, newton = solver._ascend, solver._damped_newton
    ascents, newtons = [], []

    def counted_ascend(S, V0, p, sign):
        with pytest.MonkeyPatch.context() as mp:
            calls = _whole_tensor_contractions(mp, S)
            V = ascend(S, V0, p, sign)
        ascents.append((len(V0), len(calls), V))
        return V

    def counted_newton(z0, *args, **kwargs):
        newtons.append(z0)
        return newton(z0, *args, **kwargs)

    monkeypatch.setattr(solver, "_ascend", counted_ascend)
    monkeypatch.setattr(solver, "_damped_newton", counted_newton)
    with caplog.at_level(logging.DEBUG, logger="tensorcrit.solver"):
        assert mode_eigenpairs(T, 2, CFG)
    (continuum,) = _continuum_lines(caplog)
    assert _counts(continuum)[1] == 0  # no flagged point, so no witness Newton
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("projected ascent")]
    iters = [int(re.findall(r"\d+", line)[0]) for line in lines]
    return [a + (i,) for a, i in zip(ascents, iters, strict=True)], newtons


def _assert_newton_input(z0, ends, restarts, signs):
    """Newton starts from every endpoint of the ascent over the first starts, as it left them, then every start."""
    climbed = signs * min(restarts, solver._ASCENT_STARTS)
    assert len(ends) == climbed and len(z0) == climbed + restarts
    assert z0[:climbed, : ends.shape[1]].tobytes() == ends.tobytes()


def _assert_one_ascent_and_one_newton(stages):
    ((rows, contractions, ends, iters),), (z0,) = stages
    # both signs in one batch, one contraction per iteration whatever the tensor
    assert rows == 2 * CFG.restarts and contractions == iters + 1
    # one polish: all the endpoints, both signs in one pass, then the raw starts
    _assert_newton_input(z0, ends, CFG.restarts, 2)


@pytest.mark.parametrize("symmetric", [True, False])
def test_eigen_solve_runs_one_ascent_and_one_newton(symmetric, monkeypatch, caplog):
    stages = _eigen_stages(random_tensor((4, 4, 4), 9, symmetric=symmetric), monkeypatch, caplog)
    if symmetric:
        _assert_one_ascent_and_one_newton(stages)
    else:
        # no form has the mode pairs of a non-symmetric tensor as its critical points,
        # so there is no ascent and the one Newton polishes the raw starts alone
        ascents, newtons = stages
        assert ascents == [] and [len(z0) for z0 in newtons] == [CFG.restarts]


def test_nearly_symmetric_tensor_still_climbs(monkeypatch, caplog):
    # the switch is is_symmetric's tolerance, not exact symmetry
    data = random_tensor((4, 4, 4), 9, symmetric=True).data.copy()
    data[0, 1, 2] += 1e-13
    T = DenseTensor(data)
    assert is_symmetric(T) and max_asymmetry(T) > 0.0
    _assert_one_ascent_and_one_newton(_eigen_stages(T, monkeypatch, caplog))


class _Polish(Exception):
    """Raised in place of the polish, with the rows it would start from."""


def _capped_stages(solve, T, ascent, restarts, monkeypatch):
    """Of one solve stopped before Newton: (rows the ascent climbed, its endpoint rows, Newton's start rows)."""
    climb = getattr(solver, ascent)
    climbed = []

    def rows(X):  # the eigen ascent takes one array, the alternating one a list per sphere
        return np.concatenate(X, axis=1) if isinstance(X, list) else X

    def recorded(data, V0, *args):
        ends = climb(data, V0, *args)
        climbed.append((len(rows(V0)), rows(ends)))
        return ends

    def stop(z0, *args, **kwargs):
        raise _Polish(z0)

    monkeypatch.setattr(solver, ascent, recorded)
    monkeypatch.setattr(solver, "_damped_newton", stop)
    with pytest.raises(_Polish) as polish:
        solve(T, SolverConfig(restarts=restarts))
    ((climbed_rows, ends),) = climbed
    return climbed_rows, ends, polish.value.args[0]


@pytest.mark.parametrize(
    "solve, T, ascent, signs",
    [
        (symmetric_eigenpairs, random_tensor((4, 4, 4), 9, symmetric=True), "_ascend", 2),
        (singular_tuples, random_tensor((3, 4, 5), 2), "_alternating_ascent", 1),
    ],
)
def test_ascent_climbs_only_the_first_starts(solve, T, ascent, signs, monkeypatch):
    dims = T.shape[:1] if signs == 2 else T.shape
    polished = {}
    for restarts in (64, 200, 800):
        rows, ends, z0 = _capped_stages(solve, T, ascent, restarts, monkeypatch)
        assert rows == signs * solver._ASCENT_STARTS
        # Newton polishes every endpoint as the ascent left it, then every raw start
        _assert_newton_input(z0, ends, restarts, signs)
        starts = np.concatenate(solver._random_starts(0, restarts, dims, 2.0), axis=1)
        assert z0[rows:, : starts.shape[1]].tobytes() == starts.tobytes()
        polished[restarts] = z0[:rows].tobytes()
    # the starts are prefix-stable, so more restarts only add raw starts
    assert polished[64] == polished[200] == polished[800]


# Seeds used nowhere else; at the default config the solvers found both extreme
# values of all 150 symmetric tensors 160000 + s (s < 30, these five shapes) and
# the largest sigma of all 30 tensors 161000 + s of shape 4x5x6.
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (6, 6, 6), (3, 3, 3, 3), (4, 4, 4, 4)])
def test_default_effort_finds_the_extreme_values(shape):
    for seed in (140000, 140001):
        T = random_tensor(shape, seed, symmetric=True)
        values = [pt.value for pt in sphere_critical_points(T).points]
        found = [pair.value for pair in symmetric_eigenpairs(T)]
        assert max(found) == pytest.approx(max(values), abs=1e-9)
        assert min(found) == pytest.approx(min(values), abs=1e-9)


# An ascent with no step control (a fixed step of 2 / 2^e, e the exponent of
# max|T|, every trial taken) missed 2 to 4 extrema of each of these tensors at 64
# restarts; the extreme values above did not notice.
@pytest.mark.parametrize(
    ("shape", "seed"),
    [((4,) * 4, 524042), ((5,) * 4, 524050), ((5,) * 4, 524051), ((4,) * 5, 525041), ((7,) * 3, 523070)],
)
def test_eigen_ascent_seeds_every_extremum(shape, seed):
    T = random_tensor(shape, seed, symmetric=True)
    extrema = [pt.vector for pt in sphere_critical_points(T).points if pt.index in (0, shape[0] - 1)]
    found = np.array([pair.vector for pair in symmetric_eigenpairs(T, SolverConfig(restarts=64))])
    missed = [v for v in extrema if np.min(np.linalg.norm(found - v, axis=1)) > solver._DEDUPE_TOLERANCE]
    assert extrema and missed == []


def test_default_effort_finds_the_largest_singular_value():
    T = random_tensor((4, 5, 6), 141000)
    best = singular_tuples(T, SolverConfig(restarts=3200))[0].sigma
    assert singular_tuples(T)[0].sigma == pytest.approx(best, abs=1e-9)


def test_short_alternating_ascent_keeps_the_largest_singular_value():
    # a seed first tried after the sweeps were cut from 40 to 10
    T = random_tensor((4, 5, 6), 142000)
    best = singular_tuples(T, SolverConfig(restarts=3200))[0].sigma
    assert singular_tuples(T)[0].sigma == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("shape", [(4, 5, 6), (3, 3, 3), (2, 3, 4, 3), (3, 4), (5, 6)])
def test_singular_sign_flip_negates_the_value_exactly(shape):
    data = random_tensor(shape, 7).data
    Ws = solver._random_starts(3, 200, shape, 2.0)
    grads = solver._batch_mode_grads(data, Ws)
    raw = solver._dot_rows(grads[0], Ws[0])
    flip = raw < 0
    assert flip.any() and not flip.all()
    Ws[0] = np.where(flip[:, None], -Ws[0], Ws[0])
    fresh = solver._batch_mode_grads(data, Ws)
    assert np.where(flip, -raw, raw).tobytes() == solver._dot_rows(fresh[0], Ws[0]).tobytes()
    assert fresh[0].tobytes() == grads[0].tobytes()
    for g, h in zip(grads[1:], fresh[1:]):
        assert np.where(flip[:, None], -g, g).tobytes() == h.tobytes()


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("p", [2.0, 3.0, 1.5])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_antipodal_completion_after_acceptance_is_exact(k, p, symmetric):
    # accepting [V; -V] is accepting V, then v -> -v and lam -> (-1)^k lam, byte for byte;
    # the rows are raw, not unit: random ones and the stationary ones scaled by 2.5
    n = 3 if k < 5 else 2
    T = random_tensor((n,) * k, 20 + k, symmetric=symmetric)
    D = T.data if symmetric else _orbit_mean(T.data, _orbit_ids(T.shape, k - 1))
    grads = solver._eigen_parts(D)[2]
    found = generalized_eigenpairs(T, k, SolverConfig(restarts=20, p=p))
    assert found
    rng = np.random.default_rng(k)
    V = np.concatenate([rng.standard_normal((40, n)), 2.5 * np.array([pt.vector for pt in found])])
    loose = np.median(solver._accept(grads, [V], p, np.inf)[2])
    sign = (-1.0) ** k
    for gtol in (loose, SolverConfig().gradient_tolerance):
        (W,), lam, resid, mults = solver._accept(grads, [V], p, gtol)
        assert 0 < len(W) < len(V)
        (W2,), lam2, resid2, mults2 = solver._accept(grads, [np.concatenate([V, -V])], p, gtol)
        assert W2.tobytes() == np.concatenate([W, -W]).tobytes()
        assert lam2.tobytes() == np.concatenate([lam, sign * lam]).tobytes()
        assert resid2.tobytes() == np.concatenate([resid, resid]).tobytes()
        assert mults2.tobytes() == np.concatenate([mults, sign * mults]).tobytes()


def _top_level_callers(source, names):
    """{name: the top-level functions of source whose bodies, nested ones included, call it}."""
    callers = {name: set() for name in names}
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(fn.name)
    return callers


SEARCH_STAGES = ("_random_starts", "_lagrange_fns", "_accept", "_check_continuum")


def test_one_search_driver_runs_both_problems():
    source = inspect.getsource(solver)
    assert _top_level_callers(source, SEARCH_STAGES) == {name: {"_search"} for name in SEARCH_STAGES}
    # the problems hand _search a system and closures; no polish, acceptance, dedupe or check of their own
    stages = _top_level_callers(source, ("_damped_newton", "_leaders", "_dedupe_rows") + SEARCH_STAGES)
    assert not any({"_eigen_run", "singular_tuples"} & fns for fns in stages.values())
    # one clusterer with one job: the search clusters nothing before Newton
    assert stages["_leaders"] == {"_dedupe_rows"}


def test_search_driver_guard_sees_calls_in_closures():
    source = "def f():\n    _accept(1)\n\n\ndef g():\n    def h():\n        return _accept(2)\n"
    assert _top_level_callers(source, ["_accept", "_leaders"]) == {"_accept": {"f", "g"}, "_leaders": set()}


POLICY_ENTRIES = ("_eigen_run", "singular_tuples", "residual_eigen", "classify_index", "dedupe")


def _errstate_uses(source):
    """({function: its errstate decorators, unparsed}, how often the name errstate occurs) in source."""
    tree = ast.parse(source)
    decorators = {
        fn.name: [ast.unparse(d) for d in fn.decorator_list if "errstate" in ast.unparse(d)]
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    names = [getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(tree)]
    return {name: d for name, d in decorators.items() if d}, names.count("errstate")


def test_floating_point_policy_is_set_once_at_each_public_entry():
    # the internals set no errstate of their own: the policy is the module docstring's one rule
    decorated, uses = _errstate_uses(inspect.getsource(solver))
    assert decorated == {name: ["np.errstate(all='ignore')"] for name in POLICY_ENTRIES}
    assert uses == len(POLICY_ENTRIES)  # no with block, call or alias anywhere else


def test_floating_point_policy_guard_sees_blocks_and_aliases():
    source = (
        "@np.errstate(all='ignore')\ndef f():\n    with np.errstate(over='ignore'):\n        pass\n\n\n"
        "ignore = errstate\n"
    )
    assert _errstate_uses(source) == ({"f": ["np.errstate(all='ignore')"]}, 3)


def _pinv_uses(source):
    """How often the name pinv occurs in source: as an attribute, a name or an import."""
    nodes = ast.walk(ast.parse(source))
    names = [getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "name", None) for n in nodes]
    return names.count("pinv")


def test_no_module_takes_a_pseudo_inverse():
    # every Newton step comes from _newton_steps, and pinv, an SVD, does not return on a
    # non-finite matrix (see test_singular_row_step_of_a_zero_or_non_finite_jacobian)
    assert _pinv_uses("from numpy.linalg import pinv\n\n\ndef f(J):\n    return np.linalg.pinv(J) @ pinv(J)\n") == 3
    for path in sorted(pathlib.Path(solver.__file__).parent.glob("*.py")):
        assert _pinv_uses(path.read_text()) == 0, path.name


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (3, 3, 3, 3)])
def test_mode_i_pairs_are_the_last_mode_pairs_with_mode_i_moved_last(shape, p):
    T = random_tensor(shape, 12)
    k = len(shape)
    cfg = SolverConfig(restarts=30, seed=1, p=p)
    for i in range(1, k + 1):
        got = generalized_eigenpairs(T, i, cfg)
        ref = generalized_eigenpairs(DenseTensor(np.moveaxis(T.data, i - 1, -1)), k, cfg)
        assert got and len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.mode == i and b.mode == k
            assert a.vector.tobytes() == b.vector.tobytes()
            assert (a.value, a.residual, a.near_zero_coords) == (b.value, b.residual, b.near_zero_coords)


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


def test_singular_degenerate_flag_at_large_entries():
    # the flag compares sigma with the tensor's 2-norm, which must not overflow to inf
    data = 1e160 * random_tensor((3, 3), 1).data
    tuples = singular_tuples(DenseTensor(data), SolverConfig(restarts=8, gradient_tolerance=1e152))
    assert tuples and tuples[0].sigma == pytest.approx(np.linalg.svd(data, compute_uv=False)[0], rel=1e-9)
    assert not any(t.degenerate for t in tuples)


@pytest.mark.parametrize("sweeps", [10, 3, 1])
def test_newton_moves_rows_whose_squared_norm_overflows(sweeps, monkeypatch):
    # residual rows of 1e160 square past the largest float; Newton must still
    # polish them, however little the ascent did first
    monkeypatch.setattr(solver, "_ALTERNATING_SWEEPS", sweeps)
    data = 1e160 * random_tensor((3, 3), 1).data
    tuples = singular_tuples(DenseTensor(data), SolverConfig(restarts=8, gradient_tolerance=1e152))
    sigmas = sorted({float(f"{t.sigma:.9g}") for t in tuples}, reverse=True)
    np.testing.assert_allclose(sigmas, svd_small(data)[0], rtol=1e-8)


def test_row_norms_redo_only_the_rows_that_overflow():
    D = np.array([[3.0, 4.0], [3e200, 4e200], [np.inf, 1.0], [np.nan, 1.0], [1e-200, 0.0]])
    with solver_policy():
        d, norm = solver._row_dist(D), np.linalg.norm(D, axis=1)
    # the non-finite rows and the underflowing one come out as np.linalg.norm's
    np.testing.assert_array_equal(np.delete(d, 1), np.delete(norm, 1))
    assert norm[1] == np.inf and d[1] == pytest.approx(5e200, rel=1e-15)
    E = np.random.default_rng(3).standard_normal((50, 4))
    assert np.array_equal(solver._row_dist(E), np.linalg.norm(E, axis=1))


# The baseline is 2^500, not 2^0: gradient_tolerance is in tensor units (ROADMAP item 7), so
# scaling T and the tolerance together moves a few points (3x4x5 gives 98 tuples at 2^0 and 100
# at 2^500). Above 2^500 the acceptance residuals square past the largest float; the parent's
# np.linalg.norm kept 4 of 10 pairs of the 3^3 tensor at 2^900 and none of the others' points.
@pytest.mark.parametrize(
    "solve, shape, p",
    [(symmetric_eigenpairs, (3, 3, 3), 2.0), (symmetric_eigenpairs, (4, 4, 4), 2.0),
     (singular_tuples, (3, 4, 5), 2.0), (singular_tuples, (3, 3), 2.0), (singular_tuples, (3, 3, 3), 3.0)],
    ids=["sym-3^3", "sym-4^3", "svd-3x4x5", "svd-3x3", "svd-3^3-p3"],
)
def test_acceptance_keeps_the_points_of_huge_tensors(solve, shape, p):
    T = random_tensor(shape, 5, symmetric=solve is symmetric_eigenpairs)

    def count(j):
        config = SolverConfig(gradient_tolerance=math.ldexp(1e-10, j), p=p)
        return len(solve(DenseTensor(np.ldexp(T.data, j)), config))

    assert [count(900), count(1000)] == [count(500)] * 2


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
    # a ShapeError, as from the eigen solvers; it is still a ValueError
    with pytest.raises(ShapeError, match="order >= 2"):
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
