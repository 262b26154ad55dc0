"""Contract tests: every input ends in verified points, a typed error or a documented exit code.

The draws are fixed in number, and derandomized by the profile conftest.py loads, so every
run tries the same cases.
"""

import contextlib
import io
import json
import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorcrit import DegenerateTensorError, DenseTensor, EigenPair, ShapeError, SolverConfig, classify_index, dedupe
from tensorcrit import evaluate, euler_residual, generalized_eigenpairs, is_symmetric, max_asymmetry, mode_eigenpairs
from tensorcrit import mode_gradient, p_norm, p_norm_gradient, phi, random_tensor, residual_eigen, singular_tuples
from tensorcrit import sym_gradient, sym_hessian, symmetric_eigenpairs, symmetrize, unit_normalize, write_tensor_file
from tensorcrit.cli import main
from tensorcrit.morse import IndexHistogram
from tensorcrit.norms import MAX_NORM_PARAM, check_norm_param
from tensorcrit.oracle import circle_critical_points, jacobi_eigen, svd_small

# zeros, units, 1e300, subnormals, and values whose squares overflow or underflow
ENTRIES = [0.0, 1.0, -1.0, 0.5, 3.0, 1e300, -1e300, 1e-300, 5e-324, 1e154, 1e-160]
CONTRACT = settings(max_examples=120)


@st.composite
def cases(draw):
    """(tensor, problem): None for tuples, 0 for the symmetric problem, else a mode (k + 1 too).

    Orders 2-4, dimensions 1-3; half the shapes are square and half of those symmetric,
    so that the eigen solvers get inputs to solve, not only to refuse.
    """
    k, square, n = draw(st.integers(2, 4)), draw(st.booleans()), draw(st.sampled_from([2, 3, 1]))
    shape = (n,) * k if square else tuple(draw(st.integers(1, 3)) for _ in range(k))
    size = math.prod(shape)
    entries = [0.0] * size
    if draw(st.booleans()):
        entries = draw(st.lists(st.sampled_from(ENTRIES), min_size=size, max_size=size))
    else:
        entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from(ENTRIES))
    T = DenseTensor(np.reshape(entries, shape))
    return symmetrize(T) if square and draw(st.booleans()) else T, draw(st.sampled_from([None, *range(k + 2)]))


@CONTRACT
@given(cases(), st.sampled_from([1.5, 2.0, 3.0]), st.integers(1, 12), st.integers(0, 3))
@example((DenseTensor(np.arange(1.0, 7.0).reshape(2, 1, 3)), None), 2.0, 8, 0)
@example((DenseTensor(np.arange(1.0, 7.0).reshape(1, 1, 3, 2)), None), 2.0, 8, 0)
def test_every_solve_ends_in_verified_points_or_a_typed_error(case, p, restarts, seed):
    (tensor, problem), config = case, SolverConfig(restarts=restarts, seed=seed, p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is an outcome outside the contract
        try:
            found = (singular_tuples(tensor, config) if problem is None
                     else generalized_eigenpairs(tensor, problem, config))
        except (ValueError, DegenerateTensorError):  # ShapeError is a ValueError
            return
    # every point re-verifies through the core contractions, up to rounding at max|T|
    bound = config.gradient_tolerance + 1e-12 * float(np.max(np.abs(tensor.data)))
    for pt in found:
        if problem is None:
            assert math.isfinite(pt.sigma) and pt.sigma >= 0.0
            for i, v in enumerate(pt.vectors):
                assert abs(p_norm(v, p) - 1.0) <= 1e-8
                assert p_norm(mode_gradient(tensor, pt.vectors, i + 1) - pt.sigma * phi(v, p - 1.0), 2.0) <= bound
        else:
            assert math.isfinite(pt.value) and pt.mode == problem
            assert residual_eigen(tensor, pt.vector, pt.value, problem, p) <= bound


def _cli(argv):
    """(exit code, stdout, stderr) of an in-process run; any exception but argparse's exit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@CONTRACT
@given(cases(), st.sampled_from(["1.5", "2", "3"]), st.integers(1, 12), st.booleans())
def test_cli_exits_with_a_documented_code(tmp_path_factory, case, p, restarts, audit):
    tensor, problem = case
    tensor_file = tmp_path_factory.getbasetemp() / "contract.json"
    write_tensor_file(tensor, tensor_file)
    argv = ["svd"] if problem is None else ["eig", "--symmetric"] if problem == 0 else ["eig", "--mode", str(problem)]
    argv += ["--audit"] * (audit and problem is not None) + [str(tensor_file), "--p", p, "--restarts", str(restarts)]
    code, out, err = _cli(argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err, err
    if code in (0, 3):
        assert json.loads(out)["command"] == argv[0]


def _integer(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite_real(x):
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # 10**400
        return False


# Every public argument that is a number, an integer, a shape entry or a vector entry, with what
# it may accept: a non-integer is never a shape, a mode or a seed.  A scalar is never a shape.
M, E1 = DenseTensor(np.diag([1.0, 2.0])), [1.0, 0.0]  # E1 is an eigenvector of M with value 1
ARGUMENTS = {
    "check_norm_param": (_finite_real, check_norm_param),
    "p_norm p": (_finite_real, lambda x: p_norm([3.0, 4.0], x)),
    "phi p": (_finite_real, lambda x: phi([3.0, -4.0], x)),
    "unit_normalize p": (_finite_real, lambda x: unit_normalize([3.0, 4.0], x)),
    "p_norm_gradient p": (_finite_real, lambda x: p_norm_gradient([3.0, 4.0], x)),
    "SolverConfig restarts": (_integer, lambda x: SolverConfig(restarts=x)),
    "SolverConfig seed": (_integer, lambda x: SolverConfig(seed=x)),
    "SolverConfig gradient_tolerance": (_finite_real, lambda x: SolverConfig(gradient_tolerance=x)),
    "SolverConfig p": (_finite_real, lambda x: SolverConfig(p=x)),
    "dedupe tol": (_finite_real, lambda x: dedupe([], x)),
    "residual_eigen value": (_finite_real, lambda x: residual_eigen(M, E1, x, 1)),
    "residual_eigen mode": (_integer, lambda x: residual_eigen(M, E1, 1.0, x)),
    "classify_index value": (_finite_real, lambda x: classify_index(M, E1, x)),
    "classify_index residual_tolerance": (_finite_real, lambda x: classify_index(M, E1, 1.0, x)),
    "mode_gradient mode": (_integer, lambda x: mode_gradient(M, [E1, E1], x)),
    "generalized_eigenpairs mode": (_integer, lambda x: generalized_eigenpairs(M, x, SolverConfig(restarts=2))),
    "from_flat dimension": (_integer, lambda x: DenseTensor.from_flat((x,), [1.0, 2.0])),
    "from_flat shape": (lambda x: False, lambda x: DenseTensor.from_flat(x, [1.0, 2.0])),
    "random_tensor dimension": (_integer, lambda x: random_tensor((x, 2), 0)),
    "random_tensor shape": (lambda x: False, lambda x: random_tensor(x, 0)),
    "random_tensor seed": (_integer, lambda x: random_tensor((2,), x)),
    "evaluate vector entry": (_finite_real, lambda x: evaluate(M, [[x, 1.0], E1])),
    "evaluate vectors": (lambda x: False, lambda x: evaluate(M, x)),
    "mode_gradient vector": (lambda x: False, lambda x: mode_gradient(M, [x, E1], 1)),
    "mode_gradient vectors": (lambda x: False, lambda x: mode_gradient(M, x, 1)),
    "sym_hessian vector entry": (_finite_real, lambda x: sym_hessian(M, [x, 1.0])),
    "p_norm vector": (lambda x: False, lambda x: p_norm(x, 2.0)),
    "p_norm object-array entry": (_finite_real, lambda x: p_norm(np.array([x, 1.0], dtype=object), 2.0)),
    "DenseTensor entry": (_finite_real, lambda x: DenseTensor([x, 1.0])),
    # None is the default search; 0, False, "" or {} must not stand for it
    "symmetric_eigenpairs config": (lambda x: x is None, lambda x: symmetric_eigenpairs(M, x)),
    "mode_eigenpairs config": (lambda x: x is None, lambda x: mode_eigenpairs(M, 1, x)),
    "generalized_eigenpairs config": (lambda x: x is None, lambda x: generalized_eigenpairs(M, 1, x)),
    "singular_tuples config": (lambda x: x is None, lambda x: singular_tuples(M, x)),
}
VALUES = [True, None, "2", 2.7, 0, -1, 10**400, math.nan, math.inf, np.int64(2), np.float32(2.5), 2, 1.5, 3.0]


# 33 uses x 14 values: the draws cover every pair, in under a second
@settings(max_examples=500)
@given(st.sampled_from(sorted(ARGUMENTS)), st.sampled_from(VALUES))
def test_a_bad_argument_is_a_value_error(use, x):
    may_accept, call = ARGUMENTS[use]
    try:
        call(x)
    except ValueError:  # ShapeError is a ValueError; a TypeError or OverflowError fails the test
        return
    assert may_accept(x), f"{use} accepted {x!r}"


def test_a_vector_list_that_is_no_sequence_is_a_shape_error():
    T = random_tensor((3, 3, 3), 1)
    for call in (lambda: evaluate(T, 5), lambda: evaluate(T, None), lambda: mode_gradient(T, 5, 1)):
        with pytest.raises(ShapeError, match="need a sequence of 3 vectors"):
            call()


def test_a_bool_among_numbers_is_not_a_number():
    # numpy alone reads [True, 0.5] as [1.0, 0.5]
    e1 = [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="got a bool entry"):
        p_norm([True, 0.5], 2)
    with pytest.raises(ValueError, match="got a bool entry"):
        evaluate(random_tensor((3, 3, 3), 1), [[True, 0.5, 0], e1, e1])
    with pytest.raises(ValueError, match="got a bool entry"):
        p_norm((0.5, np.False_), 2)


def test_the_norm_parameter_ends_where_its_exact_scaling_holds(tmp_path, capsys):
    # from p ~ 2044 on the scaled largest power |y_j|^p leaves the normal range: p_norm gave 0.0,
    # unit_normalize inf, a tuple solve leaked RuntimeWarnings and the eigen solvers found nothing
    assert check_norm_param(1000.0) == MAX_NORM_PARAM == 1000.0
    for p in (1000.5, 3000):
        with pytest.raises(ValueError, match="norm parameter p must be at most 1000, got "):
            check_norm_param(p)
    assert p_norm([1.5, 0.5], 1000) == 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tuples = singular_tuples(random_tensor((3, 4), 2), SolverConfig(p=1000, restarts=8))
    assert tuples and all(abs(p_norm(v, 1000) - 1.0) <= 1e-12 for t in tuples for v in t.vectors)
    tensor_file = tmp_path / "t.json"
    write_tensor_file(random_tensor((3, 4), 2), tensor_file)
    assert main(["svd", str(tensor_file), "--p", "3000"]) == 2
    assert capsys.readouterr() == ("", "error: norm parameter p must be at most 1000, got 3000.0\n")


def test_a_signed_power_beyond_the_float_range_is_a_value_error():
    # phi([3, -4], 999) returned [inf, -inf] with "RuntimeWarning: overflow encountered in power"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (999, 3000):
            with pytest.raises(ValueError, match=rf"the signed power \|x_j\|\^{p} of an entry of x overflows"):
                phi([3.0, -4.0], p)
        assert np.all(np.isfinite(phi([3.0, -4.0], 500)))
        assert phi([1e-300, -0.5], 3).tolist() == [0.0, -0.125]  # an underflow to 0 is a result


# Finite inputs at the edge of the float range, each of which once ended in a RuntimeWarning:
# a solver path outside its errstate blocks, a contraction or norm that returned inf, or an
# asymmetry that overflowed.  Each case is a call and its outcome: the message of the ValueError
# it raises (a str), the value it returns, or None, for any result or typed error.
BIG = np.full((2, 2), 1e300)
WIDE = DenseTensor([[1e308, -1e308], [1e308, 0.0]])  # its off-diagonal orbit spans 2e308
HUGE = random_tensor((3, 3, 3), 1).data
HUGE = DenseTensor(1.7e308 / np.max(np.abs(HUGE)) * HUGE)  # ||HUGE|| is beyond the largest float
DIAG = np.zeros((3, 3, 3))
DIAG[(np.arange(3),) * 3] = 1.0  # x1^3 + x2^3 + x3^3
NEAR_LIMIT = {
    "dedupe": (lambda: len(dedupe([EigenPair([0, 1e200], 1, 0, 0), EigenPair([0, -1e200], 1, 0, 1e-3)], 1e-6)), 2),
    "classify_index": (
        lambda: classify_index(DenseTensor(np.full((2, 2, 2), 1e300)), [1, 0], 1e308), "not stationary enough"
    ),
    # x^3 at v = e1, a stationary pair whose second variation 3 (2 T(v) - value I) is beyond
    # the largest float: it read index 0, degenerate, where 1e300 * x^3 reads index 1
    "classify_index second variation": (
        lambda: classify_index(DenseTensor(np.pad([[[1e308]]], ((0, 1),) * 3)), [1, 0], 1e308), "the second variation"
    ),
    # defect 1e200 * (1, 1): its square overflows, its norm does not
    "classify_index residual": (
        lambda: classify_index(DenseTensor(np.full((2, 2, 2), 1e200)), [1, 0], 0.0, residual_tolerance=1e201),
        (0, True),
    ),
    "residual_eigen": (
        lambda: residual_eigen(DenseTensor(np.full((2, 2), 1e308)), [1, 0], -1e308, 1), "the stationarity defect"
    ),
    "symmetric_eigenpairs": (
        lambda: symmetric_eigenpairs(DenseTensor([[1e308, 1e308], [1e308, -1e308]]), SolverConfig(restarts=8)), None
    ),
    "generalized_eigenpairs": (
        lambda: generalized_eigenpairs(DenseTensor(np.full((3, 3, 3), 1e308)), 1, SolverConfig(restarts=8, p=3)), None
    ),
    # stationary points whose Morse block k J, or whose bordered Jacobian J itself, is beyond
    # the largest float: they once ended in numpy's LinAlgError from eigvalsh or svd
    "symmetric_eigenpairs second variation": (
        lambda: symmetric_eigenpairs(DenseTensor(8e307 * DIAG), SolverConfig(restarts=24)), "the second variation"
    ),
    "generalized_eigenpairs Jacobian": (
        lambda: generalized_eigenpairs(DenseTensor(1.7e308 * DIAG), 1, SolverConfig(restarts=24, p=3)),
        "the bordered Jacobian at a stationary point",
    ),
    "mode_eigenpairs": (lambda: mode_eigenpairs(WIDE, 1, SolverConfig(restarts=8)), None),
    "singular_tuples": (
        lambda: singular_tuples(DenseTensor(np.full((3, 3, 3), 1e308)), SolverConfig(restarts=8)), None
    ),
    # the flag compares sigma with 1e-8 ||T||, never with an infinite norm: no tuple of a generic
    # tensor has sigma near 0, and once every one was flagged
    "singular_tuples degenerate": (
        lambda: {t.degenerate for t in singular_tuples(HUGE, SolverConfig(restarts=60, gradient_tolerance=1.7e298))},
        {False},
    ),
    "evaluate": (lambda: evaluate(DenseTensor(BIG), [[1e10, 1e10], [1, 1]]), "the value of the form overflows"),
    "mode_gradient": (lambda: mode_gradient(DenseTensor(BIG), [[1e10, 1e10], [1, 1]], 2), "the mode-2 gradient"),
    "sym_gradient": (lambda: sym_gradient(DenseTensor(np.full((2, 2), 1e308)), [1, 1]), "the mode-1 gradient"),
    "sym_hessian": (lambda: sym_hessian(DenseTensor(np.full((2, 2, 2), 1e308)), [1, 1]), "the Hessian"),
    "euler_residual": (lambda: euler_residual(DenseTensor([[0, 1e308], [-1e308, 0]]), [1, 1]), "the Euler defect"),
    "p_norm": (lambda: p_norm(np.full(27, 1e308), 2), "the 2-norm of x overflows"),
    "max_asymmetry": (lambda: (max_asymmetry(WIDE), is_symmetric(WIDE)), (math.inf, False)),
    "symmetrize": (lambda: symmetrize(WIDE).data.tolist(), [[1e308, 0.0], [0.0, 0.0]]),
}
# the command line on such inputs: argv, the tensor, any vector files, and the exit code, stdout and
# stderr, each None where any documented code or any output without a traceback will do
CHECK_REPORT = "".join(
    f"{name}: {verdict}\n"
    for name, verdict in [
        ("gradient-finite-difference", "FAIL"),
        ("contraction-identity", "FAIL"),
        ("euler-homogeneity", "FAIL"),
        *((f"p-norm-gradient[p={p}]", "pass") for p in (1.5, 2.0, 3.0)),
    ]
)
NEAR_LIMIT_CLI = {
    "cli eval": (
        ["eval"], BIG, [[1e10, 1e10], [1, 1]], 2, "", "error: the value of the form overflows the float range\n"
    ),
    "cli eig --symmetric": (
        ["eig", "--symmetric", "--restarts", "8"], [[1e308, 1e308], [1e308, -1e308]], [], None, None, ""
    ),
    "cli eig --symmetric second variation": (
        ["eig", "--symmetric", "--restarts", "24"], 8e307 * DIAG, [], 2, "",
        "error: the second variation overflows the float range\n",
    ),
    "cli eig --mode 1": (["eig", "--mode", "1", "--restarts", "8"], WIDE.data, [], None, None, ""),
    "cli svd": (["svd", "--restarts", "8"], np.full((3, 3, 3), 1e308), [], None, None, ""),
    "cli check": (["check"], np.full((2, 2, 2), 1e308), [], 1, CHECK_REPORT, ""),
}


@pytest.mark.parametrize("case", [*NEAR_LIMIT, *NEAR_LIMIT_CLI])
def test_near_limit_inputs_end_in_results_or_typed_errors(case, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is an outcome outside the contract
        if case in NEAR_LIMIT_CLI:
            argv, data, vectors, *want = NEAR_LIMIT_CLI[case]
            paths = [tmp_path / f"{i}.json" for i in range(1 + len(vectors))]
            for path, x in zip(paths, [data, *vectors]):
                write_tensor_file(DenseTensor(x), path)
            got = _cli(argv + [str(path) for path in paths])
            assert got[0] in (0, 1, 2, 3, 4) and "Traceback" not in got[2], got[2]
            assert [w if w is None else g for w, g in zip(want, got)] == want
            return
        call, outcome = NEAR_LIMIT[case]
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=outcome):
                call()
            return
        try:
            got = call()
        except (ValueError, DegenerateTensorError):  # ShapeError is a ValueError
            assert outcome is None
            return
    assert outcome is None or got == outcome


_CUBE = random_tensor((3, 3, 3), 1, symmetric=True)
_UNCLASSIFIED = EigenPair(vector=np.array([1.0, 0.0]), value=1.0, mode=0, residual=0.0)
# each input a guard refuses, with the error and the start of its message
REFUSED = [
    (lambda: symmetric_eigenpairs(DenseTensor([1.0, 2.0])), ShapeError, "eigenpair solvers need tensor order >= 2"),
    (lambda: generalized_eigenpairs(DenseTensor([1.0, 2.0]), 1), ShapeError, "eigenpair solvers need tensor order"),
    (
        lambda: classify_index(DenseTensor(np.ones((1, 1, 1))), [1.0], 1.0),
        ShapeError,
        "index classification needs dimension >= 2",
    ),
    (lambda: mode_eigenpairs(_CUBE, 1, SolverConfig(p=3.0)), ValueError, "mode_eigenpairs uses the 2-norm"),
    (lambda: DenseTensor(np.zeros((0, 3))), ShapeError, "a tensor needs one or more dimensions, all >= 1"),
    (lambda: DenseTensor(3.0), ShapeError, "a tensor needs one or more dimensions, all >= 1"),
    (lambda: euler_residual(_CUBE, [0, 0, 0]), ValueError, "v must be nonzero"),
    (lambda: IndexHistogram.from_pairs([_UNCLASSIFIED], 2), ValueError, "every pair must carry a Morse index"),
    (lambda: jacobi_eigen(np.ones((2, 3))), ValueError, "need a square matrix"),
    (lambda: svd_small(np.ones(3)), ValueError, "need a matrix"),
    (lambda: svd_small(np.ones((33, 2))), ValueError, "svd_small is meant for m, n <= 32"),
    (lambda: circle_critical_points(_CUBE), ShapeError, "need a square order>=2 tensor on R^2"),
]


@pytest.mark.parametrize("call, error, message", REFUSED)
def test_each_refused_input_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value).startswith(message)


def test_edge_inputs_that_are_answered_not_refused():
    # a rectangular tensor is not symmetric, and the zero matrix has its eigenbasis I
    assert is_symmetric(DenseTensor(np.ones((2, 3)))) is False
    values, vectors = jacobi_eigen(np.zeros((3, 3)))
    assert np.array_equal(values, np.zeros(3)) and np.array_equal(vectors, np.eye(3))
