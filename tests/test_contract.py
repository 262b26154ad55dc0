"""Contract tests: every input ends in verified points, a typed error or a documented exit code.

The draws are derandomized and fixed in number, so every run tries the same cases.
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

from tensorcrit import DegenerateTensorError, DenseTensor, ShapeError, SolverConfig, classify_index, dedupe, evaluate
from tensorcrit import generalized_eigenpairs, mode_gradient, p_norm, p_norm_gradient, phi, random_tensor
from tensorcrit import residual_eigen, singular_tuples, sym_hessian, symmetrize, unit_normalize, write_tensor_file
from tensorcrit.cli import main
from tensorcrit.norms import check_norm_param

# zeros, units, 1e300, subnormals, and values whose squares overflow or underflow
ENTRIES = [0.0, 1.0, -1.0, 0.5, 3.0, 1e300, -1e300, 1e-300, 5e-324, 1e154, 1e-160]
CONTRACT = settings(derandomize=True, max_examples=120, deadline=None, database=None)


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


@CONTRACT
@given(cases(), st.sampled_from(["1.5", "2", "3"]), st.integers(1, 12), st.booleans())
def test_cli_exits_with_a_documented_code(tmp_path_factory, case, p, restarts, audit):
    tensor, problem = case
    tensor_file = tmp_path_factory.getbasetemp() / "contract.json"
    write_tensor_file(tensor, tensor_file)
    argv = ["svd"] if problem is None else ["eig", "--symmetric"] if problem == 0 else ["eig", "--mode", str(problem)]
    argv += ["--audit"] * (audit and problem is not None) + [str(tensor_file), "--p", p, "--restarts", str(restarts)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error with exit 2
            code = exc.code
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue(), err.getvalue()
    if code in (0, 3):
        assert json.loads(out.getvalue())["command"] == argv[0]


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
}
VALUES = [True, None, "2", 2.7, 0, -1, 10**400, math.nan, math.inf, np.int64(2), np.float32(2.5), 2, 1.5, 3.0]


# 27 uses x 14 values: the draws cover every pair, in well under a second
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
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
