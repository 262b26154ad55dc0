import math
import time

import numpy as np
import pytest

from tensorcrit import (
    AsymmetricTensorError,
    DenseTensor,
    ShapeError,
    dumps_tensor,
    euler_residual,
    evaluate,
    loads_tensor,
    max_asymmetry,
    mode_gradient,
    random_tensor,
    sym_gradient,
    sym_hessian,
    symmetrize,
)
from conftest import fd_mode_gradient


def test_evaluate_identity_matrix():
    T = DenseTensor(np.eye(2))
    assert evaluate(T, [[1, 0], [1, 0]]) == 1.0


def test_evaluate_all_ones_cube():
    T = DenseTensor(np.ones((2, 2, 2)))
    assert evaluate(T, [[1, 1]] * 3) == 8.0


def test_evaluate_cubic_polynomial(cubic):
    a, b = 1.25, -0.5
    assert evaluate(cubic, [[a, b]] * 3) == pytest.approx(a**3 + b**3, abs=1e-15)
    assert evaluate(cubic, [[a, b]] * 3) == pytest.approx(1.828125, abs=1e-15)


def test_evaluate_shape_mismatch():
    T = DenseTensor(np.eye(2))
    with pytest.raises(ShapeError):
        evaluate(T, [[1, 0, 0], [1, 0]])
    with pytest.raises(ShapeError):
        evaluate(T, [[1, 0]])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_evaluate_multilinearity(k):
    rng = np.random.default_rng(k)
    T = DenseTensor(rng.standard_normal((3,) * k))
    vecs = [rng.standard_normal(3) for _ in range(k)]
    u, w = rng.standard_normal(3), rng.standard_normal(3)
    alpha, beta = 0.7, -1.3
    for i in range(k):
        mixed = list(vecs)
        mixed[i] = alpha * u + beta * w
        left = list(vecs)
        left[i] = u
        right = list(vecs)
        right[i] = w
        want = alpha * evaluate(T, left) + beta * evaluate(T, right)
        assert evaluate(T, mixed) == pytest.approx(want, abs=1e-12)


def test_mode_gradient_matrix_case():
    T = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
    vectors = [[0.0, 0.0], [1.0, 0.0]]
    grad = mode_gradient(T, vectors, 1)
    fd = fd_mode_gradient(T, [[0.2, -0.4], [1.0, 0.0]], 1)
    np.testing.assert_allclose(grad, [1.0, 3.0], atol=1e-15)
    np.testing.assert_allclose(fd, [1.0, 3.0], atol=1e-8)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mode_gradient_contraction_identity(k):
    rng = np.random.default_rng(10 + k)
    T = DenseTensor(rng.standard_normal((3,) * k))
    vecs = [rng.standard_normal(3) for _ in range(k)]
    value = evaluate(T, vecs)
    for mode in range(1, k + 1):
        grad = mode_gradient(T, vecs, mode)
        assert float(vecs[mode - 1] @ grad) == pytest.approx(
            value, abs=1e-12 * (abs(value) + 1)
        )


def test_mode_gradient_zero_tensor():
    T = DenseTensor(np.zeros((2, 3)))
    np.testing.assert_array_equal(mode_gradient(T, [[1, 1], [1, 1, 1]], 2), np.zeros(3))


def test_mode_gradient_mode_out_of_range():
    T = DenseTensor(np.eye(2))
    with pytest.raises(ValueError):
        mode_gradient(T, [[1, 0], [1, 0]], 3)
    with pytest.raises(ValueError):
        mode_gradient(T, [[1, 0], [1, 0]], 0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mode_gradient_finite_differences(k):
    rng = np.random.default_rng(20 + k)
    T = DenseTensor(rng.standard_normal((3,) * k))
    vecs = [rng.standard_normal(3) for _ in range(k)]
    for mode in range(1, k + 1):
        grad = mode_gradient(T, vecs, mode)
        fd = fd_mode_gradient(T, vecs, mode)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_sym_gradient_matrix():
    T = DenseTensor(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(sym_gradient(T, [1.0, 0.0]), [1.0, 0.0])


def test_sym_gradient_diagonal_cubic(cubic):
    a, b = 0.5, 2.0
    grad = sym_gradient(cubic, [a, b])
    np.testing.assert_allclose(grad, [a**2, b**2], atol=1e-15)
    fd = fd_mode_gradient(cubic, [[a, b]] * 3, 1)
    np.testing.assert_allclose(fd, grad, atol=1e-7)


def test_sym_gradient_contraction_value(cubic):
    # single-mode gradient dotted with v recovers the form value
    rng = np.random.default_rng(5)
    v = rng.standard_normal(2)
    value = evaluate(cubic, [v] * 3)
    assert float(v @ sym_gradient(cubic, v)) == pytest.approx(value, abs=1e-13)


def test_sym_gradient_rejects_asymmetric():
    with pytest.raises(AsymmetricTensorError):
        sym_gradient(DenseTensor([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])


def test_sym_hessian_matrix_case():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    A = (A + A.T) / 2
    T = DenseTensor(A)
    for _ in range(3):
        v = rng.standard_normal(3)
        np.testing.assert_allclose(sym_hessian(T, v), 2 * A, atol=1e-14)


def test_sym_hessian_cubic(cubic):
    np.testing.assert_allclose(sym_hessian(cubic, [1.0, 0.0]), np.diag([6.0, 0.0]))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sym_hessian_finite_differences(k):
    T = random_tensor((3,) * k, 30 + k, symmetric=True)
    rng = np.random.default_rng(k)
    v = rng.standard_normal(3)
    H = sym_hessian(T, v)
    step = 1e-5
    fd = np.empty((3, 3))
    for j in range(3):
        vp, vm = v.copy(), v.copy()
        vp[j] += step
        vm[j] -= step
        fd[:, j] = k * (sym_gradient(T, vp) - sym_gradient(T, vm)) / (2 * step)
    assert np.abs(H - fd).max() <= 1e-6 * max(1.0, np.abs(H).max())


def test_sym_hessian_exactly_symmetric():
    T = random_tensor((4, 4, 4), 7, symmetric=True)
    H = sym_hessian(T, np.r_[0.3, -1.0, 2.0, 0.1])
    assert np.array_equal(H, H.T)


def test_sym_hessian_order_one():
    T = DenseTensor(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(sym_hessian(T, [1.0, 0.0, 0.0]), np.zeros((3, 3)))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_euler_residual_symmetric(k):
    T = random_tensor((3,) * k, 40 + k, symmetric=True)
    rng = np.random.default_rng(k)
    for _ in range(5):
        v = rng.standard_normal(3)
        value = evaluate(T, [v] * k)
        assert euler_residual(T, v) <= 1e-12 * (k * abs(value) + 1)


def test_euler_residual_matrix():
    T = DenseTensor(np.diag([1.0, 2.0]))
    assert euler_residual(T, [3.0, 4.0]) <= 1e-12


def test_euler_residual_detects_asymmetry():
    T = DenseTensor([[0.0, 1.0], [0.0, 0.0]])
    assert euler_residual(T, [1.0, 1.0]) > 0.1


def test_symmetrize_idempotent_exactly():
    T = random_tensor((3, 3, 3), 3)
    S = symmetrize(T)
    S2 = symmetrize(S)
    assert np.array_equal(S.data, S2.data)
    assert max_asymmetry(S) == 0.0


def test_symmetrize_two_by_two():
    S = symmetrize(DenseTensor([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(S.data, [[0.0, 0.5], [0.5, 0.0]])


def test_symmetrize_preserves_polynomial():
    rng = np.random.default_rng(9)
    T = DenseTensor(rng.standard_normal((3, 3, 3)))
    S = symmetrize(T)
    for _ in range(10):
        v = rng.standard_normal(3)
        a = evaluate(T, [v] * 3)
        b = evaluate(S, [v] * 3)
        assert a == pytest.approx(b, abs=1e-12 * (abs(a) + 1))


def test_symmetrize_symmetric_input_unchanged():
    T = random_tensor((3, 3), 1, symmetric=True)
    assert np.array_equal(symmetrize(T).data, T.data)


def test_symmetrize_near_float_max():
    # the orbit {(0, 1), (1, 0)} sums to 2.7e308, beyond the largest float
    S = symmetrize(DenseTensor([[1e308, 1.7e308], [1e308, 0.0]]))
    np.testing.assert_array_equal(S.data, [[1e308, 1.35e308], [1.35e308, 0.0]])
    assert max_asymmetry(S) == 0.0


@pytest.mark.parametrize("shape", [(3, 3), (4, 4, 4), (3, 3, 3, 3), (2,) * 5])
def test_symmetrize_bits_match_plain_orbit_mean(shape):
    # the overflow-safe scaling changes no bit of ordinary inputs, so seeded
    # random_tensor(..., symmetric=True) tensors are the same as before it
    from tensorcrit.core import _orbit_ids

    ids = _orbit_ids(shape)
    for seed in range(25):
        T = random_tensor(shape, seed)
        plain = np.bincount(ids, weights=T.entries) / np.bincount(ids)
        assert np.array_equal(symmetrize(T).entries, plain[ids])
        assert np.array_equal(random_tensor(shape, seed, symmetric=True).entries, plain[ids])


@pytest.mark.parametrize("shape, m", [((3, 3, 3), 2), ((3, 3, 3, 3), 3), ((2, 3, 3, 4), 1), ((3, 3, 2), 2)])
def test_orbit_mean_of_leading_modes_is_their_permutation_mean(shape, m):
    import itertools

    from tensorcrit.core import _orbit_ids, _orbit_mean

    T = random_tensor(shape, 9).data
    perms = list(itertools.permutations(range(m)))
    ref = sum(np.transpose(T, p + tuple(range(m, len(shape)))) for p in perms) / len(perms)
    got = _orbit_mean(T, _orbit_ids(shape, m))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
    for p in perms:
        assert np.array_equal(np.transpose(got, p + tuple(range(m, len(shape)))), got)


@pytest.mark.parametrize("shape", [(2,) * 5, (3,) * 4, (4,) * 3])
def test_orbit_ids_are_cached_read_only_and_unchanged(shape):
    from tensorcrit.core import _orbit_ids, _orbit_mean

    ids = _orbit_ids(shape)
    assert _orbit_ids(shape) is ids and not ids.flags.writeable
    with pytest.raises(ValueError):
        ids[0] = 1
    fresh = _orbit_ids.__wrapped__(shape)
    assert np.array_equal(ids, fresh)
    for seed in range(3):
        T = random_tensor(shape, 40 + seed)
        assert np.array_equal(symmetrize(T).data, _orbit_mean(T.data, fresh))
        lo = np.full(fresh.max() + 1, np.inf)
        np.minimum.at(lo, fresh, T.entries)
        assert max_asymmetry(T) == float(np.max(T.entries - lo[fresh]))


def test_symmetrize_rejects_rectangular():
    with pytest.raises(ShapeError):
        symmetrize(DenseTensor(np.ones((2, 3))))


def test_max_asymmetry_known_values():
    assert max_asymmetry(random_tensor((3, 3, 3), 11, symmetric=True)) == 0.0
    assert max_asymmetry(DenseTensor([[0.0, 1.0], [0.0, 0.0]])) == 1.0


def test_max_asymmetry_rejects_rectangular():
    with pytest.raises(ShapeError):
        max_asymmetry(DenseTensor(np.ones((2, 3))))


def test_random_tensor_deterministic():
    a = random_tensor((2, 3, 4), 42)
    b = random_tensor((2, 3, 4), 42)
    assert np.array_equal(a.data, b.data)


def test_random_tensor_seeds_differ():
    a = random_tensor((3, 3), 0)
    b = random_tensor((3, 3), 1)
    assert not np.array_equal(a.data, b.data)


def test_random_tensor_symmetric():
    T = random_tensor((4, 4, 4), 5, symmetric=True)
    assert max_asymmetry(T) <= 1e-15


def test_random_tensor_symmetric_order_eleven_is_fast():
    start = time.perf_counter()
    T = random_tensor((2,) * 11, 3, symmetric=True)
    assert time.perf_counter() - start < 1.0
    assert max_asymmetry(DenseTensor(T.data)) == 0.0


def test_random_tensor_symmetric_needs_square():
    with pytest.raises(ValueError):
        random_tensor((2, 3), 0, symmetric=True)


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseTensor([[np.inf, 0.0], [0.0, 1.0]])


def test_tensor_entry_count():
    with pytest.raises(ShapeError):
        DenseTensor.from_flat((2, 2), [1.0, 2.0, 3.0])


def test_file_roundtrip_bit_exact():
    T = random_tensor((3, 2, 4), 13)
    back = loads_tensor(dumps_tensor(T))
    assert back.shape == T.shape
    assert np.array_equal(back.data, T.data)


def test_file_format_seventeen_digits():
    T = DenseTensor(np.array([1.0 / 3.0, -2.0]))
    text = dumps_tensor(T)
    assert "0.33333333333333331" in text
    assert '"shape": [2]' in text


def test_file_format_rejects_nonfinite():
    with pytest.raises(ValueError):
        loads_tensor('{"shape": [1], "entries": [Infinity]}')
    with pytest.raises(ValueError):
        loads_tensor('{"shape": [1], "entries": [1e999]}')
    # an integer literal loads as a Python int, whose float conversion raised OverflowError
    with pytest.raises(ValueError, match="bad tensor entries"):
        loads_tensor('{"shape": [2], "entries": [1, 1%s]}' % ("0" * 400))


def test_file_format_rejects_garbage():
    with pytest.raises(ValueError):
        loads_tensor("not json")
    # the parser's RecursionError escaped, and a repeated name kept its last value
    with pytest.raises(ValueError, match="nested too deeply"):
        loads_tensor("[" * 5000 + "]" * 5000)
    with pytest.raises(ValueError, match="nested too deeply"):
        loads_tensor('{"shape": [1], "entries": %s}' % ("[" * 5000))
    with pytest.raises(ValueError, match="'entries' is repeated"):
        loads_tensor('{"shape": [2], "entries": [1, 2], "entries": [3, 4]}')
    with pytest.raises(ValueError, match="'a' is repeated"):
        loads_tensor('{"shape": [2], "entries": [1, 2], "x": {"a": 1, "a": 1}}')
    with pytest.raises(ValueError):
        loads_tensor('{"shape": [2]}')
    with pytest.raises(ShapeError):
        loads_tensor('{"shape": [2, 2], "entries": [1, 2, 3]}')


def test_file_format_rejects_booleans():
    with pytest.raises(ValueError, match="shape"):
        loads_tensor('{"shape": [true, 2], "entries": [1, 2]}')
    with pytest.raises(ValueError, match="shape"):
        loads_tensor('{"shape": [false], "entries": []}')
    with pytest.raises(ValueError, match="entries"):
        loads_tensor('{"shape": [2], "entries": [true, 0.5]}')
    with pytest.raises(ValueError, match="entries"):
        loads_tensor('{"shape": [1], "entries": [false]}')
    # only JSON numbers: strings are not parsed, null and nested lists name the list
    for entries in ('["1.5", " 2e3 "]', '[1, "2"]', "[null, 1]", "[[1, 2]]"):
        with pytest.raises(ValueError, match='"entries" must be a list of numbers'):
            loads_tensor('{"shape": [2], "entries": %s}' % entries)
