import numpy as np
import pytest

from tensorcrit import p_norm, p_norm_gradient, phi, unit_normalize
from tensorcrit.norms import check_norm_param


def fd_p_norm_gradient(x, p, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        out[j] = (p_norm(xp, p) - p_norm(xm, p)) / (2 * step)
    return out


def test_p_norm_pythagorean():
    assert p_norm([3.0, 4.0], 2) == 5.0


def test_p_norm_cube_root():
    assert p_norm([1.0, 1.0], 3) == pytest.approx(2 ** (1 / 3), rel=1e-15)


def test_p_norm_zero():
    assert p_norm([0.0, 0.0, 0.0], 2.5) == 0.0


def test_p_norm_homogeneous():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    for p in (1.5, 2.0, 3.0):
        assert p_norm(-2.5 * x, p) == pytest.approx(2.5 * p_norm(x, p), rel=1e-14)


def test_phi_componentwise():
    np.testing.assert_allclose(phi([-2.0, 0.0, 3.0], 2), [-4.0, 0.0, 9.0])


def test_phi_identity_at_one():
    x = np.array([-1.75, 0.0, 0.3])
    assert np.array_equal(phi(x, 1), x)


def test_phi_sign_at_zero_power():
    np.testing.assert_array_equal(phi([-2.0, 0.0, 3.0], 0), [-1.0, 0.0, 1.0])


def test_phi_preserves_negative_sign_under_even_power():
    # sgn(x)|x|^p keeps the sign for even integer p
    assert phi(np.array([-2.0]), 2)[0] == -4.0


def test_phi_rejects_negative_power():
    # a NaN or infinite power gave [1, nan] and [1, -inf] silently
    for p in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite p >= 0"):
            phi([1.0, -2.0], p)


def test_gradient_euclidean():
    grad = p_norm_gradient([3.0, 4.0], 2)
    np.testing.assert_allclose(grad, [0.6, 0.8], atol=1e-15)
    np.testing.assert_allclose(fd_p_norm_gradient([3.0, 4.0], 2), grad, atol=1e-9)


def test_gradient_with_zero_coordinate():
    # sgn(0) = 0 gives a zero component; one-sided differences agree
    grad = p_norm_gradient([0.0, 1.0], 3)
    np.testing.assert_allclose(grad, [0.0, 1.0], atol=1e-15)
    step = 1e-7
    right = (p_norm([step, 1.0], 3) - p_norm([0.0, 1.0], 3)) / step
    left = (p_norm([0.0, 1.0], 3) - p_norm([-step, 1.0], 3)) / step
    assert abs(right) < 1e-6 and abs(left) < 1e-6


def test_gradient_euler_identity():
    rng = np.random.default_rng(1)
    for p in (1.5, 2.0, 3.0, 4.0):
        x = rng.standard_normal(6)
        val = p_norm(x, p)
        assert float(x @ p_norm_gradient(x, p)) == pytest.approx(val, abs=1e-12 * val)


def test_gradient_at_origin_rejected():
    with pytest.raises(ValueError):
        p_norm_gradient([0.0, 0.0], 2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_gradient_finite_differences(p):
    rng = np.random.default_rng(int(p * 10))
    for _ in range(20):
        x = rng.uniform(0.1, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)
        grad = p_norm_gradient(x, p)
        fd = fd_p_norm_gradient(x, p)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_gradient_p2_reduces_exactly():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    assert np.array_equal(p_norm_gradient(x, 2), x / p_norm(x, 2))


def test_p_norm_neither_overflows_nor_underflows():
    assert p_norm([1e200, 1e200], 2) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    # zero only for the zero vector
    assert p_norm([1e-200, 1e-200], 2) == pytest.approx(np.sqrt(2.0) * 1e-200, rel=1e-15)


def test_unit_normalize_tiny_vector():
    np.testing.assert_allclose(unit_normalize([1e-200, 1e-200], 2), [np.sqrt(0.5)] * 2, rtol=1e-15)


def test_gradient_at_large_p():
    # 10^400 overflows: the unscaled quotient was inf / inf
    np.testing.assert_allclose(p_norm_gradient([10.0, 1.0], 400), [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 400.0])
def test_norms_scale_exactly_by_powers_of_two(p):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5)
    for e in (-900, 900):
        assert p_norm(np.ldexp(x, e), p) == np.ldexp(p_norm(x, p), e)
        assert np.array_equal(p_norm_gradient(np.ldexp(x, e), p), p_norm_gradient(x, p))
        assert np.array_equal(unit_normalize(np.ldexp(x, e), p), unit_normalize(x, p))


def test_unit_normalize():
    np.testing.assert_allclose(unit_normalize([3.0, 4.0], 2), [0.6, 0.8])
    np.testing.assert_allclose(
        unit_normalize([1.0, 1.0], 3), [2 ** (-1 / 3)] * 2, rtol=1e-15
    )


def test_unit_normalize_idempotent():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    once = unit_normalize(x, 3)
    twice = unit_normalize(once, 3)
    assert np.abs(once - twice).max() <= 1e-15


def test_unit_normalize_zero_rejected():
    with pytest.raises(ValueError):
        unit_normalize([0.0, 0.0], 2)


# a string, None and a bool are not real numbers: float() read "2" as 2.0
@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.inf, np.nan, "2", None, True])
def test_norm_param_rejected(p):
    with pytest.raises(ValueError):
        check_norm_param(p)
    with pytest.raises(ValueError):
        p_norm([1.0], p)
    if not isinstance(p, float):
        with pytest.raises(ValueError, match="real, finite p >= 0"):
            phi([1.0], p)
