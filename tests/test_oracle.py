import ast
import functools
import inspect

import numpy as np
import pytest

from tensorcrit import (
    DegenerateTensorError,
    DenseTensor,
    ShapeError,
    circle_critical_points,
    euler_parity_check,
    evaluate,
    jacobi_eigen,
    random_tensor,
    sphere_critical_points,
    svd_small,
    sym_gradient,
    symmetrize,
)
from tensorcrit import morse, oracle
from tensorcrit.morse import IndexHistogram
from tensorcrit.oracle import _binary_form, _on_circle, _turn

from conftest import geodesic_second_derivative

# What the oracle may take from the package: the symmetry test and the error
# types.  Sharing any other code path with the solver, the form included,
# would make the acceptance tests one-sided.
ORACLE_MAY_IMPORT = {"core": {"is_symmetric"}, "errors": None}


def _package_imports_outside_the_allowed(source, may_import=ORACLE_MAY_IMPORT):
    """(module, name) of every package import in source beyond may_import."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [(a.name, None) for a in node.names if a.name.split(".")[0] == "tensorcrit"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "tensorcrit":
                    continue
                module = module.partition(".")[2]
            allowed = may_import.get(module, set())
            bad += [(module, a.name) for a in node.names if allowed is not None and a.name not in allowed]
    return bad


def test_oracle_imports_only_the_contraction_primitives_and_errors():
    assert _package_imports_outside_the_allowed(inspect.getsource(oracle)) == []


def test_morse_imports_nothing_from_the_package():
    # the audit reads index counts alone, so it stays independent of the solver
    assert _package_imports_outside_the_allowed(inspect.getsource(morse), {}) == []
    assert _package_imports_outside_the_allowed("from .errors import DegenerateTensorError", {})


@pytest.mark.parametrize(
    "line",
    [
        "from .solver import dedupe",
        "from .core import symmetrize",
        "from .core import evaluate",
        "from . import solver",
        "from .core import evaluate, mode_gradient",
        "from .core import sym_gradient",
        "from tensorcrit.solver import _leaders",
        "import tensorcrit.core",
        "def f():\n    from .morse import audit",
    ],
)
def test_oracle_import_guard_catches_other_package_code(line):
    assert _package_imports_outside_the_allowed(line)


def test_jacobi_diagonal():
    w, V = jacobi_eigen(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0])
    np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-15)


def test_jacobi_off_diagonal():
    w, V = jacobi_eigen([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(V[:, 0]), [2 ** -0.5] * 2, atol=1e-12)
    np.testing.assert_allclose(np.abs(V[:, 1]), [2 ** -0.5] * 2, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_jacobi_reconstruction(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    A = (A + A.T) / 2
    w, V = jacobi_eigen(A)
    scale = np.linalg.norm(A)
    assert np.abs(A - V @ np.diag(w) @ V.T).max() <= 1e-10 * scale
    assert np.abs(A @ V - V * w).max() <= 1e-10 * scale
    assert np.abs(V.T @ V - np.eye(4)).max() <= 1e-12


def test_jacobi_conjugation_invariant():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    A = (A + A.T) / 2
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    w1, _ = jacobi_eigen(A)
    w2, _ = jacobi_eigen(Q @ A @ Q.T)
    np.testing.assert_allclose(np.sort(w1), np.sort(w2), atol=1e-9)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigen([[0.0, 1.0], [0.0, 0.0]])


def test_jacobi_rejects_large():
    with pytest.raises(ValueError):
        jacobi_eigen(np.eye(33))


# a NaN fails every comparison, so both came back as NaN eigenvalues and singular values
@pytest.mark.parametrize("oracle_fn", [jacobi_eigen, svd_small])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracle_rejects_non_finite_entries(oracle_fn, bad):
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        oracle_fn([[bad, 0.0], [0.0, 1.0]])


def test_svd_diagonal():
    s, U, V = svd_small(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(s, [3.0, 1.0])


def test_svd_rank_one():
    s, U, V = svd_small(np.ones((2, 2)))
    np.testing.assert_allclose(s, [2.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_svd_reconstruction(seed):
    rng = np.random.default_rng(100 + seed)
    A = rng.standard_normal((3, 4))
    s, U, V = svd_small(A)
    scale = np.linalg.norm(A)
    assert np.abs(A - U @ np.diag(s) @ V.T).max() <= 1e-9 * scale
    G = A.T @ A
    w, _ = jacobi_eigen((G + G.T) / 2)
    np.testing.assert_allclose(
        s, np.sqrt(np.maximum(np.sort(w)[::-1][:3], 0)), atol=1e-9
    )


@pytest.mark.parametrize("c", [1e-14, 1e-20, 1e150])
def test_svd_is_scale_equivariant(c):
    # the zero test is relative: tiny singular values keep their true left vectors
    A = random_tensor((3, 4), 1).data
    s1, _, _ = svd_small(A)
    s, U, V = svd_small(c * A)
    np.testing.assert_allclose(s, c * s1, rtol=1e-12)
    assert np.linalg.norm((c * A) @ V - U * s) <= 1e-12 * s[0]
    np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)


def test_circle_cubic_complete_set(cubic):
    cs = circle_critical_points(cubic)
    assert cs.complete
    assert len(cs.points) == 6
    got = sorted((round(p.value, 9), p.index) for p in cs.points)
    r = round(2 ** -0.5, 9)
    assert got == [(-1.0, 0), (-1.0, 0), (-r, 1), (r, 0), (1.0, 1), (1.0, 1)]
    thetas = sorted(
        float(np.arctan2(p.vector[1], p.vector[0])) % (2 * np.pi) for p in cs.points
    )
    want = [0, np.pi / 4, np.pi / 2, np.pi, 5 * np.pi / 4, 3 * np.pi / 2]
    np.testing.assert_allclose(thetas, want, atol=1e-9)


def test_circle_quadratic():
    cs = circle_critical_points(DenseTensor(np.diag([1.0, 2.0])))
    got = sorted((round(p.value, 9), p.index) for p in cs.points)
    assert got == [(1.0, 0), (1.0, 0), (2.0, 1), (2.0, 1)]


def test_circle_identity_degenerate():
    with pytest.raises(DegenerateTensorError):
        circle_critical_points(DenseTensor(np.eye(2)))


def _x3_minus_3eps_xy2(eps):
    """x^3 - 3*eps*x*y^2 as a symmetric tensor on R^2."""
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[0, 1, 1] = data[1, 0, 1] = data[1, 1, 0] = -eps
    return DenseTensor(data)


@pytest.mark.parametrize("seed,k", [(s, k) for s in range(6) for k in range(2, 9)])
def test_circle_even_cardinality_and_parity(seed, k):
    T = random_tensor((2,) * k, 500 + seed, symmetric=True)
    cs = circle_critical_points(T)
    # +-v for each of at most k real root directions of the derivative
    assert len(cs.points) % 2 == 0 and len(cs.points) <= 2 * k
    counts = {}
    for p in cs.points:
        counts[p.index] = counts.get(p.index, 0) + 1
    ok, s = euler_parity_check(IndexHistogram(n=2, counts=counts))
    assert ok and s == 0
    scale = float(np.max(np.abs(T.data)))
    for p in cs.points:
        assert np.linalg.norm(sym_gradient(T, p.vector) - p.value * p.vector) <= 1e-12 * scale
        assert evaluate(T, [p.vector] * k) == pytest.approx(p.value, abs=1e-12 * scale)


def test_circle_double_root_is_degenerate():
    # x^3: (0, +-1) are double roots of the derivative, with no sign change
    with pytest.raises(DegenerateTensorError):
        circle_critical_points(_x3_minus_3eps_xy2(0.0))


@pytest.mark.parametrize("eps", [6.25e-8, 1e-10, 1e-12])
def test_circle_finds_two_roots_inside_one_cell(eps):
    # the pairs near (0, +-1) lie 2 sqrt(eps) apart: 5e-4 down to 2e-6
    T = _x3_minus_3eps_xy2(eps)
    cs = circle_critical_points(T)
    assert cs.complete and len(cs.points) == 6
    # df/dtheta = -3 sin(t) ((1 + 2 eps) cos(t)^2 - eps sin(t)^2)
    c = np.sqrt(eps / (1 + 2 * eps))
    want = [np.array([x, y]) / np.hypot(x, y) for x, y in [(1, 0), (-1, 0), (c, 1), (-c, 1), (c, -1), (-c, -1)]]
    for w in want:
        assert min(np.linalg.norm(p.vector - w) for p in cs.points) <= 1e-9
    assert sorted(p.index for p in cs.points) == [0, 0, 0, 1, 1, 1]
    for p in cs.points:
        assert np.linalg.norm(sym_gradient(T, p.vector) - p.value * p.vector) <= 1e-14


@pytest.mark.parametrize("k", [3, 4, 5])
def test_circle_is_scale_equivariant(k):
    T = random_tensor((2,) * k, 500 + k, symmetric=True)
    base = circle_critical_points(T)
    for j in (-900, -300, -30, 30, 300, 900):
        cs = circle_critical_points(DenseTensor(np.ldexp(T.data, j)))
        assert cs.resolution == base.resolution
        assert len(cs.points) == len(base.points)
        for p, q in zip(cs.points, base.points):
            assert np.array_equal(p.vector, q.vector)
            assert p.index == q.index
            assert p.value == np.ldexp(q.value, j)


@pytest.mark.parametrize("k", [pytest.param(None, id="cubic"), 3, 4, 5, 6])
def test_circle_binary_form_matches_primitives(cubic, k):
    T = cubic if k is None else random_tensor((2,) * k, 40 + k, symmetric=True)
    k = T.order
    a = _binary_form(T.data)
    thetas = np.array([0.3, 1.1, 2.9, 4.4])
    values, first, second = (_on_circle(c, thetas) for c in (a, _turn(a), _turn(_turn(a))))
    scale = float(np.max(np.abs(T.data)))
    for i, th in enumerate(thetas):
        v = np.array([np.cos(th), np.sin(th)])
        tangent = np.array([-v[1], v[0]])
        assert values[i] == pytest.approx(evaluate(T, [v] * k), abs=1e-14 * scale)
        hand = k * float(sym_gradient(T, v) @ tangent)
        assert first[i] == pytest.approx(hand, abs=1e-13 * scale)
        fd = geodesic_second_derivative(T, v, tangent)
        assert second[i] == pytest.approx(fd, abs=1e-6 * scale)


def test_circle_counts_match_the_kostlan_expectation():
    # A symmetric random_tensor on R^2 is a Kostlan binary form of degree k,
    # whose mean number of critical points on the circle is 2 sqrt(3k - 2)
    # (Kac-Rice).  The bound, 4 standard errors, was fixed before any run.
    for k in (3, 4, 5, 6):
        counts = np.array([
            len(circle_critical_points(random_tensor((2,) * k, 80000 + 1000 * k + s, symmetric=True)).points)
            for s in range(400)
        ])
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 2 * np.sqrt(3 * k - 2)) <= 4 * se


def test_sphere_diagonal_matrix():
    cs = sphere_critical_points(DenseTensor(np.diag([1.0, 2.0, 3.0])))
    assert cs.complete
    assert len(cs.points) == 6
    assert sorted((round(p.value, 12), p.index) for p in cs.points) == [
        (1.0, 0), (1.0, 0), (2.0, 1), (2.0, 1), (3.0, 2), (3.0, 2)
    ]
    for p in cs.points:
        assert np.abs(np.abs(p.vector) - np.eye(3)[round(p.value) - 1]).max() <= 1e-15
    assert cs.resolution == pytest.approx(np.pi / 2, abs=1e-12)


@pytest.mark.parametrize("k, count", [(3, 14), (4, 26)])
def test_sphere_diagonal_tensor_has_every_class_real(k, count):
    # diag(1, 2, 3): the x with x_i^(k-2) = lam / d_i on each support are all real
    data = np.zeros((3,) * k)
    for j, value in enumerate([1.0, 2.0, 3.0]):
        data[(j,) * k] = value
    T = DenseTensor(data)
    cs = sphere_critical_points(T)
    assert cs.complete and len(cs.points) == count
    for p in cs.points:
        assert np.linalg.norm(sym_gradient(T, p.vector) - p.value * p.vector) <= 1e-13


def _monomial(*factors):
    """The symmetrized tensor of the monomial x_i x_j ... on R^3, one factor per index."""
    return symmetrize(DenseTensor(functools.reduce(np.multiply.outer, [np.eye(3)[i] for i in factors])))


@pytest.mark.parametrize(
    "tensor, message",
    [
        pytest.param(DenseTensor(np.zeros((3, 3, 3))), "singular Jacobian", id="zero"),
        pytest.param(DenseTensor(np.eye(3)), "singular Jacobian", id="identity"),
        pytest.param(_monomial(0, 0, 0), "singular Jacobian", id="x^3"),
        # (x . x)^2: constant on the sphere
        pytest.param(
            symmetrize(DenseTensor(np.einsum("ij,kl->ijkl", np.eye(3), np.eye(3)))),
            "singular Jacobian",
            id="sym(I@I)",
        ),
        # every point of the circle x1 = 0 is critical
        pytest.param(_monomial(0, 0, 1), "homotopy endpoint is singular", id="x1^2x2"),
        # and here every point of x1 = 0 and of x2 = 0
        pytest.param(_monomial(0, 0, 1, 1), "path stalled", id="x1^2x2^2"),
    ],
)
def test_sphere_degenerate_tensors_raise(tensor, message):
    with pytest.raises(DegenerateTensorError, match=message):
        sphere_critical_points(tensor)


def test_sphere_refuses_too_many_classes_at_once(monkeypatch):
    # 2^13 - 1 = 8191 eigenvector classes: refused before any start is made
    monkeypatch.setattr(oracle, "_starts", lambda *args: pytest.fail("starts were enumerated"))
    with pytest.raises(ValueError, match="8191"):
        sphere_critical_points(random_tensor((13,) * 3, 0, symmetric=True))


def test_sphere_rejects_the_circle_and_asymmetric_tensors():
    with pytest.raises(ShapeError, match="circle_critical_points"):
        sphere_critical_points(random_tensor((2, 2, 2), 1, symmetric=True))
    with pytest.raises(ValueError, match="symmetric"):
        sphere_critical_points(random_tensor((3, 3, 3), 1))


def test_sphere_counts_match_the_kac_rice_expectation():
    # A symmetric random_tensor is a Kostlan form; on S^2 the mean number of
    # critical points of a degree-k Kostlan form is
    # 2 (1 + 4 (k - 1) / (3k - 2) sqrt((3k - 2)(k - 1))), 10.55 for k = 3 (Kac-Rice).
    # The bound, 4 standard errors, was fixed before any run.
    k = 3
    counts = np.array([
        len(sphere_critical_points(random_tensor((3,) * k, 110000 + s, symmetric=True)).points)
        for s in range(150)
    ])
    expected = 2 * (1 + 4 * (k - 1) / (3 * k - 2) * np.sqrt((3 * k - 2) * (k - 1)))
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - expected) <= 4 * se
