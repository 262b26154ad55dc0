"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json

import numpy as np
import pytest

from tensorcrit import (
    DegenerateTensorError,
    DenseTensor,
    SolverConfig,
    audit,
    circle_critical_points,
    classify_index,
    evaluate,
    generalized_eigenpairs,
    jacobi_eigen,
    mode_eigenpairs,
    mode_gradient,
    p_norm,
    p_norm_gradient,
    random_tensor,
    singular_tuples,
    sphere_critical_points,
    svd_small,
    sym_gradient,
    symmetric_eigenpairs,
    symmetrize,
    write_tensor_file,
)
from tensorcrit.cli import main as cli_main
from tensorcrit.core import sym_hessian
from tensorcrit.solver import _DEDUPE_TOLERANCE
from conftest import geodesic_second_derivative, match_pair


def announce(number, label):
    print(f"ACCEPTANCE {number:2d} PASS  {label}")


def test_criterion_01_matrix_eigen_reduction():
    for seed in range(100):
        T = symmetrize(random_tensor((4, 4), 20000 + seed))
        pairs = symmetric_eigenpairs(T, SolverConfig(restarts=24, seed=seed))
        w, V = jacobi_eigen(T.data)
        for j in range(4):
            hits = match_pair(pairs, w[j], V[:, j], value_tol=1e-8, overlap_tol=1e-8)
            assert hits, f"seed {seed}: eigenvalue {w[j]} not recovered"
    announce(1, "symmetric 4x4 eigenpairs match the Jacobi oracle (100 seeds)")


def test_criterion_02_matrix_svd_reduction():
    for seed in range(100):
        T = random_tensor((3, 4), 30000 + seed)
        tuples = singular_tuples(T, SolverConfig(restarts=24, seed=seed))
        s, U, V = svd_small(T.data)
        for j in range(3):
            if s[j] <= 1e-8:
                continue
            hits = [t for t in tuples if abs(t.sigma - s[j]) <= 1e-8]
            assert hits, f"seed {seed}: singular value {s[j]} not recovered"
            t = hits[0]
            du = float(t.vectors[0] @ U[:, j])
            dv = float(t.vectors[1] @ V[:, j])
            assert abs(abs(du) - 1) <= 1e-8 and abs(abs(dv) - 1) <= 1e-8
            assert du * dv > 0
    announce(2, "3x4 singular tuples match the Gram-matrix SVD oracle (100 seeds)")


def test_criterion_03_mode_semantics():
    checked = 0
    for seed in (0, 1, 2):
        A = random_tensor((3, 3), 31000 + seed)
        At = DenseTensor(A.data.T.copy())
        cfg = SolverConfig(restarts=32, seed=seed)
        left = mode_eigenpairs(A, 2, cfg)
        right = mode_eigenpairs(At, 1, cfg)
        assert len(left) == len(right) > 0
        for p in left:
            hits = match_pair(right, p.value, p.vector, value_tol=1e-8, overlap_tol=1e-8)
            assert hits
        checked += len(left)
    assert checked > 0
    announce(3, "mode-2 eigenpairs equal mode-1 eigenpairs of the transpose")


def test_criterion_04_homogeneity_identity():
    rng = np.random.default_rng(123)
    for k in (2, 3, 4, 5):
        T = random_tensor((3,) * k, 400 + k)
        for _ in range(250):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            value = evaluate(T, [v] * k)
            grad_total = sum(mode_gradient(T, [v] * k, i) for i in range(1, k + 1))
            defect = abs(float(v @ grad_total) - k * value)
            assert defect <= 1e-12 * (k * abs(value) + 1)
    announce(4, "degree-k homogeneity |v . grad - k f| at 1000 random points")


def test_criterion_05_norm_gradient():
    rng = np.random.default_rng(321)
    step = 1e-6
    saw_negative = 0
    for p in (1.5, 2.0, 3.0, 4.0):
        for _ in range(100):
            x = rng.uniform(0.1, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
            saw_negative += bool(np.any(x < 0))
            grad = p_norm_gradient(x, p)
            fd = np.empty(5)
            for j in range(5):
                xp, xm = x.copy(), x.copy()
                xp[j] += step
                xm[j] -= step
                fd[j] = (p_norm(xp, p) - p_norm(xm, p)) / (2 * step)
            rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
            assert rel <= 1e-6
    assert saw_negative > 300  # sign-preservation cases are well represented
    announce(5, "p-norm gradient matches finite differences for p in {1.5,2,3,4}")


def test_criterion_06_multiplier_identity():
    for shape, seed in (((2, 3, 2), 60), ((3, 3, 3), 61), ((2, 2, 2), 62)):
        T = random_tensor(shape, seed)
        tuples = singular_tuples(T, SolverConfig(restarts=32, seed=seed))
        assert tuples
        scale = float(np.linalg.norm(T.entries)) + 1.0
        for t in tuples:
            value = evaluate(T, list(t.vectors))
            assert abs(t.sigma - value) <= 1e-10 * scale
            for a in t.mode_multipliers:
                for b in t.mode_multipliers:
                    assert abs(a - b) <= 1e-10 * scale
    announce(6, "every accepted tuple has sigma = f and agreeing per-mode multipliers")


def test_criterion_07_circle_completeness():
    for i in range(50):
        k = (3, 4, 5)[i % 3]
        T = random_tensor((2,) * k, 40000 + i, symmetric=True)
        try:
            pairs = symmetric_eigenpairs(T, SolverConfig(restarts=48, seed=i))
            oracle = circle_critical_points(T)
        except DegenerateTensorError:
            continue  # nondegeneracy screen
        assert len(pairs) == len(oracle.points), f"tensor {i}: cardinality mismatch"
        for pt in oracle.points:
            hits = [p for p in pairs if np.linalg.norm(p.vector - pt.vector) < 1e-5]
            assert hits, f"tensor {i}: missing point at value {pt.value}"
            assert abs(hits[0].value - pt.value) <= 1e-7
            assert hits[0].index == pt.index
        report = audit(pairs, 2)
        assert report.consistent and report.parity_sum == 0
    announce(7, "n=2 solver sets equal the complete circle-oracle sets (50 seeds)")


def test_criterion_08_canonical_cubic(cubic):
    pairs = symmetric_eigenpairs(cubic, SolverConfig(restarts=48, seed=0))
    assert len(pairs) == 6
    values = sorted(round(p.value, 9) for p in pairs)
    r = round(2 ** -0.5, 9)
    assert values == [-1.0, -1.0, -r, r, 1.0, 1.0]
    hist = {}
    for p in pairs:
        hist[p.index] = hist.get(p.index, 0) + 1
    assert hist == {0: 3, 1: 3}
    announce(8, "x^3 + y^3 yields exactly 6 pairs with index histogram {0:3, 1:3}")


def test_criterion_09_two_sphere_parity():
    passed = 0
    base = 96
    for i in range(20):
        T = random_tensor((3, 3, 3), 50000 + i, symmetric=True)
        for restarts in (base, 4 * base):
            try:
                pairs = symmetric_eigenpairs(T, SolverConfig(restarts=restarts, seed=i))
                report = audit(pairs, 3)
            except DegenerateTensorError:
                continue
            if (
                report.parity_sum == 2
                and report.counts.get(0, 0) >= 1
                and report.counts.get(2, 0) >= 1
            ):
                passed += 1
                break
    assert passed >= 19, f"only {passed}/20 runs reached parity 2"
    announce(9, f"n=3 parity sum 2 with weak Morse floor reached in {passed}/20 runs")


def test_criterion_10_index_correctness():
    T = DenseTensor(np.diag([1.0, 2.0, 3.0]))
    e = np.eye(3)
    assert classify_index(T, e[0], 1.0) == (0, True)
    assert classify_index(T, e[1], 2.0) == (1, True)
    assert classify_index(T, e[2], 3.0) == (2, True)
    rng = np.random.default_rng(99)
    for shape, seed in (((3, 3, 3), 70), ((2, 2, 2, 2), 71), ((3, 3), 72)):
        T = random_tensor(shape, seed, symmetric=True)
        n = shape[0]
        k = len(shape)
        pairs = symmetric_eigenpairs(T, SolverConfig(restarts=48, seed=seed))
        for p in pairs:
            H = sym_hessian(T, p.vector) - k * p.value * np.eye(n)
            for _ in range(n - 1):
                w = rng.standard_normal(n)
                w -= (w @ p.vector) * p.vector
                w /= np.linalg.norm(w)
                quad = float(w @ H @ w)
                fd = geodesic_second_derivative(T, p.vector, w)
                if abs(quad) > 1e-4 and abs(fd) > 1e-4:
                    assert np.sign(quad) == np.sign(fd)
    announce(10, "Morse indices match geodesic finite-difference second derivatives")


def test_criterion_11_p_norm_reduction():
    shapes = [(3, 3), (2, 2, 2), (3, 3, 3), (4, 4)]
    for i in range(20):
        T = random_tensor(shapes[i % len(shapes)], 80000 + i)
        cfg = SolverConfig(restarts=24, seed=i)
        a = mode_eigenpairs(T, 1, cfg)
        b = generalized_eigenpairs(T, 1, cfg)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert abs(x.value - y.value) <= 1e-12
            assert np.linalg.norm(x.vector - y.vector) <= _DEDUPE_TOLERANCE
    d = np.zeros((3, 3, 3))
    diag = [1.0, 2.0, 3.0]
    for j, val in enumerate(diag):
        d[j, j, j] = val
    pairs = generalized_eigenpairs(
        DenseTensor(d), 1, SolverConfig(restarts=80, seed=5, p=3.0)
    )
    for j, val in enumerate(diag):
        e = np.zeros(3)
        e[j] = 1.0
        hits = [
            p
            for p in pairs
            if abs(p.value - val) <= 1e-8
            and np.linalg.norm(np.abs(p.vector) - e) <= 1e-4
        ]
        assert hits, f"basis vector {j} not recovered with value {val}"
    announce(11, "p=2 reduces to the 2-norm solver; p=k recovers diagonal eigenpairs")


def test_criterion_12_determinism(tmp_path, capsys):
    T = random_tensor((3, 3, 3), 90001, symmetric=True)
    path = tmp_path / "t.json"
    write_tensor_file(T, path)
    argv = ["eig", str(path), "--symmetric", "--audit", "--restarts", "64", "--seed", "2"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out

    def stripped(text):
        doc = json.loads(text)
        doc.pop("timings")
        return json.dumps(doc, sort_keys=True)

    assert stripped(first) == stripped(second)
    pairs_a = symmetric_eigenpairs(T, SolverConfig(restarts=64, seed=2))
    pairs_b = symmetric_eigenpairs(T, SolverConfig(restarts=64, seed=2))
    assert all(
        p.value == q.value and np.array_equal(p.vector, q.vector)
        for p, q in zip(pairs_a, pairs_b)
    )
    announce(12, "identical seeds give identical reports modulo timings")


def _same_points(pairs, oracle_points):
    """Each pair matched one to one to an oracle point within the dedupe radius, same index."""
    for p in pairs:
        hits = [q for q in oracle_points if np.linalg.norm(p.vector - q.vector) <= _DEDUPE_TOLERANCE]
        if len(hits) != 1 or hits[0].index != p.index or abs(hits[0].value - p.value) > 1e-9:
            return False
    return True


def test_criterion_13_sphere_completeness():
    for shape in ((3, 3, 3), (3, 3, 3, 3), (4, 4, 4), (4, 4, 4, 4)):
        for s in range(3):
            T = random_tensor(shape, 130000 + s, symmetric=True)
            k = len(shape)
            oracle = sphere_critical_points(T)
            assert oracle.complete
            scale = float(np.max(np.abs(T.data)))
            for pt in oracle.points:
                assert pt.value == pytest.approx(evaluate(T, [pt.vector] * k), abs=1e-13 * scale)
                assert np.linalg.norm(sym_gradient(T, pt.vector) - pt.value * pt.vector) <= 1e-10
            full = symmetric_eigenpairs(T, SolverConfig(restarts=2000, seed=s))
            assert len(full) == len(oracle.points), f"{shape} seed {s}: cardinality mismatch"
            assert _same_points(full, oracle.points), f"{shape} seed {s}: sets differ"
            assert _same_points(symmetric_eigenpairs(T, SolverConfig(restarts=32, seed=s)), oracle.points)
    announce(13, "n>=3 solver sets equal the complete homotopy-oracle sets; default effort a subset")
