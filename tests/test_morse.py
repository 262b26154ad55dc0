from dataclasses import fields

import numpy as np
import pytest

from tensorcrit import (
    DenseTensor,
    IndexHistogram,
    SolverConfig,
    audit,
    betti_sphere,
    euler_parity_check,
    lacunary_checks,
    random_tensor,
    strong_morse_check,
    symmetric_eigenpairs,
    weak_morse_check,
)
from tensorcrit.solver import EigenPair


def hist(n, counts):
    return IndexHistogram(n=n, counts=counts)


def test_betti_numbers():
    assert betti_sphere(2) == [1, 1]
    assert betti_sphere(3) == [1, 0, 1]
    assert betti_sphere(5) == [1, 0, 0, 0, 1]


def test_betti_rejects_small_n():
    with pytest.raises(ValueError):
        betti_sphere(1)
    # 2.5 used to pass the histogram and fail in betti_sphere with a TypeError
    for n in (2.5, True, "3"):
        with pytest.raises(ValueError, match="integer >= 2"):
            betti_sphere(n)
        with pytest.raises(ValueError, match="integer >= 2"):
            hist(n, {})
        with pytest.raises(ValueError, match="integer >= 2"):
            audit([], n)
    assert betti_sphere(np.int64(3)) == [1, 0, 1]


def test_histogram_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        hist(3, {3: 1})
    with pytest.raises(ValueError):
        hist(3, {-1: 1})
    with pytest.raises(ValueError):
        hist(3, {0: -2})
    for counts in ({1.5: 1}, {0: 2.7}, {2: True}, {True: 1}):
        with pytest.raises(ValueError):
            hist(3, counts)
    h = hist(3, {np.int64(1): np.int64(2)})
    assert h.counts == {1: 2} and type(next(iter(h.counts))) is int


def test_parity_circle():
    ok, s = euler_parity_check(hist(2, {0: 3, 1: 3}))
    assert ok and s == 0


def test_parity_two_sphere():
    ok, s = euler_parity_check(hist(3, {0: 1, 1: 0, 2: 1}))
    assert ok and s == 2


def test_parity_violation():
    ok, s = euler_parity_check(hist(2, {0: 2, 1: 1}))
    assert not ok and s == 1


def test_weak_morse():
    assert weak_morse_check(hist(3, {0: 1, 1: 0, 2: 1}))
    assert not weak_morse_check(hist(3, {0: 1, 1: 1, 2: 0}))
    assert weak_morse_check(hist(2, {0: 3, 1: 3}))


def test_strong_morse():
    assert strong_morse_check(hist(3, {0: 1, 1: 0, 2: 1}))
    assert not strong_morse_check(hist(3, {0: 2, 1: 0, 2: 2}))
    assert strong_morse_check(hist(2, {0: 3, 1: 3}))


def test_lacunary_circle():
    items = dict(lacunary_checks(hist(2, {0: 3, 1: 3})))
    assert items["i"] and items["iv"] and items["iii"]


def test_lacunary_gap_violation():
    items = dict(lacunary_checks(hist(5, {0: 1, 1: 0, 2: 1, 3: 0, 4: 1})))
    assert items["ii:lambda=2"] is False


def test_lacunary_two_sphere_all_pass():
    assert all(ok for _, ok in lacunary_checks(hist(3, {0: 1, 1: 0, 2: 1})))


def _pairs_from_counts(counts):
    out = []
    for lam, c in counts.items():
        for _ in range(c):
            out.append(
                EigenPair(
                    vector=np.array([1.0, 0.0]),
                    value=1.0,
                    mode=0,
                    residual=0.0,
                    index=lam,
                    nondegenerate=True,
                )
            )
    return out


def test_audit_consistent_cubic_set(cubic):
    pairs = symmetric_eigenpairs(cubic, SolverConfig(restarts=40, seed=0))
    report = audit(pairs, 2)
    assert report.consistent
    assert report.parity_sum == 0 and report.expected_parity == 0
    assert report.counts == {0: 3, 1: 3}


def test_audit_detects_missing_pair(cubic):
    pairs = symmetric_eigenpairs(cubic, SolverConfig(restarts=40, seed=0))
    short = [p for p in pairs if p.index == 1][:2] + [p for p in pairs if p.index == 0]
    report = audit(short, 2)
    assert not report.consistent
    assert not report.parity_ok
    assert any("incomplete" in v for v in report.violations)


def test_audit_matrix_set():
    T = DenseTensor(np.diag([1.0, 2.0]))
    pairs = symmetric_eigenpairs(T, SolverConfig(restarts=24, seed=1))
    report = audit(pairs, 2)
    assert report.consistent
    assert report.counts == {0: 2, 1: 2}


def test_audit_rejects_unclassified():
    bad = [EigenPair(vector=np.array([1.0, 0.0]), value=1.0, mode=0, residual=0.0)]
    with pytest.raises(ValueError):
        audit(bad, 2)


def test_audit_rejects_degenerate_pair():
    bad = _pairs_from_counts({0: 1, 1: 1})
    from dataclasses import replace

    bad[0] = replace(bad[0], nondegenerate=False)
    with pytest.raises(ValueError):
        audit(bad, 2)


def test_audit_never_passes_missing_top_index():
    report = audit(_pairs_from_counts({0: 2}), 2)
    assert not report.consistent and not report.top_index_ok


def test_deleting_any_pair_breaks_parity():
    for n, counts in ((2, {0: 3, 1: 3}), (3, {0: 3, 1: 2, 2: 1})):
        pairs = _pairs_from_counts(counts)
        base = IndexHistogram.from_pairs(pairs, n)
        assert euler_parity_check(base)[0]
        for drop in range(len(pairs)):
            rest = pairs[:drop] + pairs[drop + 1 :]
            ok, _ = euler_parity_check(IndexHistogram.from_pairs(rest, n))
            assert not ok


@pytest.mark.parametrize("seed", range(12))
def test_random_n3_consistency(seed):
    # solver output that reaches parity 2 must pass every remaining check
    T = random_tensor((3, 3, 3), 900 + seed, symmetric=True)
    pairs = symmetric_eigenpairs(T, SolverConfig(restarts=96, seed=seed))
    report = audit(pairs, 3)
    if report.parity_sum == 2:
        assert report.consistent


def test_report_dict_lists_every_field_and_orders_counts_numerically():
    report = audit(_pairs_from_counts({0: 1, 2: 1, 10: 1, 11: 1}), 12)
    out = report.to_dict()
    assert set(out) == {f.name for f in fields(report)} | {"consistent"}
    assert list(out["counts"]) == ["0", "2", "10", "11"]
    assert out["betti"] == list(report.betti) and out["violations"] == list(report.violations)
    assert out["violations"] and out["consistent"] is False
