"""Consistency checks for the index histogram of a critical-point set.

A nondegenerate critical-point set of a smooth function on the sphere
S^(n-1) is constrained by the sphere's homology: the count c_lam of
points with Morse index lam must dominate the Betti numbers (weak and
strong Morse inequalities), the alternating sum must equal the Euler
characteristic (0 for n even, 2 for n odd), and isolated index gaps are
impossible (lacunary principle).  A histogram failing any of these is
provably missing points or comes from a degenerate function.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

__all__ = [
    "IndexHistogram",
    "MorseReport",
    "betti_sphere",
    "euler_parity_check",
    "weak_morse_check",
    "strong_morse_check",
    "lacunary_checks",
    "audit",
]


def _check_dimension(n):
    """Reject an ambient dimension n of S^(n-1) that is a bool or not an integer >= 2."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"ambient dimension n must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class IndexHistogram:
    """Counts c_lam of critical points of index lam on S^(n-1)."""

    n: int
    counts: dict

    def __post_init__(self):
        _check_dimension(self.n)
        clean = {}
        for lam, c in self.counts.items():
            # bool is an Integral; int() would silently truncate 1.5 or 2.7
            if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (lam, c)):
                raise ValueError(f"indices and counts must be integers, got {lam!r}: {c!r}")
            lam = int(lam)
            c = int(c)
            if not 0 <= lam <= self.n - 1:
                raise ValueError(
                    f"index {lam} is outside 0..{self.n - 1}; the sphere S^{self.n - 1} "
                    f"has dimension {self.n - 1}"
                )
            if c < 0:
                raise ValueError("counts must be >= 0")
            clean[lam] = c
        object.__setattr__(self, "counts", clean)

    def count(self, lam: int) -> int:
        """c_lam, with indices outside 0..n-1 counting as zero."""
        return self.counts.get(lam, 0)

    @classmethod
    def from_pairs(cls, pairs, n: int) -> "IndexHistogram":
        counts = {}
        for pt in pairs:
            if pt.index is None:
                raise ValueError("every pair must carry a Morse index")
            counts[pt.index] = counts.get(pt.index, 0) + 1
        return cls(n=n, counts=counts)


@dataclass(frozen=True)
class MorseReport:
    n: int
    counts: dict
    parity_sum: int
    expected_parity: int
    betti: tuple
    parity_ok: bool
    weak_ok: bool
    strong_ok: bool
    lacunary_ok: bool
    top_index_ok: bool
    violations: tuple

    @property
    def consistent(self) -> bool:
        """Every rule holds; audit records one violation for each false flag."""
        return not self.violations

    def to_dict(self) -> dict:
        """One key per field plus ``consistent``; counts keyed by index string, tuples as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["counts"] = {str(k): v for k, v in sorted(self.counts.items())}
        out["betti"], out["violations"] = list(self.betti), list(self.violations)
        out["consistent"] = self.consistent
        return out


def betti_sphere(n: int) -> list:
    """Betti numbers b_0..b_(n-1) of S^(n-1): 1 at bottom and top, else 0."""
    _check_dimension(n)
    b = [0] * n
    b[0] = 1
    b[n - 1] = 1
    return b


def euler_parity_check(h: IndexHistogram):
    """Alternating sum against the sphere's Euler characteristic.

    Returns (passed, parity_sum); the target is 0 for even n, 2 for odd n.
    """
    s = sum((-1) ** lam * c for lam, c in h.counts.items())
    expected = 0 if h.n % 2 == 0 else 2
    return s == expected, s


def weak_morse_check(h: IndexHistogram) -> bool:
    """c_lam >= b_lam for every lam; forces a minimum and a maximum."""
    b = betti_sphere(h.n)
    return all(h.count(lam) >= b[lam] for lam in range(h.n))


def strong_morse_check(h: IndexHistogram) -> bool:
    """Alternating partial sums of b dominated by those of c, each lam."""
    b = betti_sphere(h.n)
    lhs = rhs = 0
    for lam in range(h.n):
        # the partial sum up to lam is the term at lam minus the sum up to lam - 1
        lhs = b[lam] - lhs
        rhs = h.count(lam) - rhs
        if lhs > rhs:
            return False
    return True


def lacunary_checks(h: IndexHistogram) -> list:
    """Per-item results of the no-isolated-gap constraints.

    An index lam with b_lam != c_lam forces a neighbor count c_(lam-1) or
    c_(lam+1) to be positive; counts outside 0..n-1 are identically zero,
    which makes item (iii) trivially true.  Item (ii) runs over the middle
    indices 2..n-2, where b_lam = 0 on S^(n-1).
    """
    n = h.n
    items = []
    items.append(("i", h.count(0) == 1 or h.count(1) > 0))
    for lam in range(2, n - 1):
        ok = h.count(lam) == 0 or (h.count(lam - 1) + h.count(lam + 1)) > 0
        items.append((f"ii:lambda={lam}", ok))
    items.append(("iii", True))
    items.append(("iv", h.count(n - 1) == 1 or h.count(n - 2) > 0))
    return items


def audit(pairs, n: int) -> MorseReport:
    """Full consistency report for a classified, nondegenerate eigenpair set.

    Every pair must carry an index and nondegenerate=True; a degenerate
    pair invalidates the whole analysis and is rejected.  The report only
    diagnoses, it never corrects: a parity failure cannot distinguish a
    missed critical point from a degenerate tensor.
    """
    for pt in pairs:
        if pt.index is None or pt.nondegenerate is not True:
            raise ValueError(
                "audit needs classified pairs with nondegenerate=True; "
                "degenerate or unclassified pairs cannot be audited"
            )
    h = IndexHistogram.from_pairs(pairs, n)
    parity_ok, parity_sum = euler_parity_check(h)
    expected = 0 if n % 2 == 0 else 2
    weak_ok = weak_morse_check(h)
    strong_ok = strong_morse_check(h)
    lac = lacunary_checks(h)
    top_index_ok = h.count(n - 1) >= 1
    incomplete = "critical-point set is provably incomplete or tensor is degenerate"
    rules = [
        (parity_ok, f"alternating index sum is {parity_sum}, expected {expected}: {incomplete}"),
        (weak_ok, "weak Morse inequality violated: some c_lam < b_lam"),
        (strong_ok, "strong Morse inequality violated"),
        *[(ok, f"lacunary constraint {name} violated") for name, ok in lac],
        (top_index_ok, f"no critical point of top index {n - 1}"),
    ]
    return MorseReport(
        n=n,
        counts=dict(h.counts),
        parity_sum=parity_sum,
        expected_parity=expected,
        betti=tuple(betti_sphere(n)),
        parity_ok=parity_ok,
        weak_ok=weak_ok,
        strong_ok=strong_ok,
        lacunary_ok=all(ok for _, ok in lac),
        top_index_ok=top_index_ok,
        violations=tuple(message for ok, message in rules if not ok),
    )
