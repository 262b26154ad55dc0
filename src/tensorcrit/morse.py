"""Consistency checks for the index histogram of a critical-point set.

The counts c_lam of nondegenerate critical points of Morse index lam obey
the Betti numbers b_lam (Milnor, Morse Theory, 1963): weak and strong Morse
inequalities, Euler parity, and c_lam = b_lam wherever both neighbor counts
c_(lam-1), c_(lam+1) are 0 (lacunary principle).  The rules read the topology
from b alone, which ``betti_sphere`` gives for S^(n-1).  ``audit`` adds one
violation per failed rule; parity and the strong inequalities decide, the
other rules follow.  A failing set is provably incomplete or degenerate.
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
    """The counts c (``counts``, by index) of S^(n-1) against its ``betti`` b.

    ``parity_sum`` and ``expected_parity`` are the alternating sums of c and
    b.  ``parity_ok`` and ``strong_ok`` decide ``consistent``; ``weak_ok``,
    ``lacunary_ok`` and ``top_index_ok`` (the weak rule at lam = n - 1) are
    implied diagnostics.  ``violations``: one message per failed rule.
    """

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
        """Every rule holds; audit records one violation for each failed rule."""
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
    return [1] + [0] * (n - 2) + [1]


def _alternating_sum(values) -> int:
    """Sum of (-1)^lam values[lam]; of Betti numbers, the Euler characteristic."""
    return sum((-1) ** lam * v for lam, v in enumerate(values))


def _weak_shortfall(h: IndexHistogram, b: list) -> list:
    """The indices lam with c_lam < b_lam."""
    return [lam for lam in range(h.n) if h.count(lam) < b[lam]]


def euler_parity_check(h: IndexHistogram):
    """(passed, parity_sum): the counts' alternating sum against the Betti numbers'."""
    s = _alternating_sum(h.count(lam) for lam in range(h.n))
    return s == _alternating_sum(betti_sphere(h.n)), s


def weak_morse_check(h: IndexHistogram) -> bool:
    """c_lam >= b_lam for every lam; on a sphere, forces a minimum and a maximum."""
    return not _weak_shortfall(h, betti_sphere(h.n))


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
    """``("lambda=<lam>", ok)`` per index: c_lam = b_lam or a neighbor count is positive."""
    b = betti_sphere(h.n)
    return [
        (f"lambda={lam}", h.count(lam) == b[lam] or h.count(lam - 1) + h.count(lam + 1) > 0)
        for lam in range(h.n)
    ]


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
    b = betti_sphere(n)
    parity_ok, parity_sum = euler_parity_check(h)
    expected = _alternating_sum(b)
    short = _weak_shortfall(h, b)
    strong_ok = strong_morse_check(h)
    lac = lacunary_checks(h)
    incomplete = "critical-point set is provably incomplete or tensor is degenerate"
    rules = [
        (parity_ok, f"alternating index sum is {parity_sum}, expected {expected}: {incomplete}"),
        (not short, f"weak Morse inequality violated: c_lam < b_lam at lam in {short}"),
        (strong_ok, "strong Morse inequality violated"),
        *[(ok, f"lacunary constraint {name} violated") for name, ok in lac],
    ]
    return MorseReport(
        n=n,
        counts=dict(h.counts),
        parity_sum=parity_sum,
        expected_parity=expected,
        betti=tuple(b),
        parity_ok=parity_ok,
        weak_ok=not short,
        strong_ok=strong_ok,
        lacunary_ok=all(ok for _, ok in lac),
        top_index_ok=n - 1 not in short,
        violations=tuple(message for ok, message in rules if not ok),
    )
