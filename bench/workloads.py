"""The benchmark's workloads: seeded inputs, the timed call, output checks, references.

A workload turns the workload seed into a stream of rounds.  A round holds
one item per kind (a shape, an order or a CLI invocation), so every round
has the same mix and whole rounds keep the mix of a run fixed.  For each
item a workload knows

- ``run``: the call into tensorcrit that the benchmark times,
- ``check``: the output checks, which return the verified points found,
  the in-item oracle points (circle oracle, matrix SVD) and the Morse
  verdict, or raise ``CheckFailed``,
- ``reference``: the expensive reference set recall is scored against
  where no in-item oracle exists (a max-effort solve with another seed).

Every function takes the imported ``tensorcrit`` package as ``tc``, because
the benchmark re-imports it for each timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Points closer than this are one critical point: far above the accuracy
# the solver polishes to (residual 1e-10), far below the spacing of distinct
# critical points of the generic tensors used here.
MATCH_TOL = 1e-3
# Largest stationarity defect a returned point may show when recomputed
# through the public API; the solver accepts points at 1e-10.
RESIDUAL_TOL = 1e-8
# Solver seed of the reference runs, distinct from the default seed 0.
REF_SEED = 7_777_777


class CheckFailed(Exception):
    """An item's output failed a correctness check."""


@dataclass(frozen=True)
class Size:
    """How much work a run does.

    ``restarts`` None means the program's default search effort.  The first
    ``scored_rounds`` rounds are always completed and scored (recall and
    Morse share); ``pool_rounds`` distinct rounds are generated at set-up
    and then repeated if a run gets through all of them.
    """

    name: str
    restarts: int | None
    ref_restarts: int
    scored_rounds: int
    pool_rounds: int
    setup_reps: int


SIZES = {
    "full": Size("full", restarts=None, ref_restarts=800, scored_rounds=3, pool_rounds=40, setup_reps=5),
    "tiny": Size("tiny", restarts=24, ref_restarts=96, scored_rounds=1, pool_rounds=2, setup_reps=1),
}


@dataclass
class Item:
    key: str
    kind: str
    tensor: object
    argv: list | None = None


@dataclass
class Checked:
    points: list = field(default_factory=list)
    oracle: list | None = None
    consistent: bool | None = None


def tensor_seed(seed: int, round_no: int, kind_no: int) -> int:
    """Seed of one input tensor, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, round_no, kind_no]).generate_state(1, np.uint64)[0])


def match(reference: list, found: list) -> tuple[int, int]:
    """(reference points found, found points missing from the reference)."""
    if not reference or not found:
        return 0, len(found)
    R = np.array(reference)
    F = np.array(found)
    hit = np.linalg.norm(R[:, None, :] - F[None, :, :], axis=2) <= MATCH_TOL
    return int(hit.any(axis=1).sum()), int((~hit.any(axis=0)).sum())


def _config(tc, size):
    return None if size.restarts is None else tc.SolverConfig(restarts=size.restarts)


def _ref_config(tc, size, **kw):
    return tc.SolverConfig(restarts=size.ref_restarts, seed=REF_SEED, **kw)


def _check_pairs(tc, tensor, pairs, mode, p=2.0):
    points = []
    for pt in pairs:
        vec = np.asarray(pt["vector"] if isinstance(pt, dict) else pt.vector, dtype=float)
        value = pt["value"] if isinstance(pt, dict) else pt.value
        try:
            r = tc.residual_eigen(tensor, vec, value, mode, p)
        except ValueError as exc:
            raise CheckFailed(f"eigenpair rejected by residual_eigen: {exc}") from exc
        if not r <= RESIDUAL_TOL:
            raise CheckFailed(f"eigenpair residual {r:.3e} exceeds {RESIDUAL_TOL:.0e}")
        points.append(vec)
    return points


def _unique(points):
    kept = []
    for v in points:
        if not kept or float(np.min(np.linalg.norm(np.array(kept) - v, axis=1))) > MATCH_TOL:
            kept.append(v)
    return kept


def tuple_class(vectors):
    """One representative of a singular tuple's sign class, as a flat vector.

    Flipping the signs of an even number of a tuple's vectors keeps the
    form's value, so each tuple with sigma > 0 comes in 2^(k-1) variants,
    all distinct points of the product of spheres.  The solver reports
    whichever variants its restarts reach, so recall counts classes: every
    vector but the first is flipped to make its largest entry positive, and
    the first vector takes the compensating sign.
    """
    vecs = [np.array(v, dtype=float) for v in vectors]
    for i in range(1, len(vecs)):
        if vecs[i][np.argmax(np.abs(vecs[i]))] < 0:
            vecs[i] = -vecs[i]
            vecs[0] = -vecs[0]
    return np.concatenate(vecs)


def _check_tuples(tc, tensor, tuples):
    points = []
    for t in tuples:
        if isinstance(t, dict):
            vecs, sigma = [np.asarray(v, dtype=float) for v in t["vectors"]], t["sigma"]
        else:
            vecs, sigma = [np.asarray(v, dtype=float) for v in t.vectors], t.sigma
        for i, v in enumerate(vecs):
            if abs(float(np.linalg.norm(v)) - 1.0) > RESIDUAL_TOL:
                raise CheckFailed(f"singular vector {i + 1} is not a unit vector")
            g = tc.mode_gradient(tensor, vecs, i + 1)
            r = float(np.linalg.norm(g - sigma * v))
            if not r <= RESIDUAL_TOL:
                raise CheckFailed(f"mode-{i + 1} stationarity defect {r:.3e} exceeds {RESIDUAL_TOL:.0e}")
        points.append(tuple_class(vecs))
    return _unique(points)


def _pairs_ref(pairs):
    return [np.asarray(pt.vector, dtype=float) for pt in pairs]


def _tuples_ref(tuples):
    return _unique([tuple_class(t.vectors) for t in tuples])


class Workload:
    name = ""
    kinds: dict = {}

    def kind_list(self, size):
        return self.kinds[size.name]

    def make_pool(self, tc, seed, size, workdir, rounds=None):
        """``rounds`` rounds of items (the size's pool by default)."""
        kinds = self.kind_list(size)
        return [
            [self.make_item(tc, seed, r, i, kind, workdir) for i, kind in enumerate(kinds)]
            for r in range(size.pool_rounds if rounds is None else rounds)
        ]

    def make_item(self, tc, seed, r, i, kind, workdir):
        raise NotImplementedError

    def run(self, tc, item, size):
        raise NotImplementedError

    def check(self, tc, item, out) -> Checked:
        raise NotImplementedError

    def reference(self, tc, item, size):
        """{"points": [...], "consistent": bool | None}, or None when the item carries its oracle."""
        return None


class EigAudit(Workload):
    name = "eig_audit"
    kinds = {
        "full": [(3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6), (3, 3, 3, 3), (4, 4, 4, 4)],
        "tiny": [(3, 3, 3), (3, 3, 3, 3)],
    }

    def make_item(self, tc, seed, r, i, kind, workdir):
        shape = "x".join(map(str, kind))
        return Item(f"r{r}/{shape}", shape, tc.random_tensor(kind, tensor_seed(seed, r, i), symmetric=True))

    def run(self, tc, item, size):
        pairs = tc.symmetric_eigenpairs(item.tensor, _config(tc, size))
        return pairs, tc.audit(pairs, item.tensor.shape[0])

    def check(self, tc, item, out):
        pairs, report = out
        return Checked(_check_pairs(tc, item.tensor, pairs, 1), consistent=report.consistent)

    def reference(self, tc, item, size):
        pairs = tc.symmetric_eigenpairs(item.tensor, _ref_config(tc, size))
        return {"points": _pairs_ref(pairs), "consistent": tc.audit(pairs, item.tensor.shape[0]).consistent}


class CircleRecall(Workload):
    name = "circle_recall"
    kinds = {"full": [3, 4, 5], "tiny": [3, 4]}

    def make_item(self, tc, seed, r, i, kind, workdir):
        shape = (2,) * kind
        return Item(f"r{r}/k{kind}", f"k{kind}", tc.random_tensor(shape, tensor_seed(seed, r, i), symmetric=True))

    def run(self, tc, item, size):
        crit = tc.circle_critical_points(item.tensor)
        pairs = tc.symmetric_eigenpairs(item.tensor, _config(tc, size))
        return crit, pairs, tc.audit(pairs, 2)

    def check(self, tc, item, out):
        crit, pairs, report = out
        if not crit.complete:
            raise CheckFailed("circle oracle did not certify a complete set")
        oracle = [np.asarray(pt.vector, dtype=float) for pt in crit.points]
        return Checked(_check_pairs(tc, item.tensor, pairs, 1), oracle, report.consistent)


class SvdTuples(Workload):
    name = "svd_tuples"
    kinds = {
        "full": [(4, 5, 6), (3, 4, 5), (3, 3, 3), (2, 3, 4, 3), (3, 4), (5, 6)],
        "tiny": [(3, 3, 3), (3, 4)],
    }

    def make_item(self, tc, seed, r, i, kind, workdir):
        shape = "x".join(map(str, kind))
        return Item(f"r{r}/{shape}", shape, tc.random_tensor(kind, tensor_seed(seed, r, i)))

    def run(self, tc, item, size):
        tuples = tc.singular_tuples(item.tensor, _config(tc, size))
        oracle = tc.svd_small(item.tensor.data) if item.tensor.order == 2 else None
        return tuples, oracle

    def check(self, tc, item, out):
        tuples, oracle = out
        points = _check_tuples(tc, item.tensor, tuples)
        if oracle is None:
            return Checked(points)
        sigma, U, V = oracle
        ref = [tuple_class([U[:, j], V[:, j]]) for j in np.flatnonzero(sigma > 1e-8)]
        return Checked(points, ref)

    def reference(self, tc, item, size):
        if item.tensor.order == 2:
            return None
        return {"points": _tuples_ref(tc.singular_tuples(item.tensor, _ref_config(tc, size))), "consistent": None}


def _identity(tc):
    return tc.DenseTensor(np.eye(3))


def _zero(tc):
    return tc.DenseTensor(np.zeros((3, 3, 3)))


def _ixi(tc):
    eye = np.eye(3)
    return tc.symmetrize(tc.DenseTensor(np.einsum("ij,kl->ijkl", eye, eye)))


def _diag3(tc):
    data = np.zeros((3, 3, 3))
    data[np.arange(3), np.arange(3), np.arange(3)] = 1.0
    return tc.DenseTensor(data)


# kind -> (tensor source, CLI arguments after the file, expected exit codes).
# A random source is (shape, symmetric); a callable builds a fixed degenerate input.
_CLI_KINDS = {
    "eig-mode2": (((3, 3, 3), False), ["eig", "--mode", "2"], (0,)),
    "eig-mode1-p3": (((3, 3, 3), False), ["eig", "--mode", "1", "--p", "3"], (0,)),
    "eig-sym-p1.5": (((3, 3, 3), True), ["eig", "--symmetric", "--p", "1.5"], (0,)),
    # exit 3 reports an inconsistent Morse audit: a finding, not a failure
    "eig-sym-audit": (((3, 3, 3), True), ["eig", "--symmetric", "--audit"], (0, 3)),
    "svd": (((3, 4, 5), False), ["svd"], (0,)),
    "deg-identity": (_identity, ["eig", "--symmetric"], (4,)),
    "deg-zero": (_zero, ["eig", "--symmetric"], (4,)),
    "deg-ixi": (_ixi, ["eig", "--symmetric"], (4,)),
    "deg-diag-p3": (_diag3, ["eig", "--mode", "1", "--p", "3"], (4,)),
}


class CliMixed(Workload):
    name = "cli_mixed"
    kinds = {"full": list(_CLI_KINDS), "tiny": list(_CLI_KINDS)}

    def make_item(self, tc, seed, r, i, kind, workdir):
        source, args, _ = _CLI_KINDS[kind]
        if callable(source):
            tensor = source(tc)
            path = os.path.join(workdir, f"{kind}.json")
        else:
            shape, symmetric = source
            tensor = tc.random_tensor(shape, tensor_seed(seed, r, i), symmetric=symmetric)
            path = os.path.join(workdir, f"r{r}-{kind}.json")
        tc.write_tensor_file(tensor, path)
        return Item(f"r{r}/{kind}", kind, tensor, [args[0], path] + args[1:])

    def run(self, tc, item, size):
        argv = list(item.argv)
        if size.restarts is not None:
            argv += ["--restarts", str(size.restarts)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, tc, item, out):
        code, stdout, stderr = out
        expected = _CLI_KINDS[item.kind][2]
        if code not in expected:
            raise CheckFailed(f"exit code {code}, expected {expected}: {stderr.strip()[:200]}")
        if code == 4:
            if stdout or not stderr.startswith("degenerate:"):
                raise CheckFailed("exit 4 without a degenerate diagnostic on stderr only")
            return Checked()
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report is not JSON: {exc}") from exc
        if report.get("schema_version") != 1 or report.get("command") != item.argv[0]:
            raise CheckFailed("report has the wrong schema_version or command")
        if item.argv[0] == "svd":
            return Checked(_check_tuples(tc, item.tensor, report["tuples"]))
        mode = report["mode"] or 1
        points = _check_pairs(tc, item.tensor, report["pairs"], mode, report["config"]["p"])
        consistent = None
        if report["morse"] is not None:
            consistent = bool(report["morse"]["consistent"])
            if consistent != (code == 0):
                raise CheckFailed(f"exit code {code} disagrees with morse.consistent={consistent}")
        return Checked(points, consistent=consistent)

    def reference(self, tc, item, size):
        kind = item.kind
        if kind.startswith("deg-"):
            return None
        T = item.tensor
        if kind == "svd":
            return {"points": _tuples_ref(tc.singular_tuples(T, _ref_config(tc, size))), "consistent": None}
        if kind == "eig-sym-audit":
            pairs = tc.symmetric_eigenpairs(T, _ref_config(tc, size))
            return {"points": _pairs_ref(pairs), "consistent": tc.audit(pairs, T.shape[0]).consistent}
        if kind == "eig-mode2":
            pairs = tc.mode_eigenpairs(T, 2, _ref_config(tc, size))
        elif kind == "eig-mode1-p3":
            pairs = tc.generalized_eigenpairs(T, 1, _ref_config(tc, size, p=3.0))
        else:
            pairs = tc.generalized_eigenpairs(T, 1, _ref_config(tc, size, p=1.5))
        return {"points": _pairs_ref(pairs), "consistent": None}


WORKLOADS = {w.name: w for w in (EigAudit(), CircleRecall(), SvdTuples(), CliMixed())}
