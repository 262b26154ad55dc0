"""tensorcrit benchmark: one workload, one process, a closed loop of items.

    python3 bench/run.py --workload eig_audit --seed 1 --seconds 20 --trace 0

A single client runs items one after another (a closed loop: batch solves,
no arrival schedule).  With ``--trace 0`` the run times set-up and items
and prints the end-to-end metrics; with ``--trace 1`` it runs the scored
rounds once untraced and once under the layer tracer and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines before it, starting with ``#``, give the environment and details.
Run it from the repository root; tensorcrit is imported from ``src/``.
"""

import os

# One BLAS thread, set before numpy loads: OpenBLAS would otherwise start a
# pool per core and the timings would depend on the machine's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads its default restart count from here; the workload fixes it.
os.environ.pop("TENSORCRIT_RESTARTS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
STATE = os.path.join(HERE, "_state")
# item_s_tail is this fixed percentile, and every run times enough items to
# leave at least ten samples beyond it.  The highest percentile with ten
# samples beyond would move with the item count, which the host's and the
# program's speed set: a faster program would report a higher percentile.
TAIL_PERCENTILE = 85.0
TAIL_MIN_ITEMS = math.ceil(10 / (1.0 - TAIL_PERCENTILE / 100.0))
WARMUP_SEED = 2**32

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "recall": "ratio",
    "morse_consistent_share": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class SpeedClock:
    """Wall times, and the same times rescaled to a reference machine speed.

    The host's speed drifts by tens of percent within seconds (shared
    cores), which would swamp the differences the benchmark must resolve.
    A fixed calibration kernel (small einsums, a batched solve and a Python
    loop, as in the solver) runs between measured calls; a call's reference
    time is its wall time times ``REF_KERNEL_S`` over the mean kernel time
    just before and just after it.
    """

    REF_KERNEL_S = 0.002

    def __init__(self):
        rng = np.random.default_rng(0)
        self._t = rng.standard_normal((5, 5, 5))
        self._v = rng.standard_normal((64, 5))
        self._j = rng.standard_normal((64, 6, 6)) + 6.0 * np.eye(6)
        self._f = rng.standard_normal((64, 6, 1))
        # held here so that the tracer's wrappers never run inside the kernel
        self._einsum, self._solve = np.einsum, np.linalg.solve
        self._kernel()
        self._last = self._kernel()

    def _kernel(self):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(24):
            g = self._einsum("abc,Zb,Zc->Za", self._t, self._v, self._v)
            x = self._solve(self._j, self._f)
            acc += float(np.linalg.norm(g, axis=1).sum()) + float(x[0, 0, 0])
            for row in self._v[:16]:
                acc += float(row @ row)
        return time.perf_counter() - t0

    def measure(self, fn):
        """(wall seconds, reference seconds, result, exception or None) of fn()."""
        before = self._last
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the caller decides what an exception means
            result, error = None, exc
        wall = time.perf_counter() - t0
        self._last = self._kernel()
        return wall, wall * self.REF_KERNEL_S / ((before + self._last) / 2.0), result, error


def note(text):
    print(f"# {text}", flush=True)


def load_program():
    """Import tensorcrit afresh from this checkout's src/."""
    if not os.path.isdir(os.path.join(SRC, "tensorcrit")):
        raise BenchError(f"no tensorcrit package under {SRC}")
    for name in [n for n in sys.modules if n == "tensorcrit" or n.startswith("tensorcrit.")]:
        del sys.modules[name]
    tc = importlib.import_module("tensorcrit")
    importlib.import_module("tensorcrit.cli")
    if not os.path.abspath(tc.__file__).startswith(SRC + os.sep):
        raise BenchError(f"tensorcrit was imported from {tc.__file__}, not from {SRC}")
    return tc


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def set_up(wl, seed, size, workdir):
    """Import tensorcrit, build the item pool, run one untimed warm-up item.

    The warm-up item is built from a fixed seed, the same for every
    workload seed, so that set-up time does not depend on how hard one
    seeded tensor happens to be.
    """
    tc = load_program()
    pool = wl.make_pool(tc, seed, size, workdir)
    warmdir = os.path.join(workdir, "warm-up")
    os.makedirs(warmdir, exist_ok=True)
    wl.run(tc, wl.make_item(tc, WARMUP_SEED, 0, 0, wl.kind_list(size)[0], warmdir), size)
    return tc, pool


def run_item(wl, tc, item, size, tally, clock, tracer=None):
    """Run and time one item (traced if a tracer is given), then check it outside the clock."""

    def call():
        with tracer.item(item.key) if tracer else contextlib.nullcontext():
            return wl.run(tc, item, size)

    wall, ref, out, error = clock.measure(call)
    checked = None
    if error is None:
        try:
            checked = wl.check(tc, item, out)
        except Exception as exc:  # a failed check, or output too malformed to check
            error = exc
    tally["attempted"] += 1
    if error is not None:
        tally["failed"] += 1
        if tally["failed"] <= 5:
            note(f"FAILED {item.key}: {type(error).__name__}: {error}")
    return wall, ref, checked


def tail(times):
    """(value, samples beyond it) of the TAIL_PERCENTILE-th percentile, nearest rank."""
    ordered = sorted(times)
    idx = max(math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - 1 - idx


def references(wl, tc, seed, size, scored):
    """Reference sets of the scored items, cached per workload, size and seed.

    The key also carries a digest of workloads.py, which defines the items
    and the reference runs, so an edited workload never reads stale sets.
    """
    with open(workloads.__file__, "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    tag = f"{wl.name}-{size.name}-s{seed}-{version}"
    path = os.path.join(STATE, "refs", f"{tag}.json")
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            return json.load(fh), True
    refs = {}
    for item in scored:
        ref = wl.reference(tc, item, size)
        if ref is not None:
            refs[item.key] = {"points": [list(map(float, v)) for v in ref["points"]], "consistent": ref["consistent"]}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(refs, fh)
    os.replace(tmp, path)
    return refs, False


def score(wl, tc, seed, size, scored, checked):
    """Recall, Morse share and extra points over the scored items."""
    refs, cached = references(wl, tc, seed, size, scored)
    found = total = extra = 0
    by_kind = {}
    audited = consistent = 0
    ref_audited = ref_consistent = 0
    for item in scored:
        c = checked.get(item.key)
        ref = c.oracle if c is not None and c.oracle is not None else refs.get(item.key, {}).get("points")
        if item.key in refs and refs[item.key]["consistent"] is not None:
            ref_audited += 1
            ref_consistent += refs[item.key]["consistent"]
        if c is None:
            total += len(ref or ())
            continue
        if c.consistent is not None:
            audited += 1
            consistent += c.consistent
        if ref is not None:
            hits, missing_from_ref = workloads.match(ref, c.points)
            found += hits
            total += len(ref)
            extra += missing_from_ref
            kind = by_kind.setdefault(item.kind, [0, 0, 0])
            kind[0] += hits
            kind[1] += len(ref)
            kind[2] += missing_from_ref
    note(
        f"recall {found}/{total} reference points over {len(scored)} scored items; "
        f"extra_points {extra} (verified points the reference lacks); references {'cached' if cached else 'built'}"
    )
    note("recall by kind (found/reference/extra): " + ", ".join(f"{k} {a}/{b}/{c}" for k, (a, b, c) in by_kind.items()))
    if ref_audited:
        note(f"reference audit: {ref_consistent}/{ref_audited} reference sets Morse-consistent")
    if audited:
        note(f"morse: {consistent}/{audited} audited sets consistent")
    else:
        note("morse_consistent_share: this workload audits no sets; reported as 1.0")
    return {
        "recall": found / total if total else 1.0,
        "morse_consistent_share": consistent / audited if audited else 1.0,
    }


def timed_run(wl, seed, size, seconds, workdir):
    clock = SpeedClock()
    setups = []
    for _ in range(size.setup_reps):
        wall, ref, program, error = clock.measure(lambda: set_up(wl, seed, size, workdir))
        if error is not None:
            raise error
        tc, pool = program
        setups.append((wall, ref))
    tally = {"attempted": 0, "failed": 0}
    walls, times, checked, by_kind = [], [], {}, {}
    start = time.perf_counter()
    min_rounds = max(size.scored_rounds, math.ceil(TAIL_MIN_ITEMS / len(pool[0])))
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        for item in pool[r % len(pool)]:
            wall, ref, c = run_item(wl, tc, item, size, tally, clock)
            walls.append(wall)
            times.append(ref)
            by_kind.setdefault(item.kind, []).append(ref)
            if r < size.scored_rounds:
                checked[item.key] = c
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scored = [item for rnd in pool[: size.scored_rounds] for item in rnd]
    quality = score(wl, tc, seed, size, scored, checked)
    tail_s, beyond = tail(times)
    note(f"items: {len(times)} in {r} rounds of {len(wl.kind_list(size))} kinds; "
         f"{sum(walls):.3f} s wall, {sum(times):.3f} reference s")
    note("median item reference s by kind: " + ", ".join(f"{k} {statistics.median(v):.4f}" for k, v in by_kind.items()))
    note(f"wall-clock equivalents: items_per_s {len(walls) / sum(walls):.4f}, item_s_p50 {statistics.median(walls):.4f}, "
         f"item_s_tail {tail(walls)[0]:.4f}, setup_s {statistics.median(w for w, _ in setups):.4f}")
    note(f"item_s_tail is p{TAIL_PERCENTILE:g} of {len(times)} items ({beyond} beyond it)")
    note(f"setup_s median of {len(setups)} set-ups: {[round(ref, 4) for _, ref in setups]}")
    note(f"failed_share {tally['failed'] / tally['attempted']:.6g} ({tally['failed']}/{tally['attempted']})")
    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "items_per_s": len(times) / sum(times),
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail_s,
        "recall": quality["recall"],
        "morse_consistent_share": quality["morse_consistent_share"],
        "ok_share": 1.0 - tally["failed"] / tally["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def traced_run(wl, seed, size, workdir):
    clock = SpeedClock()
    tc, pool = set_up(wl, seed, size, workdir)
    scored = [item for rnd in pool[: size.scored_rounds] for item in rnd]
    plain = sum(clock.measure(lambda: wl.run(tc, item, size))[1] for item in scored)
    tracer = tracing.Tracer()
    tally = {"attempted": 0, "failed": 0}
    traced = 0.0
    with tracer.installed(tc):
        with tracer.item(tracing.SETUP):
            wl.make_pool(tc, seed, size, workdir, rounds=size.scored_rounds)
        for item in scored:
            traced += run_item(wl, tc, item, size, tally, clock, tracer)[1]
    os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
    spans_path = os.path.join(STATE, "out", f"spans-{wl.name}-{size.name}-s{seed}.jsonl")
    tracer.write_spans(spans_path)
    note(f"traced {len(scored)} items: {traced:.4f} reference s traced, {plain:.4f} untraced; "
         f"{len(tracer.spans)} spans in {spans_path}")
    return tally, tracer.layer_metrics(traced / plain - 1.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny: a few small items at low effort, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")
    sys.path.insert(0, SRC)
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    note(f"env {json.dumps(environment(), sort_keys=True)}")
    note(f"workload {wl.name} seed {args.seed} size {args.size} seconds {args.seconds:g} trace {args.trace}")
    workdir = os.path.join(STATE, "work", f"{wl.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            tally, metrics = traced_run(wl, args.seed, size, workdir)
        else:
            tally, metrics = timed_run(wl, args.seed, size, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        note(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
