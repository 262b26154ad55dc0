"""Command-line interface.

Subcommands: ``eval`` (value of the multilinear form), ``eig`` (eigenpair
search, optionally with a Morse audit), ``svd`` (singular tuples), ``gen``
(seeded random tensor files), ``check`` (identity checks on an input
tensor).  Reports are JSON with a stable schema; reruns with the same
inputs are byte-identical except for the ``timings`` field.

Exit codes: 0 success, 1 failed identity check, 2 input or usage error,
3 audit violation, 4 degenerate-tensor diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

import numpy as np

from . import morse, solver
from .core import (
    dumps_tensor,
    euler_residual,
    evaluate,
    is_symmetric,
    mode_gradient,
    random_tensor,
    read_tensor_file,
)
from .errors import DegenerateTensorError
from .norms import p_norm, p_norm_gradient

class _InputError(Exception):
    """User-input problem; reported on stderr with exit code 2."""


def _load(path):
    try:
        return read_tensor_file(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise _InputError(f"bad tensor file {path}: {exc}")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _config_from_args(args):
    return solver.SolverConfig(
        restarts=args.restarts,
        seed=args.seed,
        p=args.p,
        gradient_tolerance=args.tolerance,
    )


def _pair_dict(pt):
    return {
        "vector": [float(x) for x in pt.vector],
        "value": float(pt.value),
        "mode": int(pt.mode),
        "residual": float(pt.residual),
        "index": None if pt.index is None else int(pt.index),
        "nondegenerate": pt.nondegenerate,
        "near_zero_coords": bool(pt.near_zero_coords),
    }


def _tuple_dict(t):
    return {
        "vectors": [[float(x) for x in v] for v in t.vectors],
        "sigma": float(t.sigma),
        "residual": float(t.residual),
        "critical_value": float(t.critical_value),
        "mode_multipliers": [float(s) for s in t.mode_multipliers],
        "degenerate": bool(t.degenerate),
    }


def _emit(report):
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_eval(args):
    tensor = _load(args.tensor)
    vectors = []
    for path in args.vectors:
        vt = _load(path)
        if vt.order != 1:
            return _fail(f"{path} is not a vector (order-1 tensor)")
        vectors.append(vt.entries)
    try:
        value = evaluate(tensor, vectors)
    except ValueError as exc:
        return _fail(str(exc))
    print(format(value, ".16e"))
    return 0


def _search(args, command, find, empty_note):
    """Run a search subcommand and emit its JSON report; returns the exit code.

    ``find(tensor, config)`` returns the points found, the report fields of
    the command and the exit code; DegenerateTensorError from it ends the
    run with exit 4 and no report.  ``empty_note`` is formatted with the
    restarts when nothing is found.
    """
    tensor = _load(args.tensor)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        return _fail(str(exc))
    t0 = time.perf_counter()
    try:
        found, fields, exit_code = find(tensor, config)
    except ValueError as exc:
        return _fail(str(exc))
    except DegenerateTensorError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 4
    report = {
        "schema_version": 1,
        "command": command,
        "input": {
            "path": args.tensor,
            "sha256": _digest(args.tensor),
            "shape": list(tensor.shape),
        },
        "config": dataclasses.asdict(config),
        "notes": [] if found else [empty_note.format(restarts=config.restarts)],
        **fields,
        "timings": {"total_seconds": time.perf_counter() - t0},
    }
    _emit(report)
    return exit_code


def cmd_eig(args, parser):
    if args.audit and args.mode is not None:
        parser.error("--audit applies to --symmetric runs only")
    if args.audit and args.p != 2.0:
        parser.error("--audit requires --p 2 (the Morse analysis is a 2-norm result)")
    if args.mode is not None and args.mode < 1:
        parser.error("--mode must be >= 1; --symmetric runs the symmetric problem")
    mode = 0 if args.symmetric else args.mode

    def find(tensor, config):
        pairs = solver.generalized_eigenpairs(tensor, mode, config)
        fields = {
            "symmetric": bool(args.symmetric),
            "mode": mode,
            "pairs": [_pair_dict(pt) for pt in pairs],
            "morse": None,
        }
        if not args.audit:
            return pairs, fields, 0
        try:
            morse_report = morse.audit(pairs, tensor.shape[0])
        except ValueError as exc:
            raise DegenerateTensorError(str(exc)) from exc
        fields["morse"] = morse_report.to_dict()
        return pairs, fields, 0 if morse_report.consistent else 3

    return _search(
        args,
        "eig",
        find,
        "no stationary points found at this effort (restarts={restarts}); "
        "the real spectrum may be empty",
    )


def cmd_svd(args):
    def find(tensor, config):
        tuples = solver.singular_tuples(tensor, config)
        return tuples, {"tuples": [_tuple_dict(t) for t in tuples]}, 0

    return _search(args, "svd", find, "no singular tuples found at this effort (restarts={restarts})")


def cmd_gen(args):
    try:
        shape = tuple(int(s) for s in args.shape.split(","))
    except ValueError:
        return _fail(f"cannot parse shape {args.shape!r}")
    try:
        tensor = random_tensor(shape, args.seed, symmetric=args.symmetric)
    except ValueError as exc:
        return _fail(str(exc))
    text = dumps_tensor(tensor)
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def _fd_gradient(tensor, vectors, mode, step=1e-5):
    base = [np.array(v, dtype=float) for v in vectors]
    n = tensor.shape[mode - 1]
    out = np.empty(n)
    for j in range(n):
        plus = [v.copy() for v in base]
        minus = [v.copy() for v in base]
        plus[mode - 1][j] += step
        minus[mode - 1][j] -= step
        out[j] = (evaluate(tensor, plus) - evaluate(tensor, minus)) / (2 * step)
    return out


# Overflow in a check shows as a non-finite result, which fails the check.
@np.errstate(over="ignore", invalid="ignore")
def cmd_check(args):
    tensor = _load(args.tensor)
    rng = np.random.default_rng(args.seed)
    k = tensor.order
    failures = 0

    def report(name, status):
        print(f"{name}: {status}")

    # mode gradients against central finite differences
    ok = True
    for _trial in range(3):
        vectors = [rng.standard_normal(n) for n in tensor.shape]
        for mode in range(1, k + 1):
            grad = mode_gradient(tensor, vectors, mode)
            fd = _fd_gradient(tensor, vectors, mode)
            err = float(np.linalg.norm(grad - fd))
            if not np.isfinite(err) or err > 1e-6 * max(1.0, float(np.linalg.norm(grad))):
                ok = False
    report("gradient-finite-difference", "pass" if ok else "FAIL")
    failures += not ok

    # contraction identity: v_i . grad_i equals the form value
    ok = True
    for _trial in range(5):
        vectors = [rng.standard_normal(n) for n in tensor.shape]
        value = evaluate(tensor, vectors)
        if not np.isfinite(value):
            ok = False
            continue
        for mode in range(1, k + 1):
            grad = mode_gradient(tensor, vectors, mode)
            lhs = float(vectors[mode - 1] @ grad)
            if not np.isfinite(lhs) or abs(lhs - value) > 1e-12 * (abs(value) + 1.0):
                ok = False
    report("contraction-identity", "pass" if ok else "FAIL")
    failures += not ok

    # degree-k homogeneity (symmetric square tensors only)
    if tensor.is_square and is_symmetric(tensor):
        ok = True
        for _trial in range(5):
            v = rng.standard_normal(tensor.shape[0])
            value = evaluate(tensor, [v] * k)
            res = euler_residual(tensor, v)
            if not np.isfinite(res) or res > 1e-12 * (k * abs(value) + 1.0):
                ok = False
        report("euler-homogeneity", "pass" if ok else "FAIL")
        failures += not ok
    else:
        report("euler-homogeneity", "skipped (tensor not symmetric)")

    # p-norm gradients against finite differences
    for p in (1.5, 2.0, 3.0):
        ok = True
        dim = tensor.shape[0]
        for _trial in range(5):
            x = rng.uniform(0.1, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            grad = p_norm_gradient(x, p)
            step = 1e-6
            fd = np.empty(dim)
            for j in range(dim):
                xp = x.copy()
                xm = x.copy()
                xp[j] += step
                xm[j] -= step
                fd[j] = (p_norm(xp, p) - p_norm(xm, p)) / (2 * step)
            if float(np.linalg.norm(grad - fd)) > 1e-6 * max(1.0, float(np.linalg.norm(grad))):
                ok = False
        report(f"p-norm-gradient[p={p}]", "pass" if ok else "FAIL")
        failures += not ok

    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorcrit",
        description="Eigenpairs, singular tuples, and Morse audits of dense tensors.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the multilinear form")
    p_eval.add_argument("tensor")
    p_eval.add_argument("vectors", nargs="+", help="one vector file per mode")

    # the four SolverConfig settings, shared by eig and svd
    search = argparse.ArgumentParser(add_help=False)
    config = solver.SolverConfig
    search.add_argument("--p", type=float, default=config.p)
    search.add_argument("--seed", type=int, default=config.seed)
    search.add_argument("--restarts", type=int, default=config.restarts)
    search.add_argument("--tolerance", type=float, default=config.gradient_tolerance)

    p_eig = sub.add_parser("eig", parents=[search], help="find eigenpairs")
    p_eig.add_argument("tensor")
    which = p_eig.add_mutually_exclusive_group(required=True)
    which.add_argument("--symmetric", action="store_true")
    which.add_argument("--mode", type=int)
    p_eig.add_argument("--audit", action="store_true")

    p_svd = sub.add_parser("svd", parents=[search], help="find singular tuples")
    p_svd.add_argument("tensor")

    p_gen = sub.add_parser("gen", help="write a seeded random tensor file")
    p_gen.add_argument("--shape", required=True, help="comma-separated dimensions")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--symmetric", action="store_true")
    p_gen.add_argument("--output", "-o", default=None)

    p_check = sub.add_parser("check", help="run identity checks on a tensor file")
    p_check.add_argument("tensor")
    p_check.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "eval":
            return cmd_eval(args)
        if args.subcommand == "eig":
            return cmd_eig(args, parser)
        if args.subcommand == "svd":
            return cmd_svd(args)
        if args.subcommand == "gen":
            return cmd_gen(args)
        if args.subcommand == "check":
            return cmd_check(args)
    except _InputError as exc:
        return _fail(str(exc))
    parser.error(f"unknown subcommand {args.subcommand}")


if __name__ == "__main__":
    sys.exit(main())
