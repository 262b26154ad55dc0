"""Command-line interface.

Subcommands: ``eval`` (value of the multilinear form), ``eig`` (eigenpair
search, optionally with a Morse audit), ``svd`` (singular tuples), ``gen``
(seeded random tensor files), ``check`` (identity checks on an input
tensor).  Reports are JSON with a stable schema; reruns with the same
inputs are byte-identical except for the ``timings`` field.

Exit codes: 0 success, 1 failed identity check, 2 input or usage error
(running out of memory included), 3 audit violation, 4 degenerate-tensor
diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from functools import cache, partial

import numpy as np

from . import morse, solver
from .core import (
    dumps_tensor,
    euler_residual,
    evaluate,
    is_symmetric,
    loads_tensor,
    mode_gradient,
    random_tensor,
    write_tensor_file,
)
from .errors import DegenerateTensorError
from .norms import p_norm, p_norm_gradient

class _InputError(Exception):
    """User-input problem; reported on stderr with exit code 2."""


def _load(path):
    """(tensor, sha256 hex digest) of the file at path, both from the same bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        return loads_tensor(raw.decode("ascii")), hashlib.sha256(raw).hexdigest()
    except ValueError as exc:
        raise _InputError(f"bad tensor file {path}: {exc}")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _config_from_args(args):
    return solver.SolverConfig(
        restarts=args.restarts,
        seed=args.seed,
        p=args.p,
        gradient_tolerance=args.tolerance,
    )


def _as_json(value):
    """A dataclass field as JSON-ready Python: arrays and tuples become lists."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _record(obj):
    """An eigenpair's or singular tuple's report entry, one key per dataclass field."""
    return {f.name: _as_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _emit(report):
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_eval(args):
    tensor, _ = _load(args.tensor)
    vectors = []
    for path in args.vectors:
        vt, _ = _load(path)
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
    tensor, digest = _load(args.tensor)
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
            "sha256": digest,
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
            "pairs": [_record(pt) for pt in pairs],
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
        return tuples, {"tuples": [_record(t) for t in tuples]}, 0

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
    if args.output:
        try:
            write_tensor_file(tensor, args.output)
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(dumps_tensor(tensor))
    return 0


def _central_differences(fn, x, step):
    """Central differences of the scalar function fn at x, one coordinate at a time."""
    out = np.empty(x.size)
    for j in range(x.size):
        plus, minus = x.copy(), x.copy()
        plus[j] += step
        minus[j] -= step
        out[j] = (fn(plus) - fn(minus)) / (2 * step)
    return out


def _within(err, bound):
    """err is finite and not above bound; the finiteness test keeps inf <= inf out."""
    return bool(np.isfinite(err) and not err > bound)


def _matches_differences(grad, fn, x, step):
    """grad equals the central differences of fn at x up to 1e-6 * max(1, |grad|)."""
    err = np.linalg.norm(grad - _central_differences(fn, x, step))
    return _within(err, 1e-6 * max(1.0, float(np.linalg.norm(grad))))


# Overflow in a check shows as a non-finite result, which fails the check.
@np.errstate(over="ignore", invalid="ignore")
def cmd_check(args):
    tensor, _ = _load(args.tensor)
    rng = np.random.default_rng(args.seed)
    k, dim = tensor.order, tensor.shape[0]

    # Each check draws all its random inputs before it tests any, so that a
    # failed trial leaves the stream of the later checks as it is.
    def draws(count, shape=tensor.shape):
        return [[rng.standard_normal(n) for n in shape] for _ in range(count)]

    def differentiates(vs, m):
        # mode gradient m + 1 against differences of the form in slot m
        def form(u):
            return evaluate(tensor, [*vs[:m], u, *vs[m + 1 :]])

        return _matches_differences(mode_gradient(tensor, vs, m + 1), form, vs[m], 1e-5)

    def contracts(vs):
        # contraction identity: v_i . grad_i equals the form value
        value = evaluate(tensor, vs)
        bound = 1e-12 * (abs(value) + 1.0)
        lhs = (float(v @ mode_gradient(tensor, vs, m + 1)) for m, v in enumerate(vs))
        return bool(np.isfinite(value)) and all(_within(abs(x - value), bound) for x in lhs)

    def homogeneous(v):
        # degree-k homogeneity, checked on symmetric square tensors only
        return _within(euler_residual(tensor, v), 1e-12 * (k * abs(evaluate(tensor, [v] * k)) + 1.0))

    symmetric = tensor.is_square and is_symmetric(tensor)
    results = [
        ("gradient-finite-difference", all(differentiates(vs, m) for vs in draws(3) for m in range(k))),
        ("contraction-identity", all(contracts(vs) for vs in draws(5))),
        ("euler-homogeneity", all(homogeneous(v) for [v] in draws(5, [dim])) if symmetric else None),
    ]
    for p in (1.5, 2.0, 3.0):
        xs = [rng.uniform(0.1, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim) for _ in range(5)]
        ok = all(_matches_differences(p_norm_gradient(x, p), partial(p_norm, p=p), x, 1e-6) for x in xs)
        results.append((f"p-norm-gradient[p={p}]", ok))

    status = {True: "pass", False: "FAIL", None: "skipped (tensor not symmetric)"}
    for name, verdict in results:
        print(f"{name}: {status[verdict]}")
    return 1 if any(verdict is False for _, verdict in results) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorcrit",
        description="Eigenpairs, singular tuples, and Morse audits of dense tensors.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the multilinear form")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("tensor")
    p_eval.add_argument("vectors", nargs="+", help="one vector file per mode")

    # the four SolverConfig settings, shared by eig and svd
    search = argparse.ArgumentParser(add_help=False)
    config = solver.SolverConfig
    search.add_argument("--p", type=float, default=config.p)
    search.add_argument("--seed", type=int, default=config.seed)
    search.add_argument("--restarts", type=int, default=config.restarts)
    tolerance = "absolute residual bound, in the tensor's units: c * T needs c times the tolerance"
    search.add_argument("--tolerance", type=float, default=config.gradient_tolerance, help=tolerance)

    p_eig = sub.add_parser("eig", parents=[search], help="find eigenpairs")
    p_eig.set_defaults(run=lambda args: cmd_eig(args, parser))
    p_eig.add_argument("tensor")
    which = p_eig.add_mutually_exclusive_group(required=True)
    which.add_argument("--symmetric", action="store_true")
    which.add_argument("--mode", type=int)
    p_eig.add_argument("--audit", action="store_true")

    p_svd = sub.add_parser("svd", parents=[search], help="find singular tuples")
    p_svd.set_defaults(run=cmd_svd)
    p_svd.add_argument("tensor")

    p_gen = sub.add_parser("gen", help="write a seeded random tensor file")
    p_gen.set_defaults(run=cmd_gen)
    p_gen.add_argument("--shape", required=True, help="comma-separated dimensions")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--symmetric", action="store_true")
    p_gen.add_argument("--output", "-o", default=None)

    p_check = sub.add_parser("check", help="run identity checks on a tensor file")
    p_check.set_defaults(run=cmd_check)
    p_check.add_argument("tensor")
    p_check.add_argument("--seed", type=int, default=0)

    return parser


# parse_args leaves no state in a parser, so one per process serves every main call
_parser = cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except _InputError as exc:
        return _fail(str(exc))
    except MemoryError as exc:  # an input too large for the machine, as numpy reports it
        return _fail(f"out of memory: {str(exc) or 'an allocation failed'}")


if __name__ == "__main__":
    sys.exit(main())
