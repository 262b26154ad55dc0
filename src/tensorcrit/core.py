"""Dense real tensors and their multilinear forms.

A tensor of order k with shape (n_1, ..., n_k) is identified with the
k-linear form

    f(x_1, ..., x_k) = sum_{i_1 ... i_k} T[i_1, ..., i_k] x_1[i_1] ... x_k[i_k],

and a square symmetric tensor with the degree-k homogeneous polynomial
f(x, ..., x).  Everything here is a pure function of immutable inputs.
Entries and vectors are finite, so a contraction whose result leaves the
float range is a ValueError naming it, never an inf with a RuntimeWarning.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Sequence

import numpy as np

from .errors import AsymmetricTensorError, ShapeError
from .norms import _as_vector, _in_range, _integer, _real_array, p_norm

__all__ = [
    "DenseTensor",
    "evaluate",
    "mode_gradient",
    "sym_gradient",
    "sym_hessian",
    "euler_residual",
    "symmetrize",
    "max_asymmetry",
    "is_symmetric",
    "random_tensor",
    "dumps_tensor",
    "loads_tensor",
    "write_tensor_file",
    "read_tensor_file",
]


class DenseTensor:
    """Order-k real tensor stored dense, row-major (last index fastest).

    Entries are read-only, so ``max_asymmetry`` is cached on the tensor.
    """

    __slots__ = ("data", "_asymmetry")

    def __init__(self, data):
        # a copy, so that freezing it leaves the caller's array writable
        arr = np.array(_real_array(data, "a tensor"), order="C")
        if arr.ndim < 1 or arr.size == 0:
            raise ShapeError(f"a tensor needs one or more dimensions, all >= 1, got shape {arr.shape}")
        arr.flags.writeable = False
        self.data = arr
        self._asymmetry = None

    @classmethod
    def from_flat(cls, shape, entries):
        """Build from a dimension list and a flat row-major entry array."""
        dims = _dims(shape)
        return cls(_as_vector(entries, math.prod(dims), "entries").reshape(dims))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def entries(self) -> np.ndarray:
        """Flat row-major view of the entries (read-only)."""
        return self.data.reshape(-1)

    @property
    def is_square(self) -> bool:
        return len(set(self.data.shape)) == 1

    def __repr__(self):
        return f"DenseTensor(shape={self.shape})"


def _dims(shape) -> tuple[int, ...]:
    """shape as a tuple of one or more integers >= 1, else ShapeError."""
    try:
        dims = tuple(_integer(d, "a dimension", 1) for d in shape)
    except (TypeError, ValueError):  # TypeError: shape is not iterable
        dims = ()
    if not dims:
        raise ShapeError(f"a shape must be a sequence of one or more integers >= 1, got {shape!r}")
    return dims


def _require_square(tensor: DenseTensor):
    if not tensor.is_square:
        raise ShapeError(f"operation needs a square tensor, got shape {tensor.shape}")


def _check_vectors(tensor: DenseTensor, vectors: Sequence) -> list[np.ndarray]:
    try:
        count = len(vectors)
    except TypeError:  # a number, None or a 0-d array
        raise ShapeError(f"need a sequence of {tensor.order} vectors, got {type(vectors).__name__}") from None
    if count != tensor.order:
        raise ShapeError(f"need {tensor.order} vectors for an order-{tensor.order} tensor, got {count}")
    return [_as_vector(v, n, f"vector {i + 1}") for i, (v, n) in enumerate(zip(vectors, tensor.shape))]


@np.errstate(over="ignore", invalid="ignore")
def evaluate(tensor: DenseTensor, vectors: Sequence) -> float:
    """Value of the multilinear form at one vector per mode."""
    vs = _check_vectors(tensor, vectors)
    out = tensor.data
    for v in vs:
        out = np.tensordot(out, v, axes=([0], [0]))
    return float(_in_range(out, "the value of the form"))


@np.errstate(over="ignore", invalid="ignore")
def mode_gradient(tensor: DenseTensor, vectors: Sequence, mode: int) -> np.ndarray:
    """Gradient of the multilinear form in the given mode (1-based).

    Contracts the tensor with every vector except ``vectors[mode-1]``;
    component j therefore equals d(evaluate)/d(vectors[mode-1][j]).
    """
    vs = _check_vectors(tensor, vectors)
    k = tensor.order
    mode = _integer(mode, "mode", 1, k)
    out = np.moveaxis(tensor.data, mode - 1, 0)
    for r in range(k):
        if r != mode - 1:
            out = np.tensordot(out, vs[r], axes=([1], [0]))
    return _in_range(out, f"the mode-{mode} gradient")


@functools.lru_cache(maxsize=16)
def _orbit_ids(shape, m=None) -> np.ndarray:
    """Orbit number of every flat index; an orbit permutes its leading m indices (default all).

    Cached per (shape, m), since symmetrizing and averaging ask for the same
    few shapes over and over; the array is read-only.
    """
    idx = np.indices(shape).reshape(len(shape), -1)
    idx[:m].sort(axis=0)
    _, ids = np.unique(np.ravel_multi_index(idx, shape), return_inverse=True)
    ids.flags.writeable = False
    return ids


def max_asymmetry(tensor: DenseTensor) -> float:
    """Largest |T[perm(idx)] - T[idx]| over all index permutations (square only).

    Any two entries of an index orbit are linked by a permutation, so this
    is the largest entry minus its orbit's minimum.  Cached on the tensor.
    A difference beyond the largest float reads inf.
    """
    _require_square(tensor)
    if tensor._asymmetry is None:
        ids = _orbit_ids(tensor.shape)
        lo = np.full(ids.max() + 1, np.inf)
        np.minimum.at(lo, ids, tensor.entries)
        with np.errstate(over="ignore"):
            tensor._asymmetry = float(np.max(tensor.entries - lo[ids]))
    return tensor._asymmetry


def is_symmetric(tensor: DenseTensor) -> bool:
    """Square, with max_asymmetry within 1e-10 * max|T|."""
    if not tensor.is_square:
        return False
    asym = max_asymmetry(tensor)
    # exactly symmetric tensors, the common case, skip the O(size) scale
    return asym == 0.0 or asym <= 1e-10 * float(np.max(np.abs(tensor.data)))


def _require_symmetric(tensor: DenseTensor):
    _require_square(tensor)
    if not is_symmetric(tensor):
        raise AsymmetricTensorError(
            "tensor is not symmetric within tolerance; symmetrize() it first or "
            "use the mode-wise operations"
        )


def sym_gradient(tensor: DenseTensor, v) -> np.ndarray:
    """Single-mode gradient of f(v, ..., v) for a symmetric tensor.

    All mode choices agree by symmetry; mode 1 is used.
    """
    _require_symmetric(tensor)
    return mode_gradient(tensor, [v] * tensor.order, 1)


@np.errstate(over="ignore", invalid="ignore")
def sym_hessian(tensor: DenseTensor, v) -> np.ndarray:
    """Hessian of the polynomial f(x, ..., x) at v, for symmetric tensors.

    Equals k(k-1) times the contraction of the tensor with v in all modes
    but two.  Returned exactly symmetric.  Order-1 tensors give the zero
    matrix (the polynomial is linear).
    """
    _require_symmetric(tensor)
    k = tensor.order
    n = tensor.shape[0]
    vec = _as_vector(v, n, "v")
    if k == 1:
        return np.zeros((n, n))
    out = tensor.data
    for _ in range(k - 2):
        out = np.tensordot(out, vec, axes=([2], [0]))
    out = k * (k - 1) * out
    return _in_range((out + out.T) / 2, "the Hessian")


@np.errstate(over="ignore", invalid="ignore")
def euler_residual(tensor: DenseTensor, v) -> float:
    """Defect of the single-mode shortcut for the homogeneity gradient at v.

    The polynomial g(x) = f(x, ..., x) has gradient sum_i g_i(x) over the
    mode gradients, and x . grad g = k g (degree-k homogeneity).  For a
    symmetric tensor all mode gradients coincide, so k * g_1 plays the
    role of grad g; this returns ||k g_1 - sum_i g_i||, zero up to
    roundoff exactly for symmetric tensors and clearly positive on
    asymmetrized inputs.
    """
    _require_square(tensor)
    vec = _as_vector(v, tensor.shape[0], "v")
    if not np.any(vec):
        raise ValueError("v must be nonzero")
    k = tensor.order
    grads = [mode_gradient(tensor, [vec] * k, i) for i in range(1, k + 1)]
    return p_norm(_in_range(k * grads[0] - sum(grads), "the Euler defect"), 2.0)


def symmetrize(tensor: DenseTensor) -> DenseTensor:
    """Projection onto symmetric tensors: each entry becomes its orbit mean.

    The output is exactly symmetric.  Exactly symmetric inputs are returned
    unchanged (a mean of equal floats can differ from them in the last bit),
    which makes the map an exact projection.
    """
    if max_asymmetry(tensor) == 0.0:
        return tensor
    out = DenseTensor(_orbit_mean(tensor.data, _orbit_ids(tensor.shape)))
    out._asymmetry = 0.0
    return out


def _orbit_mean(data, ids):
    """data with each entry replaced by the mean of its orbit; ids from _orbit_ids."""
    flat = data.reshape(-1)
    # Sum each orbit scaled by a power of two near its largest |entry|, so the
    # sum cannot overflow; the scaling is exact for normal numbers.
    top = np.zeros(ids.max() + 1)
    np.maximum.at(top, ids, np.abs(flat))
    _, exp = np.frexp(top)
    sums = np.bincount(ids, weights=np.ldexp(flat, -exp[ids]))
    return np.ldexp(sums / np.bincount(ids), exp)[ids].reshape(data.shape)


def random_tensor(shape, seed: int, symmetric: bool = False) -> DenseTensor:
    """Standard-normal tensor from NumPy's PCG64 stream; same seed, same bits."""
    dims = _dims(shape)
    if symmetric and len(set(dims)) != 1:
        raise ValueError(f"symmetric tensors must be square, got shape {dims}")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    t = DenseTensor(rng.standard_normal(dims))
    return symmetrize(t) if symmetric else t


# ---------------------------------------------------------------------------
# File format: a JSON document {"shape": [...], "entries": [...]} with the
# entries flat in row-major order.  Written with 17 significant digits so a
# read-back reproduces the binary64 values exactly.
# ---------------------------------------------------------------------------


def dumps_tensor(tensor: DenseTensor) -> str:
    shape_s = ", ".join(str(d) for d in tensor.shape)
    entries_s = ", ".join(format(x, ".17g") for x in tensor.entries)
    return f'{{"shape": [{shape_s}], "entries": [{entries_s}]}}\n'


def _reject_constant(name):
    raise ValueError(f"non-finite value {name!r} in tensor file")


def _unique_names(pairs):
    # json.loads alone keeps the last of a repeated name silently
    doc = {}
    for name, value in pairs:
        if name in doc:
            raise ValueError(f"malformed tensor file: the name {name!r} is repeated")
        doc[name] = value
    return doc


def loads_tensor(text: str) -> DenseTensor:
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_names)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed tensor file: {exc}") from exc
    except RecursionError as exc:  # about a thousand nested arrays or objects
        raise ValueError("malformed tensor file: nested too deeply") from exc
    if not isinstance(doc, dict) or "shape" not in doc or "entries" not in doc:
        raise ValueError('tensor file must be an object with "shape" and "entries"')
    entries = doc["entries"]
    # Entries are JSON numbers only, not true/false (a bool is an int) or "1.5", which float()
    # would parse; null or a nested list would fail later under a misleading message.
    if not isinstance(entries, list) or not all(type(x) in (int, float) for x in entries):
        raise ValueError('"entries" must be a list of numbers')
    try:
        return DenseTensor.from_flat(doc["shape"], entries)
    except ShapeError:
        raise
    except ValueError as exc:
        raise ValueError(f"bad tensor entries: {exc}") from exc


def write_tensor_file(tensor: DenseTensor, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_tensor(tensor))


def read_tensor_file(path) -> DenseTensor:
    with open(path, "r", encoding="ascii") as fh:
        return loads_tensor(fh.read())
