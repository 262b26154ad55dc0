"""Property tests: orbit-based symmetry against all-permutation references."""

import math
from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensorcrit import DenseTensor, max_asymmetry, symmetrize


def brute_max_asymmetry(data):
    """Largest |T[perm(idx)] - T[idx]| over all k! index permutations."""
    return max(
        float(np.max(np.abs(np.transpose(data, perm) - data)))
        for perm in permutations(range(data.ndim))
    )


def brute_symmetrize(data):
    """Average of the k! index transposes."""
    acc = np.zeros_like(data)
    for perm in permutations(range(data.ndim)):
        acc += np.transpose(data, perm)
    return acc / math.factorial(data.ndim)


def pin_to_sorted(data):
    """Exactly symmetric copy: each orbit takes its sorted representative's value."""
    idx = np.indices(data.shape).reshape(data.ndim, -1)
    idx.sort(axis=0)
    return data[tuple(idx)].reshape(data.shape)


@st.composite
def square_arrays(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (n,) * k, elements=elements))


@settings(max_examples=100)
@given(square_arrays())
def test_max_asymmetry_equals_all_permutations(data):
    assert max_asymmetry(DenseTensor(data)) == brute_max_asymmetry(data)


@settings(max_examples=100)
@given(square_arrays())
def test_symmetrize_output_exactly_symmetric(data):
    S = symmetrize(DenseTensor(data))
    assert max_asymmetry(DenseTensor(S.data)) == 0.0
    assert brute_max_asymmetry(S.data) == 0.0


@settings(max_examples=100)
@given(square_arrays())
def test_symmetrize_matches_permutation_average(data):
    S = symmetrize(DenseTensor(data))
    scale = float(np.max(np.abs(data)))
    assert float(np.max(np.abs(S.data - brute_symmetrize(data)))) <= 1e-12 * scale


@settings(max_examples=100)
@given(square_arrays())
def test_symmetrize_symmetric_input_unchanged(data):
    sym = pin_to_sorted(brute_symmetrize(data))
    assert np.array_equal(symmetrize(DenseTensor(sym)).data, sym)
