"""Eigenpairs, singular tuples, and Morse-consistency audits for dense tensors."""

from .core import (
    DenseTensor,
    dumps_tensor,
    euler_residual,
    evaluate,
    is_symmetric,
    loads_tensor,
    max_asymmetry,
    mode_gradient,
    random_tensor,
    read_tensor_file,
    sym_gradient,
    sym_hessian,
    symmetrize,
    write_tensor_file,
)
from .errors import AsymmetricTensorError, DegenerateTensorError, ShapeError
from .morse import (
    IndexHistogram,
    MorseReport,
    audit,
    betti_sphere,
    euler_parity_check,
    lacunary_checks,
    strong_morse_check,
    weak_morse_check,
)
from .norms import p_norm, p_norm_gradient, phi, unit_normalize
from .oracle import (
    CriticalPoint,
    CriticalSet,
    circle_critical_points,
    jacobi_eigen,
    sphere_critical_points,
    svd_small,
)
from .solver import (
    EigenPair,
    SingularTuple,
    SolverConfig,
    classify_index,
    dedupe,
    generalized_eigenpairs,
    mode_eigenpairs,
    residual_eigen,
    singular_tuples,
    symmetric_eigenpairs,
)

__version__ = "0.1.0"
