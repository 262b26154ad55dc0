"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Shape of a tensor or vector does not match what an operation needs."""


class AsymmetricTensorError(ValueError):
    """A symmetric tensor was required but the input fails the symmetry check."""


class DegenerateTensorError(RuntimeError):
    """The critical set is degenerate; the solver returns no finite list for it.

    The message names the rule that fired: ``count cap`` (p = 2 eigenpairs beyond the
    Cartwright-Sturmfels count: the set is not finite or Newton split a multiple root) or
    ``continuum witness`` (a step along a Jacobian null vector reaches another point of the
    same value).  Other isolated degenerate points do not raise; the solvers return them.
    """
