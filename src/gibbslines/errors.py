"""Exception types shared across the package.

Domain errors (bad arguments) raise plain ``ValueError``; the classes here
cover failure modes that a caller may want to handle programmatically, e.g.
by refining a grid or enlarging a budget.
"""


class PrecisionError(ArithmeticError):
    """A computation lost all significance at the current precision.

    Raised e.g. when the determinant oracle ``tau_lgv`` meets an
    ill-conditioned matrix, or a conditional density underflows on its whole
    grid.  Callers may retry with a wider grid.
    """


class ResourceLimitError(RuntimeError):
    """A configured work budget (enumeration guard, attempt budget, grid
    width cap) would be exceeded."""
