"""Exception types shared across the package."""


class GameInputError(ValueError):
    """Malformed input: bad dimensions, indices out of range, bad tokens."""


class CapacityError(RuntimeError):
    """A resource budget was exceeded: saddle grids above the grid-bit budget
    (`kernels.MAX_GRID_BITS`), or an exact result too long to print under
    the integer-string limit."""


class PropertyViolationError(RuntimeError):
    """A property that should hold for every game was falsified.

    Raised only where the API contract promises a unique answer (e.g. the
    strict saddle); anything raising this is a bug witness, not a user error.
    """
