"""Exception types shared across the toolkit."""

from __future__ import annotations


class DelayVarError(Exception):
    """Base class for all toolkit errors."""


class OutOfDomain(DelayVarError):
    """A time falls outside the trajectory or problem domain."""


class OrderTooHigh(DelayVarError):
    """A derivative order is negative.  An order past a path's degree is not
    an error: that derivative is zero."""


class BlockOutOfRange(DelayVarError):
    """An argument-block index is outside the integrand layout."""


class StencilCrossesBreakpoint(DelayVarError):
    """No finite-difference stencil fits between the surrounding breakpoints."""


class NotJetCapable(DelayVarError):
    """A user callable rejected the Taylor jets it is differentiated on (its
    TypeError is the ``__cause__``) or returned an array of jets.  It is not a
    TypeError, so a wrapping call passes it on rather than renaming it."""


class JOutOfRange(DelayVarError):
    """A generalized-momentum index j is outside 1..m."""


class IOutOfRange(DelayVarError):
    """A generator-recursion index i is outside 0..m."""


class WrongOrder(DelayVarError):
    """The operation requires a specific smoothness order m."""


class EmptyGrid(DelayVarError):
    """A sample grid ended up with no usable points."""


class NoConstraints(DelayVarError):
    """The operation needs at least one isoperimetric constraint."""


class SingularJacobian(DelayVarError):
    """The collocation Jacobian is numerically singular: its 2-norm condition
    number exceeds 1e12, or LAPACK met an exactly zero pivot (condition inf).
    The solver certifies kappa_2 <= 1e12 by a Cholesky factorization of
    J^T J - s I, s a shift covering its rounding, and computes the exact
    kappa_2 only when that factorization fails or its bound exceeds 1e12."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class TransformEscapesDomain(DelayVarError):
    """A transformed time leaves the evaluable domain."""


class ExprError(DelayVarError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure, with byte offset and the token set that was expected."""

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {position}: expected {' or '.join(expected)}, found {found!r}"
        )


class UnknownVariable(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown variable {name!r}")


class DerivativeOrderTooHigh(ExprError):
    def __init__(self, name: str, order: int, m: int):
        self.name = name
        super().__init__(f"variable {name!r} asks for derivative order {order} but m = {m}")


class EvaluationDomain(ExprError):
    """Evaluation produced NaN/Inf (e.g. log of a negative number)."""
