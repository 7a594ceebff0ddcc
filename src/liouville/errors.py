"""Exception hierarchy shared by all liouville modules.

Every error carries a stable machine-readable ``code`` (module-qualified,
for example ``"expr.domain"``).  The CLI prints that code and maps the
error class to a process exit code, so scripted callers never have to
parse prose messages.
"""

from __future__ import annotations


class LiouvilleError(Exception):
    """Base class for all errors raised by this package."""

    code = "liouville.error"


# --- expr ---------------------------------------------------------------

class ExprError(LiouvilleError):
    code = "expr.error"


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the byte offset of the defect."""

    code = "expr.syntax"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    code = "expr.unknown_identifier"

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class ArityError(ExprError):
    """A function was used without exactly one parenthesized argument."""

    code = "expr.arity"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the domain of an operation (log of a non-positive
    number, division by zero, branch point in complex mode, ...).  Carries
    the source snippet of the offending sub-expression."""

    code = "expr.domain"

    def __init__(self, message: str, snippet: str = ""):
        if snippet:
            message = f"{message} in sub-expression '{snippet}'"
        super().__init__(message)
        self.snippet = snippet


# --- fields -------------------------------------------------------------

class FieldsError(LiouvilleError):
    code = "fields.error"


class GridTooSmallError(FieldsError):
    code = "fields.grid_too_small"


class GridTooLargeError(FieldsError):
    """More nodes than ``fields.MAX_NODES``."""

    code = "fields.grid_too_large"


class NonPositiveFieldError(FieldsError):
    code = "fields.non_positive_field"


class EmptyInteriorError(FieldsError):
    code = "fields.empty_interior"


class NonFiniteResidualError(FieldsError):
    """A residual is non-finite where none of its stencil inputs is masked."""

    code = "fields.non_finite_residual"


# --- action -------------------------------------------------------------

class NonFiniteActionError(FieldsError):
    """The action is non-finite although no node of the field is masked."""

    code = "action.non_finite"


# --- closedform ---------------------------------------------------------

class ClosedFormError(LiouvilleError):
    code = "closedform.error"


class SingularNodeError(ClosedFormError):
    """f(x) + g(y) vanished exactly at a grid node."""

    code = "closedform.singular_node"

    def __init__(self, i: int, j: int, x: float, y: float):
        super().__init__(
            f"f(x) + g(y) = 0 at node (i={i}, j={j}), (x, y) = ({x!r}, {y!r})"
        )
        self.i = i
        self.j = j


class SignError(ClosedFormError):
    """A sign condition required by a closed-form solution fails."""

    code = "closedform.sign"


class SeedDegenerateError(ClosedFormError):
    """F'(z) vanished at a grid node, so the seed generates no metric there."""

    code = "closedform.seed_degenerate"

    def __init__(self, i: int, j: int):
        super().__init__(f"F'(z) = 0 at node (i={i}, j={j})")
        self.i = i
        self.j = j


class DomainViolationError(ClosedFormError):
    code = "closedform.domain_violation"


class NonPositiveBError(ClosedFormError):
    code = "closedform.non_positive_b"


class NonMonotoneGError(ClosedFormError):
    code = "closedform.non_monotone_g"


class NonFiniteValueError(ClosedFormError):
    """A closed form or the u <-> T = e^u conversion left finite inputs
    with a non-finite value."""

    code = "closedform.non_finite"


# --- elliptic -----------------------------------------------------------

class EllipticError(LiouvilleError):
    code = "elliptic.error"


class NonConvergenceError(EllipticError):
    """Newton met a non-finite residual, exhausted its iteration budget
    or stopped contracting, or a continuation trace aborted before its
    fold.  Carries Newton's final ``SolveReport`` for post-mortems."""

    code = "elliptic.non_convergence"

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SingularJacobianError(EllipticError):
    code = "elliptic.singular_jacobian"


# --- hyperbolic ---------------------------------------------------------

class HyperbolicError(LiouvilleError):
    code = "hyperbolic.error"


class CornerMismatchError(HyperbolicError):
    code = "hyperbolic.corner_mismatch"


class CellIterationDivergenceError(HyperbolicError):
    """The closed-form (Lambert W) cell update failed to evaluate
    although a root exists."""

    code = "hyperbolic.cell_divergence"

    def __init__(self, i: int, j: int):
        super().__init__(f"cell update did not converge at node (i={i}, j={j})")
        self.i = i
        self.j = j


class OdeOverflowError(HyperbolicError):
    """A transformed solution escaped to +inf inside the domain; (i, j)
    is the first such node in row-major order."""

    code = "hyperbolic.ode_overflow"

    def __init__(self, i: int, j: int, x: float, y: float):
        super().__init__(
            f"solution overflow at node (i={i}, j={j}), (x, y) = ({x!r}, {y!r})")
        self.i = i
        self.j = j


class NotUnivariateError(ClosedFormError, HyperbolicError):
    """A member of an ``expr.AxisPair`` is not univariate (both families)."""

    code = "expr.not_univariate"


# --- cli ----------------------------------------------------------------

class CliUsageError(LiouvilleError):
    code = "cli.usage"
