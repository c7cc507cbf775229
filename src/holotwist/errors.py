"""Exception hierarchy shared by all holotwist modules."""

import math
import numbers


class HolotwistError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(HolotwistError):
    """Matrix data contained NaN or infinity."""


class TagMismatch(HolotwistError):
    """Operands carry incompatible group/algebra tags or dimensions."""


class NotSameFiber(HolotwistError):
    """Two extension elements do not project to the same base element."""


class NotCentralFiber(HolotwistError):
    """An element expected in the central subgroup is not close to it."""


class NotComposable(HolotwistError):
    """Morphism target/source objects do not match."""


class SectionUndefined(HolotwistError):
    """The stored local section of the extension is undefined at this point."""


class MaxDepthExceeded(HolotwistError):
    """Subdivision refinement hit the depth limit: a cell fits no chart."""


class BoundaryMismatch(HolotwistError):
    """Loop/cylinder boundary data do not agree pointwise."""


class InvalidReparam(HolotwistError):
    """A reparametrization is not a monotone collar-fixing map."""


class ChartMismatch(HolotwistError):
    """Evaluation requested outside the declared chart."""


class RegionUndersampled(ChartMismatch):
    """Random sampling met fewer points of a region than asked."""


class DegreeUnsupported(HolotwistError):
    """Form degree out of range for this operation."""


class DomainError(HolotwistError):
    """Expression evaluation left its mathematical domain."""


class ExprSyntaxError(HolotwistError):
    """Expression source failed to parse; carries line/column."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownIdentifier(HolotwistError):
    """Expression references a name unknown in its chart."""


class MissingField(HolotwistError):
    """Bundle data is structurally incomplete for its cover."""


class StepTooLarge(HolotwistError):
    """A finite-difference probe left the chart."""


class OracleFailure(HolotwistError):
    """The holonomy oracle could not be evaluated."""


class PreconditionViolated(HolotwistError):
    """An operation-specific precondition failed."""


class ConfigError(HolotwistError):
    """Run configuration is invalid; carries the offending key path."""

    def __init__(self, message, path=""):
        super().__init__(f"{message}" + (f" (at {path})" if path else ""))
        self.message = message
        self.path = path


def integer_setting(x, what, least=None, path=""):
    """x as an int if it is a whole number >= least, else ConfigError."""
    whole = isinstance(x, numbers.Integral) \
        or isinstance(x, numbers.Real) and float(x).is_integer()
    if isinstance(x, bool) or not whole or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{what} must be an integer{bound}, got {x!r}",
                          path)
    return int(x)


def float_setting(x, what, path=""):
    """x as a float if it is a finite real number, else ConfigError;
    bools and strings are rejected, not converted."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) \
            or not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {x!r}",
                          path)
    return float(x)


def bounded_setting(x, what, bound, setting=float_setting, path=""):
    """x read by setting (a finite float by default), of magnitude at most
    bound, else ConfigError at path (quoting x as given)."""
    v = setting(x, what, path=path)
    if abs(v) > bound:
        raise ConfigError(f"{what} must have magnitude at most {bound:g}, "
                          f"got {x!r}", path)
    return v
