"""Typed errors shared across the package, and ``echo``, which writes a
caller's value into an error message."""


def echo(value, form=str) -> str:
    """``form(value)``, ``str`` or ``repr``, for an error message.

    On this package's values the one ``ValueError`` either raises is the
    interpreter's digit limit on int -> str (``format_element`` re-raises
    it as ``ArgumentError``); a short stand-in then takes the value's
    place, so the message never raises in place of the error it reports.
    """
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


class OrderChainsError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(OrderChainsError, ValueError):
    """A numeric argument lies outside the range the operation accepts."""


class ParseError(OrderChainsError):
    """A textual token could not be parsed for the requested domain."""


class DomainMismatchError(OrderChainsError):
    """An element was passed to an oracle or map outside its domain."""


class EmptySequenceError(OrderChainsError):
    """An operation that needs at least one term received an empty sequence."""


class WitnessIndexError(OrderChainsError):
    """A witness refers to positions outside the sequence."""


class LinearityError(OrderChainsError):
    """An operation that requires a linear order received a partial one."""


class ArgumentOrderError(OrderChainsError):
    """Arguments were given in the wrong relative order (a must precede b)."""


class DuplicateElementError(OrderChainsError):
    """An operation that needs pairwise distinct elements saw a repeat,
    at position ``index`` when the operation reports one."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class TreePrefixError(OrderChainsError):
    """A node set is not closed under prefixes."""

    def __init__(self, node, missing):
        self.node = node
        self.missing = missing
        super().__init__(f"node {echo(node, repr)} present but prefix {echo(missing, repr)} missing")


class SchemeError(OrderChainsError):
    """An interval scheme could not be built at the requested resolution."""

    def __init__(self, message, sigma=None):
        self.sigma = sigma
        super().__init__(message)


class StreamError(OrderChainsError):
    """A countable-set stream broke its contract (range, injectivity, length)."""


class SearchBudgetError(OrderChainsError):
    """A budgeted search ran out of stream elements before succeeding."""
