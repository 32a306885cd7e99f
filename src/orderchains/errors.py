"""Typed errors shared across the package; ``echo``, the one code that
writes a caller's value into an error message, cut at ``ECHO_LIMIT``
characters; and ``read_container``, which reads a caller's container."""

from .limits import ECHO_LIMIT


def echo(value, form=str) -> str:
    """``form(value)``, ``str`` or ``repr``, for an error message: past
    ``ECHO_LIMIT`` characters cut with the full length marked (a ``str``
    before it is rendered, so its quote stays whole), and a stand-in for
    an int past the interpreter's digit limit, the one ``ValueError``
    either form raises on this package's values, so that the message
    never raises in place of the error it reports."""
    if isinstance(value, str):
        size, text = len(value), form(value[:ECHO_LIMIT])
    else:
        try:
            text = form(value)
        except ValueError:
            return f"<{type(value).__name__} too large to print>"
        size, text = len(text), text[:ECHO_LIMIT]
    return text if size <= ECHO_LIMIT else f"{text}... ({size} characters)"


def read_container(values, what: str, read=tuple):
    """``read(values)``, ``tuple`` or ``iter``, on a caller's container;
    one that cannot be iterated raises ``DomainMismatchError`` naming
    ``what``, before the caller does any other work."""
    try:
        return read(values)
    except TypeError as exc:
        raise DomainMismatchError(f"cannot read {what}: {exc}") from exc


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
