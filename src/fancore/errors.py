"""Exception types shared across the package, and the checks of integer arguments."""


class GraphError(ValueError):
    """Domain error: bad vertex, malformed value, violated precondition."""


class ParseError(GraphError):
    """Malformed graph text. Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceLimitError(RuntimeError):
    """An enumeration cap was exceeded; raise instead of running forever."""


def check_int(name: str, value, kind: str = "an integer", least=None) -> None:
    """Refuse with GraphError, as '<name> must be <kind>', a value that is not an int or is below least.

    A bool is not an int here: isinstance says it is one, but it reads as a word.
    """
    if not isinstance(value, int) or isinstance(value, bool) or least is not None and value < least:
        raise GraphError(f"{name} must be {kind}, got {value!r}")


def check_count(name: str, value) -> None:
    """check_int for an int of at least 0: a negative int gets the same message."""
    check_int(name, value, "a nonnegative integer", 0)


def check_cap(name: str, cap) -> None:
    """check_int for a resource cap; a negative cap is a ResourceLimitError, raised before any input is measured."""
    check_int(name, cap)
    if cap < 0:
        raise ResourceLimitError(f"{name} of {cap} admits no input")
