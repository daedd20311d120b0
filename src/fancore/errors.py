"""Exception types shared across the package, and the type check of the resource caps."""


class GraphError(ValueError):
    """Domain error: bad vertex, malformed value, violated precondition."""


class ParseError(GraphError):
    """Malformed graph text. Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceLimitError(RuntimeError):
    """An enumeration cap was exceeded; raise instead of running forever."""


def check_cap(name: str, cap) -> None:
    """Refuse a resource cap that is not an int, a bool included; a negative one fails the cap itself."""
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise GraphError(f"{name} must be an integer, got {cap!r}")
