"""Exception types shared across the engine."""


class RoboMemError(Exception):
    """Base class for all engine errors."""


class InvalidRecord(RoboMemError):
    """A feed record violates a type invariant."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid record: {field}: {reason}")


class ParseError(RoboMemError):
    """A feed line could not be decoded."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class OutOfOrderFrame(RoboMemError):
    """Frame ids in a feed must be strictly increasing."""

    def __init__(self, frame_id: int):
        self.frame_id = frame_id
        super().__init__(f"frame {frame_id} out of order")


class CorruptSegment(RoboMemError):
    """Checksum or framing failure inside a segment file."""


class ReadOnlyStore(RoboMemError):
    pass


class StoreLocked(RoboMemError):
    """Another writer holds the store's advisory lock."""


class StoreVersionError(RoboMemError):
    """Manifest written by a newer engine version."""


class MigrationConflict(RoboMemError):
    """Tier migration attempted while a writer is active."""


class NonSPDCovariance(RoboMemError):
    """Covariance matrix is not symmetric positive-definite."""


class QuerySyntaxError(RoboMemError):
    """DSL text failed to parse; carries the byte position and expectation."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at {position}: expected {expected}")


class QuerySemanticError(RoboMemError):
    """DSL text parsed but is meaningless (e.g. inverted time range)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class ReprocessorFailure(RoboMemError):
    """The reprocessor callback misbehaved; the store is left unchanged."""

    def __init__(self, cause: str):
        self.cause = cause
        super().__init__(cause)
