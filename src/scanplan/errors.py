"""Exception types raised by the pipeline stages."""


class ScanPlanError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(ScanPlanError):
    """Invalid input data or configuration (CLI exit code 2)."""


class StageError(ScanPlanError):
    """A pipeline stage failed while processing valid input (CLI exit code 3)."""


# --- ingest ---------------------------------------------------------------

class MalformedRecord(ValidationError):
    def __init__(self, reason, line=None):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")


class UnsortedTimestamps(ValidationError):
    pass


class EmptyLog(ValidationError):
    pass


# --- registration ---------------------------------------------------------

class IcpDiverged(StageError):
    pass


class InsufficientOverlap(StageError):
    pass


class DegenerateGeometry(StageError):
    pass


# --- segmentation ---------------------------------------------------------

class NoPlaneFound(StageError):
    pass


# --- planning ---------------------------------------------------------------

class UnreachableStandoff(StageError):
    pass


class EmptySurface(StageError):
    pass


class NoPath(StageError):
    pass


class StartOrGoalOccupied(StageError):
    pass


class StopPointBlocked(StageError):
    pass


class GridTooLarge(StageError):
    pass


# --- boundary editing --------------------------------------------------------

class NonPlanarEdit(ValidationError):
    pass


class SelfIntersectingPolygon(ValidationError):
    pass
