"""Exception hierarchy shared across the package."""


class LeadLagError(Exception):
    """Base class for all errors raised by this package."""


class EmptySeriesError(LeadLagError):
    """Series has no observed values."""


class EmptySliceError(LeadLagError):
    """Requested window does not overlap the series."""


class InsufficientDataError(LeadLagError):
    """Not enough observations for the requested computation."""


class CollinearDesignError(LeadLagError):
    """Regression design matrix is rank deficient."""


class NoAdmissiblePathError(LeadLagError):
    """No warping path satisfies the band and step constraints."""


class OracleScaleError(LeadLagError):
    """Input exceeds the size the exhaustive oracle can enumerate."""


class SchemaError(LeadLagError):
    """Malformed input file."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class ConfigError(LeadLagError):
    """Invalid run configuration."""


class MappingError(LeadLagError):
    """Geographic mapping cannot be built or applied."""
