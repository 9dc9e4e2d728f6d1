"""Exception hierarchy shared across the package."""


class LeadLagError(Exception):
    """Base class for all errors raised by this package; the command line
    reports one as ``error [category]: message`` and exits with ``exit_code``."""

    category, exit_code = "analysis", 5


class InsufficientDataError(LeadLagError):
    """Not enough observations for the requested computation."""


class SchemaError(LeadLagError):
    """Malformed input file."""

    category, exit_code = "input-schema", 2

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class ConfigError(LeadLagError):
    """Invalid run configuration."""

    category, exit_code = "config", 3


class MappingError(LeadLagError):
    """Geographic mapping cannot be built or applied."""

    category, exit_code = "mapping", 4
