"""Run configuration: waves, method parameters, and reporting latencies."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path

import yaml

from .errors import ConfigError

_CADENCE_NAMES = {"daily": 1, "weekly": 7}


@dataclass(frozen=True)
class WaveSpec:
    """A named epidemic wave interval; every test runs per wave."""

    name: str
    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ConfigError(f"wave {self.name!r}: start {self.start} not before end {self.end}")


@dataclass(frozen=True)
class LatencySpec:
    """Operational availability of an indicator: reporting lag and release cadence."""

    reporting_lag_days: int
    release_cadence_days: int = 1

    def __post_init__(self) -> None:
        for key, value, low in (("reporting_lag_days", self.reporting_lag_days, 0),
                                ("release_cadence", self.release_cadence_days, 1)):
            if value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")


class _Loader(yaml.SafeLoader):
    """YAML's safe loader, except that a mapping may not repeat a key."""

    def construct_mapping(self, node, deep=False):
        keys = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key in keys:
            value = self.construct_object(key)
            if value in seen:
                raise yaml.constructor.ConstructorError(
                    problem=f"repeated key {value!r} on line {key.start_mark.line + 1}")
            seen.add(value)
        return mapping


def iso_date(text: str) -> date:
    """The date of a ``YYYY-MM-DD`` text, and of no other ISO 8601 form."""
    day = date.fromisoformat(text)
    if day.isoformat() != text:  # date.fromisoformat also reads 20220104 and 2022-W01-2
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return day


def _as_date(value, context: str) -> date:
    try:  # YAML dates too, so that a timestamp with a time of day fails
        return iso_date(str(value))
    except ValueError as exc:
        raise ConfigError(f"{context}: invalid date {value!r}") from exc


def _as_number(value, kind=int):
    # int() and float() would take YAML's true/yes as 1, and int() would cut 3.7 to 3
    # numpy's bool has a dtype of bool and is no instance of Python's
    if getattr(value, "dtype", type(value)) == bool or kind(value) != float(value):  # NaN too
        raise ValueError(f"not a valid {kind.__name__}: {value!r}")
    return kind(value)


def _as_text(value, context: str) -> str:
    # str() would make YAML's null the name 'None' and its yes the name 'True';
    # an entry of a table or list names itself, as its key would quote every entry;
    # no id read may hold a NUL, and numpy's text arrays would drop a trailing one
    if value is None or isinstance(value, (bool, list, dict)) or "\0" in str(value):
        raise ConfigError(f"{context}: invalid value {value!r}")
    return str(value)


def _as_strings(value) -> tuple[str, ...]:
    # null is no entries; a bare string would split into its characters
    if not isinstance(value, (list, tuple, type(None))):
        raise TypeError(f"{value!r} is not a list")
    return tuple(_as_text(entry, "config trust_exclusions") for entry in value or ())


def _as_cadence(value) -> int:
    if isinstance(value, str):
        try:
            return _CADENCE_NAMES[value.lower()]
        except KeyError:
            raise ConfigError(f"unknown release cadence {value!r}") from None
    return _as_number(value)


def _check_keys(raw: dict, known, context: str) -> None:
    for key in raw.keys():  # AttributeError for a value that is not a mapping
        if key not in known:
            raise ConfigError(f"{context}: unknown key {key!r}")


def _waves(value) -> tuple[WaveSpec, ...]:
    try:
        value = [vars(w) if isinstance(w, WaveSpec) else w for w in value]
        for entry in value:
            _check_keys(entry, ("name", "start", "end"), "config waves")
        return tuple(WaveSpec(_as_text(w["name"], "wave name"), _as_date(w["start"], "wave start"),
                              _as_date(w["end"], "wave end")) for w in value)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError("each wave needs name, start and end") from exc


def _latency(name: str, entry) -> LatencySpec:
    context = f"config latency {name}"
    invalid = ConfigError(f"{context}: invalid value {entry!r}")
    if isinstance(entry, LatencySpec):  # read as the table that states it
        entry = {"reporting_lag_days": entry.reporting_lag_days,
                 "release_cadence": entry.release_cadence_days}
    if not isinstance(entry, dict):
        raise invalid
    _check_keys(entry, ("reporting_lag_days", "release_cadence"), context)
    try:
        return LatencySpec(reporting_lag_days=_as_number(entry.get("reporting_lag_days", 0)),
                           release_cadence_days=_as_cadence(entry.get("release_cadence", 1)))
    except (TypeError, ValueError, OverflowError):  # a value of the wrong type
        raise invalid from None
    except ConfigError as exc:  # an unknown cadence name or a value out of range
        raise ConfigError(f"{context}: {exc}") from None


# Each RunConfig field is named as its YAML key. RunConfig runs every parser,
# on a YAML value or a Python one alike, and then every range rule; a parser
# takes its own output back.
def _field(default, parse, rule=None):
    """A RunConfig field: its default, the parser of its value and its range
    rule as (test, wording) or None."""
    return field(default=default, metadata={"parse": parse, "rule": rule})


def _table(key: str, read):
    # null (every entry commented out) reads as empty; a value not a table fails
    return lambda value: {_as_text(name, f"config {key} name"): read(name, entry)
                          for name, entry in ({} if value is None else value).items()}


_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    waves: tuple[WaveSpec, ...] = _field((), _waves)
    horizon_days: int = _field(14, _as_number, _AT_LEAST_1)
    granger_max_lag: int = _field(3, _as_number, _AT_LEAST_1)
    ccf_window: int = _field(30, _as_number, _AT_LEAST_1)
    dtw_window: int = _field(35, _as_number, _AT_LEAST_1)
    dtw_warmup_days: int = _field(14, _as_number, _AT_LEAST_0)
    dtw_mode: str = _field("multivariate", lambda v: _as_text(v, "config dtw_mode"), (
        ("multivariate", "univariate").__contains__, "must be multivariate or univariate"))
    loess_span: float = _field(0.15, lambda v: _as_number(v, float),
                               (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"))
    loess_degree: int = _field(2, _as_number, ((1, 2).__contains__, "must be 1 or 2"))
    loess_robustness_passes: int = _field(0, _as_number, _AT_LEAST_0)
    trust_exclusions: tuple[str, ...] = _field((), _as_strings)
    min_annual_admissions: int = _field(10, _as_number, _AT_LEAST_1)
    admissions_filter_start: date = _field(
        date(2022, 1, 1), lambda v: _as_date(v, "admissions_filter_start"))
    admissions_filter_end: date = _field(
        date(2022, 12, 31), lambda v: _as_date(v, "admissions_filter_end"))
    latency: dict[str, LatencySpec] = _field(None, _table("latency", _latency))
    indicator_mappings: dict[str, str] = _field(None, _table(
        "indicator_mappings", lambda k, path: _as_text(path, f"config indicator_mappings {k}")))

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, f.metadata["parse"](value))
            except (AttributeError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config {f.name}: invalid value {value!r}") from exc
        if not self.waves:
            raise ConfigError("at least one wave must be configured")
        if len({w.name for w in self.waves}) < len(self.waves):
            raise ConfigError("wave names must differ: "
                              + ", ".join(repr(w.name) for w in self.waves))
        for a, b in zip(self.waves, self.waves[1:]):
            if b.start <= a.end:
                raise ConfigError(
                    f"waves must be chronological and non-overlapping: "
                    f"{a.name!r} ends {a.end}, {b.name!r} starts {b.start}"
                )
        for f in fields(self):
            rule, value = f.metadata["rule"], getattr(self, f.name)
            if rule and not rule[0](value):
                raise ConfigError(f"{f.name} {rule[1]}, got {value!r}")
        if self.admissions_filter_start > self.admissions_filter_end:
            raise ConfigError(f"admissions_filter_start {self.admissions_filter_start} "
                              f"after admissions_filter_end {self.admissions_filter_end}")


def load_config(path: str | Path) -> RunConfig:
    """Read a YAML run configuration file; RunConfig parses each value."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), _Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # undecodable bytes, a date like 2022-13-01
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    _check_keys(raw, {f.name for f in fields(RunConfig)}, f"config {path}")
    return RunConfig(**raw)
