"""Experiment configuration and measurement-file ingestion.

The configuration is a single JSON document laid out as the
ExperimentConfig dataclass tree.  Physics parameters have no defaults and
must be spelled out (field names carry units); only numerical settings
(truncations, Monte Carlo seed) and the output path may be omitted.
"""

import csv
import json
import math
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path
from types import UnionType

from . import fockcore as fc
from .herald import PhaseConfig, SourceParams
from .measurement import DisplacementSetting
from .stats import MAX_TOTAL, BasisMeasurement, CountRecord, ProbEstimate, estimate_probabilities


class ConfigError(ValueError):
    """Configuration or input file failed to parse or validate."""


# The largest arrays a truncation sizes are the herald's (n+1)^4-entry
# float64 operators, 512 KiB each at the herald cap of 15.  No array is
# sized by truncation_n_max: the click POVMs are exact on the herald's
# levels.  Both caps, the rule that truncation_n_max is at least the
# herald's and the phase overflow check below are kept so that every input
# exits as before.
_N_MAX_CAPS = {"herald_truncation_n_max": 15, "truncation_n_max": 1447}


@dataclass(frozen=True)
class Numerics:
    truncation_n_max: int = 10
    herald_truncation_n_max: int = 3

    def __post_init__(self):
        for name, cap in _N_MAX_CAPS.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"numerics.{name} = {getattr(self, name)} exceeds the cap of {cap}")
        if not 3 <= self.herald_truncation_n_max <= self.truncation_n_max:
            raise ConfigError("need 3 <= herald_truncation_n_max <= truncation_n_max")


@dataclass(frozen=True)
class MonteCarloSettings:
    """Sampling controls; explicit totals override the duration-derived N."""

    enabled: bool = False
    seed: int = 0
    n_alpha: int | None = None
    n_z: int | None = None
    n_multiphoton: int | None = None

    def __post_init__(self):
        if self.enabled and self.seed < 0:
            raise ConfigError("seed must be nonnegative when Monte Carlo is enabled")
        for name in ("n_alpha", "n_z", "n_multiphoton"):
            value = getattr(self, name)
            if value is not None and (value <= 0 or self.enabled and value >= MAX_TOTAL):
                raise ConfigError(f"{name} must be positive when given, and below 2**63 when sampled")


@dataclass(frozen=True)
class Displacement:
    """Each side's mean displacement amplitude and its fluctuation interval."""

    alpha1_mean: float
    alpha1_min: float
    alpha1_max: float
    alpha2_mean: float
    alpha2_min: float
    alpha2_max: float

    def __post_init__(self):
        self.settings  # raises unless both intervals are ordered

    @property
    def settings(self) -> tuple[DisplacementSetting, DisplacementSetting]:
        return (
            DisplacementSetting(self.alpha1_mean, self.alpha1_min, self.alpha1_max),
            DisplacementSetting(self.alpha2_mean, self.alpha2_min, self.alpha2_max),
        )


@dataclass(frozen=True)
class Detectors:
    efficiency_a: float
    efficiency_b: float

    def __post_init__(self):
        for efficiency in (self.efficiency_a, self.efficiency_b):
            if not 0.0 <= efficiency <= 1.0:
                raise ValueError(f"efficiency must lie in [0, 1], got {efficiency}")


@dataclass(frozen=True)
class Durations:
    """Counting time of each run, in seconds."""

    alpha_basis: float
    z_basis: float
    multiphoton: float


@dataclass(frozen=True)
class Output:
    report_path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """The config file: each field is a top-level key, each dataclass-typed field a section."""

    source: SourceParams
    phases_rad: PhaseConfig
    displacement: Displacement
    detectors: Detectors
    pump_rep_rate_hz: float
    duty_fraction: float
    durations_s: Durations
    monte_carlo: MonteCarloSettings = field(default_factory=MonteCarloSettings)
    numerics: Numerics = field(default_factory=Numerics)
    output: Output = field(default_factory=Output)

    @property
    def herald_truncation(self) -> fc.FockTruncation:
        return fc.FockTruncation(self.numerics.herald_truncation_n_max)


_KINDS = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string", dict: "an object"}


def _convert(value, hint, name: str):
    """The one conversion point for input values: finite numbers, integral integers, real booleans, strings."""
    if isinstance(hint, UnionType):  # X | None
        if value is None:
            return None
        hint = hint.__args__[0]
    if hint is float or hint is int:
        try:
            if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
                if hint is float or value == int(value):
                    return hint(value)
        except OverflowError:  # an integer too large for a float
            pass
    elif isinstance(value, hint):
        return value
    raise ConfigError(f"{name} must be {_KINDS[hint]}, got {value!r}")


def _get(record: dict, key: str, context: str, hint=float):
    if key not in record:
        raise ConfigError(f"missing required field {key!r} in {context}")
    return _convert(record[key], hint, f"{context}.{key}")


def _fields(cls, record: dict, context: str, optional: bool = False, overrides: dict | None = None):
    """Build cls from the keys named after its fields, converted by their annotations.

    A dataclass-typed field is the section of that name, read by the same
    rule; a section with a default may be left out.  Fields of a required
    section must all be given, except those that default to None; an
    optional section falls back to the dataclass defaults.  Overrides that
    are not None take precedence, a section's nested under its name.  The
    field annotations are types, not strings: this module, herald and stats
    do not postpone the evaluation of annotations.
    """
    overrides = overrides or {}
    values = {}
    for f in fields(cls):
        if hasattr(f.type, "__dataclass_fields__"):  # a section
            has_default = f.default_factory is not MISSING
            section = {} if has_default and f.name not in record else _get(record, f.name, context, dict)
            values[f.name] = _fields(f.type, section, f.name, has_default, overrides.get(f.name))
        elif overrides.get(f.name) is not None:
            values[f.name] = overrides[f.name]
        elif f.name in record or (not optional and f.default is not None):
            values[f.name] = _get(record, f.name, context, f.type)
    return cls(**values)


def load_experiment_config(
    path, truncation_override: int | None = None, seed_override: int | None = None
) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_experiment_config(raw, truncation_override, seed_override)


def parse_experiment_config(
    raw: dict, truncation_override: int | None = None, seed_override: int | None = None
) -> ExperimentConfig:
    raw = _convert(raw, dict, "config root")
    overrides = {"monte_carlo": {"seed": seed_override}, "numerics": {"truncation_n_max": truncation_override}}
    try:
        config = _fields(ExperimentConfig, raw, "config", overrides=overrides)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if config.pump_rep_rate_hz <= 0 or not 0.0 < config.duty_fraction <= 1.0:
        raise ConfigError("pump_rep_rate_hz must be positive and duty_fraction in (0, 1]")
    if min(astuple(config.durations_s)) <= 0:
        raise ConfigError("all durations must be positive")
    # phases act as exp(i theta n); theta * n must stay finite up to truncation_n_max
    n_max = config.numerics.truncation_n_max
    for name, theta in asdict(config.phases_rad).items():
        if not math.isfinite(theta * n_max):
            raise ConfigError(f"phases_rad.{name} = {theta!r} overflows exp(i theta n) at truncation n_max {n_max}")
    # squeezed-source parameterization breaks down at pair probability 1/2
    pair_b = config.source.effective_pair_probability_b
    if config.source.pair_probability >= 0.5 or pair_b >= 0.5:
        raise ConfigError("pair probabilities must be below 0.5")
    return config


@dataclass(frozen=True)
class CountsFile:
    alpha: BasisMeasurement
    z: BasisMeasurement
    pstar1: ProbEstimate | None
    pstar2: ProbEstimate | None


def _cells(row: dict) -> dict:
    """A CSV row's cells as numbers; empty and absent cells are left out."""
    return {key: float(text) for key, text in row.items() if isinstance(key, str) and text and text.strip()}


def load_counts_file(path) -> CountsFile:
    """Parse the measurement CSV: header basis,n_total,n_a,n_b,n_d[,n_none].

    Rows with basis "alpha" and "z" carry the joint click tallies; the
    optional n_none column pins the joint no-click count directly (needed
    when published probabilities are rounded per entry and no longer sum
    to one).  Rows "pstar1"/"pstar2" carry multiphoton coincidence runs
    in the n_d column.  Any other basis is an error.
    """
    header = ["basis", *(f.name for f in fields(CountRecord))]
    rows: dict[str, tuple[CountRecord, int | None]] = {}
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames[:5]] != header:
                raise ConfigError(f"counts file {path} must start with header {','.join(header)}")
            for row in reader:
                basis = row.pop("basis").strip()
                if basis not in ("alpha", "z", "pstar1", "pstar2"):
                    raise ConfigError(f"unknown basis {basis!r} in counts file; bases are alpha, z, pstar1, pstar2")
                if basis in rows:
                    raise ConfigError(f"duplicate basis {basis!r} in counts file")
                cells, context = _cells(row), f"counts row {basis!r}"
                n_none = _convert(cells.get("n_none"), int | None, f"{context}.n_none")
                rows[basis] = (_fields(CountRecord, cells, context), n_none)
        for basis in ("alpha", "z"):
            if basis not in rows:
                raise ConfigError(f"counts file {path} is missing the {basis!r} basis row")
        alpha, z = (_estimate(b, *rows[b]) for b in ("alpha", "z"))
        # a multiphoton run's coincidence fraction is the (c,c) estimate of its row
        pstar1, pstar2 = (_estimate(b, *rows[b]).estimates[3] if b in rows else None for b in ("pstar1", "pstar2"))
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed counts file {path}: {exc}") from exc
    return CountsFile(alpha, z, pstar1, pstar2)


def _estimate(basis: str, record: CountRecord, n_none: int | None):
    """estimate_probabilities of one counts row; a row it rejects is named in the message."""
    try:
        return estimate_probabilities(record, n_none)
    except ValueError as exc:
        raise ValueError(f"counts row {basis!r}: {exc}") from exc


@dataclass(frozen=True)
class AnalysisSettings(Displacement):
    p1_star: float | None = None
    p2_star: float | None = None

    def __post_init__(self):
        super().__post_init__()
        for value in (self.p1_star, self.p2_star):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"multiphoton bound {value} outside [0, 1]")


def load_settings_file(path) -> AnalysisSettings:
    """Parse the analysis sidecar (single-row CSV or JSON object).

    Fields: alpha1_min, alpha1_mean, alpha1_max, alpha2_min, alpha2_mean,
    alpha2_max, and optionally p1_star / p2_star as fallbacks when the
    counts file has no multiphoton rows.
    """
    path = Path(path)
    try:
        text = path.read_text()
        if path.suffix.lower() == ".json":
            record = _convert(json.loads(text), dict, f"settings file {path}")
        else:
            data = list(csv.DictReader(text.splitlines()))
            if len(data) != 1:
                raise ConfigError(f"settings file {path} must hold one data row, not {len(data)}")
            record = _cells(data[0])
        return _fields(AnalysisSettings, record, "settings")
    except ConfigError:
        raise
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid settings file {path}: {exc}") from exc
