"""Scenario configuration: one flat record mirroring the system parameter
table, loadable from a JSON file with strict key checking."""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError
from .phy import DEFAULT_RATE_ROWS, RateTable

SCENARIOS = ("A", "B", "C")
_SCENARIO_ALIASES = {
    "A": "A",
    "A_SINGLE_ANTENNA": "A",
    "B": "B",
    "B_MMIMO": "B",
    "C": "C",
    "C_MMIMO_U": "C",
}
COVARIANCE_SCOPES = ("active", "persistent")
OUTPUT_FORMATS = ("csv", "json")

# Declared field type -> (accepted values, what the error message asks for).
# A bool is not a number here, and a float field must also be finite.
_TYPES = {
    float: (numbers.Real, "a finite number"),
    int: (numbers.Integral, "an integer"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}
# Value bounds as (predicate, reason), checked once a field's type is right.
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_POSITIVE = (lambda v: v > 0, "must be > 0")


def _between(low, high):
    return (lambda v: low <= v <= high, f"must lie in [{low}, {high}]")


_FRACTION = _between(0, 1)


def _one_of(choices):
    return (lambda v: v in choices, f"must be one of {choices}")


def _bounded(default, bound):
    return dataclasses.field(default=default, metadata={"bound": bound})


def _fault(value, declared, bound):
    """Why a field of type `declared` with `bound` cannot hold `value`, or None."""
    if declared in _TYPES:
        accepted, wanted = _TYPES[declared]
        well_typed = isinstance(value, accepted) and isinstance(value, bool) == (declared is bool)
        if not well_typed or (declared is float and not math.isfinite(value)):
            return f"must be {wanted}"
    if bound is not None and not bound[0](value):
        return bound[1]
    return None


@dataclass
class ScenarioConfig:
    # Run control
    scenario: str = _bounded("C", _one_of(SCENARIOS))
    p_tr: float = _bounded(1.0, _FRACTION)
    # Counts that size the run's arrays and lists are capped far above any study.
    n_drops: int = _bounded(500, _between(0, 100_000))
    n_rounds: int = _bounded(50, _between(0, 100_000))
    seed: int = _bounded(1, _NON_NEGATIVE)

    # Deployment
    n_stas: int = _bounded(30, _between(1, 1000))
    floor_width_m: float = _bounded(120.0, _POSITIVE)
    floor_depth_m: float = _bounded(50.0, _POSITIVE)
    ap_height_m: float = _bounded(3.0, _POSITIVE)
    sta_height_m: float = _bounded(1.5, _POSITIVE)
    ap_max_power_dbm: float = 24.0
    sta_max_power_dbm: float = 18.0
    min_rss_dbm: float = -82.0
    redraw_uncovered: bool = False

    # Array dimensioning (central AP in scenarios B/C)
    mmimo_antennas: int = _bounded(36, _between(2, 256))
    max_streams: int = _bounded(4, _AT_LEAST_ONE)
    n_nulls: int = _bounded(24, _NON_NEGATIVE)

    # RF and channel model
    carrier_ghz: float = _bounded(5.18, _POSITIVE)
    bandwidth_hz: float = _bounded(20e6, _POSITIVE)
    noise_psd_dbm_hz: float = -174.0
    sta_noise_figure_db: float = 9.0
    ap_noise_figure_db: float = 9.0
    pl_los_intercept: float = 32.8
    pl_los_slope: float = 16.9
    pl_nlos_intercept: float = 11.5
    pl_nlos_slope: float = 43.3
    shadowing_sigma_los_db: float = _bounded(3.0, _NON_NEGATIVE)
    shadowing_sigma_nlos_db: float = _bounded(4.0, _NON_NEGATIVE)
    k_factor_mean_db: float = 9.0
    k_factor_std_db: float = _bounded(5.0, _NON_NEGATIVE)

    # Channel access
    gamma_lbt_dbm: float = -62.0
    gamma_preamble_dbm: float = -82.0
    preamble_min_sinr_db: float = -0.8
    preamble_window_slots: int = _bounded(6, _NON_NEGATIVE)
    cw_slots: int = _bounded(16, _between(1, 1024))
    ap_busy_rx_withdraws: bool = True

    # Traffic and the LBT/eLBT service pattern
    ul_fraction: float = _bounded(0.2, _FRACTION)
    dl_airtime_fraction: float = _bounded(0.8, _FRACTION)
    elbt_fraction: float = _bounded(0.4, _FRACTION)
    pattern_period: int = _bounded(5, _AT_LEAST_ONE)
    partition_enabled: bool = True

    # Covariance estimation for the nulling AP
    covariance_scope: str = _bounded("persistent", _one_of(COVARIANCE_SCOPES))
    covariance_includes_own_cell: bool = False
    null_cap_by_energy: bool = False

    # Rate adaptation
    rate_table: tuple = DEFAULT_RATE_ROWS

    # Output
    out_dir: str = "results"
    out_format: str = _bounded("csv", _one_of(OUTPUT_FORMATS))

    def __post_init__(self):
        key = str(self.scenario).upper()
        if key in _SCENARIO_ALIASES:
            self.scenario = _SCENARIO_ALIASES[key]
        try:
            self.rate_table = tuple(tuple(row) for row in self.rate_table)
        except TypeError:
            pass  # not a list of rows: validate() reports it

    @property
    def ap_antennas(self):
        """Antenna counts of the three corridor APs for the active scenario."""
        return (1, 1, 1) if self.scenario == "A" else (1, self.mmimo_antennas, 1)

    def validate(self):
        """Raise ConfigError naming every offending field.

        Each field must hold its declared type; its bound (declared with the
        field) and the cross-field rules apply only to well-typed values.
        """
        bad, faulty = [], set()
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            reason = _fault(value, f.type, f.metadata.get("bound"))
            if reason:
                bad.append(f"{f.name} (got {value!r}, {reason})")
                faulty.add(f.name)
        if not faulty & {"n_nulls", "max_streams", "mmimo_antennas"}:
            if self.scenario == "C" and self.n_nulls + self.max_streams > self.mmimo_antennas:
                bad.append("n_nulls (n_nulls + max_streams must not exceed mmimo_antennas)")
            if self.scenario != "A" and self.max_streams > self.mmimo_antennas:
                bad.append("max_streams (must not exceed mmimo_antennas)")
        try:
            RateTable(self.rate_table)
        except (TypeError, ValueError) as exc:
            bad.append(f"rate_table ({exc})")
        if bad:
            raise ConfigError("invalid configuration: " + "; ".join(bad))
        return self

    def replace(self, **overrides):
        return dataclasses.replace(self, **overrides)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["rate_table"] = [list(row) for row in self.rate_table]
        return d

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
        return cls(**data)


def load_config(path):
    """Read a flat JSON configuration file; unknown keys are rejected."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a flat JSON object")
    return ScenarioConfig.from_dict(data)
