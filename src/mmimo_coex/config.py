"""Scenario configuration: one flat record mirroring the system parameter
table, loadable from a JSON file with strict key checking."""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError
from .phy import DEFAULT_RATE_ROWS, RateTable

SCENARIOS = ("A", "B", "C")  # also accepted in lower case
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
# Lengths in metres: up to 100 km, so squared distances and their path loss stay finite.
_LENGTH = (lambda v: 0 < v <= 100_000, "must lie in (0, 100000]")


def _between(low, high):
    return (lambda v: low <= v <= high, f"must lie in [{low}, {high}]")


_FRACTION = _between(0, 1)
# Power levels, thresholds and their ratios in dB: 1e-40 to 1e40 in linear
# terms, so that every product of a power, a slow gain and a fading factor
# stays finite and above zero.
_DB_LEVEL = _between(-400, 400)


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
    floor_width_m: float = _bounded(120.0, _LENGTH)
    floor_depth_m: float = _bounded(50.0, _LENGTH)
    ap_height_m: float = _bounded(3.0, _LENGTH)
    sta_height_m: float = _bounded(1.5, _LENGTH)
    ap_max_power_dbm: float = _bounded(24.0, _DB_LEVEL)
    sta_max_power_dbm: float = _bounded(18.0, _DB_LEVEL)

    # Array dimensioning (central AP in scenarios B/C)
    mmimo_antennas: int = _bounded(36, _between(2, 256))
    max_streams: int = _bounded(4, _AT_LEAST_ONE)
    n_nulls: int = _bounded(24, _NON_NEGATIVE)

    # RF and channel model
    # Every dB term, and every quantity that enters a dB sum through its
    # logarithm, is bounded: noise, slow gains and K-factors then stay far
    # inside the range of a double, above zero and below overflow.
    carrier_ghz: float = _bounded(5.18, _between(0.1, 100))
    bandwidth_hz: float = _bounded(20e6, _between(1e3, 1e10))
    noise_psd_dbm_hz: float = _bounded(-174.0, _between(-1000, 0))
    sta_noise_figure_db: float = _bounded(9.0, _between(-1000, 100))
    ap_noise_figure_db: float = _bounded(9.0, _between(-1000, 100))
    pl_los_intercept: float = _bounded(32.8, _between(0, 200))
    pl_los_slope: float = _bounded(16.9, _between(0, 100))
    pl_nlos_intercept: float = _bounded(11.5, _between(0, 200))
    pl_nlos_slope: float = _bounded(43.3, _between(0, 100))
    shadowing_sigma_los_db: float = _bounded(3.0, _between(0, 50))
    shadowing_sigma_nlos_db: float = _bounded(4.0, _between(0, 50))
    k_factor_mean_db: float = _bounded(9.0, _between(-300, 300))
    k_factor_std_db: float = _bounded(5.0, _between(0, 50))

    # Channel access
    gamma_lbt_dbm: float = _bounded(-62.0, _DB_LEVEL)
    gamma_preamble_dbm: float = _bounded(-82.0, _DB_LEVEL)
    preamble_min_sinr_db: float = _bounded(-0.8, _DB_LEVEL)
    preamble_window_slots: int = _bounded(6, _NON_NEGATIVE)
    cw_slots: int = _bounded(16, _between(1, 1024))

    # Traffic and the LBT/eLBT service pattern
    ul_fraction: float = _bounded(0.2, _FRACTION)
    dl_airtime_fraction: float = _bounded(0.8, _FRACTION)
    elbt_fraction: float = _bounded(0.4, _FRACTION)
    pattern_period: int = _bounded(5, _AT_LEAST_ONE)
    partition_enabled: bool = True

    # Rate adaptation
    rate_table: tuple = DEFAULT_RATE_ROWS

    # Output
    out_dir: str = "results"
    out_format: str = _bounded("csv", _one_of(OUTPUT_FORMATS))

    def __post_init__(self):
        if str(self.scenario).upper() in SCENARIOS:
            self.scenario = str(self.scenario).upper()
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
