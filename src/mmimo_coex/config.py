"""Scenario configuration: one flat record mirroring the system parameter
table, loadable from a JSON file with strict key checking."""

import dataclasses
import json
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


@dataclass
class ScenarioConfig:
    # Run control
    scenario: str = "C"
    p_tr: float = 1.0
    n_drops: int = 500
    n_rounds: int = 50
    seed: int = 1

    # Deployment
    n_stas: int = 30
    floor_width_m: float = 120.0
    floor_depth_m: float = 50.0
    ap_height_m: float = 3.0
    sta_height_m: float = 1.5
    ap_max_power_dbm: float = 24.0
    sta_max_power_dbm: float = 18.0
    min_rss_dbm: float = -82.0
    redraw_uncovered: bool = False

    # Array dimensioning (central AP in scenarios B/C)
    mmimo_antennas: int = 36
    max_streams: int = 4
    n_nulls: int = 24

    # RF and channel model
    carrier_ghz: float = 5.18
    bandwidth_hz: float = 20e6
    noise_psd_dbm_hz: float = -174.0
    sta_noise_figure_db: float = 9.0
    ap_noise_figure_db: float = 9.0
    pl_los_intercept: float = 32.8
    pl_los_slope: float = 16.9
    pl_nlos_intercept: float = 11.5
    pl_nlos_slope: float = 43.3
    shadowing_sigma_los_db: float = 3.0
    shadowing_sigma_nlos_db: float = 4.0
    k_factor_mean_db: float = 9.0
    k_factor_std_db: float = 5.0

    # Channel access
    gamma_lbt_dbm: float = -62.0
    gamma_preamble_dbm: float = -82.0
    preamble_min_sinr_db: float = -0.8
    preamble_window_slots: int = 6
    cw_slots: int = 16
    ap_busy_rx_withdraws: bool = True

    # Traffic and the LBT/eLBT service pattern
    ul_fraction: float = 0.2
    dl_airtime_fraction: float = 0.8
    elbt_fraction: float = 0.4
    pattern_period: int = 5
    partition_enabled: bool = True

    # Covariance estimation for the nulling AP
    covariance_scope: str = "persistent"
    covariance_includes_own_cell: bool = False
    null_cap_by_energy: bool = False

    # Rate adaptation
    rate_table: tuple = DEFAULT_RATE_ROWS

    # Output
    out_dir: str = "results"
    out_format: str = "csv"

    def __post_init__(self):
        key = str(self.scenario).upper()
        if key in _SCENARIO_ALIASES:
            self.scenario = _SCENARIO_ALIASES[key]
        self.rate_table = tuple(tuple(row) for row in self.rate_table)

    @property
    def ap_antennas(self):
        """Antenna counts of the three corridor APs for the active scenario."""
        return (1, 1, 1) if self.scenario == "A" else (1, self.mmimo_antennas, 1)

    def validate(self):
        """Raise ConfigError naming every offending field."""
        bad = []
        if self.scenario not in SCENARIOS:
            bad.append(f"scenario (got {self.scenario!r}, want one of {SCENARIOS})")
        if not 0.0 <= self.p_tr <= 1.0:
            bad.append("p_tr (must lie in [0, 1])")
        if self.n_drops < 0:
            bad.append("n_drops (must be >= 0)")
        if self.n_rounds < 0:
            bad.append("n_rounds (must be >= 0)")
        if self.n_stas < 1:
            bad.append("n_stas (must be >= 1)")
        for name in ("floor_width_m", "floor_depth_m", "ap_height_m", "sta_height_m", "bandwidth_hz", "carrier_ghz"):
            if getattr(self, name) <= 0:
                bad.append(f"{name} (must be > 0)")
        if self.mmimo_antennas < 1:
            bad.append("mmimo_antennas (must be >= 1)")
        if self.max_streams < 1:
            bad.append("max_streams (must be >= 1)")
        if self.n_nulls < 0:
            bad.append("n_nulls (must be >= 0)")
        if self.scenario == "C" and self.n_nulls + self.max_streams > self.mmimo_antennas:
            bad.append("n_nulls (n_nulls + max_streams must not exceed mmimo_antennas)")
        if self.scenario != "A" and self.max_streams > self.mmimo_antennas:
            bad.append("max_streams (must not exceed mmimo_antennas)")
        if self.cw_slots < 1:
            bad.append("cw_slots (must be >= 1)")
        if not 0.0 <= self.ul_fraction <= 1.0:
            bad.append("ul_fraction (must lie in [0, 1])")
        if not 0.0 <= self.dl_airtime_fraction <= 1.0:
            bad.append("dl_airtime_fraction (must lie in [0, 1])")
        if not 0.0 <= self.elbt_fraction <= 1.0:
            bad.append("elbt_fraction (must lie in [0, 1])")
        if self.pattern_period < 1:
            bad.append("pattern_period (must be >= 1)")
        if self.k_factor_std_db < 0:
            bad.append("k_factor_std_db (must be >= 0)")
        for name in ("shadowing_sigma_los_db", "shadowing_sigma_nlos_db"):
            if getattr(self, name) < 0:
                bad.append(f"{name} (must be >= 0)")
        if self.covariance_scope not in COVARIANCE_SCOPES:
            bad.append(f"covariance_scope (got {self.covariance_scope!r}, want one of {COVARIANCE_SCOPES})")
        if self.out_format not in OUTPUT_FORMATS:
            bad.append(f"out_format (got {self.out_format!r}, want one of {OUTPUT_FORMATS})")
        try:
            RateTable(self.rate_table)
        except ValueError as exc:
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
