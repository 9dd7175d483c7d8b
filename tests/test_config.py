import dataclasses
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo_coex.config import ScenarioConfig, load_config
from mmimo_coex.engine import run_simulation
from mmimo_coex.errors import ConfigError


def test_defaults_are_valid():
    for scenario in ("A", "B", "C"):
        ScenarioConfig(scenario=scenario).validate()


def test_scenario_aliases():
    assert ScenarioConfig(scenario="A_single_antenna").scenario == "A"
    assert ScenarioConfig(scenario="b_mmimo").scenario == "B"
    assert ScenarioConfig(scenario="C_mmimo_u").scenario == "C"


def test_antenna_layout_follows_scenario():
    assert ScenarioConfig(scenario="A").ap_antennas == (1, 1, 1)
    assert ScenarioConfig(scenario="C").ap_antennas == (1, 36, 1)


def test_validate_names_offending_fields():
    cfg = ScenarioConfig(scenario="C", p_tr=1.4, cw_slots=0)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    message = str(err.value)
    assert "p_tr" in message and "cw_slots" in message


@pytest.mark.parametrize(
    "data",
    [
        {"p_tr": "1.0"},
        {"floor_width_m": math.nan},
        {"n_drops": 2.5},
        {"preamble_window_slots": -3},
        {"rate_table": 5},
        {"p_tr": True},
        {"partition_enabled": 1},
        {"out_dir": 3},
        {"rate_table": [[2.0, math.inf]]},
        {"cw_slots": 10**30},
        {"n_stas": 10**9},
        {"mmimo_antennas": 10**6},
        {"n_drops": 10**9},
        {"n_rounds": 10**9},
        {"k_factor_mean_db": 1e4},
        {"gamma_lbt_dbm": 1e4},
        {"shadowing_sigma_los_db": 1e4},
        {"pl_los_slope": -1e4},
        {"noise_psd_dbm_hz": -1e4},
        {"carrier_ghz": 1e-300},
        {"bandwidth_hz": 1e-300},
        {"floor_width_m": 1e300},
        {"floor_depth_m": 1e160},
        {"ap_height_m": 1e300},
        {"sta_height_m": 1e200},
        {"floor_width_m": 0.0},
        {"floor_depth_m": -5.0},
    ],
    ids=[
        "string-for-float",
        "nan",
        "float-for-int",
        "negative-window",
        "scalar-rate-table",
        "bool-for-float",
        "int-for-bool",
        "int-for-string",
        "infinite-rate",
        "huge-contention-window",
        "huge-sta-count",
        "huge-array",
        "huge-drop-count",
        "huge-round-count",
        "huge-k-factor",
        "huge-lbt-threshold",
        "huge-shadowing",
        "negative-path-loss-slope",
        "vanishing-noise",
        "vanishing-carrier",
        "vanishing-bandwidth",
        "huge-floor-width",
        "huge-floor-depth",
        "huge-ap-height",
        "huge-sta-height",
        "zero-floor-width",
        "negative-floor-depth",
    ],
)
def test_mistyped_or_non_finite_value_rejected(data):
    (name,) = data
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_dict(data).validate()


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
_SMALL_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
_JSON_VALUES = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.booleans(),
    _SMALL_NUMBERS,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(_SMALL_NUMBERS, st.lists(_SMALL_NUMBERS, max_size=3)), max_size=3),
)
# Values of a field's declared type, so that many objects pass validation
# and go on to a run: small ones, so the run stays short, and extremes on
# either side of the declared bounds that overflow or divide by zero unless
# bounded or guarded.
_TYPED_VALUES = {
    float: st.one_of(_SMALL_NUMBERS, st.sampled_from([400.0, -1000.0, 1e4, -1e4, 1e300])),
    int: st.one_of(st.integers(-3, 3), st.sampled_from([10**4, 10**30])),
    bool: st.booleans(),
    str: st.text(max_size=4),
}
_CHOICES = {"scenario": ["A", "B", "C"], "out_format": ["csv", "json"]}


def _entry(name):
    """(name, value), the value of the field's type three times in four."""
    typed = _TYPED_VALUES.get(_FIELD_TYPES.get(name), _JSON_VALUES)
    if name in _CHOICES:
        typed = st.sampled_from(_CHOICES[name] + ["x"])
    return st.tuples(st.just(name), st.sampled_from([typed, typed, typed, _JSON_VALUES]).flatmap(lambda values: values))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.sampled_from(["A", "B", "C"]),
    st.lists(st.sampled_from(sorted(_FIELD_TYPES) + ["not_a_field"]).flatmap(_entry), max_size=6).map(dict),
)
def test_any_flat_object_is_rejected_or_well_typed(scenario, data):
    data.setdefault("scenario", scenario)  # run every deployment, not only the default
    try:
        cfg = ScenarioConfig.from_dict(data).validate()
    except ConfigError:
        return
    for name, declared in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if declared in (int, float):
            assert not isinstance(value, bool) and math.isfinite(value), name
            assert isinstance(value, int if declared is int else (int, float)), name
        elif declared in (bool, str):
            assert isinstance(value, declared), name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (drop,) = run_simulation(cfg.replace(n_drops=1, n_rounds=1)).drops
    assert np.all(np.isfinite(drop.sinr_db))
    assert all(math.isfinite(v) and v >= 0 for v in drop.user_throughput_bps.values())
    assert math.isfinite(drop.sum_throughput_bps)


def test_nulls_plus_streams_bounded_by_antennas():
    cfg = ScenarioConfig(scenario="C", n_nulls=33, max_streams=4)
    with pytest.raises(ConfigError, match="n_nulls"):
        cfg.validate()
    # same dimensioning is fine when the nulling AP is not deployed
    ScenarioConfig(scenario="B", n_nulls=33, max_streams=4).validate()


def test_single_antenna_array_rejected():
    # eLBT filters an array's covariance; one antenna leaves no array to filter
    cfg = ScenarioConfig(scenario="C", mmimo_antennas=1, n_nulls=0, max_streams=1)
    with pytest.raises(ConfigError, match=r"mmimo_antennas \(got 1"):
        cfg.validate()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="not_a_knob"):
        ScenarioConfig.from_dict({"scenario": "A", "not_a_knob": 3})


# Model switches that once selected alternative models; each default is now the only model.
_RETIRED_KEYS = (
    "covariance_scope",
    "covariance_includes_own_cell",
    "null_cap_by_energy",
    "ap_busy_rx_withdraws",
    "redraw_uncovered",
    "min_rss_dbm",
)


@pytest.mark.parametrize("key", _RETIRED_KEYS)
def test_retired_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown configuration keys: {key}$"):
        ScenarioConfig.from_dict({key: True})


def test_readme_configuration_table_names_every_field():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1].split("\n\n", 2)[1]
    named = set(re.findall(r"`(\w+)`", section))
    assert named == set(_FIELD_TYPES)
    assert not named & set(_RETIRED_KEYS)


def test_rate_table_override_validated():
    cfg = ScenarioConfig(rate_table=[[5.0, 13e6], [2.0, 6.5e6]])
    with pytest.raises(ConfigError, match="rate_table"):
        cfg.validate()


def test_load_config_round_trip(tmp_path):
    cfg = ScenarioConfig(scenario="B", p_tr=0.1, n_drops=7, seed=42)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded == cfg


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="flat JSON object"):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_replace_returns_new_config():
    cfg = ScenarioConfig(scenario="A")
    other = cfg.replace(scenario="C", p_tr=0.1)
    assert cfg.scenario == "A" and other.scenario == "C"
    assert other.p_tr == 0.1
