import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo_coex.config import ScenarioConfig, load_config
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
        {"redraw_uncovered": 1},
        {"out_dir": 3},
        {"rate_table": [[2.0, math.inf]]},
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


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(sorted(_FIELD_TYPES) + ["not_a_field"]), _JSON_VALUES, max_size=6))
def test_any_flat_object_is_rejected_or_well_typed(data):
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


def test_nulls_plus_streams_bounded_by_antennas():
    cfg = ScenarioConfig(scenario="C", n_nulls=33, max_streams=4)
    with pytest.raises(ConfigError, match="n_nulls"):
        cfg.validate()
    # same dimensioning is fine when the nulling AP is not deployed
    ScenarioConfig(scenario="B", n_nulls=33, max_streams=4).validate()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="not_a_knob"):
        ScenarioConfig.from_dict({"scenario": "A", "not_a_knob": 3})


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
