import math

import numpy as np
import pytest

from mmimo_coex.config import ScenarioConfig
from mmimo_coex.geometry import ROLE_AP, ROLE_STA, NodeDescriptor, ap_corridor_x, associate, generate_drop


def make_cfg(**kw):
    return ScenarioConfig(scenario="A", **kw)


def test_generate_drop_layout():
    nodes = generate_drop(make_cfg(n_stas=30), seed=7)
    assert len(nodes) == 33
    aps, stas = nodes[:3], nodes[3:]
    assert [ap.position[0] for ap in aps] == ap_corridor_x(120.0) == [20.0, 60.0, 100.0]
    assert all(ap.position[1:] == (25.0, 3.0) for ap in aps)
    assert all(ap.role == ROLE_AP for ap in aps)
    for sta in stas:
        assert sta.role == ROLE_STA
        assert 0.0 <= sta.position[0] <= 120.0
        assert 0.0 <= sta.position[1] <= 50.0
        assert sta.position[2] == 1.5


def test_generate_drop_deterministic():
    nodes_a = generate_drop(make_cfg(), seed=123)
    nodes_b = generate_drop(make_cfg(), seed=123)
    assert nodes_a == nodes_b


def test_node_descriptor_contract():
    positional = NodeDescriptor(4, ROLE_STA, (1.0, 2.0, 1.5), 1, 18.0)
    keyword = NodeDescriptor(id=4, role=ROLE_STA, position=(1.0, 2.0, 1.5), num_antennas=1, max_power_dbm=18.0)
    assert positional == keyword and hash(positional) == hash(keyword)
    assert len({positional, keyword}) == 1
    assert (keyword.id, keyword.role, keyword.position, keyword.num_antennas, keyword.max_power_dbm) == (
        4, ROLE_STA, (1.0, 2.0, 1.5), 1, 18.0
    )
    assert positional != NodeDescriptor(4, ROLE_STA, (1.0, 2.0, 1.5), 2, 18.0)
    for antennas in (0, -1):
        with pytest.raises(ValueError):
            NodeDescriptor(0, ROLE_AP, (0.0, 0.0, 3.0), antennas, 24.0)
        with pytest.raises(ValueError):
            NodeDescriptor(id=0, role=ROLE_AP, position=(0.0, 0.0, 3.0), num_antennas=antennas, max_power_dbm=24.0)
    with pytest.raises(ValueError):
        positional._replace(num_antennas=0)
    assert positional._replace(id=5) == NodeDescriptor(5, ROLE_STA, (1.0, 2.0, 1.5), 1, 18.0)
    for field in ("id", "role", "position", "num_antennas", "max_power_dbm"):
        with pytest.raises(AttributeError):
            setattr(positional, field, None)
    with pytest.raises(AttributeError):
        positional.extra = 1
    assert positional == keyword


def test_generate_drop_positions_are_the_generators_uniforms():
    cfg = make_cfg(n_stas=12)
    nodes = generate_drop(cfg, 2024)
    rng = np.random.default_rng(2024)
    xs = rng.uniform(0.0, cfg.floor_width_m, cfg.n_stas)
    ys = rng.uniform(0.0, cfg.floor_depth_m, cfg.n_stas)
    expected = [NodeDescriptor(3 + s, ROLE_STA, (xs[s], ys[s], cfg.sta_height_m), 1, cfg.sta_max_power_dbm) for s in range(12)]
    assert nodes[3:] == expected
    assert all(type(c) is float for nd in nodes for c in nd.position[:2])


def test_generate_drop_rejects_empty():
    with pytest.raises(ValueError):
        generate_drop(make_cfg(n_stas=0), seed=1)


def test_scenario_b_antenna_counts():
    nodes = generate_drop(ScenarioConfig(scenario="B"), seed=1)
    assert [n.num_antennas for n in nodes[:3]] == [1, 36, 1]


def test_sta_position_uniformity():
    # empirical mean over many drops converges to the floor center
    n_drops = 10_000
    cfg = make_cfg(n_stas=1)
    xs, ys = [], []
    for seed in range(n_drops):
        nodes = generate_drop(cfg, seed=seed)
        xs.append(nodes[3].position[0])
        ys.append(nodes[3].position[1])
    se_x = (120.0 / np.sqrt(12.0)) / np.sqrt(n_drops)
    se_y = (50.0 / np.sqrt(12.0)) / np.sqrt(n_drops)
    assert abs(np.mean(xs) - 60.0) < 3 * se_x
    assert abs(np.mean(ys) - 25.0) < 3 * se_y


# STA rows x AP columns, as init_drop reads them off the channel table
_AP_POWER_DBM = 24.0


def _rss_by_distance():
    aps = [(20.0, 25.0, 3.0), (60.0, 25.0, 3.0), (100.0, 25.0, 3.0)]
    stas = [(60.0, 25.0, 1.5), (10.0, 10.0, 1.5)]
    return np.array([[_AP_POWER_DBM - 50.0 - math.dist(s, a) for a in aps] for s in stas])


def test_associate_picks_largest_rss():
    gains = np.array([[-70.0, -60.0, -80.0], [-55.0, -75.0, -90.0]])
    serving = associate(_AP_POWER_DBM + gains)
    assert serving.tolist() == [1, 0]
    assert np.flatnonzero(serving == 1).tolist() == [0]
    assert np.flatnonzero(serving == 2).tolist() == []


def test_associate_tie_breaks_to_lowest_ap_id():
    gains = np.array([[-60.0, -60.0, -70.0], [-60.0, -60.0, -60.0]])
    assert associate(_AP_POWER_DBM + gains).tolist() == [0, 0]


def test_associate_permutation_invariant():
    rss = _rss_by_distance()
    forward = associate(rss)
    # reversing the STA rows reverses the choices; reversing the AP columns relabels them
    assert associate(rss[::-1]).tolist() == forward[::-1].tolist()
    assert (2 - associate(rss[:, ::-1])).tolist() == forward.tolist()


def test_associate_idempotent():
    rss = _rss_by_distance()
    assert np.array_equal(associate(rss), associate(rss))
