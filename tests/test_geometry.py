import math

import numpy as np
import pytest

from mmimo_coex.config import ScenarioConfig
from mmimo_coex.geometry import (
    AssociationMap,
    FloorPlan,
    NodeDescriptor,
    ROLE_AP,
    ROLE_STA,
    associate,
    generate_drop,
    validate_coverage,
)


def make_cfg(**kw):
    return ScenarioConfig(scenario="A", **kw)


def test_floorplan_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        FloorPlan(width_m=0.0)
    with pytest.raises(ValueError):
        FloorPlan(depth_m=-5.0)


def test_generate_drop_layout():
    plan, nodes = generate_drop(make_cfg(n_stas=30), seed=7)
    assert len(nodes) == 33
    aps, stas = nodes[:3], nodes[3:]
    assert [ap.position[0] for ap in aps] == [20.0, 60.0, 100.0]
    assert all(ap.position[1:] == (25.0, 3.0) for ap in aps)
    assert all(ap.role == ROLE_AP for ap in aps)
    for sta in stas:
        assert sta.role == ROLE_STA
        assert 0.0 <= sta.position[0] <= 120.0
        assert 0.0 <= sta.position[1] <= 50.0
        assert sta.position[2] == 1.5


def test_generate_drop_deterministic():
    _, nodes_a = generate_drop(make_cfg(), seed=123)
    _, nodes_b = generate_drop(make_cfg(), seed=123)
    assert nodes_a == nodes_b


def test_generate_drop_rejects_empty():
    with pytest.raises(ValueError):
        generate_drop(make_cfg(n_stas=0), seed=1)


def test_scenario_b_antenna_counts():
    _, nodes = generate_drop(ScenarioConfig(scenario="B"), seed=1)
    assert [n.num_antennas for n in nodes[:3]] == [1, 36, 1]


def test_sta_position_uniformity():
    # empirical mean over many drops converges to the floor center
    n_drops = 10_000
    cfg = make_cfg(n_stas=1)
    xs, ys = [], []
    for seed in range(n_drops):
        _, nodes = generate_drop(cfg, seed=seed)
        xs.append(nodes[3].position[0])
        ys.append(nodes[3].position[1])
    se_x = (120.0 / np.sqrt(12.0)) / np.sqrt(n_drops)
    se_y = (50.0 / np.sqrt(12.0)) / np.sqrt(n_drops)
    assert abs(np.mean(xs) - 60.0) < 3 * se_x
    assert abs(np.mean(ys) - 25.0) < 3 * se_y


def _mini_world():
    aps = [
        NodeDescriptor(0, ROLE_AP, (20.0, 25.0, 3.0), 1, 24.0),
        NodeDescriptor(1, ROLE_AP, (60.0, 25.0, 3.0), 1, 24.0),
        NodeDescriptor(2, ROLE_AP, (100.0, 25.0, 3.0), 1, 24.0),
    ]
    stas = [
        NodeDescriptor(3, ROLE_STA, (60.0, 25.0, 1.5), 1, 18.0),
        NodeDescriptor(4, ROLE_STA, (10.0, 10.0, 1.5), 1, 18.0),
    ]
    return aps, stas


def test_associate_picks_largest_rss():
    aps, stas = _mini_world()
    gains = {
        (3, 0): -70.0, (3, 1): -60.0, (3, 2): -80.0,
        (4, 0): -55.0, (4, 1): -75.0, (4, 2): -90.0,
    }
    amap = associate(stas, aps, gains)
    assert amap.serving == {3: 1, 4: 0}
    assert amap.served[1] == (3,)
    assert amap.served[2] == ()


def test_associate_tie_breaks_to_lowest_ap_id():
    aps, stas = _mini_world()
    gains = {(3, 0): -60.0, (3, 1): -60.0, (3, 2): -70.0,
             (4, 0): -60.0, (4, 1): -60.0, (4, 2): -60.0}
    amap = associate(stas, aps, gains)
    assert amap.serving[3] == 0
    assert amap.serving[4] == 0


def test_associate_permutation_invariant():
    aps, stas = _mini_world()
    gains = {(s.id, a.id): -50.0 - math.dist(s.position, a.position) for s in stas for a in aps}
    forward = associate(stas, aps, gains)
    backward = associate(list(reversed(stas)), list(reversed(aps)), gains)
    assert forward.serving == backward.serving
    assert forward.served == backward.served


def test_associate_idempotent():
    aps, stas = _mini_world()
    gains = {(s.id, a.id): -50.0 - math.dist(s.position, a.position) for s in stas for a in aps}
    first = associate(stas, aps, gains)
    second = associate(stas, aps, gains)
    assert first == second


def test_validate_coverage():
    powers = {0: 24.0}
    amap = AssociationMap(serving={3: 0}, served={0: (3,)})
    assert validate_coverage(amap, {(3, 0): -106.0}, powers)  # RSS exactly -82
    assert not validate_coverage(amap, {(3, 0): -107.0}, powers)  # -83 dBm
    empty = AssociationMap(serving={}, served={0: ()})
    assert validate_coverage(empty, {}, powers)
