import math

import numpy as np
import pytest

from mmimo_coex.channel import (
    ChannelTable,
    los_probability,
    path_loss_db,
    received_covariance,
    shadowing_db,
)
from mmimo_coex.config import ScenarioConfig
from mmimo_coex.geometry import NodeDescriptor, ROLE_AP, ROLE_STA


def node(nid, pos, antennas=1, role=ROLE_STA, p=18.0):
    return NodeDescriptor(nid, role, pos, antennas, p)


# ---- LOS probability ---------------------------------------------------------


def test_los_probability_branches():
    assert los_probability(10.0) == 1.0
    assert los_probability(45.0) == 0.5
    assert los_probability(27.0) == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-12)


def test_los_probability_boundaries():
    # continuous at 18 m, small jump at 37 m
    assert los_probability(18.0) == 1.0
    assert los_probability(18.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)
    jump = abs(math.exp(-19.0 / 27.0) - 0.5)
    assert jump < 0.006
    assert los_probability(37.0) == pytest.approx(math.exp(-19.0 / 27.0))


def test_los_probability_rejects_negative():
    with pytest.raises(ValueError):
        los_probability(-1.0)


# ---- path loss ---------------------------------------------------------------


def test_path_loss_los_at_1m():
    assert path_loss_db(1.0, True, 5.18) == pytest.approx(32.8 + 20 * math.log10(5.18), abs=1e-9)


def test_path_loss_nlos_decade_slope():
    assert path_loss_db(100.0, False) - path_loss_db(10.0, False) == pytest.approx(43.3, abs=1e-9)


def test_path_loss_nlos_dominates_los():
    d = np.linspace(1.0, 130.0, 500)
    assert np.all(path_loss_db(d, False) >= path_loss_db(d, True))


def test_path_loss_clamps_below_1m():
    assert path_loss_db(0.2, True) == path_loss_db(1.0, True)


# ---- shadowing and fading ----------------------------------------------------


def test_shadowing_sigma_matches_target():
    rng = np.random.default_rng(5)
    for los, sigma in ((True, 3.0), (False, 4.0)):
        draws = shadowing_db(np.full(100_000, los), rng, size=100_000)
        assert abs(np.std(draws) - sigma) / sigma < 0.02


def _array_world(n, spread_m):
    """Node 0 carries a 36-element array; nodes 1..n-1 are single-antenna
    STAs on a line up to `spread_m` away (all LOS below 18 m)."""
    nodes = [node(0, (0.0, 0.0, 3.0), antennas=36, role=ROLE_AP, p=24.0)]
    return nodes + [node(i, (spread_m * i / n, 2.0, 1.5)) for i in range(1, n)]


def _array_power(nodes, seed, snapshots, **overrides):
    """Per-entry powers of the array-link vectors over fading snapshots."""
    rng = np.random.default_rng(seed)
    table = ChannelTable(nodes, ScenarioConfig(**overrides), rng)
    powers = []
    for _ in range(snapshots):
        table.resample(rng)
        powers.append(np.abs(table.array_vec[1:]) ** 2)
    return table, np.concatenate(powers).ravel()


def test_ricean_pure_los_unit_modulus():
    rng = np.random.default_rng(0)
    nodes = _array_world(40, 120.0)
    table = ChannelTable(nodes, ScenarioConfig(k_factor_mean_db=300.0, k_factor_std_db=0.0), rng)
    table.resample(rng)
    los = table.los & ~np.eye(len(nodes), dtype=bool)
    assert 0 < np.sum(los[0]) < len(nodes) - 1  # the array has LOS and NLOS links
    assert np.allclose(np.abs(table.h[los]), 1.0, atol=1e-12)
    assert np.allclose(np.abs(table.array_vec[los[0]]), 1.0, atol=1e-12)


def test_rayleigh_unit_power():
    _, power = _array_power(_array_world(60, 120.0), 1, 50, k_factor_mean_db=-300.0, k_factor_std_db=0.0)
    assert abs(np.mean(power) - 1.0) < 3.0 / math.sqrt(power.size)


def test_ricean_mixture_unit_power():
    table, power = _array_power(_array_world(40, 15.0), 2, 50)
    assert np.all(table.los[0, 1:])  # every array link is Ricean
    assert np.mean(power) == pytest.approx(1.0, abs=0.02)


# ---- received covariance -----------------------------------------------------


def _cov_setup(n_tx, m_x, rng):
    x = node(0, (0.0, 0.0, 3.0), antennas=m_x, role=ROLE_AP, p=24.0)
    txs, links, powers = [], {}, {}
    for t in range(1, n_tx + 1):
        txs.append(node(t, (float(t), 0.0, 1.5)))
        h = (rng.standard_normal((1, m_x)) + 1j * rng.standard_normal((1, m_x))) / math.sqrt(2)
        links[(0, t)] = (10 ** (rng.uniform(-10, -6)), h)
        powers[t] = 10 ** (rng.uniform(0, 2) / 10)
    return x, txs, links, powers


def test_covariance_noise_only():
    x = node(0, (0.0, 0.0, 3.0), antennas=4, role=ROLE_AP, p=24.0)
    z = received_covariance(x, [], {}, {}, noise_power=2.5)
    assert np.allclose(z, 2.5 * np.eye(4))


def test_covariance_single_transmitter_rank_one():
    rng = np.random.default_rng(11)
    x, txs, links, powers = _cov_setup(1, 8, rng)
    noise = 1e-9
    z = received_covariance(x, txs, links, powers, noise_power=noise)
    g, h = links[(0, 1)]
    v = h.conj().T  # (8, 1)
    expected = noise * np.eye(8) + powers[1] * g * (v @ v.conj().T)
    assert np.allclose(z, expected)
    eigenvalues = np.linalg.eigvalsh(z - noise * np.eye(8))
    assert np.sum(eigenvalues > 1e-18) == 1


def test_covariance_hermitian_psd():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x, txs, links, powers = _cov_setup(int(rng.integers(1, 6)), 12, rng)
        noise = 1e-8
        z = received_covariance(x, txs, links, powers, noise_power=noise)
        assert np.array_equal(z, z.conj().T)
        eigenvalues = np.linalg.eigvalsh(z)
        assert np.all(eigenvalues >= noise * (1 - 1e-9))


# ---- per-drop channel table --------------------------------------------------


def test_channel_table_matches_link_conventions():
    cfg_nodes = [
        node(0, (20.0, 25.0, 3.0), role=ROLE_AP, p=24.0),
        node(1, (60.0, 25.0, 3.0), antennas=36, role=ROLE_AP, p=24.0),
        node(2, (100.0, 25.0, 3.0), role=ROLE_AP, p=24.0),
        node(3, (50.0, 10.0, 1.5)),
        node(4, (70.0, 40.0, 1.5)),
    ]
    rng = np.random.default_rng(9)
    table = ChannelTable(cfg_nodes, ScenarioConfig(), rng)
    table.resample(rng)
    assert table.array_node == 1
    # symmetric slow gains, zero diagonal
    assert np.array_equal(table.slow_gain, table.slow_gain.T)
    assert np.all(np.diag(table.slow_gain) == 0.0)
    # scalar link reciprocity
    assert table.h[3, 4] == np.conj(table.h[4, 3])
    # link_h shapes follow (M_tx, M_rx)
    assert table.link_h(3, 1).shape == (36, 1)
    assert table.link_h(1, 3).shape == (1, 36)
    assert table.link_h(3, 4).shape == (1, 1)
    # emission factor with a precoder column matches the explicit product
    w = np.zeros((36, 2), dtype=complex)
    w[0, 0] = w[1, 1] = 1.0 / math.sqrt(2)
    explicit = float(np.sum(np.abs(table.array_vec[3].conj() @ w) ** 2))
    assert table.emission_factor(3, 1, w) == pytest.approx(explicit, rel=1e-12)


def test_channel_table_fading_unit_power():
    nodes = [node(i, (float(3 * i), 1.0 * i, 1.5)) for i in range(40)]
    rng = np.random.default_rng(21)
    table = ChannelTable(nodes, ScenarioConfig(), rng)
    samples = []
    for _ in range(50):
        table.resample(rng)
        iu = np.triu_indices(len(nodes), 1)
        samples.append(np.abs(table.h[iu]) ** 2)
    assert np.mean(np.concatenate(samples)) == pytest.approx(1.0, abs=0.02)


def test_channel_table_reciprocity():
    rng = np.random.default_rng(42)
    nodes = _array_world(20, 60.0)
    table = ChannelTable(nodes, ScenarioConfig(), rng)
    table.resample(rng)
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            if a != b:
                assert np.array_equal(table.link_h(a, b), table.link_h(b, a).conj().T)


def test_channel_table_slow_gain_uses_configured_path_loss():
    cfg = ScenarioConfig(
        carrier_ghz=2.4,
        pl_los_intercept=30.0,
        pl_los_slope=20.0,
        pl_nlos_intercept=15.0,
        pl_nlos_slope=40.0,
        shadowing_sigma_los_db=0.0,
        shadowing_sigma_nlos_db=0.0,
    )
    nodes = _array_world(30, 100.0)
    table = ChannelTable(nodes, cfg, np.random.default_rng(3))
    for a, b in zip(*np.triu_indices(len(nodes), 1)):
        d = math.dist(nodes[a].position, nodes[b].position)
        pl = path_loss_db(d, table.los[a, b], cfg.carrier_ghz, (30.0, 20.0), (15.0, 40.0))
        assert table.slow_gain_db[a, b] == pytest.approx(-pl, rel=1e-12)
        assert table.slow_gain_db[b, a] == table.slow_gain_db[a, b]


def test_channel_table_rejects_two_arrays():
    nodes = _array_world(5, 10.0)
    nodes[2] = node(2, nodes[2].position, antennas=4, role=ROLE_AP, p=24.0)
    with pytest.raises(ValueError, match="multi-antenna"):
        ChannelTable(nodes, ScenarioConfig(), np.random.default_rng(0))
