import copy
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
from mmimo_coex.geometry import NodeDescriptor, ROLE_AP, ROLE_STA, generate_drop
from mmimo_coex.units import db_to_linear


def node(nid, pos, antennas=1, role=ROLE_STA, p=18.0):
    return NodeDescriptor(nid, role, pos, antennas, p)


def _scalar_matrix(table):
    """Every scalar fading coefficient of the current snapshot, zero diagonal."""
    h = np.zeros((table.n, table.n), dtype=complex)
    for a in range(table.n):
        for b in range(table.n):
            if a != b:
                h[a, b] = table.scalar_h(a, b)
    return h


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
        powers.append(np.abs(table.array_rows(range(1, table.n))) ** 2)
    return table, np.concatenate(powers).ravel()


def test_ricean_pure_los_unit_modulus():
    rng = np.random.default_rng(0)
    nodes = _array_world(40, 120.0)
    table = ChannelTable(nodes, ScenarioConfig(k_factor_mean_db=300.0, k_factor_std_db=0.0), rng)
    table.resample(rng)
    los = table.los & ~np.eye(len(nodes), dtype=bool)
    assert 0 < np.sum(los[0]) < len(nodes) - 1  # the array has LOS and NLOS links
    assert np.allclose(np.abs(_scalar_matrix(table)[los]), 1.0, atol=1e-12)
    assert np.allclose(np.abs(table.array_rows(np.flatnonzero(los[0]))), 1.0, atol=1e-12)


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


def _outer_product_covariance(x, active, links, powers, noise_power):
    """The received covariance as a loop of one outer product per transmitter."""
    z = noise_power * np.eye(x.num_antennas, dtype=complex)
    for j in active:
        g, h = links[(x.id, j.id)]
        a = h.conj().T
        z += (powers[j.id] * g) * (a @ a.conj().T)
    return z


def test_covariance_matches_outer_product_loop():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = int(rng.integers(2, 37))
        x, txs, links, powers = _cov_setup(int(rng.integers(0, 23)), m, rng)
        if txs and rng.random() < 0.5:  # a transmitter with several antennas
            g, h = links[(0, txs[0].id)]
            links[(0, txs[0].id)] = (g, np.concatenate([h, 2.0 * h[:, ::-1]]))
        noise = 10 ** rng.uniform(-12, -8)
        z = received_covariance(x, txs, links, powers, noise_power=noise)
        expected = _outer_product_covariance(x, txs, links, powers, noise)
        assert np.array_equal(z, z.conj().T)
        assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)


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
    assert table.scalar_h(3, 4) == np.conj(table.scalar_h(4, 3))
    # link_h shapes follow (M_tx, M_rx)
    assert table.link_h(3, 1).shape == (36, 1)
    assert table.link_h(1, 3).shape == (1, 36)
    assert table.link_h(3, 4).shape == (1, 1)
    # emission factor with a precoder column matches the explicit product
    w = np.zeros((36, 2), dtype=complex)
    w[0, 0] = w[1, 1] = 1.0 / math.sqrt(2)
    explicit = float(np.sum(np.abs(table.array_rows([3])[0].conj() @ w) ** 2))
    assert table.emission_factor(3, 1, w) == pytest.approx(explicit, rel=1e-12)


def test_channel_table_fading_unit_power():
    nodes = [node(i, (float(3 * i), 1.0 * i, 1.5)) for i in range(40)]
    rng = np.random.default_rng(21)
    table = ChannelTable(nodes, ScenarioConfig(), rng)
    samples = []
    for _ in range(50):
        table.resample(rng)
        iu = np.triu_indices(len(nodes), 1)
        samples.append(np.abs(_scalar_matrix(table)[iu]) ** 2)
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


def _drop_table(scenario, seed):
    """A generated drop's channel table at its first snapshot, with its rng."""
    cfg = ScenarioConfig(scenario=scenario)
    rng = np.random.default_rng(seed)
    nodes = generate_drop(cfg, rng)
    table = ChannelTable(nodes, cfg, rng)
    table.resample(rng)
    return table, rng


def _scalar_links(table):
    x = table.array_node
    return [(a, b) for a in range(table.n) for b in range(table.n) if a != b and x not in (a, b)]


def test_resample_makes_no_draw():
    table, rng = _drop_table("C", 1)
    table.scalar_h(3, 4)
    table.array_rows([5, 6])
    state = rng.bit_generator.state
    table.resample(rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("scenario", ["A", "C"])
def test_second_read_draws_nothing(scenario):
    table, rng = _drop_table(scenario, 2)
    x = table.array_node
    first = {(a, b): table.link_h(a, b).copy() for a, b in _scalar_links(table)[::7]}
    if x is not None:
        first.update({(j, x): table.link_h(j, x).copy() for j in range(0, table.n, 3) if j != x})
    state = rng.bit_generator.state
    for (a, b), h in first.items():
        assert np.array_equal(table.link_h(a, b), h)
        assert np.array_equal(table.link_h(b, a), h.conj().T)
        if x is None:
            assert table.scalar_h(b, a) == h[0, 0].conjugate()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scenario", ["A", "C"])
def test_reciprocity_whatever_the_read_order(scenario, seed):
    table, _ = _drop_table(scenario, seed)
    links = [(a, b) for a in range(table.n) for b in range(table.n) if a != b]
    for i in np.random.default_rng(seed).permutation(len(links)):
        a, b = links[i]
        assert np.array_equal(table.link_h(a, b), table.link_h(b, a).conj().T)


def test_next_resample_redraws():
    table, rng = _drop_table("C", 4)
    h, v = table.scalar_h(3, 4), table.array_rows([5])[0].copy()
    table.resample(rng)
    state = rng.bit_generator.state
    assert table.scalar_h(4, 3) != h.conjugate()
    assert not np.array_equal(table.array_rows([5])[0], v)
    assert rng.bit_generator.state != state


def _scalar_reference(table, low, high, rng):
    """The documented transform of one scalar pair's draws."""
    k_draw, re, im = rng.standard_normal(3)
    phase = 2.0 * math.pi * rng.random()
    k = float(db_to_linear(table.k_factor_db[0] + table.k_factor_db[1] * k_draw)) if table.los[low, high] else 0.0
    return math.sqrt(k / (k + 1)) * np.exp(1j * phase) + math.sqrt(1 / (k + 1)) * (re + 1j * im) / math.sqrt(2)


def _rows_reference(table, ids, rng):
    """The documented transform of one batch of array-row draws."""
    m = table.array_size
    z = rng.standard_normal((len(ids), 2 * m + 1))
    u_az, u_el, u_psi = rng.random((3, len(ids)))
    az, cos_el, psi = 2 * np.pi * u_az, 2 * u_el - 1, 2 * np.pi * u_psi
    k_db = table.k_factor_db[0] + table.k_factor_db[1] * z[:, -1]
    k = np.where(table.los[table.array_node, ids], db_to_linear(k_db), 0.0)
    side = math.isqrt(m)
    grid_row, grid_col = np.divmod(np.arange(m), side)
    rows = []
    for i in range(len(ids)):
        sin_el = math.sqrt(1 - cos_el[i] ** 2)
        phase = math.pi * sin_el * (math.cos(az[i]) * grid_row + math.sin(az[i]) * grid_col) + psi[i]
        ray = (z[i, 0 : 2 * m : 2] + 1j * z[i, 1 : 2 * m : 2]) / math.sqrt(2)
        rows.append(math.sqrt(k[i] / (k[i] + 1)) * np.exp(1j * phase) + math.sqrt(1 / (k[i] + 1)) * ray)
    return np.array(rows)


def test_links_are_the_documented_transform_of_their_draws():
    table, rng = _drop_table("C", 5)
    x = table.array_node
    for low, high in [(3, 4), (10, 0), (7, 32)]:
        ref = copy.deepcopy(rng)
        expected = _scalar_reference(table, min(low, high), max(low, high), ref)
        h = table.scalar_h(low, high)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert h == pytest.approx(expected if low < high else np.conj(expected), abs=1e-12)
    ref = copy.deepcopy(rng)
    expected = _rows_reference(table, [9, 4, 20], ref)
    rows = table.array_rows([9, 4, 9, 20, x])
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.allclose(rows[[0, 1, 3]], expected, atol=1e-12)
    assert np.array_equal(rows[2], rows[0])  # a repeated id is drawn once
    assert not np.any(rows[4])  # the array's own row is zero
    ref = copy.deepcopy(rng)
    expected = _rows_reference(table, [11], ref)
    assert np.allclose(table.link_h(x, 11), expected.conj(), atol=1e-12)
    assert rng.bit_generator.state == ref.bit_generator.state


def _ricean_fourth_moment(k):
    """E|h|^4 of a unit-power Ricean coefficient with linear K-factor k."""
    return (k**2 + 4 * k + 2) / (k + 1) ** 2


@pytest.mark.parametrize("k_db", [0.0, 10.0])
def test_los_fading_fourth_moment_is_ricean(k_db):
    """|h|^4 separates Ricean laws of the same unit power: a Rayleigh part of
    the wrong scale moves it by many standard errors at both K-factors, and a
    K-factor used in dB does so at 0 dB (10 dB is 10 in both units)."""
    nodes = _array_world(40, 15.0)  # every link within 18 m, so all LOS
    rng = np.random.default_rng(6)
    table = ChannelTable(nodes, ScenarioConfig(k_factor_mean_db=k_db, k_factor_std_db=0.0), rng)
    assert np.all(table.los | np.eye(table.n, dtype=bool))
    scalar, array = [], []
    for _ in range(20):
        table.resample(rng)
        scalar += [abs(table.scalar_h(a, b)) ** 4 for a in range(1, table.n) for b in range(a + 1, table.n)]
        array.append(np.abs(table.array_rows(range(1, table.n)).ravel()) ** 4)
    target = _ricean_fourth_moment(db_to_linear(k_db))
    for samples in (np.array(scalar), np.concatenate(array)):
        standard_error = np.std(samples) / math.sqrt(samples.size)
        assert abs(np.mean(samples) - target) < 4.0 * standard_error


def test_pure_los_array_rows_are_planar_wavefronts():
    """With a pure LOS path every array row is a plane wave over the 6 x 6
    grid: one constant phase step along the grid rows, another along the columns."""
    nodes = _array_world(40, 15.0)
    rng = np.random.default_rng(7)
    table = ChannelTable(nodes, ScenarioConfig(k_factor_mean_db=300.0, k_factor_std_db=0.0), rng)
    for _ in range(5):
        table.resample(rng)
        grid = table.array_rows(range(1, table.n)).reshape(-1, 6, 6)
        row_step = grid[:, 1:, :] / grid[:, :-1, :]
        col_step = grid[:, :, 1:] / grid[:, :, :-1]
        assert np.allclose(row_step, row_step[:, :1, :1], atol=1e-12)
        assert np.allclose(col_step, col_step[:, :1, :1], atol=1e-12)
        # the two steps are independent plane-wave phases, not one shared one
        assert not np.allclose(row_step[:, 0, 0], col_step[:, 0, 0])
