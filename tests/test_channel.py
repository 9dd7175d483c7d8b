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
from mmimo_coex.engine import init_drop, run_round
from mmimo_coex.geometry import NodeDescriptor, ROLE_AP, ROLE_STA, generate_drop
from mmimo_coex.phy import received_power
from mmimo_coex.units import db_to_linear


DEFAULTS = ScenarioConfig()


def default_path_loss(d, los):
    """path_loss_db at the configuration's default carrier and InH constants."""
    c = DEFAULTS
    return path_loss_db(d, los, c.carrier_ghz, (c.pl_los_intercept, c.pl_los_slope), (c.pl_nlos_intercept, c.pl_nlos_slope))


def node(nid, pos, antennas=1, role=ROLE_STA, p=18.0):
    return NodeDescriptor(nid, role, pos, antennas, p)


def _link_matrix(table, rx, tx):
    """The (M_tx, M_rx) fading matrix of a link; `link_h`'s complex h becomes 1 x 1."""
    return np.atleast_2d(table.link_h(rx, tx))


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
    assert default_path_loss(1.0, True) == pytest.approx(32.8 + 20 * math.log10(5.18), abs=1e-9)


def test_path_loss_nlos_decade_slope():
    assert default_path_loss(100.0, False) - default_path_loss(10.0, False) == pytest.approx(43.3, abs=1e-9)


def test_path_loss_nlos_dominates_los():
    d = np.linspace(1.0, 130.0, 500)
    assert np.all(default_path_loss(d, False) >= default_path_loss(d, True))


def test_path_loss_clamps_below_1m():
    assert default_path_loss(0.2, True) == default_path_loss(1.0, True)


# ---- shadowing and fading ----------------------------------------------------


def test_shadowing_sigma_matches_target():
    rng = np.random.default_rng(5)
    for los, sigma in ((True, 3.0), (False, 4.0)):
        draws = shadowing_db(np.full(100_000, los), rng, DEFAULTS.shadowing_sigma_los_db, DEFAULTS.shadowing_sigma_nlos_db)
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


def _assert_fourth_moment(samples, target):
    """The mean of |h|^4 over `samples` lies within 4 standard errors of `target`."""
    samples = np.abs(np.ravel(samples)) ** 4
    standard_error = np.std(samples) / math.sqrt(samples.size)
    assert abs(np.mean(samples) - target) < 4.0 * standard_error


def test_ricean_pure_los_unit_modulus():
    rng = np.random.default_rng(0)
    nodes = _array_world(40, 120.0)
    table = ChannelTable(nodes, ScenarioConfig(k_factor_mean_db=300.0, k_factor_std_db=0.0), rng)
    table.resample(rng)
    los = table.los & ~np.eye(len(nodes), dtype=bool)
    nlos = np.triu(~table.los, 1)
    assert 0 < np.sum(los[0]) < len(nodes) - 1  # the array has LOS and NLOS links
    scalar = _scalar_matrix(table)
    assert np.allclose(np.abs(scalar[los]), 1.0, atol=1e-12)
    assert np.allclose(np.abs(table.array_rows(np.flatnonzero(los[0]))), 1.0, atol=1e-12)
    # the NLOS links of the same snapshot are Rayleigh: E|h|^4 = 2
    _assert_fourth_moment(scalar[nlos], 2.0)
    _assert_fourth_moment(table.array_rows(np.flatnonzero(nlos[0])), 2.0)


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
    assert _link_matrix(table, 3, 4).shape == (1, 1)
    # the power received through a precoder matches the explicit product
    w = np.zeros((36, 2), dtype=complex)
    w[0, 0] = w[1, 1] = 1.0 / math.sqrt(2)
    explicit = float(np.sum(np.abs(table.array_rows([3])[0].conj() @ w) ** 2))
    assert received_power(1.0, 1.0, table.link_h(3, 1), w) == pytest.approx(explicit, rel=1e-12)


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
                assert np.array_equal(_link_matrix(table, a, b), _link_matrix(table, b, a).conj().T)


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
        assert 10.0 * math.log10(table.slow_gain[a, b]) == pytest.approx(-pl, rel=1e-12)
        assert table.slow_gain[b, a] == table.slow_gain[a, b]


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


@pytest.mark.parametrize("scenario", ["A", "C"])
def test_a_single_antenna_link_is_its_python_complex(scenario):
    table, rng = _drop_table(scenario, 3)
    a, b = _scalar_links(table)[5]
    h = table.link_h(a, b)
    assert type(h) is complex and h == table.scalar_h(a, b)
    slot, state = table._pair_slot, rng.bit_generator.state
    assert table.link_h(a, b) == h and table.link_h(b, a) == h.conjugate()
    assert (table._pair_slot, rng.bit_generator.state) == (slot, state)  # a repeated read takes no slot


def test_a_table_read_is_the_slow_gain_and_link_h_of_its_pair():
    table, rng = _drop_table("B", 4)
    x, m = table.array_node, table.array_size
    scalar = [(3, 4), (4, 3), (0, 7), (7, 0)]
    array = [(x, 5), (5, x), (x, 2), (2, x)]
    first = {pair: table[pair] for pair in scalar + array}
    assert all(type(first[pair][1]) is complex for pair in scalar)
    assert [first[pair][1].shape for pair in array] == [(1, m), (m, 1)] * 2
    slots, state = (table._pair_slot, table._row_slot), rng.bit_generator.state
    for (rx, tx), (g, h) in first.items():
        assert type(g) is float and g == table.slow_gain.item(rx, tx)
        assert np.array_equal(h, table.link_h(rx, tx))
        again = table[rx, tx]
        assert again[0] == g and np.array_equal(again[1], h)
    assert (table._pair_slot, table._row_slot, rng.bit_generator.state) == (*slots, state)  # no new slot


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
    first = {(a, b): _link_matrix(table, a, b).copy() for a, b in _scalar_links(table)[::7]}
    if x is not None:
        first.update({(j, x): _link_matrix(table, j, x).copy() for j in range(0, table.n, 3) if j != x})
    state = rng.bit_generator.state
    for (a, b), h in first.items():
        assert np.array_equal(_link_matrix(table, a, b), h)
        assert np.array_equal(_link_matrix(table, b, a), h.conj().T)
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
        assert np.array_equal(_link_matrix(table, a, b), _link_matrix(table, b, a).conj().T)


def _block_reference(table, size, m, rng):
    """The documented transform of one block of `size` slots over an m-element
    aperture (m = 1 for a scalar block, which has no steering): the (NLOS, LOS)
    coefficients of every slot, each of shape (size, m)."""
    z = rng.standard_normal((size, 2 * m + 1))
    u_az, u_el, u_psi = rng.random((3, size))
    az, cos_el, psi = 2 * np.pi * u_az, 2 * u_el - 1, 2 * np.pi * u_psi
    k = db_to_linear(table.k_factor_db[0] + table.k_factor_db[1] * z[:, -1])
    grid_row, grid_col = np.divmod(np.arange(m), math.isqrt(m)) if m > 1 else (np.zeros(1), np.zeros(1))
    nlos, los = [], []
    for i in range(size):
        sin_el = math.sqrt(1 - cos_el[i] ** 2)
        phase = math.pi * sin_el * (math.cos(az[i]) * grid_row + math.sin(az[i]) * grid_col) + psi[i]
        ray = (z[i, 0 : 2 * m : 2] + 1j * z[i, 1 : 2 * m : 2]) / math.sqrt(2)
        nlos.append(ray)
        los.append(math.sqrt(k[i] / (k[i] + 1)) * np.exp(1j * phase) + math.sqrt(1 / (k[i] + 1)) * ray)
    return np.array(nlos), np.array(los)


def _pair_block(table, rng):
    return _block_reference(table, table.n, 1, rng)


def _row_block(table, rng):
    return _block_reference(table, table.n - 1, table.array_size, rng)


def _slot(block, los, slot):
    """Slot `slot` of a reference block under the law of a link with LOS state `los`."""
    return block[1 if los else 0][slot]


def test_next_resample_redraws():
    table, rng = _drop_table("C", 4)
    x = table.array_node
    ref = copy.deepcopy(rng)
    h, v = table.scalar_h(3, 4), table.array_rows([5])[0].copy()
    pairs, rows = _pair_block(table, ref), _row_block(table, ref)
    table.resample(rng)
    state = rng.bit_generator.state
    h_next, v_next = table.scalar_h(4, 3), table.array_rows([5])[0]
    assert h_next != h.conjugate()
    assert not np.array_equal(v_next, v)
    # the next snapshot takes each block's next slot and draws nothing
    assert h_next == pytest.approx(np.conj(_slot(pairs, table.los[3, 4], 1)[0]), abs=1e-12)
    assert np.allclose(v_next, _slot(rows, table.los[x, 5], 1), atol=1e-12)
    assert rng.bit_generator.state == state == ref.bit_generator.state


def test_links_are_the_documented_transform_of_their_draws():
    table, rng = _drop_table("C", 5)
    x = table.array_node
    links = [(3, 4), (10, 0), (7, 32)]
    ids = [9, 4, 20, 11]
    assert len({table.los[a, b] for a, b in links}) == len({table.los[x, j] for j in ids}) == 2  # both laws read
    ref = copy.deepcopy(rng)
    pairs = _pair_block(table, ref)  # the first scalar read draws a block
    for slot, (low, high) in enumerate(links):
        h = table.scalar_h(low, high)
        assert rng.bit_generator.state == ref.bit_generator.state
        expected = _slot(pairs, table.los[low, high], slot)[0]
        assert h == pytest.approx(expected if low < high else np.conj(expected), abs=1e-12)
    rows = _row_block(table, ref)  # and so does the first row read
    got = table.array_rows([9, 4, 9, 20, x])
    assert rng.bit_generator.state == ref.bit_generator.state
    for slot, (i, j) in enumerate([(0, 9), (1, 4), (3, 20)]):
        assert np.allclose(got[i], _slot(rows, table.los[x, j], slot), atol=1e-12)
    assert np.array_equal(got[2], got[0])  # a repeated id is drawn once
    assert not np.any(got[4])  # the array's own row is zero
    assert np.allclose(table.link_h(x, 11), _slot(rows, table.los[x, 11], 3)[None, :].conj(), atol=1e-12)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_a_read_with_a_slot_left_makes_no_draw():
    table, rng = _drop_table("C", 6)
    x = table.array_node
    table.scalar_h(3, 4)  # draws the scalar block
    table.array_rows([5])  # draws the row block
    state = rng.bit_generator.state
    table.scalar_h(6, 3)
    table.link_h(7, 8)
    table.link_h(x, 9)
    received_power(1.0, 1.0, table.link_h(10, x), np.ones((table.array_size, 1)))
    received_power(1.0, 1.0, table.link_h(x, 12), np.ones((1, 1)))
    table.array_rows([13, 14, 15])
    assert rng.bit_generator.state == state


def test_a_batch_across_the_end_of_a_block_uses_its_rest():
    table, rng = _drop_table("C", 8)
    x = table.array_node
    others = [j for j in range(table.n) if j != x]  # one block's worth of rows
    ref = copy.deepcopy(rng)
    first, second = _row_block(table, ref), _row_block(table, ref)
    table.array_rows(others[:5])
    table.resample(rng)
    batch = others[::-1]
    got = table.array_rows(batch)
    size = table.n - 1
    for slot, (row, j) in enumerate(zip(got, batch), start=5):
        block = first if slot < size else second
        assert np.allclose(row, _slot(block, table.los[x, j], slot % size), atol=1e-12)
    assert rng.bit_generator.state == ref.bit_generator.state  # two blocks, no more


@pytest.mark.parametrize("scenario", ["B", "C"])
def test_drop_hands_out_each_slot_once(scenario, monkeypatch):
    """Over a seeded drop, every first read takes a slot that no other read
    took, under its link's law, and the drop draws less than one block of
    each kind beyond the slots it reads."""
    blocks = {1: [], 36: []}  # aperture size -> the blocks drawn, in order
    real_draw = ChannelTable._draw_block

    def spy(self, size, grid=None):
        block = real_draw(self, size, grid)
        blocks[block.shape[2]].append(block)
        return block

    monkeypatch.setattr(ChannelTable, "_draw_block", spy)
    drop = init_drop(ScenarioConfig(scenario=scenario, p_tr=0.5), 3)
    table, x = drop.table, drop.table.array_node
    handed = {1: [], 36: []}  # aperture size -> (LOS state, value) of each first read
    for r in range(30):
        run_round(drop, r)
        handed[1] += [(table.los[key], [h]) for key, h in table._pairs.items()]
        handed[36] += [(table.los[x, j], table._rows[j].copy()) for j in range(table.n) if j != x and table._row_ready[j]]
    for m, size in ((1, table.n), (36, table.n - 1)):
        assert handed[m] and all(b.shape == (2, size, m) for b in blocks[m])
        drawn = np.concatenate(blocks[m], axis=1)
        slots = []
        for los, value in handed[m]:
            (slot,) = np.flatnonzero(np.all(drawn[int(los)] == value, axis=1))
            slots.append(slot)
        assert sorted(slots) == list(range(len(handed[m])))  # consecutive, none twice
        assert 0 <= drawn.shape[1] - len(handed[m]) < size


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
        scalar += [table.scalar_h(a, b) for a in range(1, table.n) for b in range(a + 1, table.n)]
        array.append(table.array_rows(range(1, table.n)))
    target = _ricean_fourth_moment(db_to_linear(k_db))
    _assert_fourth_moment(scalar, target)
    _assert_fourth_moment(array, target)


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
