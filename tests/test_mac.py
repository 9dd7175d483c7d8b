import numpy as np
import pytest

from mmimo_coex import mac
from mmimo_coex.geometry import NodeDescriptor, ROLE_STA
from mmimo_coex.units import dbm_to_mw


def stas(n):
    return [NodeDescriptor(3 + i, ROLE_STA, (float(i), 0.0, 1.5), 1, 18.0) for i in range(n)]


# ---- traffic -------------------------------------------------------------------


def test_traffic_extremes():
    rng = np.random.default_rng(0)
    all_on = mac.draw_traffic(stas(20), 1.0, rng)
    assert len(all_on.active_dl | all_on.active_ul) == 20
    none = mac.draw_traffic(stas(20), 0.0, rng)
    assert not none.active_dl | none.active_ul


def test_traffic_activity_rate():
    rng = np.random.default_rng(1)
    n, p = 100_000, 0.1
    state = mac.draw_traffic(stas(n), p, rng)
    rate = len(state.active_dl | state.active_ul) / n
    se = np.sqrt(p * (1 - p) / n)
    assert abs(rate - p) < 3 * se


def test_traffic_direction_split():
    rng = np.random.default_rng(2)
    state = mac.draw_traffic(stas(100_000), 1.0, rng, ul_fraction=0.2)
    ul_share = len(state.active_ul) / 100_000
    assert abs(ul_share - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 100_000)
    assert not (state.active_dl & state.active_ul)


def test_traffic_rejects_bad_probability():
    with pytest.raises(ValueError):
        mac.draw_traffic(stas(1), 1.5, np.random.default_rng(0))


# ---- detection -----------------------------------------------------------------


def test_energy_detect_thresholds():
    gamma = float(dbm_to_mw(-62.0))
    assert mac.energy_detect(float(dbm_to_mw(-70.0)), gamma)
    assert not mac.energy_detect(float(dbm_to_mw(-50.0)), gamma)
    assert not mac.energy_detect(gamma, gamma)  # strict inequality


def test_preamble_detect_cases():
    gamma = float(dbm_to_mw(-82.0))
    min_sinr = 10 ** (-0.08)
    assert not mac.preamble_detect([(dbm_to_mw(-85.0), 100.0)], gamma, min_sinr)
    assert mac.preamble_detect([(dbm_to_mw(-75.0), 100.0)], gamma, min_sinr)
    assert not mac.preamble_detect([(dbm_to_mw(-75.0), 10 ** -0.3)], gamma, min_sinr)
    assert not mac.preamble_detect([], gamma, min_sinr)


# ---- vulnerability metric and partition ------------------------------------------


def test_vulnerability_isolated_sta():
    gains = {(3, 0): 1e-6, (3, 1): 0.0, (3, 2): 0.0}
    powers = {0: 250.0, 1: 250.0, 2: 250.0}
    beta = mac.vulnerability_metric(3, 0, [0, 1, 2], gains, powers, noise_power=1e-9)
    assert beta == pytest.approx(250.0 * 1e-6 / 1e-9)


def test_vulnerability_balanced_sta():
    gains = {(3, 0): 1e-7, (3, 1): 1e-7, (3, 2): 0.0}
    powers = {0: 250.0, 1: 250.0, 2: 0.0}
    beta = mac.vulnerability_metric(3, 0, [0, 1, 2], gains, powers, noise_power=1e-15)
    assert beta == pytest.approx(1.0, rel=1e-6)


def test_partition_scale_invariant():
    rng = np.random.default_rng(3)
    ids = list(range(3, 23))
    gains = {(s, a): 10 ** rng.uniform(-11, -6) for s in ids for a in range(3)}
    powers = {a: 250.0 for a in range(3)}
    betas = {s: mac.vulnerability_metric(s, 1, [0, 1, 2], gains, powers, 1e-15) for s in ids}
    scaled = {s: mac.vulnerability_metric(s, 1, [0, 1, 2], gains, {a: 500.0 for a in range(3)}, 1e-15) for s in ids}
    assert mac.partition_by_vulnerability(betas) == mac.partition_by_vulnerability(scaled)


def test_partition_sizes():
    betas = {i: float(i) for i in range(10)}
    elbt, lbt = mac.partition_by_vulnerability(betas, 0.4)
    assert len(elbt) == 4 and len(lbt) == 6
    assert elbt == frozenset({9, 8, 7, 6})
    betas = {i: float(i) for i in range(7)}
    elbt, lbt = mac.partition_by_vulnerability(betas, 0.4)
    assert len(elbt) == 2  # floor(0.4 * 7)
    assert not elbt & lbt


# ---- phase pattern ----------------------------------------------------------------


def test_phase_pattern_split():
    phases = [mac.phase_pattern(r) for r in range(10)]
    assert phases.count(mac.MODE_ELBT) == 4
    assert phases.count(mac.MODE_LBT) == 6
    assert mac.phase_pattern(2) == mac.MODE_LBT
    assert all(mac.phase_pattern(r) == mac.phase_pattern(r + 5) for r in range(20))


def test_phase_pattern_all_elbt():
    assert all(mac.phase_pattern(r, elbt_fraction=1.0) == mac.MODE_ELBT for r in range(10))


# ---- scheduling --------------------------------------------------------------------


def scheduler(served, k_max, elbt=(), lbt=()):
    return mac.SchedulerState(
        served={0: tuple(served)}, k_max={0: k_max},
        elbt_set=frozenset(elbt), lbt_set=frozenset(lbt),
    )


def traffic_dl(ids):
    return mac.TrafficState(active_dl=frozenset(ids), active_ul=frozenset())


def test_schedule_caps_by_availability():
    state = scheduler(range(3, 13), 4)
    picked = mac.schedule(0, traffic_dl([5, 9]), state)
    assert sorted(picked) == [5, 9]


def test_schedule_elbt_set_filter():
    ids = list(range(3, 13))
    betas = {i: float(i) for i in ids}
    elbt, lbt = mac.partition_by_vulnerability(betas, 0.4)
    state = scheduler(ids, 4, elbt, lbt)
    picked = mac.schedule(0, traffic_dl(ids), state, phase=mac.MODE_ELBT)
    assert set(picked) == set(elbt)  # the four highest-beta users
    picked = mac.schedule(0, traffic_dl(ids), state, phase=mac.MODE_LBT)
    assert set(picked) <= set(lbt)


def test_schedule_round_robin_cycles():
    ids = list(range(3, 11))  # 8 active users, K = 4
    state = scheduler(ids, 4)
    seen = []
    for _ in range(4):
        seen.append(tuple(mac.schedule(0, traffic_dl(ids), state)))
    assert sorted(seen[0] + seen[1]) == ids  # each exactly once in 2 rounds
    assert sorted(seen[2] + seen[3]) == ids
    assert seen[0] == seen[2]


def test_select_ul_rotates():
    state = scheduler([3, 4, 5], 1)
    t = mac.TrafficState(active_dl=frozenset(), active_ul=frozenset([3, 4, 5]))
    picks = [mac.select_ul_sta(0, t, state) for _ in range(6)]
    assert picks == [3, 4, 5, 3, 4, 5]
    assert mac.select_ul_sta(0, traffic_dl([3]), state) is None


# ---- contention ---------------------------------------------------------------------


class FakeMedium:
    """Static rx-power matrix; every active transmitter's preamble stays visible."""

    def __init__(self, rx_mw, noise_mw=1e-9, gamma_lbt_dbm=-62.0,
                 residual_factors=None):
        self.rx = rx_mw  # rx[receiver][transmitter] -> linear power
        self.noise = noise_mw
        self.gamma_lbt = float(dbm_to_mw(gamma_lbt_dbm))
        self.gamma_preamble = float(dbm_to_mw(-82.0))
        self.preamble_min_sinr = 10 ** (-0.08)
        self.residual_factors = residual_factors or {}
        self.active = []

    def busy_receiving(self, node_id):
        return False

    def sensed_rx(self, node_id, cca_slot):
        sources = [self.rx[node_id][t] for t in self.active]
        total = sum(sources) + self.noise
        return total, [(p, p / (total - p)) for p in sources]

    def residual_rx(self, node_id, cca_slot):
        sources = [self.rx[node_id][t] * self.residual_factors.get(t, 1.0) for t in self.active]
        total = sum(sources) + self.noise
        return total, [(p, p / (total - p)) for p in sources]

    def activate(self, node_id, cca_slot=0):
        self.active.append(node_id)
        return True


def test_lone_contender_granted():
    medium = FakeMedium({0: {}})
    attempts = mac.contend([(0, mac.MODE_LBT)], medium, np.random.default_rng(0))
    assert attempts[0].granted and attempts[0].defer_cause == mac.DEFER_NONE


def test_mutually_audible_pair_serializes():
    loud = float(dbm_to_mw(-50.0))
    rx = {0: {1: loud}, 1: {0: loud}}
    for seed in range(20):
        medium = FakeMedium(rx)
        attempts = mac.contend([(0, mac.MODE_LBT), (1, mac.MODE_LBT)], medium, np.random.default_rng(seed))
        granted = [a for a in attempts if a.granted]
        assert len(granted) == 1
        first = min(attempts, key=lambda a: (a.backoff_slot, a.node_id))
        assert granted[0].node_id == first.node_id
        blocked = [a for a in attempts if not a.granted]
        assert blocked[0].defer_cause == mac.DEFER_ENERGY


def test_quiet_preamble_blocks():
    # below the energy threshold but above the preamble threshold
    soft = float(dbm_to_mw(-75.0))
    rx = {0: {1: soft}, 1: {0: soft}}
    for seed in range(20):
        medium = FakeMedium(rx)
        attempts = mac.contend([(0, mac.MODE_LBT), (1, mac.MODE_LBT)], medium, np.random.default_rng(seed))
        blocked = [a for a in attempts if not a.granted]
        assert len(blocked) == 1
        assert blocked[0].defer_cause == mac.DEFER_PREAMBLE


def test_elbt_nulling_gains_access_where_lbt_defers():
    loud = float(dbm_to_mw(-50.0))
    rx = {0: {1: loud}, 1: {0: loud}}
    rng_state = 4  # seed where node 1 draws the earlier backoff
    for seed in range(40):
        probe = FakeMedium(rx)
        attempts = mac.contend([(0, mac.MODE_LBT), (1, mac.MODE_LBT)], probe, np.random.default_rng(seed))
        if attempts[0].node_id == 1:
            rng_state = seed
            break
    # same draw, but node 0 filters out node 1's subspace
    medium = FakeMedium(rx, residual_factors={1: 1e-10})
    attempts = mac.contend([(0, mac.MODE_ELBT), (1, mac.MODE_LBT)], medium, np.random.default_rng(rng_state))
    assert all(a.granted for a in attempts)


def test_granted_lbt_set_pairwise_compatible():
    rng = np.random.default_rng(7)
    gamma = float(dbm_to_mw(-62.0))
    for trial in range(200):
        n = int(rng.integers(2, 8))
        rx = {i: {} for i in range(n)}
        for i in range(n):
            for j in range(n):
                if i != j:
                    rx[i][j] = float(dbm_to_mw(rng.uniform(-95.0, -45.0)))
        medium = FakeMedium(rx)
        attempts = mac.contend([(i, mac.MODE_LBT) for i in range(n)], medium, rng)
        order = {a.node_id: k for k, a in enumerate(attempts)}
        granted = [a.node_id for a in attempts if a.granted]
        for g in granted:
            earlier = [t for t in granted if order[t] < order[g]]
            assert sum(rx[g][t] for t in earlier) + medium.noise < gamma
