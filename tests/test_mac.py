from types import SimpleNamespace

import numpy as np
import pytest

from mmimo_coex import mac
from mmimo_coex.config import ScenarioConfig
from mmimo_coex.units import dbm_to_mw

DEFAULTS = ScenarioConfig()


def one_cell(n):
    """A scheduler state whose AP 0 serves the n STAs 3 .. n + 2."""
    return mac.SchedulerState(served={0: tuple(range(3, 3 + n))}, k_max={0: 1})


# ---- traffic -------------------------------------------------------------------


def test_traffic_extremes():
    rng = np.random.default_rng(0)
    all_on = mac.draw_traffic(one_cell(20), 1.0, rng, DEFAULTS.ul_fraction)
    assert len(all_on.dl[0] + all_on.ul[0]) == 20
    none = mac.draw_traffic(one_cell(20), 0.0, rng, DEFAULTS.ul_fraction)
    assert not none.dl[0] + none.ul[0]


def test_traffic_activity_rate():
    rng = np.random.default_rng(1)
    n, p = 100_000, 0.1
    state = mac.draw_traffic(one_cell(n), p, rng, DEFAULTS.ul_fraction)
    rate = (len(state.dl[0]) + len(state.ul[0])) / n
    se = np.sqrt(p * (1 - p) / n)
    assert abs(rate - p) < 3 * se


def test_traffic_direction_split():
    rng = np.random.default_rng(2)
    state = mac.draw_traffic(one_cell(100_000), 1.0, rng, ul_fraction=0.2)
    ul_share = len(state.ul[0]) / 100_000
    assert abs(ul_share - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 100_000)
    assert not set(state.dl[0]) & set(state.ul[0])


def test_traffic_rejects_bad_probability():
    with pytest.raises(ValueError):
        mac.draw_traffic(one_cell(1), 1.5, np.random.default_rng(0), DEFAULTS.ul_fraction)


def _three_cells(seed, n=40):
    """A scheduler state of n STAs (ids 3 .. n + 2) served by APs 0-2 at
    random, each cell's tuple in shuffled order."""
    rng = np.random.default_rng(seed)
    cell = rng.integers(0, 3, n)
    served = {a: tuple(int(s) for s in rng.permutation(np.flatnonzero(cell == a) + 3)) for a in range(3)}
    return mac.SchedulerState(served=served, k_max={0: 1, 1: 4, 2: 1})


def test_cell_of_inverts_served_in_ascending_sta_order():
    state = _three_cells(8)
    assert list(state.cell_of) == sorted(state.cell_of) == list(range(3, 43))
    assert all(state.cell_of[s] == a for a, cell in state.served.items() for s in cell)


@pytest.mark.parametrize("p_tr", [0.1, 1.0])
def test_draw_traffic_matches_an_inline_reference(p_tr):
    # The reference draws random((2, n)) from the same generator state and
    # decides each STA in ascending id: active iff u < p_tr, then UL iff v < 0.2.
    state = _three_cells(9)
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(20):
        traffic = mac.draw_traffic(state, p_tr, rng, ul_fraction=0.2)
        u, v = ref_rng.random((2, len(state.cell_of)))
        ref = {s: None if u[i] >= p_tr else ("ul" if v[i] < 0.2 else "dl") for i, s in enumerate(sorted(state.cell_of))}
        got = []
        for a in range(3):
            for kind, lists in (("dl", traffic.dl), ("ul", traffic.ul)):
                assert lists[a] == sorted(lists[a])
                assert all(state.cell_of[s] == a for s in lists[a])
                got += [(s, kind) for s in lists[a]]
        assert sorted(got) == [(s, kind) for s, kind in ref.items() if kind is not None]
    assert rng.random() == ref_rng.random()  # the same number of uniforms taken


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
    gains = np.array([[1e-6, 0.0, 0.0]])
    powers = np.array([250.0, 250.0, 250.0])
    (beta,) = mac.vulnerability(powers * gains, 0, noise_power=1e-9)
    assert beta == pytest.approx(250.0 * 1e-6 / 1e-9)


def test_vulnerability_balanced_sta():
    gains = np.array([[1e-7, 1e-7, 0.0]])
    powers = np.array([250.0, 250.0, 0.0])
    (beta,) = mac.vulnerability(powers * gains, 0, noise_power=1e-15)
    assert beta == pytest.approx(1.0, rel=1e-6)


def test_vulnerability_adds_noise_then_other_aps_by_id():
    rng = np.random.default_rng(5)
    rx = 250.0 * 10 ** rng.uniform(-11, -6, (20, 3))
    betas = mac.vulnerability(rx, 1, 1e-12)
    assert betas.tolist() == [r[1] / (1e-12 + r[0] + r[2]) for r in rx.tolist()]


def test_partition_scale_invariant():
    rng = np.random.default_rng(3)
    ids = list(range(3, 23))
    gains = 10 ** rng.uniform(-11, -6, (len(ids), 3))
    betas = dict(zip(ids, mac.vulnerability(250.0 * gains, 1, 1e-15)))
    scaled = dict(zip(ids, mac.vulnerability(500.0 * gains, 1, 1e-15)))
    fraction = DEFAULTS.elbt_fraction
    assert mac.partition_by_vulnerability(betas, fraction) == mac.partition_by_vulnerability(scaled, fraction)


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


def default_phase(r):
    return mac.phase_pattern(r, DEFAULTS.elbt_fraction, DEFAULTS.pattern_period)


def test_phase_pattern_split():
    phases = [default_phase(r) for r in range(10)]
    assert phases.count(mac.MODE_ELBT) == 4
    assert phases.count(mac.MODE_LBT) == 6
    assert default_phase(2) == mac.MODE_LBT
    assert all(default_phase(r) == default_phase(r + 5) for r in range(20))


def test_phase_pattern_all_elbt():
    assert all(mac.phase_pattern(r, 1.0, DEFAULTS.pattern_period) == mac.MODE_ELBT for r in range(10))


# ---- scheduling --------------------------------------------------------------------


def scheduler(served, k_max, partition=None):
    """A one-AP scheduler state; `partition` is AP 0's {phase: users} split."""
    return mac.SchedulerState(served={0: tuple(served)}, k_max={0: k_max}, partition={0: partition} if partition else {})


def traffic_dl(ids):
    return mac.TrafficState(dl={0: sorted(ids)}, ul={0: []})


def schedule(state, ids, phase=None):
    """AP 0's pick from DL traffic at `ids`, through its candidates as the engine does."""
    return mac.schedule(0, mac.dl_candidates(0, traffic_dl(ids), state, phase), state)


def test_schedule_caps_by_availability():
    state = scheduler(range(3, 13), 4)
    picked = schedule(state, [5, 9])
    assert sorted(picked) == [5, 9]


def test_schedule_elbt_set_filter():
    ids = list(range(3, 13))
    betas = {i: float(i) for i in ids}
    elbt, lbt = mac.partition_by_vulnerability(betas, 0.4)
    state = scheduler(ids, 4, {mac.MODE_ELBT: elbt, mac.MODE_LBT: lbt})
    picked = schedule(state, ids, mac.MODE_ELBT)
    assert set(picked) == set(elbt)  # the four highest-beta users
    picked = schedule(state, ids, mac.MODE_LBT)
    assert set(picked) <= set(lbt)


def test_schedule_round_robin_cycles():
    ids = list(range(3, 11))  # 8 active users, K = 4
    state = scheduler(ids, 4)
    seen = []
    for _ in range(4):
        seen.append(tuple(schedule(state, ids)))
    assert sorted(seen[0] + seen[1]) == ids  # each exactly once in 2 rounds
    assert sorted(seen[2] + seen[3]) == ids
    assert seen[0] == seen[2]


def test_select_ul_rotates():
    state = scheduler([3, 4, 5], 1)
    t = mac.TrafficState(dl={0: []}, ul={0: [3, 4, 5]})
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
        self.link = SimpleNamespace(
            gamma_lbt=float(dbm_to_mw(gamma_lbt_dbm)), gamma_preamble=float(dbm_to_mw(-82.0)), preamble_min_sinr=10 ** (-0.08)
        )
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
    attempts = mac.contend([(0, mac.MODE_LBT)], medium, np.random.default_rng(0), DEFAULTS.cw_slots)
    assert attempts[0].granted and attempts[0].defer_cause == mac.DEFER_NONE


def test_mutually_audible_pair_serializes():
    loud = float(dbm_to_mw(-50.0))
    rx = {0: {1: loud}, 1: {0: loud}}
    for seed in range(20):
        medium = FakeMedium(rx)
        attempts = mac.contend([(0, mac.MODE_LBT), (1, mac.MODE_LBT)], medium, np.random.default_rng(seed), DEFAULTS.cw_slots)
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
        attempts = mac.contend([(0, mac.MODE_LBT), (1, mac.MODE_LBT)], medium, np.random.default_rng(seed), DEFAULTS.cw_slots)
        blocked = [a for a in attempts if not a.granted]
        assert len(blocked) == 1
        assert blocked[0].defer_cause == mac.DEFER_PREAMBLE


def test_elbt_nulling_gains_access_where_lbt_defers():
    loud = float(dbm_to_mw(-50.0))
    rx = {0: {1: loud}, 1: {0: loud}}
    rng_state = 4  # seed where node 1 draws the earlier backoff
    for seed in range(40):
        probe = FakeMedium(rx)
        attempts = mac.contend([(0, mac.MODE_LBT), (1, mac.MODE_LBT)], probe, np.random.default_rng(seed), DEFAULTS.cw_slots)
        if attempts[0].node_id == 1:
            rng_state = seed
            break
    # same draw, but node 0 filters out node 1's subspace
    medium = FakeMedium(rx, residual_factors={1: 1e-10})
    attempts = mac.contend([(0, mac.MODE_ELBT), (1, mac.MODE_LBT)], medium, np.random.default_rng(rng_state), DEFAULTS.cw_slots)
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
        attempts = mac.contend([(i, mac.MODE_LBT) for i in range(n)], medium, rng, DEFAULTS.cw_slots)
        order = {a.node_id: k for k, a in enumerate(attempts)}
        granted = [a.node_id for a in attempts if a.granted]
        for g in granted:
            earlier = [t for t in granted if order[t] < order[g]]
            assert sum(rx[g][t] for t in earlier) + medium.noise < gamma


class DeafMedium(FakeMedium):
    """Hears nothing and grants nothing, so every contender makes an attempt."""

    def activate(self, node_id, cca_slot=0):
        return False


def _backoffs(cw, rounds, seed, contenders=16):
    rng = np.random.default_rng(seed)
    medium = DeafMedium({})
    return [
        a.backoff_slot
        for _ in range(rounds)
        for a in mac.contend([(i, mac.MODE_LBT) for i in range(contenders)], medium, rng, cw)
    ]


@pytest.mark.parametrize("cw", [1, 10, 16, 1024])
def test_backoffs_lie_in_the_window(cw):
    slots = _backoffs(cw, 200, cw)
    assert all(isinstance(b, int) and 0 <= b < cw for b in slots)


def test_backoffs_are_uniform():
    """A 16-bin chi-square of 16,000 backoffs at cw = 16, against the 99.9%
    quantile of chi-square with 15 degrees of freedom (37.70)."""
    counts = np.bincount(_backoffs(16, 1000, 2024), minlength=16)
    expected = counts.sum() / 16
    assert np.sum((counts - expected) ** 2 / expected) < 37.70
