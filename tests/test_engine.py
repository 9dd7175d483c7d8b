import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo_coex import engine, mac
from mmimo_coex.blas import openblas_thread_api
from mmimo_coex.channel import received_covariance
from mmimo_coex.config import ScenarioConfig
from mmimo_coex.errors import ConfigError
from mmimo_coex.engine import (
    CENTRAL_AP,
    RoundMedium,
    init_drop,
    run_drop,
    run_round,
    run_simulation,
)


def small_cfg(**kw):
    base = dict(scenario="A", n_drops=2, n_rounds=10, seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


def test_no_traffic_round_is_empty():
    drop = init_drop(small_cfg(p_tr=0.0), np.random.SeedSequence(1))
    out = run_round(drop, 0)
    assert out.attempts == []
    assert out.active_ids == ()
    assert out.user_rate_bps == {}
    assert drop.ap_attempts.sum() == 0


def test_far_apart_aps_all_granted():
    # blow the floor up until every AP pair is below both CCA thresholds
    cfg = small_cfg(floor_width_m=30_000.0, floor_depth_m=5_000.0, p_tr=1.0, ul_fraction=0.0, n_rounds=20)
    drop = init_drop(cfg, np.random.SeedSequence(2))
    for r in range(cfg.n_rounds):
        out = run_round(drop, r)
        granted_aps = [a.node_id for a in out.attempts if a.granted and a.node_id < 3]
        attempted = [a.node_id for a in out.attempts if a.node_id < 3]
        assert granted_aps == attempted  # nobody audible to anybody
    assert np.all(drop.ap_grants == drop.ap_attempts)


def test_attempt_accounting_matches_outcome():
    drop = init_drop(small_cfg(p_tr=0.15, n_rounds=0), np.random.SeedSequence(3))
    for r in range(30):
        before_att = drop.ap_attempts.copy()
        before_gr = drop.ap_grants.copy()
        out = run_round(drop, r)
        contending = {a.node_id for a in out.attempts if a.node_id < 3}
        granted = {a.node_id for a in out.attempts if a.node_id < 3 and a.granted}
        assert set(np.flatnonzero(drop.ap_attempts - before_att)) == contending
        assert set(np.flatnonzero(drop.ap_grants - before_gr)) == granted
        # a granted AP either scheduled users or had its grant voided
        for ap_id in granted:
            assert ap_id in out.scheduled


def test_empty_run_is_valid():
    results = run_simulation(small_cfg(n_drops=1, n_rounds=0))
    assert len(results.drops) == 1
    assert results.sinr_samples_db().size == 0
    assert results.drops[0].sum_throughput_bps == 0.0
    assert np.isnan(results.ap_access_success(0))


def test_identical_seeds_identical_results():
    a = run_simulation(small_cfg(scenario="C", p_tr=1.0, n_drops=3, n_rounds=8))
    b = run_simulation(small_cfg(scenario="C", p_tr=1.0, n_drops=3, n_rounds=8))
    for da, db in zip(a.drops, b.drops):
        assert da.ap_attempts == db.ap_attempts
        assert da.ap_grants == db.ap_grants
        assert np.array_equal(da.sinr_db, db.sinr_db)
        assert da.user_throughput_bps == db.user_throughput_bps


def test_drop_isolation_matches_full_run():
    cfg = small_cfg(scenario="B", p_tr=1.0, n_drops=4, n_rounds=6)
    full = run_simulation(cfg)
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.n_drops)
    standalone = run_drop(cfg, seqs[2])
    assert standalone.ap_grants == full.drops[2].ap_grants
    assert np.array_equal(standalone.sinr_db, full.drops[2].sinr_db)


def test_paired_seed_elbt_superset():
    kw = dict(p_tr=1.0, n_drops=40, n_rounds=20, seed=11)
    b = run_simulation(ScenarioConfig(scenario="B", **kw))
    c = run_simulation(ScenarioConfig(scenario="C", **kw))
    grants_b = sum(d.ap_grants[CENTRAL_AP] for d in b.drops)
    grants_c = sum(d.ap_grants[CENTRAL_AP] for d in c.drops)
    assert grants_c >= grants_b


def test_symmetric_contention_matches_enumeration():
    # tiny floor: AP pairs at 5 and 10 m are always-LOS and far above the
    # energy threshold, so the three APs form one collision domain and no
    # STA contends for UL
    cfg = ScenarioConfig(
        scenario="A",
        p_tr=1.0,
        ul_fraction=0.0,
        floor_width_m=15.0,
        floor_depth_m=10.0,
        n_drops=200,
        n_rounds=25,
        seed=9,
    )
    results = run_simulation(cfg)
    attempts = np.array([sum(d.ap_attempts[a] for d in results.drops) for a in range(3)])
    grants = np.array([sum(d.ap_grants[a] for d in results.drops) for a in range(3)])
    n_rounds_total = cfg.n_drops * cfg.n_rounds
    # one winner per round (rare deep-fade double grants tolerated)
    assert n_rounds_total <= grants.sum() <= round(1.01 * n_rounds_total)
    assert np.all(attempts == n_rounds_total)

    # enumeration oracle: central AP (id 1) wins iff strictly before AP0 and
    # not after AP2 in the (backoff, id) order
    cw = cfg.cw_slots
    p_central = sum(
        (cw - 1 - v) * (cw - v) for v in range(cw)
    ) / cw**3
    rate = grants[1] / attempts[1]
    se = np.sqrt(p_central * (1 - p_central) / n_rounds_total)
    assert abs(rate - p_central) < 4 * se


def test_elbt_without_nulls_equals_lbt_sensing():
    cfg = ScenarioConfig(scenario="C", n_nulls=0, p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    drop = init_drop(cfg, np.random.SeedSequence(21))
    drop.table.resample(drop.rng)
    traffic = mac.draw_traffic(drop.stas, 1.0, drop.rng)
    medium = RoundMedium(drop, traffic, mac.MODE_ELBT)
    for sta in (5, 9, 20):
        medium.activate(sta, cca_slot=0)
    total_res, sources_res = medium.residual_rx(CENTRAL_AP, 3)
    total_full, sources_full = medium.sensed_rx(CENTRAL_AP, 3)
    assert total_res == pytest.approx(total_full, rel=1e-9)
    for (p_r, s_r), (p_f, s_f) in zip(sources_res, sources_full):
        assert p_r == pytest.approx(p_f, rel=1e-9)
        assert s_r == pytest.approx(s_f, rel=1e-9)


def test_null_cap_by_energy_counts_eigenvalues_above_noise():
    cfg = ScenarioConfig(scenario="C", null_cap_by_energy=True, p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    drop = init_drop(cfg, np.random.SeedSequence(21))
    drop.table.resample(drop.rng)
    traffic = mac.draw_traffic(drop.stas, 1.0, drop.rng)
    medium = RoundMedium(drop, traffic, mac.MODE_ELBT)
    sub = medium._covariance_subspace(CENTRAL_AP)

    # reference: a separate eigvalsh of the same covariance
    ids, powers = medium._covariance_scope(CENTRAL_AP)
    links = {(CENTRAL_AP, t): (drop.table.slow_gain[CENTRAL_AP, t], drop.table.link_h(CENTRAL_AP, t)) for t in ids}
    z = received_covariance(
        drop.nodes[CENTRAL_AP], [drop.nodes[t] for t in ids], links, powers, noise_power=drop.noise_ap_mw
    )
    above_noise = int(np.sum(np.linalg.eigvalsh(z) > 3.0 * drop.noise_ap_mw))
    assert above_noise < cfg.n_nulls  # the cap binds
    assert sub.n_dominant == above_noise
    assert sub.dominant.shape == (cfg.mmimo_antennas, above_noise)


def test_drops_run_on_one_blas_thread(monkeypatch):
    api = openblas_thread_api()
    if api is None:
        pytest.skip("numpy's OpenBLAS not found")
    get, set_ = api
    caller_count = get()
    set_(2)
    before = get()
    seen = []
    real_run_drop = engine.run_drop

    def spy(config, seed):
        seen.append(get())
        return real_run_drop(config, seed)

    def failing(config, seed):
        seen.append(get())
        raise RuntimeError("drop failed")

    try:
        monkeypatch.setattr(engine, "run_drop", spy)
        run_simulation(small_cfg(n_drops=2, n_rounds=2))
        assert seen == [1, 1]
        assert get() == before
        monkeypatch.setattr(engine, "run_drop", failing)
        with pytest.raises(RuntimeError, match="drop failed"):
            run_simulation(small_cfg(n_drops=2, n_rounds=2))
        assert seen == [1, 1, 1]
        assert get() == before
    finally:
        set_(caller_count)


def test_busy_rule_can_be_disabled():
    kw = dict(scenario="B", p_tr=1.0, n_drops=30, n_rounds=20, seed=17)
    with_rule = run_simulation(ScenarioConfig(**kw))
    without = run_simulation(ScenarioConfig(ap_busy_rx_withdraws=False, **kw))
    att_with = sum(d.ap_attempts[CENTRAL_AP] for d in with_rule.drops)
    att_without = sum(d.ap_attempts[CENTRAL_AP] for d in without.drops)
    assert att_without >= att_with
    acc_with = with_rule.ap_access_success(CENTRAL_AP)
    acc_without = without.ap_access_success(CENTRAL_AP)
    assert acc_with >= acc_without


def test_redraw_uncovered_flag():
    cfg = small_cfg(redraw_uncovered=True, n_drops=1, n_rounds=1)
    results = run_simulation(cfg)  # default floor is easily covered
    assert len(results.drops) == 1


def test_unreachable_coverage_floor_is_a_config_error(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_REDRAWS", 3)
    cfg = small_cfg(redraw_uncovered=True, min_rss_dbm=3.0, n_drops=1, n_rounds=1)
    with pytest.raises(ConfigError, match="min_rss_dbm: no deployment in 4 draws"):
        run_simulation(cfg)


@pytest.mark.parametrize(
    "overrides",
    [{"ap_max_power_dbm": 400.0}, {"sta_max_power_dbm": 400.0}, {"noise_psd_dbm_hz": -1000.0}],
    ids=["ap-power", "sta-power", "noise-psd"],
)
def test_cca_statistics_stay_finite_when_noise_is_lost_to_rounding(overrides):
    # One source so far above the noise that total - p rounds to zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_simulation(ScenarioConfig(scenario="C", p_tr=1.0, n_drops=1, n_rounds=5, seed=2, **overrides))
    (drop,) = results.drops
    assert drop.sinr_db.size > 0 and np.all(np.isfinite(drop.sinr_db))
    assert np.isfinite(drop.sum_throughput_bps)


def test_scenario_c_partition_members_follow_phase():
    cfg = ScenarioConfig(scenario="C", p_tr=1.0, n_drops=1, n_rounds=10, seed=23)
    drop = init_drop(cfg, np.random.SeedSequence(4))
    for r in range(10):
        phase = mac.phase_pattern(r)
        out = run_round(drop, r)
        users = out.scheduled.get(CENTRAL_AP, ())
        allowed = drop.sched.elbt_set if phase == mac.MODE_ELBT else drop.sched.lbt_set
        assert set(users) <= set(allowed)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    scenario=st.sampled_from(["A", "B", "C"]),
    p_tr=st.floats(0.0, 1.0),
    ul_fraction=st.floats(0.0, 1.0),
    n_stas=st.integers(1, 40),
    array=st.tuples(st.integers(2, 36), st.integers(1, 8), st.integers(0, 34)),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    covariance_scope=st.sampled_from(["active", "persistent"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_outcomes_keep_engine_invariants(
    scenario, p_tr, ul_fraction, n_stas, array, flags, covariance_scope, seed
):
    mmimo_antennas, streams, nulls = array
    max_streams = min(streams, mmimo_antennas)
    n_nulls = min(nulls, mmimo_antennas - max_streams)
    partition, own_cell, cap_by_energy, busy_withdraws = flags
    cfg = ScenarioConfig(
        scenario=scenario,
        p_tr=p_tr,
        ul_fraction=ul_fraction,
        n_stas=n_stas,
        mmimo_antennas=mmimo_antennas,
        max_streams=max_streams,
        n_nulls=n_nulls,
        partition_enabled=partition,
        covariance_includes_own_cell=own_cell,
        null_cap_by_energy=cap_by_energy,
        ap_busy_rx_withdraws=busy_withdraws,
        covariance_scope=covariance_scope,
        n_drops=2,
        n_rounds=3,
        seed=seed,
    ).validate()
    media = []

    class RecordingMedium(RoundMedium):
        def __init__(self, *args):
            super().__init__(*args)
            media.append(self)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(engine, "RoundMedium", RecordingMedium)
        for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_drops):
            drop = init_drop(cfg, seq)
            for r in range(cfg.n_rounds):
                out = run_round(drop, r)
                medium = media[-1]
                nodes = [a.node_id for a in out.attempts]
                assert len(nodes) == len(set(nodes))  # one attempt per node and round
                assert out.active_ids == tuple(a.node_id for a in out.attempts if a.granted)
                for ap_id, users in out.scheduled.items():
                    assert set(users) <= set(drop.sched.served[ap_id])
                    streams = medium.precoders[ap_id].W.shape[1]
                    assert streams == len(users)
                    assert streams + medium.null_counts[ap_id] <= drop.nodes[ap_id].num_antennas
                assert set(out.user_sinr_db) == {u for users in out.scheduled.values() for u in users}
                assert all(np.isfinite(v) for v in out.user_sinr_db.values())
            assert np.all(drop.ap_grants <= drop.ap_attempts)
