import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo_coex import beamforming, engine, mac, phy
from mmimo_coex.blas import openblas_thread_api
from mmimo_coex.channel import los_probability, path_loss_db, received_covariance, shadowing_db
from mmimo_coex.config import ScenarioConfig
from mmimo_coex.engine import (
    CENTRAL_AP,
    RoundMedium,
    init_drop,
    run_drop,
    run_round,
    run_simulation,
)
from mmimo_coex.geometry import ROLE_AP, ROLE_STA, NodeDescriptor, ap_corridor_x
from mmimo_coex.units import db_to_linear, dbm_to_mw


def small_cfg(**kw):
    base = dict(scenario="A", n_drops=2, n_rounds=10, seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


def round_traffic(drop):
    """A round's traffic as `run_round` draws it, from the drop's configuration."""
    cfg = drop.config
    return mac.draw_traffic(drop.sched, cfg.p_tr, drop.rng, cfg.ul_fraction)


def round_phase(cfg, r):
    """The nulling AP's phase in round r as `run_round` takes it; None outside scenario C."""
    return mac.phase_pattern(r, cfg.elbt_fraction, cfg.pattern_period) if cfg.scenario == "C" else None


def test_no_traffic_round_is_empty():
    cfg = small_cfg(p_tr=0.0)
    drop = init_drop(cfg, np.random.SeedSequence(1))
    out = run_round(drop, 0)
    assert out.attempts == []
    assert out.active_ids == ()
    assert out.user_rate_bps == {}
    assert run_drop(cfg, np.random.SeedSequence(1)).ap_attempts == (0, 0, 0)


def test_far_apart_aps_all_granted(monkeypatch):
    # blow the floor up until every AP pair is below both CCA thresholds
    cfg = small_cfg(floor_width_m=30_000.0, floor_depth_m=5_000.0, p_tr=1.0, ul_fraction=0.0, n_rounds=20)
    real_run_round = engine.run_round
    rounds = []

    def checked(drop, r):
        out = real_run_round(drop, r)
        rounds.append(r)
        granted_aps = [a.node_id for a in out.attempts if a.granted and a.node_id < 3]
        attempted = [a.node_id for a in out.attempts if a.node_id < 3]
        assert granted_aps == attempted  # nobody audible to anybody
        return out

    monkeypatch.setattr(engine, "run_round", checked)
    result = run_drop(cfg, np.random.SeedSequence(2))
    assert rounds == list(range(cfg.n_rounds))
    assert result.ap_grants == result.ap_attempts


def test_attempt_accounting_matches_outcome():
    cfg = small_cfg(p_tr=0.15)
    seq = np.random.SeedSequence(3)
    drop = init_drop(cfg, seq)
    before = run_drop(cfg.replace(n_rounds=0), seq)
    for r in range(30):
        out = run_round(drop, r)
        after = run_drop(cfg.replace(n_rounds=r + 1), seq)  # the fold of rounds 0..r
        contending = {a.node_id for a in out.attempts if a.node_id < 3}
        granted = {a.node_id for a in out.attempts if a.node_id < 3 and a.granted}
        assert set(np.flatnonzero(np.subtract(after.ap_attempts, before.ap_attempts))) == contending
        assert set(np.flatnonzero(np.subtract(after.ap_grants, before.ap_grants))) == granted
        assert len(after.sinr_db) - len(before.sinr_db) == len(out.user_sinr_db)
        # a granted AP either scheduled users or had its grant voided
        for ap_id in granted:
            assert ap_id in out.scheduled
        before = after


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
    traffic = round_traffic(drop)
    medium = RoundMedium(drop, traffic, mac.MODE_ELBT)
    for sta in (5, 9, 20):
        medium.activate(sta, cca_slot=0)
    total_res, sources_res = medium.residual_rx(CENTRAL_AP, 3)
    total_full, sources_full = medium.sensed_rx(CENTRAL_AP, 3)
    assert total_res == pytest.approx(total_full, rel=1e-9)
    for (p_r, s_r), (p_f, s_f) in zip(sources_res, sources_full):
        assert p_r == pytest.approx(p_f, rel=1e-9)
        assert s_r == pytest.approx(s_f, rel=1e-9)


def _elbt_ccas(monkeypatch, seeds, **overrides):
    """Every eLBT CCA over 20 rounds of scenario C drops at `seeds`: the
    statistic, its projection form (the sources' residuals after the nulls,
    plus the noise share), the total unfiltered power (sources plus noise),
    the noise share, whether the nulls span all r nodes outside the cell, and
    the own-cell nodes that are active."""
    real = RoundMedium.residual_rx
    ccas = []

    def spy(medium, x, cca_slot):
        statistic = real(medium, x, cca_slot)
        drop, table = medium.drop, medium.drop.table
        sub = medium._covariance_subspace(x)
        m = drop.nodes[x].num_antennas
        noise = medium._noise(x) * (m - sub.n_dominant) / m
        rows = table.array_rows(medium.active)
        scales = [medium.powers[t] * table.slow_gain[x, t] / m for t in medium.active]
        residuals = [c * beamforming.residual_power(sub, v) for c, v in zip(scales, rows)]
        own_cell = set(drop.sched.served[x])
        ccas.append(
            dict(
                statistic=statistic,
                projected=medium._cca_statistics(residuals, noise, cca_slot),
                unfiltered=medium._noise(x) + sum(c * np.vdot(v, v).real for c, v in zip(scales, rows)),
                noise=noise,
                spanned=sub.n_dominant == len(drop.nodes) - 1 - len(own_cell),
                own_active=own_cell & set(medium.active),
                sources=len(medium.active),
            )
        )
        return statistic

    monkeypatch.setattr(RoundMedium, "residual_rx", spy)
    for seed in seeds:
        drop = init_drop(ScenarioConfig(scenario="C", p_tr=1.0, **overrides), np.random.SeedSequence(seed))
        for r in range(20):
            run_round(drop, r)
    return ccas


def test_elbt_statistic_is_the_noise_share_when_the_nulls_span_every_coexisting_node(monkeypatch):
    # The closed form rests on its premise: no own-cell node is active at an
    # eLBT CCA, so every active transmitter is one of the nulled nodes. Its
    # projection form is the reference, to 1e-12 of the unfiltered power: a
    # per-source bound would not hold, since the QR's rounding scales with
    # its largest column.
    ccas = _elbt_ccas(monkeypatch, range(12))
    assert all(not c["own_active"] for c in ccas)
    spanned = [c for c in ccas if c["spanned"]]
    assert sum(c["sources"] > 0 for c in spanned) >= 40 and len(spanned) < len(ccas)
    for c in spanned:
        assert c["statistic"] == (c["noise"], [])
        total, per_source = c["projected"]
        assert abs(total - c["noise"]) <= 1e-12 * c["unfiltered"]
        assert all(p <= 1e-12 * c["unfiltered"] for p, _ in per_source)


def test_elbt_statistic_projects_when_coexisting_nodes_outnumber_the_nulls(monkeypatch):
    ccas = _elbt_ccas(monkeypatch, range(3), n_nulls=8)
    assert ccas and not any(c["spanned"] for c in ccas)
    for c in ccas:
        (total, per_source), (ref_total, ref_per_source) = c["statistic"], c["projected"]
        assert total == pytest.approx(ref_total, rel=1e-12)
        assert len(per_source) == len(ref_per_source)
        for (p, s), (ref_p, ref_s) in zip(per_source, ref_per_source):
            assert p == pytest.approx(ref_p, rel=1e-12) and s == pytest.approx(ref_s, rel=1e-12)
    # the unnulled nodes leave power above the noise share, which a closed form would drop
    assert any(c["statistic"][0] > 2.0 * c["noise"] for c in ccas)


def _elbt_subspace(seed, **overrides):
    """A scenario C drop's eLBT subspace for the central AP, the ids of the
    nodes outside its cell in the engine's order, their array rows and the
    reference covariance of those nodes, each at its maximum power."""
    cfg = ScenarioConfig(scenario="C", p_tr=1.0, n_drops=1, n_rounds=1, seed=13, **overrides)
    drop = init_drop(cfg, np.random.SeedSequence(seed))
    drop.table.resample(drop.rng)
    medium = RoundMedium(drop, round_traffic(drop), mac.MODE_ELBT)
    sub = medium._covariance_subspace(CENTRAL_AP)
    own_cell = set(drop.sched.served[CENTRAL_AP])
    ids = [nd.id for nd in drop.nodes if nd.id != CENTRAL_AP and nd.id not in own_cell]
    assert 0 < len(ids) < len(drop.nodes) - 1
    powers = {t: float(dbm_to_mw(drop.nodes[t].max_power_dbm)) for t in ids}
    links = {(CENTRAL_AP, t): (drop.table.slow_gain[CENTRAL_AP, t], drop.table.link_h(CENTRAL_AP, t)) for t in ids}
    z = received_covariance(
        drop.nodes[CENTRAL_AP], [drop.nodes[t] for t in ids], links, powers, noise_power=drop.link.noise_ap_mw
    )
    return cfg, sub, ids, drop.table.array_rows(ids), z


def _worst_relative_residual(sub, rows):
    """max over the rows v_t of ||v_t after projecting out the nulls||^2 / ||v_t||^2."""
    return max(beamforming.residual_power(sub, v) / np.vdot(v, v).real for v in rows)


def _top_projector(z, n):
    top = np.linalg.eigh(z)[1][:, -n:]
    return top @ top.conj().T


def test_nulls_are_the_span_of_every_out_of_cell_node():
    # r <= n_nulls nodes outside the cell: each adds one direction v_t to the
    # noise floor, so the nulls are span{v_t}, the top r eigenvectors of the
    # covariance of those nodes at their maximum power
    checked = 0
    for seed in range(40):
        cfg, sub, ids, rows, z = _elbt_subspace(seed)
        if len(ids) > cfg.n_nulls:
            continue
        checked += 1
        assert sub.dominant.shape == (cfg.mmimo_antennas, len(ids))
        np.testing.assert_allclose(sub.basis.conj().T @ sub.basis, np.eye(cfg.mmimo_antennas), atol=1e-12)
        assert _worst_relative_residual(sub, rows) <= 1e-12
        u = sub.dominant
        np.testing.assert_allclose(u @ u.conj().T, _top_projector(z, len(ids)), rtol=0, atol=1e-10)
        # the span of conj(v_t) is another subspace: the residual check fails on it
        assert _worst_relative_residual(beamforming.dominant_subspace(rows.conj().T, len(ids)), rows) > 0.1
    assert checked >= 25


def test_surplus_nodes_take_the_strongest_covariance_directions():
    # r > n_nulls: the nulls are the n_nulls strongest eigenvectors of the covariance
    for seed in range(5):
        cfg, sub, ids, _, z = _elbt_subspace(seed, n_nulls=8)
        assert len(ids) > cfg.n_nulls
        assert sub.dominant.shape == (cfg.mmimo_antennas, cfg.n_nulls)
        u = sub.dominant
        scale = np.linalg.norm(z)
        np.testing.assert_allclose(u @ u.conj().T, _top_projector(z, cfg.n_nulls), rtol=0, atol=1e-10)
        # the whole basis diagonalizes the covariance, strongest direction first
        d = sub.basis.conj().T @ z @ sub.basis
        np.testing.assert_allclose(d, np.diag(np.linalg.eigvalsh(z)[::-1]), rtol=0, atol=1e-12 * scale)


def test_scenario_c_takes_one_subspace_per_elbt_round(monkeypatch):
    # the engine forms no covariance: each eLBT round hands the weighted rows
    # of the r nodes outside the cell to dominant_subspace once, for
    # min(r, n_nulls) nulls, and both of its branches occur
    assert not hasattr(engine, "received_covariance")
    cfg = ScenarioConfig(scenario="C", p_tr=1.0, n_drops=20, n_rounds=20, seed=1)
    calls, per_round = [], []
    real_subspace, real_run_round = beamforming.dominant_subspace, engine.run_round

    def subspace_spy(a, n_dominant):
        calls.append((a.shape[1], n_dominant))
        return real_subspace(a, n_dominant)

    def round_spy(drop, r):
        before = len(calls)
        out = real_run_round(drop, r)
        elbt = sum(att.mode == mac.MODE_ELBT for att in out.attempts)
        per_round.append((elbt, len(calls) - before))
        return out

    monkeypatch.setattr(beamforming, "dominant_subspace", subspace_spy)
    monkeypatch.setattr(engine, "run_round", round_spy)
    run_simulation(cfg)
    assert len(per_round) == cfg.n_drops * cfg.n_rounds
    assert all(calls_made == elbt_attempts <= 1 for elbt_attempts, calls_made in per_round)
    assert all(n == min(r, cfg.n_nulls) for r, n in calls)
    assert {n == r for r, n in calls} == {True, False}


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


def test_outputs_do_not_depend_on_the_callers_blas_thread_count():
    """At 144 antennas the round's arrays are large enough for OpenBLAS to
    split work across threads, which moves the last bits of the results; the
    one-thread guard keeps them whatever count the caller set."""
    api = openblas_thread_api()
    if api is None or (os.cpu_count() or 1) < 2:
        pytest.skip("needs numpy's OpenBLAS and two cores")
    get, set_ = api
    caller_count = get()
    cfg = ScenarioConfig(scenario="C", mmimo_antennas=144, p_tr=1.0, n_drops=1, n_rounds=10, seed=3)
    runs = []
    try:
        for count in (1, 2):
            set_(count)
            runs.append(run_simulation(cfg).drops)
    finally:
        set_(caller_count)
    (one,), (two,) = runs
    assert one.sinr_db.size > 0 and np.array_equal(one.sinr_db, two.sinr_db)
    assert (one.ap_attempts, one.ap_grants, one.user_throughput_bps, one.sum_throughput_bps) == (
        two.ap_attempts, two.ap_grants, two.user_throughput_bps, two.sum_throughput_bps,
    )


def test_ap_receiving_from_its_own_sta_does_not_attempt(monkeypatch):
    # Half duplex: once a STA of an AP's cell is granted (uplink to that AP),
    # the AP does not attempt access later in the same round.
    cfg = ScenarioConfig(scenario="B", p_tr=1.0, n_drops=4, n_rounds=20, seed=17)
    contenders = []
    real_contend = mac.contend

    def spy(round_contenders, *args):
        contenders.append([node_id for node_id, _ in round_contenders])
        return real_contend(round_contenders, *args)

    monkeypatch.setattr(mac, "contend", spy)
    withdrawn = 0
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_drops):
        drop = init_drop(cfg, seq)
        for r in range(cfg.n_rounds):
            out = run_round(drop, r)
            receiving = set()  # APs with an own-cell STA granted so far, in CCA order
            for att in out.attempts:
                assert att.node_id not in receiving
                if att.granted and drop.nodes[att.node_id].role == ROLE_STA:
                    receiving |= {ap.id for ap in drop.aps if att.node_id in drop.sched.served[ap.id]}
            attempted = {att.node_id for att in out.attempts}
            withdrawn += sum(1 for node_id in contenders[-1] if node_id not in attempted)
    assert withdrawn > 0  # the rule was exercised


@pytest.mark.parametrize("n_nulls", [0, 24])
def test_duplicate_user_channel_drops_one_of_the_pair(monkeypatch, n_nulls):
    cfg = ScenarioConfig(scenario="C", n_nulls=n_nulls, p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    drop = init_drop(cfg, np.random.SeedSequence(21))
    drop.table.resample(drop.rng)
    medium = RoundMedium(drop, round_traffic(drop), mac.MODE_ELBT)
    u_null = medium._covariance_subspace(CENTRAL_AP).dominant
    a, b, c = drop.sched.served[CENTRAL_AP][:3]
    real_rows = drop.table.array_rows

    def duplicated(ids):
        rows = real_rows(ids).copy()
        rows[np.asarray(ids) == b] = real_rows([a])[0]
        return rows

    monkeypatch.setattr(drop.table, "array_rows", duplicated)
    precoder = medium._build_precoder(drop.nodes[CENTRAL_AP], [a, b, c], u_null)
    assert precoder.W.shape == (cfg.mmimo_antennas, 2)
    assert c in precoder.user_map and len({a, b} & set(precoder.user_map)) == 1


def test_lone_user_with_zero_channel_voids_the_grant(monkeypatch):
    cfg = ScenarioConfig(scenario="B", p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    drop = init_drop(cfg, np.random.SeedSequence(21))
    drop.table.resample(drop.rng)
    user = drop.sched.served[CENTRAL_AP][0]
    traffic = mac.TrafficState(dl={0: [], CENTRAL_AP: [user], 2: []}, ul={0: [], CENTRAL_AP: [], 2: []})
    medium = RoundMedium(drop, traffic, None)
    monkeypatch.setattr(drop.table, "array_rows", lambda ids: np.zeros((len(ids), cfg.mmimo_antennas), dtype=complex))
    (attempt,) = mac.contend([(CENTRAL_AP, mac.MODE_LBT)], medium, drop.rng, cfg.cw_slots)
    assert not attempt.granted and attempt.defer_cause == mac.DEFER_NONE
    assert medium.active == [] and medium.scheduled == {}
    assert medium.activate(CENTRAL_AP) is False


def test_lone_user_takes_the_matched_filter_that_zero_forcing_gives(monkeypatch):
    cfg = ScenarioConfig(scenario="B", p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    real_zf, no_nulls = beamforming.zf_with_nulls, np.empty((cfg.mmimo_antennas, 0), dtype=complex)
    for seed in range(4):
        drop = init_drop(cfg, np.random.SeedSequence(seed))
        drop.table.resample(drop.rng)
        medium = RoundMedium(drop, round_traffic(drop), None)
        ap = drop.nodes[CENTRAL_AP]
        for user in drop.sched.served[CENTRAL_AP][:3]:
            h = drop.table.array_rows([user]).T
            assert h.shape == (36, 1)
            reference = real_zf(h, no_nulls, user_map=(user,))
            with monkeypatch.context() as m:
                m.setattr(beamforming, "zf_with_nulls", None)  # the lone user must not reach it
                precoder = medium._build_precoder(ap, [user], no_nulls)
            assert precoder.user_map == (user,) and precoder.W.shape == (36, 1)
            assert np.max(np.abs(precoder.W - reference.W)) <= 1e-12


def test_lone_elbt_user_with_nulls_still_zero_forces():
    cfg = ScenarioConfig(scenario="C", p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    drop = init_drop(cfg, np.random.SeedSequence(21))
    drop.table.resample(drop.rng)
    medium = RoundMedium(drop, round_traffic(drop), mac.MODE_ELBT)
    u_null = medium._covariance_subspace(CENTRAL_AP).dominant
    assert u_null.shape[1] > 0
    user = sorted(drop.sched.partition[CENTRAL_AP][mac.MODE_ELBT])[0]
    precoder = medium._build_precoder(drop.nodes[CENTRAL_AP], [user], u_null)
    h = np.ascontiguousarray(drop.table.array_rows([user]).T)
    assert np.linalg.norm(u_null.conj().T @ precoder.W) <= 1e-12
    assert np.array_equal(precoder.W, beamforming.zf_with_nulls(h, u_null, user_map=(user,)).W)
    # the nulls cost the user some of its matched-filter gain
    assert abs(np.vdot(h, precoder.W)) < np.linalg.norm(h) * (1.0 - 1e-6)


def test_only_the_ap_of_an_uplink_sta_is_busy_receiving():
    cfg = ScenarioConfig(scenario="B", p_tr=1.0, n_drops=1, n_rounds=1, seed=13)
    drop = init_drop(cfg, np.random.SeedSequence(21))
    drop.table.resample(drop.rng)
    for ap in range(3):
        medium = RoundMedium(drop, round_traffic(drop), None)
        assert not any(medium.busy_receiving(nd.id) for nd in drop.nodes)
        assert medium.activate(drop.sched.served[ap][0])
        assert [nd.id for nd in drop.nodes if medium.busy_receiving(nd.id)] == [ap]


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
        phase = round_phase(cfg, r)
        out = run_round(drop, r)
        users = out.scheduled.get(CENTRAL_AP, ())
        assert set(users) <= drop.sched.partition[CENTRAL_AP][phase]


def test_each_ap_decides_its_dl_candidates_once_per_round(monkeypatch):
    """One `dl_candidates` call per AP and round, and a granted AP's
    `schedule` picks from that very list."""
    calls, scheduled = [], []
    real_candidates, real_schedule = mac.dl_candidates, mac.schedule

    def candidates_spy(ap_id, traffic, state, phase):
        cands = real_candidates(ap_id, traffic, state, phase)
        calls.append((ap_id, phase, cands))
        return cands

    def schedule_spy(ap_id, candidates, state):
        scheduled.append((ap_id, candidates))
        return real_schedule(ap_id, candidates, state)

    monkeypatch.setattr(mac, "dl_candidates", candidates_spy)
    monkeypatch.setattr(mac, "schedule", schedule_spy)
    drop = init_drop(ScenarioConfig(scenario="C", p_tr=1.0, n_drops=1, n_rounds=20, seed=3), np.random.SeedSequence(8))
    central_phases = set()
    for r in range(20):
        calls.clear()
        scheduled.clear()
        run_round(drop, r)
        assert [(ap_id, phase) for ap_id, phase, _ in calls] == [(a, round_phase(drop.config, r)) for a in range(3)]
        assert all(cands is calls[ap_id][2] for ap_id, cands in scheduled)
        central_phases |= {calls[CENTRAL_AP][1] for ap_id, _ in scheduled if ap_id == CENTRAL_AP}
    assert central_phases == {mac.MODE_ELBT, mac.MODE_LBT}  # the central AP scheduled in both phases


def test_run_round_takes_its_phase_from_the_configured_pattern(monkeypatch):
    """A period of 3 rounds with an eLBT fraction of 1/3 gives eLBT in rounds
    0, 3, 6, ... and LBT in the others, as every AP's `dl_candidates` call sees."""
    phases = []
    real_candidates = mac.dl_candidates

    def candidates_spy(ap_id, traffic, state, phase):
        phases.append(phase)
        return real_candidates(ap_id, traffic, state, phase)

    monkeypatch.setattr(mac, "dl_candidates", candidates_spy)
    drop = init_drop(ScenarioConfig(scenario="C", elbt_fraction=1 / 3, pattern_period=3), np.random.SeedSequence(8))
    for r in range(9):
        phases.clear()
        run_round(drop, r)
        assert phases == [mac.MODE_ELBT if r % 3 == 0 else mac.MODE_LBT] * 3, r


@pytest.mark.parametrize("scenario, partition_enabled", [("A", True), ("B", True), ("C", False)])
def test_without_a_partition_each_ap_takes_its_dl_traffic(scenario, partition_enabled):
    cfg = ScenarioConfig(scenario=scenario, p_tr=0.7, partition_enabled=partition_enabled)
    drop = init_drop(cfg, np.random.SeedSequence(9))
    assert drop.sched.partition == {}
    for r in range(10):
        drop.table.resample(drop.rng)
        traffic = round_traffic(drop)
        medium = RoundMedium(drop, traffic, round_phase(cfg, r))
        assert all(medium.candidates[a] is traffic.dl[a] for a in range(3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    scenario=st.sampled_from(["A", "B", "C"]),
    p_tr=st.floats(0.0, 1.0),
    ul_fraction=st.floats(0.0, 1.0),
    n_stas=st.integers(1, 40),
    array=st.tuples(st.integers(2, 36), st.integers(1, 8), st.integers(0, 34)),
    partition=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_outcomes_keep_engine_invariants(scenario, p_tr, ul_fraction, n_stas, array, partition, seed):
    mmimo_antennas, streams, nulls = array
    max_streams = min(streams, mmimo_antennas)
    n_nulls = min(nulls, mmimo_antennas - max_streams)
    cfg = ScenarioConfig(
        scenario=scenario,
        p_tr=p_tr,
        ul_fraction=ul_fraction,
        n_stas=n_stas,
        mmimo_antennas=mmimo_antennas,
        max_streams=max_streams,
        n_nulls=n_nulls,
        partition_enabled=partition,
        n_drops=2,
        n_rounds=3,
        seed=seed,
    ).validate()
    media = []

    class RecordingMedium(RoundMedium):
        def __init__(self, *args):
            super().__init__(*args)
            media.append(self)

    real_run_round = engine.run_round
    rounds = []

    def checked(drop, r):
        out = real_run_round(drop, r)
        rounds.append(r)
        medium = media[-1]
        nodes = [a.node_id for a in out.attempts]
        assert len(nodes) == len(set(nodes))  # one attempt per node and round
        assert out.active_ids == tuple(a.node_id for a in out.attempts if a.granted)
        for ap_id, users in out.scheduled.items():
            assert set(users) <= set(drop.sched.served[ap_id])
            streams = medium.precoders[ap_id].W.shape[1]
            assert streams == len(users)
            assert streams + medium.null_counts[ap_id] <= drop.nodes[ap_id].num_antennas
            if medium.access_mode(ap_id) == mac.MODE_ELBT:
                # one null per node outside the cell, up to n_nulls
                r = len(drop.nodes) - 1 - len(drop.sched.served[ap_id])
                assert medium.null_counts[ap_id] == min(cfg.n_nulls, r)
            else:
                assert medium.null_counts[ap_id] == 0
        assert set(out.user_sinr_db) == {u for users in out.scheduled.values() for u in users}
        assert all(np.isfinite(v) for v in out.user_sinr_db.values())
        return out

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(engine, "RoundMedium", RecordingMedium)
        patch.setattr(engine, "run_round", checked)
        for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_drops):
            result = run_drop(cfg, seq)
            assert all(g <= a for g, a in zip(result.ap_grants, result.ap_attempts))
    assert rounds == list(range(cfg.n_rounds)) * cfg.n_drops


def test_drop_result_is_the_fold_of_its_round_outcomes(monkeypatch):
    cfg = small_cfg(scenario="B", p_tr=0.5, n_rounds=12)
    real_run_round = engine.run_round
    outcomes = []

    def recorded(drop, r):
        outcomes.append(real_run_round(drop, r))
        return outcomes[-1]

    monkeypatch.setattr(engine, "run_round", recorded)
    result = run_drop(cfg, np.random.SeedSequence(8))
    assert len(outcomes) == cfg.n_rounds
    aps = [[a for a in out.attempts if a.node_id < 3] for out in outcomes]
    assert result.ap_attempts == tuple(sum(a.node_id == ap for att in aps for a in att) for ap in range(3))
    assert result.ap_grants == tuple(sum(a.node_id == ap and a.granted for att in aps for a in att) for ap in range(3))
    assert result.sinr_db.tolist() == [v for out in outcomes for v in out.user_sinr_db.values()]
    scale = cfg.dl_airtime_fraction / cfg.n_rounds
    for sta, tput in result.user_throughput_bps.items():
        assert tput == pytest.approx(scale * sum(out.user_rate_bps.get(sta, 0.0) for out in outcomes), rel=1e-12)
    assert sum(result.ap_grants) > 0 and result.sum_throughput_bps > 0


@pytest.mark.parametrize("scenario, budgets", [("A", (1, 1, 1)), ("B", (1, 4, 1)), ("C", (1, 4, 1))], ids="ABC")
def test_stream_budget_follows_antenna_count_and_every_sta_is_served_once(scenario, budgets):
    drop = init_drop(ScenarioConfig(scenario=scenario), np.random.SeedSequence(6))
    assert tuple(drop.sched.k_max[a] for a in range(3)) == budgets
    served = sorted(s for users in drop.sched.served.values() for s in users)
    assert served == [s.id for s in drop.stas]


def _reference_setup(cfg, seed):
    """A drop's set-up as a per-node loop, an n x n x 3 distance tensor and a
    per-AP flatnonzero association, drawing from the RNG in the same order."""
    rng = np.random.default_rng(seed)
    y_mid = cfg.floor_depth_m / 2.0
    nodes = [
        NodeDescriptor(a, ROLE_AP, (x, y_mid, cfg.ap_height_m), int(cfg.ap_antennas[a]), cfg.ap_max_power_dbm)
        for a, x in enumerate(ap_corridor_x(cfg.floor_width_m))
    ]
    xs = rng.uniform(0.0, cfg.floor_width_m, cfg.n_stas)
    ys = rng.uniform(0.0, cfg.floor_depth_m, cfg.n_stas)
    for s in range(cfg.n_stas):
        nodes.append(NodeDescriptor(3 + s, ROLE_STA, (float(xs[s]), float(ys[s]), cfg.sta_height_m), 1, cfg.sta_max_power_dbm))

    n = len(nodes)
    pos = np.array([nd.position for nd in nodes])
    dist = np.sqrt(np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2))
    iu = np.triu_indices(n, 1)
    d = dist[iu]
    los_pairs = rng.random(len(d)) < los_probability(d)
    shadow = shadowing_db(los_pairs, rng, cfg.shadowing_sigma_los_db, cfg.shadowing_sigma_nlos_db)
    pl = path_loss_db(
        d, los_pairs, cfg.carrier_ghz, (cfg.pl_los_intercept, cfg.pl_los_slope), (cfg.pl_nlos_intercept, cfg.pl_nlos_slope)
    )
    los = np.zeros((n, n), dtype=bool)
    los[iu] = los_pairs
    los |= los.T
    slow_db = np.zeros((n, n))
    slow_db[iu] = -(pl + shadow)
    slow_db += slow_db.T
    slow = db_to_linear(slow_db)
    np.fill_diagonal(slow, 0.0)

    serving = np.argmax(cfg.ap_max_power_dbm + slow_db[3:, :3], axis=1)
    served = {a: tuple(int(s) for s in np.flatnonzero(serving == a) + 3) for a in range(3)}
    partition = {}
    if cfg.scenario == "C" and cfg.partition_enabled:
        central = list(served[CENTRAL_AP])
        rx_mw = float(dbm_to_mw(cfg.ap_max_power_dbm)) * slow[central, :3]
        noise = phy.noise_power(cfg.bandwidth_hz, cfg.sta_noise_figure_db, cfg.noise_psd_dbm_hz)
        betas = dict(zip(central, mac.vulnerability(rx_mw, CENTRAL_AP, noise)))
        elbt, lbt = mac.partition_by_vulnerability(betas, cfg.elbt_fraction)
        partition = {CENTRAL_AP: {mac.MODE_ELBT: elbt, mac.MODE_LBT: lbt}}
    return nodes, los, slow_db, slow, served, partition


@pytest.mark.parametrize("scenario", "ABC")
@pytest.mark.parametrize("overrides", [{}, dict(n_stas=7, floor_width_m=40.0, ap_max_power_dbm=20.0)], ids=["default", "small"])
def test_drop_setup_matches_per_node_reference(scenario, overrides):
    cfg = ScenarioConfig(scenario=scenario, **overrides)
    # About one drop in 40 has a slow gain that the order of the sum of squares
    # in a distance changes, so 64 drops per case check that order too.
    for seq in np.random.SeedSequence(17).spawn(64):
        drop = init_drop(cfg, seq)
        nodes, los, slow_db, slow, served, partition = _reference_setup(cfg, seq)
        assert drop.nodes == nodes
        assert np.array_equal(drop.table.los, los)
        assert np.array_equal(drop.table.slow_gain, slow)
        assert drop.sched.served == served
        assert drop.sched.partition == partition
        # the per-drop constants are the per-use conversions they replace
        assert drop.max_power_mw == [float(dbm_to_mw(nd.max_power_dbm)) for nd in nodes]
        assert drop.link.noise_sta_mw == phy.noise_power(cfg.bandwidth_hz, cfg.sta_noise_figure_db, cfg.noise_psd_dbm_hz)
        assert drop.link.noise_ap_mw == phy.noise_power(cfg.bandwidth_hz, cfg.ap_noise_figure_db, cfg.noise_psd_dbm_hz)
        assert drop.link.rate_table == phy.RateTable(cfg.rate_table)
        medium = RoundMedium(drop, round_traffic(drop), round_phase(cfg, 0))
        assert medium.link.gamma_lbt == float(dbm_to_mw(cfg.gamma_lbt_dbm))
        assert medium.link.gamma_preamble == float(dbm_to_mw(cfg.gamma_preamble_dbm))
        assert medium.link.preamble_min_sinr == float(db_to_linear(cfg.preamble_min_sinr_db))


@pytest.mark.parametrize("scenario", "ABC")
def test_scalar_links_give_the_array_form_sinr_and_sensing(scenario, monkeypatch):
    """run_round hands compute_sinr each single-antenna link as a Python
    complex: every scheduled user's SINR equals compute_sinr fed every link
    as its matrix, and every LBT total is the array-form sum of P g ||H^H W||^2 / M
    plus the noise."""
    drop = init_drop(ScenarioConfig(scenario=scenario, p_tr=0.7), np.random.SeedSequence(9))
    table = drop.table
    real_sinr, real_sensed = phy.compute_sinr, RoundMedium.sensed_rx
    sinr_of, kinds, sensed = {}, set(), []

    def sinr_spy(user, serving, active, links, powers, precoders, noise):
        sinr = real_sinr(user, serving, active, links, powers, precoders, noise)
        # every link of this user was read for `links`, so link_h takes no new slot
        arrays = {key: (g, np.atleast_2d(table.link_h(*key))) for key, (g, _) in links.items()}
        assert sinr == pytest.approx(real_sinr(user, serving, active, arrays, powers, precoders, noise), rel=1e-12)
        kinds.update(type(h) for _, h in links.values())
        sinr_of[user] = sinr
        return sinr

    def sensed_spy(medium, rx, cca_slot):
        total, per_source = real_sensed(medium, rx, cca_slot)
        m = drop.nodes[rx].num_antennas
        reference = medium._noise(rx)
        for t in medium.active:
            amps = np.atleast_2d(table.link_h(rx, t)).conj().T @ medium.precoders[t].W
            reference += medium.powers[t] * table.slow_gain[rx, t] * np.sum(np.abs(amps) ** 2) / m
        assert total == pytest.approx(reference, rel=1e-12)
        sensed.append(len(medium.active))
        return total, per_source

    monkeypatch.setattr(engine.phy, "compute_sinr", sinr_spy)
    monkeypatch.setattr(RoundMedium, "sensed_rx", sensed_spy)
    for r in range(20):
        sinr_of.clear()
        out = run_round(drop, r)
        assert out.user_sinr_db == {u: float(10.0 * np.log10(s)) for u, s in sinr_of.items()}
    assert complex in kinds and (scenario == "A") != (np.ndarray in kinds)
    assert max(sensed) >= 2
