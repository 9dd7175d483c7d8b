"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with -s or -rA to see them on success).

Desk-scale statistical checks use 500 drops x 50 rounds with seed 1.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from conftest import brute_force_sinr, crandn

from mmimo_coex.beamforming import PrecoderSet, dominant_subspace, residual_power, zf_precoder, zf_with_nulls
from mmimo_coex.channel import los_probability, received_covariance
from mmimo_coex.config import ScenarioConfig
from mmimo_coex.engine import CENTRAL_AP, Transmission, run_simulation
from mmimo_coex.geometry import NodeDescriptor, ROLE_AP
from mmimo_coex.phy import compute_sinr, noise_power, tx_power
from mmimo_coex.results import emit_results
from mmimo_coex.units import mw_to_dbm


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_c1_equation_level_values():
    start = time.perf_counter()
    checks = [
        abs(los_probability(10.0) - 1.0) < 1e-9,
        abs(los_probability(45.0) - 0.5) < 1e-9,
        abs(tx_power(24.0, 36, 0, 4) - 14.46) < 0.01,
        abs(tx_power(24.0, 36, 24, 4) - 19.23) < 0.01,
        abs(mw_to_dbm(noise_power(20e6, 9.0)) - (-91.99)) < 0.01,
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    assert report(
        "criterion 1 (equation-level values)",
        ok,
        f"los(10)={los_probability(10.0)} los(45)={los_probability(45.0)} "
        f"txpwr={tx_power(24.0, 36, 0, 4):.4f}/{tx_power(24.0, 36, 24, 4):.4f} dBm "
        f"noise={mw_to_dbm(noise_power(20e6, 9.0)):.4f} dBm in {elapsed * 1e3:.0f} ms",
    )


def test_c2_linear_algebra_properties():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_orth, worst_norm, worst_depth = 0.0, 0.0, math.inf
    for trial in range(1000):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(0, 25))
        m = int(rng.integers(max(k + n + 2, 8), 37))
        h = crandn(rng, m, k)

        p = zf_precoder(h)
        eff = np.abs(h.conj().T @ p.W)
        diag = np.diag(eff)
        off = eff - np.diag(diag)
        if k > 1:
            worst_orth = max(worst_orth, float(np.max(off) / np.min(diag)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(p.W) - 1.0))

        if n > 0:
            q, _ = np.linalg.qr(crandn(rng, m, n))
            pn = zf_with_nulls(h, q)
            worst_norm = max(worst_norm, abs(np.linalg.norm(pn.W) - 1.0))
            signal = np.min(np.abs(np.diag(h.conj().T @ pn.W))) ** 2
            leak = np.max(np.abs(q.conj().T @ pn.W)) ** 2
            depth = 10.0 * math.log10(signal / max(leak, 1e-300))
            worst_depth = min(worst_depth, depth)

        if trial % 10 == 0:
            x = NodeDescriptor(0, ROLE_AP, (0.0, 0.0, 3.0), m, 24.0)
            active, links, powers = [], {}, {}
            for t in range(1, int(rng.integers(2, 6))):
                active.append(NodeDescriptor(t, ROLE_AP, (t, 0.0, 1.5), 1, 18.0))
                links[(0, t)] = (10 ** rng.uniform(-10, -6), crandn(rng, 1, m))
                powers[t] = float(10 ** rng.uniform(0, 2))
            noise = 1e-9
            z = received_covariance(x, active, links, powers, noise_power=noise)
            assert np.array_equal(z, z.conj().T)
            assert np.min(np.linalg.eigvalsh(z)) >= noise * (1 - 1e-9)
            vec = crandn(rng, m)
            res = [residual_power(dominant_subspace(z, nn), vec) for nn in range(0, m + 1, max(m // 6, 1))]
            assert all(b <= a + 1e-12 * res[0] for a, b in zip(res, res[1:]))

    elapsed = time.perf_counter() - start
    ok = worst_orth < 1e-8 and worst_norm < 1e-9 and worst_depth >= 80.0 and elapsed < 30.0
    assert report(
        "criterion 2 (linear-algebra properties, 1000 instances)",
        ok,
        f"orth={worst_orth:.2e} norm_err={worst_norm:.2e} null_depth={worst_depth:.0f} dB "
        f"in {elapsed:.1f} s",
    )


def test_c3_sinr_oracle_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_tx = int(rng.integers(2, 6))
        user = 100
        links, powers, precoders = {}, {}, {}
        for t in range(n_tx):
            m = int(rng.choice([1, 2, 4, 8, 36]))
            k = min(int(rng.integers(1, 5)), m)
            w = crandn(rng, m, k)
            w /= np.linalg.norm(w)
            users = (user,) + tuple(1000 + 10 * t + i for i in range(1, k)) if t == 0 else tuple(
                2000 + 10 * t + i for i in range(k)
            )
            precoders[t] = PrecoderSet(W=w, user_map=users)
            powers[t] = float(10 ** rng.uniform(0, 2.5))
            links[(user, t)] = (float(10 ** rng.uniform(-12, -6)), crandn(rng, m, 1))
        noise = float(10 ** rng.uniform(-12, -9))
        active = tuple(powers)
        fast = compute_sinr(user, 0, {t: Transmission(powers[t], precoders[t], 0) for t in active}, links, noise)
        slow = brute_force_sinr(user, 0, active, links, powers, precoders, noise)
        worst = max(worst, abs(fast - slow) / slow)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    assert report(
        "criterion 3 (SINR oracle equivalence, 200 instances)",
        ok,
        f"max relative error {worst:.2e} in {elapsed:.1f} s",
    )


def test_c4_elbt_access_superiority(sim_cache):
    res_a, t_a = sim_cache("A", 1.0)
    res_b, t_b = sim_cache("B", 1.0)
    res_c, t_c = sim_cache("C", 1.0)
    acc_a = res_a.ap_access_success(CENTRAL_AP)
    acc_b = res_b.ap_access_success(CENTRAL_AP)
    acc_c = res_c.ap_access_success(CENTRAL_AP)
    paired = acc_c >= acc_b
    for p_tr in (0.1,):
        rb, _ = sim_cache("B", p_tr)
        rc, _ = sim_cache("C", p_tr)
        paired &= rc.ap_access_success(CENTRAL_AP) >= rb.ap_access_success(CENTRAL_AP)
    ok = (
        paired
        and abs(acc_a - 0.35) <= 0.10
        and abs(acc_b - 0.35) <= 0.10
        and abs(acc_c - 0.60) <= 0.10
        and max(t_a, t_b, t_c) < 300.0
    )
    assert report(
        "criterion 4 (eLBT access superiority)",
        ok,
        f"central access A={acc_a:.3f} B={acc_b:.3f} (target 0.35±0.10), "
        f"C={acc_c:.3f} (target 0.60±0.10), C>=B paired={paired}, "
        f"slowest run {max(t_a, t_b, t_c):.0f} s",
    )


def test_c5_throughput_ordering_and_gain(sim_cache):
    """Median DL sum user throughput: ordering C > B > A plus gain bands
    C/B in [2, 6] and C/A in [3.5, 10.5].

    The ordering holds. The gain bands do not, and cannot, at this model's
    operating point: with the central AP's access bounded near 0.60 and
    plain-LBT access near 0.35 (the levels the access criterion pins), the
    central cell's stream-round budget grows by at most ~1.7x from B to C,
    and spectrum reuse necessarily adds co-channel interference to the
    reused rounds, capping the realizable median gain near 1.2-1.5x. Gains
    of 2x+ would require the reused rounds to run at top modulation while
    24 dBm neighbors transmit 20-40 m away with LOS probability >= 0.5,
    which the indoor propagation model rules out. The assertion is kept
    faithful to the stated bands rather than widened to pass.
    """
    med = {s: sim_cache(s, 1.0)[0].median_sum_throughput() for s in "ABC"}
    ordering = med["C"] > med["B"] > med["A"]
    ratio_cb = med["C"] / med["B"]
    ratio_ca = med["C"] / med["A"]
    ok = ordering and 2.0 <= ratio_cb <= 6.0 and 3.5 <= ratio_ca <= 10.5
    assert report(
        "criterion 5 (throughput ordering and gain bands)",
        ok,
        f"medians A/B/C = {med['A'] / 1e6:.1f}/{med['B'] / 1e6:.1f}/{med['C'] / 1e6:.1f} Mb/s, "
        f"ordering={ordering}, C/B={ratio_cb:.2f} (band [2,6]), C/A={ratio_ca:.2f} (band [3.5,10.5])",
    )


def test_c6_sinr_floor_protection(sim_cache):
    res_c, _ = sim_cache("C", 1.0)
    res_abl, _ = sim_cache("C", 1.0, elbt_fraction=1.0, partition_enabled=False)
    p5 = res_c.sinr_percentile_db(5)
    p5_ablation = res_abl.sinr_percentile_db(5)
    ok = p5 >= 0.0 and p5 > p5_ablation
    assert report(
        "criterion 6 (5th-percentile SINR floor)",
        ok,
        f"scenario C p5 = {p5:.2f} dB (>= 0), all-eLBT ablation p5 = {p5_ablation:.2f} dB",
    )


def test_c7_traffic_monotonicity(sim_cache):
    failures = []
    for scenario in "ABC":
        heavy, _ = sim_cache(scenario, 1.0)
        light, _ = sim_cache(scenario, 0.1)
        for ap in range(3):
            if heavy.ap_access_success(ap) > light.ap_access_success(ap) + 1e-12:
                failures.append((scenario, ap))
    ok = not failures
    assert report(
        "criterion 7 (access degrades with load)",
        ok,
        "success(p_tr=1) <= success(p_tr=0.1) for every AP and scenario"
        if ok
        else f"violations: {failures}",
    )


def test_c8_deterministic_outputs(tmp_path):
    cfg = dict(scenario="C", p_tr=1.0, n_drops=20, n_rounds=20, seed=1)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    emit_results(run_simulation(ScenarioConfig(**cfg)), out_dir=out_a)
    emit_results(run_simulation(ScenarioConfig(**cfg)), out_dir=out_b)
    names = ["samples.csv", "access_rate.csv", "sinr_cdf.csv", "throughput_cdf.csv"]
    same = {n: filecmp.cmp(os.path.join(out_a, n), os.path.join(out_b, n), shallow=False) for n in names}
    ok = all(same.values())
    assert report(
        "criterion 8 (byte-identical reruns)",
        ok,
        ", ".join(f"{n}={'same' if v else 'DIFFERS'}" for n, v in same.items()),
    )
