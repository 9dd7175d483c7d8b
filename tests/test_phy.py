import math

import numpy as np
import pytest

from conftest import brute_force_sinr, crandn

from mmimo_coex.errors import CapabilityError
from mmimo_coex.phy import (
    RateTable,
    compute_sinr,
    map_rate,
    noise_power,
    received_power,
    tx_power,
)
from mmimo_coex.beamforming import PrecoderSet, zf_precoder
from mmimo_coex.units import mw_to_dbm


# ---- transmit power -------------------------------------------------------------


def test_tx_power_values():
    assert tx_power(24.0, 36, 0, 4) == pytest.approx(24.0 - 10 * math.log10(9.0), abs=1e-9)
    assert tx_power(24.0, 36, 0, 4) == pytest.approx(14.4576, abs=0.01)
    assert tx_power(24.0, 36, 24, 4) == pytest.approx(19.2288, abs=0.01)
    assert tx_power(18.0, 1, 0, 1) == 18.0
    assert tx_power(24.0, 4, 0, 4) == 24.0


def test_tx_power_monotonicity():
    # non-increasing in free antennas, non-decreasing in streams
    values = [tx_power(24.0, m, 0, 2) for m in range(2, 37)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    values = [tx_power(24.0, 36, 0, k) for k in range(1, 5)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_tx_power_capability():
    with pytest.raises(CapabilityError):
        tx_power(24.0, 36, 33, 4)


# ---- noise ----------------------------------------------------------------------


def test_noise_power_values():
    assert mw_to_dbm(noise_power(20e6, 9.0)) == pytest.approx(-91.99, abs=0.01)
    assert mw_to_dbm(noise_power(1.0, 0.0)) == pytest.approx(-174.0, abs=1e-9)
    ratio = noise_power(40e6, 9.0) / noise_power(20e6, 9.0)
    assert 10 * math.log10(ratio) == pytest.approx(3.01, abs=0.01)


# ---- rate mapping ---------------------------------------------------------------


def test_map_rate_lookup():
    table = RateTable()
    assert map_rate(30.0, table) == 78.0e6
    assert map_rate(0.0, table) == 0.0
    assert map_rate(12.0, table) == 26.0e6
    assert map_rate(2.0, table) == 6.5e6  # inclusive threshold


def test_map_rate_non_decreasing():
    table = RateTable()
    grid = np.linspace(-10.0, 45.0, 2000)
    rates = [map_rate(s, table) for s in grid]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_rate_table_validation():
    with pytest.raises(ValueError):
        RateTable(rows=((5.0, 13e6), (2.0, 6.5e6)))
    with pytest.raises(ValueError):
        RateTable(rows=((2.0, 13e6), (5.0, 6.5e6)))
    with pytest.raises(ValueError):
        RateTable(rows=())


# ---- received power ---------------------------------------------------------------


def _explicit_received_power(p, g, h, w):
    """P g sum over streams k and receive antennas r of |sum_a conj(H[a, r]) W[a, k]|^2, term by term."""
    total = 0.0
    for r in range(h.shape[1]):
        for k in range(w.shape[1]):
            amp = sum(np.conj(h[a, r]) * w[a, k] for a in range(h.shape[0]))
            total += amp.real**2 + amp.imag**2
    return p * g * total


@pytest.mark.parametrize("case", ["complex h", "array transmitter", "array receiver"])
def test_received_power_is_the_explicit_sum(case):
    rng = np.random.default_rng(4)
    m = 36
    for _ in range(50):
        p, g = float(10 ** rng.uniform(-1, 2.5)), float(10 ** rng.uniform(-12, -5))
        if case == "complex h":
            h, w = complex(crandn(rng)), np.exp(1j * rng.uniform(0, 2 * np.pi, (1, 1)))
        elif case == "array transmitter":
            h, w = crandn(rng, m, 1), crandn(rng, m, int(rng.integers(1, 5)))
        else:
            h, w = crandn(rng, 1, m), np.exp(1j * rng.uniform(0, 2 * np.pi, (1, 1)))
        assert received_power(p, g, h, w) == pytest.approx(_explicit_received_power(p, g, np.atleast_2d(h), w), rel=1e-12)


def test_received_power_rejects_a_complex_link_to_a_multi_antenna_precoder():
    # a complex h stands for a one-antenna transmitter
    with pytest.raises(ValueError):
        received_power(1.0, 1.0, 0.6 + 0.8j, np.full((4, 1), 0.5, dtype=complex))


# ---- SINR -----------------------------------------------------------------------


def _single_link_setup(p_mw, g, h):
    links = {(10, 0): (g, np.array([[h]], dtype=complex))}
    precoders = {0: PrecoderSet(W=np.array([[1.0]], dtype=complex), user_map=(10,))}
    return links, precoders, {0: p_mw}


def test_sinr_no_interferers():
    h = 0.8 - 0.3j
    links, precoders, powers = _single_link_setup(100.0, 1.0, h)
    sinr = compute_sinr(10, 0, (0,), links, powers, precoders, noise_mw=1e-6)
    assert sinr == pytest.approx(100.0 * abs(h) ** 2 / 1e-6, rel=1e-12)


def test_sinr_zf_kills_intra_cell():
    rng = np.random.default_rng(0)
    m, k = 16, 4
    h_users = crandn(rng, m, k)
    users = tuple(range(10, 10 + k))
    precoder = zf_precoder(h_users, user_map=users)
    links = {(u, 0): (1.0, h_users[:, i][:, None]) for i, u in enumerate(users)}
    powers = {0: 50.0}
    for i, u in enumerate(users):
        amps = (links[(u, 0)][1].conj().T @ precoder.W)[0]
        signal = abs(amps[i]) ** 2
        leak = np.sum(np.abs(np.delete(amps, i)) ** 2)
        assert leak < 1e-8 * signal
        sinr = compute_sinr(u, 0, (0,), links, powers, {0: precoder}, noise_mw=1e-9)
        assert sinr == pytest.approx(powers[0] * signal / (powers[0] * leak + 1e-9), rel=1e-9)


def _random_instance(rng, antenna_choices=(1, 2, 4, 8, 36)):
    """Random multi-cell snapshot: transmitter 0 serves the probe user."""
    n_tx = int(rng.integers(2, 6))
    antennas = [int(rng.choice(antenna_choices)) for _ in range(n_tx)]
    streams = [min(int(rng.integers(1, 5)), m) for m in antennas]
    user = 100
    links, powers, precoders = {}, {}, {}
    for t in range(n_tx):
        m, k = antennas[t], streams[t]
        w = crandn(rng, m, k)
        w /= np.linalg.norm(w)
        user_map = (user,) + tuple(200 + 10 * t + i for i in range(1, k)) if t == 0 else tuple(
            300 + 10 * t + i for i in range(k)
        )
        precoders[t] = PrecoderSet(W=w, user_map=user_map)
        powers[t] = float(10 ** rng.uniform(0, 2.5))
        links[(user, t)] = (float(10 ** rng.uniform(-12, -6)), crandn(rng, m, 1))
    return user, links, powers, precoders


def test_sinr_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(200):
        user, links, powers, precoders = _random_instance(rng)
        noise = float(10 ** rng.uniform(-12, -9))
        active = tuple(powers)
        fast = compute_sinr(user, 0, active, links, powers, precoders, noise)
        slow = brute_force_sinr(user, 0, active, links, powers, precoders, noise)
        assert fast == pytest.approx(slow, rel=1e-10)


def test_removing_interferer_never_hurts():
    rng = np.random.default_rng(2)
    for _ in range(50):
        user, links, powers, precoders = _random_instance(rng)
        noise = 1e-10
        full = compute_sinr(user, 0, tuple(powers), links, powers, precoders, noise)
        reduced = compute_sinr(user, 0, tuple(t for t in powers if t != 1), links, powers, precoders, noise)
        assert reduced >= full - 1e-15


def _complex_scalar_links(links):
    """The same links, each one-antenna H given as its Python complex h."""
    return {key: (g, complex(h[0, 0]) if h.shape[0] == 1 else h) for key, (g, h) in links.items()}


def test_sinr_of_complex_scalar_links_matches_brute_force_and_array_form():
    rng = np.random.default_rng(11)
    scalar_serving = mixed = 0
    for _ in range(300):
        user, links, powers, precoders = _random_instance(rng, antenna_choices=(1, 1, 1, 4, 36))
        noise = float(10 ** rng.uniform(-12, -9))
        active = tuple(powers)
        scalar_links = _complex_scalar_links(links)
        kinds = {isinstance(h, complex) for _, h in scalar_links.values()}
        scalar_serving += isinstance(scalar_links[(user, 0)][1], complex)
        mixed += kinds == {True, False}
        fast = compute_sinr(user, 0, active, scalar_links, powers, precoders, noise)
        array_form = compute_sinr(user, 0, active, links, powers, precoders, noise)
        oracle = brute_force_sinr(user, 0, active, links, powers, precoders, noise)
        assert fast == pytest.approx(oracle, rel=1e-12)
        assert fast == pytest.approx(array_form, rel=1e-12)
    assert scalar_serving > 50 and mixed > 50  # both branches, and a single-antenna serving AP


@pytest.mark.parametrize("wide", ["serving", "interferer"])
def test_sinr_rejects_a_complex_link_to_a_multi_antenna_precoder(wide):
    # a complex h stands for a one-antenna transmitter, so a W of four elements raises
    unit = PrecoderSet(W=np.ones((1, 1), dtype=complex))
    four = PrecoderSet(W=np.full((4, 1), 0.5, dtype=complex))
    precoders = {0: four if wide == "serving" else unit, 1: four if wide == "interferer" else unit}
    precoders[0].user_map = (10,)
    links = {(10, 0): (1.0, 0.6 + 0.8j), (10, 1): (1.0, 0.5 - 0.5j)}
    with pytest.raises(ValueError):
        compute_sinr(10, 0, (0, 1), links, {0: 1.0, 1: 1.0}, precoders, 1e-9)
