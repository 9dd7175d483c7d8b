"""Regulatory transmit power, per-user SINR, and SINR-to-rate mapping."""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .units import dbm_to_mw

# 20 MHz, single spatial stream: (minimum SINR dB, PHY rate b/s).
DEFAULT_RATE_ROWS = (
    (2.0, 6.5e6),
    (5.0, 13.0e6),
    (9.0, 19.5e6),
    (11.0, 26.0e6),
    (15.0, 39.0e6),
    (18.0, 52.0e6),
    (20.0, 58.5e6),
    (25.0, 65.0e6),
    (29.0, 78.0e6),
)


@dataclass(frozen=True)
class RateTable:
    """Ordered MCS lookup; below the first row the link is in outage (rate 0)."""

    rows: tuple = DEFAULT_RATE_ROWS
    thresholds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple((float(s), float(r)) for s, r in self.rows)
        if not rows:
            raise ValueError("rate table needs at least one row")
        if not all(math.isfinite(s) and math.isfinite(r) and r > 0 for s, r in rows):
            raise ValueError("rate table entries must be finite, with positive rates")
        for (s0, r0), (s1, r1) in zip(rows, rows[1:]):
            if s1 <= s0 or r1 <= r0:
                raise ValueError("rate table rows must increase strictly in SINR and rate")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "thresholds", tuple(s for s, _ in rows))


def tx_power(p_max_dbm, num_antennas, n_nulls, n_streams):
    """Radiated power after the unlicensed-band beamforming back-off, in dBm.

    P = P_max - 10 log10((M - N) / K): the allowance shrinks with the
    per-stream beamforming gain of the d.o.f. left after nulling. A
    single-antenna node (M = K = 1, N = 0) transmits at P_max.
    """
    if n_streams < 1:
        raise ValueError("need at least one stream")
    free = num_antennas - n_nulls
    if free < n_streams:
        raise CapabilityError(f"{n_streams} streams need more than {free} free antenna d.o.f.")
    return p_max_dbm - 10.0 * math.log10(free / n_streams)


def noise_power(bandwidth_hz, noise_figure_db, psd_dbm_hz=-174.0):
    """Thermal noise power in linear mW for the given bandwidth and noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return float(dbm_to_mw(psd_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db))


def received_power(p, g, h, w):
    """P g ||H^H W||^2: the power that a transmitter radiating P through the
    precoder W delivers over a link of slow gain g and fading H, summed over
    streams and receive antennas. H is `ChannelTable.link_h`'s (M_tx, M_rx)
    matrix or, between single-antenna nodes, its Python complex h, for which
    the sum runs in Python numbers and W must hold one element (`W.item()`
    raises otherwise)."""
    if isinstance(h, complex):
        a = h.conjugate() * w.item()
        return p * g * (a.real * a.real + a.imag * a.imag)
    a = h.conj().T @ w
    return p * g * np.vdot(a, a).real


def compute_sinr(user_id, serving_id, transmissions, links, noise_mw):
    """Per-subcarrier SINR of a scheduled single-antenna user.

    Signal: P_a g |h^H w_user|^2 for the user's own precoder column.
    Interference: every other transmission contributes its `received_power`
    P_j g ||H^H W_j||^2, summed over all its streams, plus the residual
    intra-cell leakage of the serving AP's other columns; noise closes the
    denominator. `transmissions` maps each transmitter to its `power_mw` and
    `precoder`. `links[user_id, tx_id]`, read once per transmission in that
    order, is (slow_gain_linear, H) with H of shape (M_tx, 1), or the Python
    complex h of a single-antenna transmitter, as `ChannelTable` gives them.
    """
    w_serv = transmissions[serving_id].precoder
    stream = w_serv.user_map.index(user_id)
    inter = 0.0
    for tx_id, tx in transmissions.items():
        g, h = links[user_id, tx_id]
        if tx_id != serving_id:
            inter += received_power(tx.power_mw, g, h, tx.precoder.W)
        elif isinstance(h, complex):
            signal, intra = tx.power_mw * g * abs(h.conjugate() * w_serv.W.item()) ** 2, 0.0
        else:
            amps = (h.conj().T @ w_serv.W)[0]
            signal = tx.power_mw * g * abs(amps[stream]) ** 2
            amps[stream] = 0.0  # what remains is the leakage of the other streams
            intra = tx.power_mw * g * np.vdot(amps, amps).real
    return signal / (inter + intra + noise_mw)


def map_rate(sinr_db, table):
    """Largest rate whose SINR threshold the link clears; 0 below the table."""
    idx = bisect_right(table.thresholds, sinr_db)
    return 0.0 if idx == 0 else table.rows[idx - 1][1]
