"""Indoor stochastic propagation: LOS, InH path loss, shadowing, Ricean fading.

Conventions
-----------
* Linear powers and gains are milliwatt-referenced; slow gains multiply them.
* For a link with receiver i and transmitter j the fading matrix H has shape
  (M_j, M_i); the signal seen at i is H^H applied to the transmitted vector,
  so channel reciprocity reads H_ji = H_ij^H.
* Fading entries are normalized to unit average power; the slow gain (path
  loss + shadowing + 0 dBi antenna gains) is carried separately.
"""

import functools
import math

import numpy as np

from .units import db_to_linear


def los_probability(d_3d):
    """Line-of-sight probability versus 3D distance (indoor hotspot model)."""
    d = np.asarray(d_3d, dtype=float)
    if (d < 0).any():
        raise ValueError("distance must be non-negative")
    p = np.where(d <= 18.0, 1.0, np.where(d <= 37.0, np.exp(-(d - 18.0) / 27.0), 0.5))
    return float(p) if np.isscalar(d_3d) else p


def path_loss_db(d_3d, los, carrier_ghz, los_coef, nlos_coef):
    """InH path loss in dB; distances below 1 m are clamped to 1 m.

    Each branch is intercept + slope log10(d) from its (intercept, slope)
    pair, and the carrier adds 20 log10(f_GHz) to both. The NLOS branch is
    floored at the LOS value: the default constants cross below ~6.4 m,
    under the NLOS model's validity range (and inside the 18 m always-LOS
    radius, so the floor never binds in simulation).
    """
    d = np.maximum(np.asarray(d_3d, dtype=float), 1.0)
    f_term = 20.0 * math.log10(carrier_ghz)
    log_d = np.log10(d)
    pl_los = los_coef[0] + los_coef[1] * log_d + f_term
    pl_nlos = np.maximum(nlos_coef[0] + nlos_coef[1] * log_d + f_term, pl_los)
    pl = np.where(los, pl_los, pl_nlos)
    return float(pl) if np.isscalar(d_3d) else pl


def shadowing_db(los, rng, sigma_los, sigma_nlos):
    """Log-normal shadowing draws (dB domain), one per entry of the array
    `los`, each sigma chosen by its LOS state."""
    return rng.standard_normal(len(los)) * np.where(los, sigma_los, sigma_nlos)


def received_covariance(x, active, links, powers, noise_power=0.0):
    """Covariance of the signal received at node x from the active
    transmitters, each radiating without precoding.

    Z = sum_j P_j g_xj H_xj^H H_xj + noise_power * I, which is Hermitian PSD
    by construction. `links` maps (x.id, j.id) to a (slow_gain_linear, H) pair.
    The sum is one product: with the rows of every H_xj stacked into V and
    each row's P_j g_xj in c, Z = V^H diag(c) V + noise_power * I.
    It is the reference for the eLBT nulls, which the engine takes from
    B = V^H diag(sqrt(c)), Z = B B^H + noise_power * I, without forming Z.
    """
    m = x.num_antennas
    weights, rows = [], [np.empty((0, m), dtype=complex)]
    for j in active:
        if j.id == x.id:
            continue
        g, h = links[(x.id, j.id)]
        if h.shape[1] != m:
            raise ValueError(f"channel to node {j.id} does not match {m} receive antennas")
        weights += [powers[j.id] * g] * h.shape[0]
        rows.append(h)
    v = np.concatenate(rows)
    z = v.conj().T @ (np.array(weights)[:, None] * v)
    z.flat[:: m + 1] += noise_power
    return (z + z.conj().T) / 2.0


@functools.lru_cache(maxsize=8)
def _upper_pairs(n):
    """Row and column indices of the n(n-1)/2 node pairs (i < j), and the
    (n, n) map from (i, j) to the index of their pair, n(n-1)/2 on the
    diagonal; all read-only."""
    iu = np.triu_indices(n, 1)
    pair_of = np.full((n, n), len(iu[0]))
    pair_of[iu] = pair_of[iu[::-1]] = np.arange(len(iu[0]))
    for idx in (*iu, pair_of):
        idx.flags.writeable = False
    return iu, pair_of


def _symmetric(pair_values, diagonal, pair_of):
    """The symmetric (n, n) matrix of one value per node pair, `diagonal` on
    its diagonal, as one gather."""
    return np.concatenate((pair_values, [diagonal])).take(pair_of)


class ChannelTable:
    """Per-drop channel state for all node pairs.

    Slow quantities (LOS state, path loss, shadowing) are drawn once at
    construction; `resample` starts a new block-fading snapshot. At most one
    node may carry more than one antenna: scalar links form a Hermitian
    coefficient matrix, and each array-node link keeps a length-M vector v_j
    with the convention that the amplitude at j for precoder column w is
    v_j^H w and the signal received by the array from j is proportional to
    v_j. Path-loss, shadowing, K-factor and carrier parameters are read from
    the scenario configuration.

    Fading is drawn in per-drop blocks and handed out on first read.
    `resample` makes no random draw: it keeps the drop's generator and clears
    the snapshot. A link's first read in a snapshot takes the next slot of a
    block, n slots for scalar pairs and n - 1 for array rows, and the link
    keeps it until the next `resample`. Only a read that finds its block used
    up draws the next one: s slots over an M-element aperture with
    `standard_normal((s, 2M + 1))` (per slot M Rayleigh (re, im) pairs, then
    the K-factor) then `random((3, s))` (azimuth, cos elevation, LOS phase);
    a scalar slot is the case M = 1 with the same draws, whose wavefront is
    its LOS phase alone (the azimuth and elevation are drawn and not used).
    `link_h` reads any link: a link between single-antenna nodes is a Python
    complex, and only this class decides which links are. Each slot holds its
    coefficient under both laws, Ricean for a LOS link and Rayleigh (K = 0)
    for an NLOS one, and a read takes the law of its link. A batch of rows
    takes consecutive slots in the order of its ids' first appearance,
    running on into the next block, so a drop draws less than one block of
    each kind beyond the slots it reads. Every link is i.i.d. Ricean whatever
    the read order, but which values a link gets depends on that order.
    """

    def __init__(self, nodes, config, rng):
        self.n = len(nodes)
        self.k_factor_db = (config.k_factor_mean_db, config.k_factor_std_db)
        multi = [k for k, nd in enumerate(nodes) if nd.num_antennas > 1]
        if len(multi) > 1:
            raise ValueError("at most one multi-antenna node is supported per drop")
        self.array_node = multi[0] if multi else None
        self.array_size = nodes[multi[0]].num_antennas if multi else 0

        iu, pair_of = _upper_pairs(self.n)
        n_pairs = len(iu[0])
        xyz = np.array(list(zip(*(nd.position for nd in nodes))))  # one row per coordinate
        sq = np.take(xyz, iu[0], axis=1) - np.take(xyz, iu[1], axis=1)
        sq *= sq
        d_pairs = np.sqrt(sq[0] + sq[1] + sq[2])

        los_pairs = rng.random(n_pairs) < los_probability(d_pairs)
        shadow_pairs = shadowing_db(los_pairs, rng, config.shadowing_sigma_los_db, config.shadowing_sigma_nlos_db)
        los_coef = (config.pl_los_intercept, config.pl_los_slope)
        nlos_coef = (config.pl_nlos_intercept, config.pl_nlos_slope)
        pl_pairs = path_loss_db(d_pairs, los_pairs, config.carrier_ghz, los_coef, nlos_coef)

        self.los = _symmetric(los_pairs, False, pair_of)
        # exponentiated on the pairs; no gain from a node to itself
        self.slow_gain = _symmetric(db_to_linear(-(pl_pairs + shadow_pairs)), 0.0, pair_of)

        self._rng = None
        self._pairs = {}  # (low id, high id) -> coefficient seen by the low id
        self._pair_block = []  # per slot, [NLOS, LOS] coefficients as Python complex
        self._pair_slot = 0
        if self.array_node is not None:
            m = self.array_size
            side = math.isqrt(m)
            if side * side == m:
                rows, cols = np.divmod(np.arange(m), side)
            else:
                rows, cols = np.arange(m), np.zeros(m)
            # a row's steering phases are (kx, ky, psi) @ _grid
            self._grid = np.array([rows, cols, np.ones(m)], dtype=float)
            self._rows = np.zeros((self.n, m), dtype=complex)  # the array's own row stays zero
            self._row_ready = []  # per node, set by resample
            # per node, its law's index in a block: 1 for a LOS link to the array
            self._row_law = self.los[self.array_node].astype(int).tolist()
            self._row_block = np.empty((2, 0, m), dtype=complex)
            self._row_slot = 0

    def resample(self, rng):
        """Start a block-fading snapshot whose links take their slots on first read."""
        self._rng = rng
        self._pairs.clear()
        if self.array_node is not None:
            self._row_ready = [False] * self.n
            self._row_ready[self.array_node] = True

    def _draw_block(self, size, grid=None):
        """Fading of `size` slots over the aperture `grid`, shape (2, size, M):
        [0] under the NLOS law (Rayleigh), [1] under the LOS law (unit-power
        Ricean, its K-factor in dB a standard normal mapped onto the
        configured law, plus a planar wavefront at a uniform direction).
        With no grid, a scalar link's one element at the origin, M = 1: the
        draws are the same and the wavefront is the LOS phase alone, bit for
        bit what the steering product gives."""
        m = 1 if grid is None else grid.shape[1]
        z = self._rng.standard_normal((size, 2 * m + 1))
        az, cos_el, psi = self._rng.random((3, size))
        if grid is None:
            steer = np.exp(1j * (2.0 * math.pi * psi))[:, None]
        else:
            az *= 2.0 * math.pi
            reach = math.pi * np.sqrt(1.0 - (2.0 * cos_el - 1.0) ** 2)  # pi sin(elevation)
            steer = np.exp(1j * (np.stack([reach * np.cos(az), reach * np.sin(az), 2.0 * math.pi * psi], axis=1) @ grid))
        k = 10.0 ** ((self.k_factor_db[0] + self.k_factor_db[1] * z[:, -1:]) / 10.0)
        block = np.empty((2, size, m), dtype=complex)
        np.multiply(z[:, :-1].view(complex), math.sqrt(0.5), out=block[0])
        block[1] = np.sqrt(k / (k + 1.0)) * steer + np.sqrt(1.0 / (k + 1.0)) * block[0]
        return block

    def scalar_h(self, rx, tx):
        """Fading coefficient of the (rx, tx) link between single-antenna nodes."""
        key = (rx, tx) if rx < tx else (tx, rx)
        h = self._pairs.get(key)
        if h is None:
            slot = self._pair_slot
            if slot == len(self._pair_block):
                self._pair_block = self._draw_block(self.n)[:, :, 0].T.tolist()
                slot = 0
            self._pair_slot = slot + 1
            h = self._pairs[key] = self._pair_block[slot][self.los.item(key)]
        return h if rx < tx else h.conjugate()

    def _take_row(self, j):
        """Hand node j the next row slot, under the law of its link to the array."""
        if self._row_slot == self._row_block.shape[1]:
            self._row_block = self._draw_block(self.n - 1, self._grid)
            self._row_slot = 0
        self._rows[j] = self._row_block[self._row_law[j], self._row_slot]
        self._row_slot += 1
        self._row_ready[j] = True

    def array_rows(self, ids):
        """Array-link vectors v_j, one row per node id in `ids`, shape (len(ids), M)."""
        for j in ids:
            if not self._row_ready[j]:
                self._take_row(j)
        return self._rows[ids]

    def _row(self, j):
        """Array-link vector of node j, a view that the next snapshot overwrites."""
        if not self._row_ready[j]:
            self._take_row(j)
        return self._rows[j]

    def link_h(self, rx, tx):
        """Fading of the (rx, tx) link: its (M_tx, M_rx) matrix H, or between
        single-antenna nodes `scalar_h`'s Python complex h, H's one element."""
        x = self.array_node
        if tx == x:
            return self._row(rx)[:, None]
        if rx == x:
            return self._row(tx)[None, :].conj()
        return self.scalar_h(rx, tx)
