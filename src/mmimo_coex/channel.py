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

# InH path-loss constants (intercept, log-distance slope); the carrier adds
# 20 log10(f_GHz) in both branches.
INH_LOS = (32.8, 16.9)
INH_NLOS = (11.5, 43.3)

SHADOW_SIGMA_LOS_DB = 3.0
SHADOW_SIGMA_NLOS_DB = 4.0


def los_probability(d_3d):
    """Line-of-sight probability versus 3D distance (indoor hotspot model)."""
    d = np.asarray(d_3d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be non-negative")
    p = np.where(d <= 18.0, 1.0, np.where(d <= 37.0, np.exp(-(d - 18.0) / 27.0), 0.5))
    return float(p) if np.isscalar(d_3d) else p


def path_loss_db(d_3d, los, carrier_ghz=5.18, los_coef=INH_LOS, nlos_coef=INH_NLOS):
    """InH path loss in dB; distances below 1 m are clamped to 1 m.

    The NLOS branch is floored at the LOS value: the raw constants cross
    below ~6.4 m, under the NLOS model's validity range (and inside the 18 m
    always-LOS radius, so the floor never binds in simulation).
    """
    d = np.maximum(np.asarray(d_3d, dtype=float), 1.0)
    f_term = 20.0 * math.log10(carrier_ghz)
    pl_los = los_coef[0] + los_coef[1] * np.log10(d) + f_term
    pl_nlos = np.maximum(nlos_coef[0] + nlos_coef[1] * np.log10(d) + f_term, pl_los)
    pl = np.where(los, pl_los, pl_nlos)
    return float(pl) if np.isscalar(d_3d) else pl


def shadowing_db(los, rng, size=None, sigma_los=SHADOW_SIGMA_LOS_DB, sigma_nlos=SHADOW_SIGMA_NLOS_DB):
    """Log-normal shadowing draw (dB domain), sigma chosen by LOS state."""
    sigma = np.where(los, sigma_los, sigma_nlos)
    return rng.normal(0.0, 1.0, size) * sigma if size is not None else rng.normal(0.0, sigma)


def received_covariance(x, active, links, powers, noise_power=0.0):
    """Covariance of the signal received at node x from the active
    transmitters, each radiating without precoding.

    Z = sum_j P_j g_xj H_xj^H H_xj + noise_power * I, which is Hermitian PSD
    by construction. `links` maps (x.id, j.id) to a (slow_gain_linear, H) pair.
    The sum is one product: with the rows of every H_xj stacked into V and
    each row's P_j g_xj in c, Z = V^H diag(c) V + noise_power * I.
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
def _pair_layout(n):
    """Read-only index tables shared by every drop of n nodes.

    Returns the upper-triangle pair order of the fading draws, then for each
    node its n-1 link partners in id order and the position of each of those
    links in the pair order, then the off-diagonal mask they were cut with.
    """
    iu = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=int)
    pair[iu] = np.arange(len(iu[0]))
    pair += pair.T
    off_diagonal = ~np.eye(n, dtype=bool)
    node_pairs = pair[off_diagonal].reshape(n, n - 1)
    partners = np.nonzero(off_diagonal)[1].reshape(n, n - 1)
    for table in (*iu, node_pairs, partners, off_diagonal):
        table.flags.writeable = False
    return iu, node_pairs, partners, off_diagonal


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

    `resample` makes every random draw of the snapshot and keeps the draws;
    only the per-node factors of the array links are computed there. A
    scalar coefficient is computed on first read, together with every other
    link of its transmitter, and an array-link vector on the first read of
    its row; both are cached until the next `resample`. Each transform is a
    numpy operation on a slice of the draws, so every value is bit for bit
    the one a transform of all pairs at once would give.
    """

    def __init__(self, nodes, config, rng):
        self.n = len(nodes)
        self.k_factor_db = (config.k_factor_mean_db, config.k_factor_std_db)
        antennas = np.array([nd.num_antennas for nd in nodes])
        multi = np.flatnonzero(antennas > 1)
        if len(multi) > 1:
            raise ValueError("at most one multi-antenna node is supported per drop")
        self.array_node = int(multi[0]) if len(multi) else None
        self.array_size = int(antennas[multi[0]]) if len(multi) else 0

        pos = np.array([nd.position for nd in nodes])
        diff = pos[:, None, :] - pos[None, :, :]
        self.dist = np.sqrt(np.sum(diff**2, axis=2))
        self._iu, self._node_pairs, self._partners, off_diagonal = _pair_layout(self.n)
        n_pairs = len(self._iu[0])

        d_pairs = self.dist[self._iu]
        los_pairs = rng.random(n_pairs) < los_probability(d_pairs)
        shadow_pairs = shadowing_db(los_pairs, rng, n_pairs, config.shadowing_sigma_los_db, config.shadowing_sigma_nlos_db)
        los_coef = (config.pl_los_intercept, config.pl_los_slope)
        nlos_coef = (config.pl_nlos_intercept, config.pl_nlos_slope)
        pl_pairs = path_loss_db(d_pairs, los_pairs, config.carrier_ghz, los_coef, nlos_coef)

        self.los = np.zeros((self.n, self.n), dtype=bool)
        self.los[self._iu] = los_pairs
        self.los |= self.los.T
        slow_db = np.zeros((self.n, self.n))
        slow_db[self._iu] = -(pl_pairs + shadow_pairs)
        slow_db += slow_db.T
        self.slow_gain_db = slow_db
        self.slow_gain = db_to_linear(slow_db)
        np.fill_diagonal(self.slow_gain, 0.0)

        n = self.n
        self._node_los = self.los[off_diagonal].reshape(n, n - 1)  # LOS state of each _partners link
        self._pair_draws = np.empty((4, n_pairs))  # K-factor dB, Rayleigh re, im, LOS phase
        self._h = np.zeros((n, n), dtype=complex)  # row and column j valid once node j is filled
        self._h_ready = np.zeros(n, dtype=bool)

        if self.array_node is not None:
            m = self.array_size
            side = math.isqrt(m)
            if side * side == m:
                rows, cols = np.divmod(np.arange(m), side)
            else:
                rows, cols = np.arange(m), np.zeros(m)
            self._ant_rows, self._ant_cols = rows.astype(float), cols.astype(float)
            self._node_terms = np.empty((5, n))  # kx, ky, psi, LOS mix, Rayleigh mix
            self._ray_rows = np.empty((2, n, m))
            self._rows = np.zeros((n, m), dtype=complex)
            self._row_ready = np.zeros(n, dtype=bool)

    def resample(self, rng):
        """Start a block-fading snapshot: make every fast-fading draw of every
        pair; links are transformed on their first read."""
        n = self.n
        n_pairs = len(self._iu[0])
        draws = self._pair_draws
        draws[0] = rng.normal(*self.k_factor_db, n_pairs)
        rng.standard_normal(out=draws[1])
        rng.standard_normal(out=draws[2])
        draws[3] = rng.uniform(0.0, 2.0 * np.pi, n_pairs)
        self._h_ready[:] = False

        if self.array_node is not None:
            x, terms = self.array_node, self._node_terms
            k_db_x = rng.normal(*self.k_factor_db, n)
            k_x = np.where(self.los[x], db_to_linear(k_db_x), 0.0)
            az = rng.uniform(0.0, 2.0 * np.pi, n)
            cos_el = rng.uniform(-1.0, 1.0, n)
            terms[2] = rng.uniform(0.0, 2.0 * np.pi, n)
            sin_el = np.sqrt(1.0 - cos_el**2)
            np.multiply(np.pi * sin_el, np.cos(az), out=terms[0])
            np.multiply(np.pi * sin_el, np.sin(az), out=terms[1])
            rng.standard_normal(out=self._ray_rows[0])
            rng.standard_normal(out=self._ray_rows[1])
            np.sqrt(k_x / (k_x + 1.0), out=terms[3])
            np.sqrt(1.0 / (k_x + 1.0), out=terms[4])
            self._row_ready[:] = False
            self._row_ready[x] = True  # the array's own row stays zero

    def _fill_scalar(self, tx):
        """Compute the scalar coefficients h[tx, k] of node tx's n-1 links."""
        k_db, re, im, phase = self._pair_draws[:, self._node_pairs[tx]]
        k_lin = np.where(self._node_los[tx], db_to_linear(k_db), 0.0)
        k_plus_1 = k_lin + 1.0
        ray = (re + 1j * im) / math.sqrt(2.0)
        h_row = np.sqrt(k_lin / k_plus_1) * np.exp(1j * phase) + np.sqrt(1.0 / k_plus_1) * ray
        # A pair's draw is the coefficient seen by its lower-numbered node;
        # the first tx partners (ids 0..tx-1) are the lower ones.
        np.conjugate(h_row[:tx], out=h_row[:tx])
        partners = self._partners[tx]
        self._h[tx, partners] = h_row
        self._h[partners, tx] = h_row.conj()
        self._h_ready[tx] = True

    def _fill_rows(self, ids):
        """Compute the array-link vectors of the nodes in `ids`."""
        kx, ky, psi, mix_los, mix_ray = self._node_terms[:, ids, None]
        re, im = self._ray_rows[:, ids]
        steer = np.exp(1j * (kx * self._ant_rows + ky * self._ant_cols + psi))
        self._rows[ids] = mix_los * steer + mix_ray * ((re + 1j * im) / math.sqrt(2.0))
        self._row_ready[ids] = True

    def scalar_h(self, rx, tx):
        """Fading coefficient of the (rx, tx) link between single-antenna nodes."""
        if not (self._h_ready[tx] or self._h_ready[rx]):
            self._fill_scalar(tx)
        return self._h[rx, tx]

    def array_rows(self, ids):
        """Array-link vectors v_j, one row per node id in `ids`, shape (len(ids), M)."""
        ids = np.asarray(ids, dtype=int)
        todo = ids[~self._row_ready[ids]]
        if todo.size:
            self._fill_rows(todo)
        return self._rows[ids]

    def _row(self, j):
        """Array-link vector of node j, a view that the next snapshot overwrites."""
        if not self._row_ready[j]:
            self._fill_rows([j])
        return self._rows[j]

    def link_h(self, rx, tx):
        """Fading matrix of shape (M_tx, M_rx) for the (rx, tx) link."""
        x = self.array_node
        if tx == x:
            return self._row(rx)[:, None]
        if rx == x:
            return self._row(tx)[None, :].conj()
        return np.array([[self.scalar_h(rx, tx)]])

    def emission_factor(self, rx, tx, w=None):
        """|H^H W|^2 summed over streams and receive antennas (fading only).

        `w` is the transmitter's precoding matrix; scalar transmitters use 1.
        For the array node receiving, this is the total power over its whole
        aperture (callers average per antenna for CCA statistics).
        """
        x = self.array_node
        if tx == x:
            amps = self._row(rx).conj() @ w
            return np.vdot(amps, amps).real
        if rx == x:
            row = self._row(tx)
            factor = np.vdot(row, row).real
        else:
            factor = abs(self.scalar_h(rx, tx)) ** 2
        return factor if w is None else factor * np.vdot(w, w).real
