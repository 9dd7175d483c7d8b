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

import cmath
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
    log_d = np.log10(d)
    pl_los = los_coef[0] + los_coef[1] * log_d + f_term
    pl_nlos = np.maximum(nlos_coef[0] + nlos_coef[1] * log_d + f_term, pl_los)
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
def _upper_pairs(n):
    """Row and column indices of the n(n-1)/2 node pairs (i < j), read-only."""
    iu = np.triu_indices(n, 1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


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

    `resample` makes no random draw: it keeps the drop's generator and clears
    the snapshot. A link's fading is drawn from that generator on its first
    read in the snapshot and cached until the next `resample`: a scalar pair
    with `standard_normal(3)` (K-factor, Rayleigh re and im) then `random()`
    (LOS phase), a batch of n array rows with `standard_normal((n, 2M + 1))`
    (per row M Rayleigh (re, im) pairs, then the K-factor) then
    `random((3, n))` (azimuth, cos elevation, LOS phase). Every link is i.i.d.
    Ricean whatever the read order, but which values a link gets depends on
    that order.
    """

    def __init__(self, nodes, config, rng):
        self.n = len(nodes)
        self.k_factor_db = (config.k_factor_mean_db, config.k_factor_std_db)
        multi = [k for k, nd in enumerate(nodes) if nd.num_antennas > 1]
        if len(multi) > 1:
            raise ValueError("at most one multi-antenna node is supported per drop")
        self.array_node = multi[0] if multi else None
        self.array_size = nodes[multi[0]].num_antennas if multi else 0

        iu = _upper_pairs(self.n)
        n_pairs = len(iu[0])
        xyz = np.array(list(zip(*(nd.position for nd in nodes))))  # one row per coordinate
        sq = xyz[:, iu[0]] - xyz[:, iu[1]]
        sq *= sq
        d_pairs = np.sqrt(sq[0] + sq[1] + sq[2])

        los_pairs = rng.random(n_pairs) < los_probability(d_pairs)
        shadow_pairs = shadowing_db(los_pairs, rng, n_pairs, config.shadowing_sigma_los_db, config.shadowing_sigma_nlos_db)
        los_coef = (config.pl_los_intercept, config.pl_los_slope)
        nlos_coef = (config.pl_nlos_intercept, config.pl_nlos_slope)
        pl_pairs = path_loss_db(d_pairs, los_pairs, config.carrier_ghz, los_coef, nlos_coef)

        self.los = np.zeros((self.n, self.n), dtype=bool)
        self.los[iu] = los_pairs
        self.los |= self.los.T
        slow_db = np.zeros((self.n, self.n))
        slow_db[iu] = -(pl_pairs + shadow_pairs)
        slow_db += slow_db.T
        self.slow_gain_db = slow_db
        self.slow_gain = db_to_linear(slow_db)
        np.fill_diagonal(self.slow_gain, 0.0)

        self._rng = None
        self._pairs = {}  # (low id, high id) -> coefficient seen by the low id
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

    def resample(self, rng):
        """Start a block-fading snapshot whose links draw from `rng` on first read."""
        self._rng = rng
        self._pairs.clear()
        if self.array_node is not None:
            self._row_ready = [False] * self.n
            self._row_ready[self.array_node] = True

    def _ricean(self, k_draw, los):
        """Amplitudes of the LOS term and of each Rayleigh component of a
        unit-power Ricean coefficient, its K-factor in dB being the standard
        normal `k_draw` mapped onto the configured law; off LOS, K = 0."""
        k = 10.0 ** ((self.k_factor_db[0] + self.k_factor_db[1] * k_draw) / 10.0) if los else 0.0
        return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0)) / math.sqrt(2.0)

    def _draw_pair(self, low, high):
        """Draw the coefficient of the (low, high) scalar link as seen by `low`."""
        k_draw, re, im = self._rng.standard_normal(3).tolist()
        los_amp, ray_amp = self._ricean(k_draw, self.los[low, high])
        return cmath.rect(los_amp, 2.0 * math.pi * self._rng.random()) + ray_amp * complex(re, im)

    def _draw_rows(self, ids):
        """Draw the array-link vectors of the distinct nodes `ids`, in that order.

        The per-node terms are Python floats and only the per-antenna part is
        vectorised: most batches hold one row, where numpy's per-call cost
        would dominate.
        """
        m, x = self.array_size, self.array_node
        z = self._rng.standard_normal((len(ids), 2 * m + 1))
        uniforms = self._rng.random((3, len(ids))).tolist()
        terms = []  # per node: kx, ky, LOS phase psi, LOS and Rayleigh amplitudes
        for los, k_draw, az, cos_el, psi in zip(self.los[x, ids].tolist(), z[:, -1].tolist(), *uniforms):
            az, cos_el = 2.0 * math.pi * az, 2.0 * cos_el - 1.0
            reach = math.pi * math.sqrt(1.0 - cos_el * cos_el)  # pi sin(elevation)
            terms += (reach * math.cos(az), reach * math.sin(az), 2.0 * math.pi * psi, *self._ricean(k_draw, los))
        t = np.array(terms).reshape(len(ids), 5)
        steer = np.exp(1j * (t[:, :3] @ self._grid))
        self._rows[ids] = t[:, 3:4] * steer + t[:, 4:] * z[:, :-1].view(complex)
        for j in ids:
            self._row_ready[j] = True

    def scalar_h(self, rx, tx):
        """Fading coefficient of the (rx, tx) link between single-antenna nodes."""
        key = (rx, tx) if rx < tx else (tx, rx)
        h = self._pairs.get(key)
        if h is None:
            h = self._pairs[key] = self._draw_pair(*key)
        return h if rx < tx else h.conjugate()

    def array_rows(self, ids):
        """Array-link vectors v_j, one row per node id in `ids`, shape (len(ids), M)."""
        todo = [j for j in dict.fromkeys(ids) if not self._row_ready[j]]
        if todo:
            self._draw_rows(todo)
        return self._rows[ids]

    def _row(self, j):
        """Array-link vector of node j, a view that the next snapshot overwrites."""
        if not self._row_ready[j]:
            self._draw_rows([j])
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
