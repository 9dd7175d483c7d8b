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
    """
    m = x.num_antennas
    z = noise_power * np.eye(m, dtype=complex)
    for j in active:
        if j.id == x.id:
            continue
        g, h = links[(x.id, j.id)]
        if h.shape[1] != m:
            raise ValueError(f"channel to node {j.id} does not match {m} receive antennas")
        a = h.conj().T
        z += (powers[j.id] * g) * (a @ a.conj().T)
    return (z + z.conj().T) / 2.0


class ChannelTable:
    """Per-drop channel state for all node pairs.

    Slow quantities (LOS state, path loss, shadowing) are drawn once at
    construction; `resample` redraws the fast fading for a new block-fading
    snapshot. At most one node may carry more than one antenna: scalar links
    live in a Hermitian coefficient matrix, and each array-node link keeps a
    length-M vector v_j with the convention that the amplitude at j for
    precoder column w is v_j^H w and the signal received by the array from j
    is proportional to v_j. Path-loss, shadowing, K-factor and carrier
    parameters are read from the scenario configuration.
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
        self._iu = np.triu_indices(self.n, 1)
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

        self.h = None  # scalar fading coefficients, Hermitian
        self.array_vec = None  # (n, M) link vectors of the array node

    def resample(self, rng):
        """Redraw the fast fading for every pair (one block-fading snapshot)."""
        n, iu = self.n, self._iu
        n_pairs = len(iu[0])
        los_pairs = self.los[iu]

        k_db = rng.normal(*self.k_factor_db, n_pairs)
        k_lin = np.where(los_pairs, db_to_linear(k_db), 0.0)
        ray = (rng.standard_normal(n_pairs) + 1j * rng.standard_normal(n_pairs)) / math.sqrt(2.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_pairs))
        h_pairs = np.sqrt(k_lin / (k_lin + 1.0)) * phase + np.sqrt(1.0 / (k_lin + 1.0)) * ray

        h = np.zeros((n, n), dtype=complex)
        h[iu] = h_pairs
        self.h = h + h.conj().T

        if self.array_node is not None:
            x, m = self.array_node, self.array_size
            k_db_x = rng.normal(*self.k_factor_db, n)
            k_x = np.where(self.los[x], db_to_linear(k_db_x), 0.0)
            az = rng.uniform(0.0, 2.0 * np.pi, n)
            cos_el = rng.uniform(-1.0, 1.0, n)
            psi = rng.uniform(0.0, 2.0 * np.pi, n)
            sin_el = np.sqrt(1.0 - cos_el**2)
            kx = np.pi * sin_el * np.cos(az)
            ky = np.pi * sin_el * np.sin(az)
            side = math.isqrt(m)
            if side * side == m:
                rows, cols = np.divmod(np.arange(m), side)
            else:
                rows, cols = np.arange(m), np.zeros(m)
            steer = np.exp(1j * (np.outer(kx, rows) + np.outer(ky, cols) + psi[:, None]))
            ray_x = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
            mix_los = np.sqrt(k_x / (k_x + 1.0))[:, None]
            mix_ray = np.sqrt(1.0 / (k_x + 1.0))[:, None]
            self.array_vec = mix_los * steer + mix_ray * ray_x
            self.array_vec[x][:] = 0.0

    def link_h(self, rx, tx):
        """Fading matrix of shape (M_tx, M_rx) for the (rx, tx) link."""
        x = self.array_node
        if tx == x:
            return self.array_vec[rx][:, None]
        if rx == x:
            return self.array_vec[tx][None, :].conj()
        return np.array([[self.h[rx, tx]]])

    def emission_factor(self, rx, tx, w=None):
        """|H^H W|^2 summed over streams and receive antennas (fading only).

        `w` is the transmitter's precoding matrix; scalar transmitters use 1.
        For the array node receiving, this is the total power over its whole
        aperture (callers average per antenna for CCA statistics).
        """
        x = self.array_node
        if tx == x:
            amps = self.array_vec[rx].conj() @ w
            return float(np.sum(np.abs(amps) ** 2))
        factor = float(np.sum(np.abs(self.array_vec[tx]) ** 2)) if rx == x else abs(self.h[rx, tx]) ** 2
        return factor if w is None else factor * float(np.sum(np.abs(w) ** 2))
