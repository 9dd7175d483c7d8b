"""Monte-Carlo driver: drop initialization, the per-round contention and
transmission pipeline, and metric accumulation across drops."""

from dataclasses import dataclass, field

import numpy as np

from . import beamforming, mac, phy
from .blas import single_blas_thread
from .channel import ChannelTable, received_covariance
from .errors import SingularChannelError
from .geometry import ROLE_AP, associate, generate_drop, validate_coverage
from .results import DropResult, ResultSet
from .units import db_to_linear, dbm_to_mw

CENTRAL_AP = 1
_MAX_REDRAWS = 10_000


@dataclass
class RoundOutcome:
    attempts: list
    active_ids: tuple
    scheduled: dict  # ap_id -> tuple of sta_ids
    user_sinr_db: dict  # sta_id -> float
    user_rate_bps: dict  # sta_id -> float


@dataclass
class DropState:
    config: object
    nodes: list
    plan: object
    assoc: object
    table: ChannelTable
    sched: mac.SchedulerState
    rng: np.random.Generator
    noise_sta_mw: float
    noise_ap_mw: float
    rate_table: phy.RateTable = phy.RateTable()
    # accumulators
    ap_attempts: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=int))
    ap_grants: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=int))
    sinr_db: list = field(default_factory=list)
    rate_sum: dict = field(default_factory=dict)

    @property
    def aps(self):
        return self.nodes[:3]

    @property
    def stas(self):
        return self.nodes[3:]


class RoundMedium:
    """What each contender hears this round, updated as grants accumulate.

    Tracks the transmitters admitted so far with their powers and precoders;
    CCA statistics are per-receive-antenna averages so one regulatory
    threshold applies to every aperture size. Activating an AP schedules its
    users and freezes its precoder, so later contenders sense the actual
    radiated signal (including any radiation nulls). `phase` is the nulling
    AP's LBT/eLBT phase this round in scenario C, and None otherwise.
    """

    def __init__(self, drop, traffic, phase):
        self.drop = drop
        self.cfg = drop.config
        self.traffic = traffic
        self.phase = phase
        self.gamma_lbt = float(dbm_to_mw(self.cfg.gamma_lbt_dbm))
        self.gamma_preamble = float(dbm_to_mw(self.cfg.gamma_preamble_dbm))
        self.preamble_min_sinr = float(db_to_linear(self.cfg.preamble_min_sinr_db))
        self.active = []
        self.powers = {}
        self.precoders = {}
        self.scheduled = {}
        self.null_counts = {}
        self.start_slot = {}  # node_id -> backoff slot where its frame began
        self._subspace = None

    # ---- sensing -----------------------------------------------------------

    def _node(self, node_id):
        return self.drop.nodes[node_id]

    def access_mode(self, ap_id):
        """eLBT for the nulling AP in its eLBT phase, plain LBT otherwise."""
        return mac.MODE_ELBT if ap_id == CENTRAL_AP and self.phase == mac.MODE_ELBT else mac.MODE_LBT

    def partition_phase(self, ap_id):
        """The phase whose user partition filters this AP's DL candidates, or None."""
        return self.phase if ap_id == CENTRAL_AP and self.cfg.partition_enabled else None

    def busy_receiving(self, node_id):
        """An AP whose own-cell STA already won an UL grant is mid-reception
        and does not perform CCA this round (no access attempt)."""
        if self._node(node_id).role != ROLE_AP or not self.cfg.ap_busy_rx_withdraws:
            return False
        own = self.drop.sched.served[node_id]
        return any(t in own for t in self.active)

    def _source_power(self, rx_id, tx_id):
        table = self.drop.table
        w = self.precoders[tx_id].W
        e = table.emission_factor(rx_id, tx_id, w)
        return self.powers[tx_id] * table.slow_gain[rx_id, tx_id] * e / self._node(rx_id).num_antennas

    def _noise(self, node_id):
        return self.drop.noise_ap_mw if self._node(node_id).role == ROLE_AP else self.drop.noise_sta_mw

    def _preamble_visible(self, tx_id, cca_slot):
        """A preamble is catchable only if the frame started within the last
        few backoff slots; older transmissions are mid-frame."""
        return cca_slot - self.start_slot[tx_id] <= self.cfg.preamble_window_slots

    def sensed_rx(self, rx_id, cca_slot):
        """LBT sensing: the full received signal (see `_cca_statistics`)."""
        sources = [self._source_power(rx_id, t) for t in self.active]
        return self._cca_statistics(sources, self._noise(rx_id), cca_slot)

    def residual_rx(self, x_id, cca_slot):
        """eLBT sensing: the same statistics after filtering out the dominant
        covariance directions, which also removes their share of the noise."""
        sub = self._covariance_subspace(x_id)
        table = self.drop.table
        m = self._node(x_id).num_antennas
        sources = [
            self.powers[t] * table.slow_gain[x_id, t] * beamforming.residual_power(sub, table.array_vec[t]) / m
            for t in self.active
        ]
        return self._cca_statistics(sources, self._noise(x_id) * sub.complement.shape[1] / m, cca_slot)

    def _cca_statistics(self, sources, noise, cca_slot):
        """Total per-antenna received power plus the (power, SINR) list of the
        sources whose preamble is still catchable at this CCA instant."""
        total = sum(sources) + noise
        per_source = [
            (p, p / (total - p))
            for p, t in zip(sources, self.active)
            if self._preamble_visible(t, cca_slot)
        ]
        return total, per_source

    def _covariance_scope(self, x_id):
        """Transmitters whose directions the covariance estimate may capture."""
        own_cell = set(self.drop.sched.served[x_id])
        if self.cfg.covariance_includes_own_cell:
            own_cell = set()
        if self.cfg.covariance_scope == "persistent":
            ids = [nd.id for nd in self.drop.nodes if nd.id != x_id and nd.id not in own_cell]
            powers = {nd_id: float(dbm_to_mw(self._node(nd_id).max_power_dbm)) for nd_id in ids}
        else:
            ids = [t for t in self.active if t not in own_cell]
            powers = {t: self.powers[t] for t in ids}
        return ids, powers

    def _covariance_subspace(self, x_id):
        if self._subspace is not None:
            return self._subspace
        table = self.drop.table
        x_node = self._node(x_id)
        ids, powers = self._covariance_scope(x_id)
        links = {(x_id, t): (table.slow_gain[x_id, t], table.link_h(x_id, t)) for t in ids}
        z = received_covariance(
            x_node,
            [self._node(t) for t in ids],
            links,
            powers,
            noise_power=self._noise(x_id),
        )
        sub = beamforming.dominant_subspace(z, self.cfg.n_nulls)
        if self.cfg.null_cap_by_energy:
            sub.n_dominant = min(sub.n_dominant, int(np.sum(sub.eigenvalues > 3.0 * self._noise(x_id))))
        self._subspace = sub
        return sub

    # ---- admission ---------------------------------------------------------

    def activate(self, node_id, cca_slot=0):
        node = self._node(node_id)
        if node.role != ROLE_AP:
            self.powers[node_id] = float(dbm_to_mw(node.max_power_dbm))
            self.precoders[node_id] = beamforming.PrecoderSet(W=np.ones((1, 1), dtype=complex))
            self.active.append(node_id)
            self.start_slot[node_id] = cca_slot
            return True
        if self._activate_ap(node):
            self.start_slot[node_id] = cca_slot
            return True
        return False

    def _activate_ap(self, ap):
        n_nulls, u_null = 0, None
        if self.access_mode(ap.id) == mac.MODE_ELBT:
            sub = self._covariance_subspace(ap.id)
            u_null, n_nulls = sub.dominant, sub.n_dominant
        users = mac.schedule(ap.id, self.traffic, self.drop.sched, self.partition_phase(ap.id))
        if not users:
            return False
        precoder = self._build_precoder(ap, users, u_null)
        if precoder is None:
            return False  # rank-deficient even after dropping users: grant voided
        k = precoder.W.shape[1]
        self.powers[ap.id] = float(dbm_to_mw(phy.tx_power(ap.max_power_dbm, ap.num_antennas, n_nulls, k)))
        self.precoders[ap.id] = precoder
        self.scheduled[ap.id] = tuple(precoder.user_map)
        self.null_counts[ap.id] = n_nulls
        self.active.append(ap.id)
        return True

    def _build_precoder(self, ap, users, u_null):
        table = self.drop.table
        if ap.num_antennas == 1:
            user = users[0]
            return beamforming.matched_filter(np.array([table.h[user, ap.id]]), user=user)
        users = list(users)
        while users:
            h_users = np.column_stack([table.array_vec[u] for u in users])
            try:
                if u_null is not None and u_null.shape[1] > 0:
                    return beamforming.zf_with_nulls(h_users, u_null, user_map=users)
                return beamforming.zf_precoder(h_users, user_map=users)
            except SingularChannelError:
                if len(users) == 1:
                    return None
                users.pop(_weakest_column(h_users, u_null))
        return None


def _weakest_column(h_users, u_null):
    """Index of the user column with the smallest residual after
    orthogonalization against the other columns (users and nulls)."""
    k = h_users.shape[1]
    residuals = []
    for i in range(k):
        others = np.delete(h_users, i, axis=1)
        if u_null is not None and u_null.shape[1] > 0:
            others = np.concatenate([others, u_null], axis=1)
        q, _ = np.linalg.qr(others)
        col = h_users[:, i]
        residuals.append(np.linalg.norm(col - q @ (q.conj().T @ col)))
    return int(np.argmin(residuals))


def init_drop(config, seed):
    """Build one deployment realization with its slow-fading state."""
    rng = np.random.default_rng(seed)
    for _ in range(1 + _MAX_REDRAWS):
        plan, nodes = generate_drop(config, rng)
        table = ChannelTable(nodes, config, rng)
        aps, stas = nodes[:3], nodes[3:]
        gains_db = {(s.id, a.id): table.slow_gain_db[s.id, a.id] for s in stas for a in aps}
        assoc = associate(stas, aps, gains_db)
        powers_dbm = {a.id: a.max_power_dbm for a in aps}
        if not config.redraw_uncovered or validate_coverage(assoc, gains_db, powers_dbm, config.min_rss_dbm):
            break
    else:
        raise RuntimeError("could not draw a deployment meeting the coverage floor")

    noise_sta = phy.noise_power(config.bandwidth_hz, config.sta_noise_figure_db, config.noise_psd_dbm_hz)
    noise_ap = phy.noise_power(config.bandwidth_hz, config.ap_noise_figure_db, config.noise_psd_dbm_hz)

    k_max = {a.id: 1 for a in aps}
    if config.scenario in ("B", "C"):
        k_max[CENTRAL_AP] = config.max_streams
    sched = mac.SchedulerState(served=dict(assoc.served), k_max=k_max)
    if config.scenario == "C":
        powers_mw = {a.id: float(dbm_to_mw(a.max_power_dbm)) for a in aps}
        gains_lin = {(s.id, a.id): table.slow_gain[s.id, a.id] for s in stas for a in aps}
        betas = {
            s: mac.vulnerability_metric(s, CENTRAL_AP, list(powers_mw), gains_lin, powers_mw, noise_sta)
            for s in assoc.served[CENTRAL_AP]
        }
        sched.elbt_set, sched.lbt_set = mac.partition_by_vulnerability(betas, config.elbt_fraction)

    return DropState(
        config=config,
        nodes=nodes,
        plan=plan,
        assoc=assoc,
        table=table,
        sched=sched,
        rng=rng,
        noise_sta_mw=noise_sta,
        noise_ap_mw=noise_ap,
        rate_table=phy.RateTable(config.rate_table),
    )


def run_round(drop, round_index):
    """One contention-plus-transmission snapshot within a drop."""
    cfg = drop.config
    rng = drop.rng
    drop.table.resample(rng)
    traffic = mac.draw_traffic(drop.stas, cfg.p_tr, rng, cfg.ul_fraction)
    phase = mac.phase_pattern(round_index, cfg.elbt_fraction, cfg.pattern_period) if cfg.scenario == "C" else None
    medium = RoundMedium(drop, traffic, phase)

    contenders = [
        (ap.id, medium.access_mode(ap.id))
        for ap in drop.aps
        if mac.dl_candidates(ap.id, traffic, drop.sched, medium.partition_phase(ap.id))
    ]
    for ap in drop.aps:
        ul_sta = mac.select_ul_sta(ap.id, traffic, drop.sched)
        if ul_sta is not None:
            contenders.append((ul_sta, mac.MODE_LBT))

    attempts = mac.contend(contenders, medium, rng, cfg.cw_slots)

    user_sinr_db = {}
    user_rate = {}
    active = tuple(medium.active)
    for ap_id, users in medium.scheduled.items():
        links = {}
        for u in users:
            for t in active:
                links[(u, t)] = (drop.table.slow_gain[u, t], drop.table.link_h(u, t))
        for u in users:
            sinr = phy.compute_sinr(u, ap_id, active, links, medium.powers, medium.precoders, drop.noise_sta_mw)
            sinr_db = 10.0 * np.log10(sinr)
            user_sinr_db[u] = float(sinr_db)
            user_rate[u] = phy.map_rate(sinr_db, drop.rate_table)

    for att in attempts:
        if drop.nodes[att.node_id].role == ROLE_AP:
            drop.ap_attempts[att.node_id] += 1
            drop.ap_grants[att.node_id] += int(att.granted)
    drop.sinr_db.extend(user_sinr_db.values())
    for u, r in user_rate.items():
        drop.rate_sum[u] = drop.rate_sum.get(u, 0.0) + r

    return RoundOutcome(
        attempts=attempts,
        active_ids=active,
        scheduled=dict(medium.scheduled),
        user_sinr_db=user_sinr_db,
        user_rate_bps=user_rate,
    )


def run_drop(config, seed):
    drop = init_drop(config, seed)
    for r in range(config.n_rounds):
        run_round(drop, r)
    scale = config.dl_airtime_fraction / config.n_rounds if config.n_rounds else 0.0
    throughput = {s.id: drop.rate_sum.get(s.id, 0.0) * scale for s in drop.stas}
    return DropResult(
        ap_attempts=tuple(int(v) for v in drop.ap_attempts),
        ap_grants=tuple(int(v) for v in drop.ap_grants),
        sinr_db=np.asarray(drop.sinr_db, dtype=float),
        user_throughput_bps=throughput,
        sum_throughput_bps=float(sum(throughput.values())),
    )


def run_simulation(config):
    """n_drops independent deployments, n_rounds snapshots each.

    Every drop owns an independent child RNG stream spawned from the run
    seed, so results are reproducible and drops could execute in any order.
    The drops run on one OpenBLAS thread; the caller's count is restored.
    """
    config.validate()
    root = np.random.SeedSequence(config.seed)
    with single_blas_thread():
        drops = [run_drop(config, seq) for seq in root.spawn(config.n_drops)]
    return ResultSet(config=config, drops=drops)
