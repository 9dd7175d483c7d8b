"""Monte-Carlo driver: drop initialization, the per-round contention and
transmission pipeline, and the fold of each drop's round outcomes."""

import functools
from dataclasses import dataclass

import numpy as np

from . import beamforming, mac, phy
from .blas import single_blas_thread
from .channel import ChannelTable, received_covariance
from .errors import SingularChannelError
from .geometry import ROLE_AP, associate, generate_drop
from .results import DropResult, ResultSet
from .units import db_to_linear, dbm_to_mw

CENTRAL_AP = 1


@dataclass
class RoundOutcome:
    """Everything a round leaves behind; `run_drop` folds it into the drop's result."""

    attempts: list
    active_ids: tuple
    scheduled: dict  # ap_id -> tuple of sta_ids
    user_sinr_db: dict  # sta_id -> float
    user_rate_bps: dict  # sta_id -> float


@dataclass(frozen=True)
class LinkConstants:
    """Receiver noise, CCA thresholds in linear units, and the rate table."""

    noise_sta_mw: float
    noise_ap_mw: float
    gamma_lbt: float
    gamma_preamble: float
    preamble_min_sinr: float
    rate_table: phy.RateTable


@functools.lru_cache(maxsize=8)
def _link_constants(
    bandwidth_hz, noise_psd_dbm_hz, sta_noise_figure_db, ap_noise_figure_db,
    gamma_lbt_dbm, gamma_preamble_dbm, preamble_min_sinr_db, rate_table,
):
    """The LinkConstants of these configuration values: every drop of a run
    shares one instance instead of converting them again."""
    return LinkConstants(
        noise_sta_mw=phy.noise_power(bandwidth_hz, sta_noise_figure_db, noise_psd_dbm_hz),
        noise_ap_mw=phy.noise_power(bandwidth_hz, ap_noise_figure_db, noise_psd_dbm_hz),
        gamma_lbt=float(dbm_to_mw(gamma_lbt_dbm)),
        gamma_preamble=float(dbm_to_mw(gamma_preamble_dbm)),
        preamble_min_sinr=float(db_to_linear(preamble_min_sinr_db)),
        rate_table=phy.RateTable(rate_table),
    )


@dataclass
class DropState:
    """A drop's inputs and the scheduler's cursors; rounds record nothing here."""

    config: object
    nodes: list
    table: ChannelTable
    sched: mac.SchedulerState
    rng: np.random.Generator
    link: LinkConstants
    max_power_mw: list  # per node id, its maximum power in mW

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
        self.gamma_lbt = drop.link.gamma_lbt
        self.gamma_preamble = drop.link.gamma_preamble
        self.preamble_min_sinr = drop.link.preamble_min_sinr
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
        if self._node(node_id).role != ROLE_AP:
            return False
        own = self.drop.sched.served[node_id]
        return any(t in own for t in self.active)

    def _source_power(self, rx_id, tx_id):
        table = self.drop.table
        w = self.precoders[tx_id].W
        e = table.emission_factor(rx_id, tx_id, w)
        return self.powers[tx_id] * table.slow_gain[rx_id, tx_id] * e / self._node(rx_id).num_antennas

    def _noise(self, node_id):
        link = self.drop.link
        return link.noise_ap_mw if self._node(node_id).role == ROLE_AP else link.noise_sta_mw

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
            self.powers[t] * table.slow_gain[x_id, t] * beamforming.residual_power(sub, v) / m
            for t, v in zip(self.active, table.array_rows(self.active))
        ]
        return self._cca_statistics(sources, self._noise(x_id) * sub.complement.shape[1] / m, cca_slot)

    def _cca_statistics(self, sources, noise, cca_slot):
        """Total per-antenna received power plus the (power, SINR) list of the
        sources whose preamble is still catchable at this CCA instant."""
        total = sum(sources) + noise
        # Each SINR sums the rest directly: total - p rounds to 0 when one
        # source is so strong that the noise beside it is lost.
        per_source = [
            (p, p / (noise + sum(sources[:i]) + sum(sources[i + 1 :])))
            for i, (p, t) in enumerate(zip(sources, self.active))
            if self._preamble_visible(t, cca_slot)
        ]
        return total, per_source

    def _covariance_subspace(self, x_id):
        """Dominant directions of the covariance x estimates over its listening
        window: every node outside x's own cell, each at its maximum power."""
        if self._subspace is not None:
            return self._subspace
        table = self.drop.table
        x_node = self._node(x_id)
        own_cell = set(self.drop.sched.served[x_id])
        ids = [nd.id for nd in self.drop.nodes if nd.id != x_id and nd.id not in own_cell]
        # link_h(x, t) of the array receiving is v_t^H as a (1, M) matrix
        links = {(x_id, t): (table.slow_gain[x_id, t], v[None, :].conj()) for t, v in zip(ids, table.array_rows(ids))}
        z = received_covariance(
            x_node,
            [self._node(t) for t in ids],
            links,
            self.drop.max_power_mw,
            noise_power=self._noise(x_id),
        )
        self._subspace = beamforming.dominant_subspace(z, self.cfg.n_nulls)
        return self._subspace

    # ---- admission ---------------------------------------------------------

    def activate(self, node_id, cca_slot=0):
        node = self._node(node_id)
        if node.role != ROLE_AP:
            self.powers[node_id] = self.drop.max_power_mw[node_id]
            self.precoders[node_id] = beamforming.PrecoderSet(W=np.ones((1, 1), dtype=complex))
            self.active.append(node_id)
            self.start_slot[node_id] = cca_slot
            return True
        if self._activate_ap(node):
            self.start_slot[node_id] = cca_slot
            return True
        return False

    def _activate_ap(self, ap):
        u_null = np.empty((ap.num_antennas, 0), dtype=complex)  # (M, N) null directions
        if self.access_mode(ap.id) == mac.MODE_ELBT:
            u_null = self._covariance_subspace(ap.id).dominant
        n_nulls = u_null.shape[1]
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
            return beamforming.matched_filter(np.array([table.scalar_h(user, ap.id)]), user=user)
        users = list(users)
        while users:
            # one C-ordered column per user: BLAS results can depend on the layout
            h_users = np.ascontiguousarray(table.array_rows(users).T)
            try:
                return beamforming.zf_with_nulls(h_users, u_null, user_map=users)
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
        others = np.concatenate([np.delete(h_users, i, axis=1), u_null], axis=1)
        q, _ = np.linalg.qr(others)
        col = h_users[:, i]
        residuals.append(np.linalg.norm(col - q @ (q.conj().T @ col)))
    return int(np.argmin(residuals))


def init_drop(config, seed):
    """Build one deployment realization with its slow-fading state; association
    and the user partition read the table's (row = STA, column = AP) gains."""
    rng = np.random.default_rng(seed)
    nodes = generate_drop(config, rng)
    table = ChannelTable(nodes, config, rng)
    link = _link_constants(
        config.bandwidth_hz, config.noise_psd_dbm_hz, config.sta_noise_figure_db, config.ap_noise_figure_db,
        config.gamma_lbt_dbm, config.gamma_preamble_dbm, config.preamble_min_sinr_db, config.rate_table,
    )
    level_mw = {p: float(dbm_to_mw(p)) for p in {nd.max_power_dbm for nd in nodes}}  # one per distinct level

    served = {a: [] for a in range(3)}
    for sta_id, a in enumerate(associate(config.ap_max_power_dbm + table.slow_gain_db[3:, :3]).tolist(), start=3):
        served[a].append(sta_id)
    served = {a: tuple(cell) for a, cell in served.items()}
    k_max = {a.id: config.max_streams if a.num_antennas > 1 else 1 for a in nodes[:3]}
    sched = mac.SchedulerState(served=served, k_max=k_max)
    if config.scenario == "C":
        central = list(served[CENTRAL_AP])
        rx_mw = float(dbm_to_mw(config.ap_max_power_dbm)) * table.slow_gain[central, :3]
        betas = dict(zip(central, mac.vulnerability(rx_mw, CENTRAL_AP, link.noise_sta_mw)))
        sched.elbt_set, sched.lbt_set = mac.partition_by_vulnerability(betas, config.elbt_fraction)

    return DropState(
        config=config,
        nodes=nodes,
        table=table,
        sched=sched,
        rng=rng,
        link=link,
        max_power_mw=[level_mw[nd.max_power_dbm] for nd in nodes],
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
            sinr = phy.compute_sinr(u, ap_id, active, links, medium.powers, medium.precoders, drop.link.noise_sta_mw)
            sinr_db = 10.0 * np.log10(sinr)
            user_sinr_db[u] = float(sinr_db)
            user_rate[u] = phy.map_rate(sinr_db, drop.link.rate_table)

    return RoundOutcome(
        attempts=attempts,
        active_ids=active,
        scheduled=dict(medium.scheduled),
        user_sinr_db=user_sinr_db,
        user_rate_bps=user_rate,
    )


def run_drop(config, seed):
    """Run one drop's rounds and fold each RoundOutcome into its DropResult."""
    drop = init_drop(config, seed)
    attempts, grants, sinr_db = [0, 0, 0], [0, 0, 0], []
    rate_sum = {s.id: 0.0 for s in drop.stas}
    for r in range(config.n_rounds):
        out = run_round(drop, r)
        for att in out.attempts:
            if drop.nodes[att.node_id].role == ROLE_AP:
                attempts[att.node_id] += 1
                grants[att.node_id] += int(att.granted)
        sinr_db.extend(out.user_sinr_db.values())
        for u, rate in out.user_rate_bps.items():
            rate_sum[u] += rate
    scale = config.dl_airtime_fraction / config.n_rounds if config.n_rounds else 0.0
    throughput = {s: total * scale for s, total in rate_sum.items()}
    return DropResult(
        ap_attempts=tuple(attempts),
        ap_grants=tuple(grants),
        sinr_db=np.asarray(sinr_db, dtype=float),
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
